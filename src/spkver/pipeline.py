"""End-to-end pipeline stages behind the CLI subcommands.

Every stage reads its inputs from the working directory and writes its
outputs there, so any stage rerun from on-disk state reproduces its prior
outputs byte-for-byte. File layout (all under cfg.workdir; fileio describes
the formats):

    feats_{split}.npz              features: members ids, x (one row per id)
    meta_{split}.meta              utterance labels, in the order of the ids
    inventory.txt                  phrase inventory
    trials_{split}.txt, keys_{split}.txt, enroll_{split}.txt
                                   trial lists, their keys, enrollment maps
    ckpt.npz                       trained extractor: w1, b1, w2, b2, strategy, seed
    emb_{split}.npz                extracted embeddings: members ids, x
    scores_{system}_{split}.txt    trial scores per system
    fusion_weights.txt, metrics.txt, manifest.txt

Splits are train / dev / eval, by disjoint speaker groups of one corpus. A
labelled split travels as (x, metas), with the metadata as columns
row-aligned to x: row i of x is utterance metas.utt_ids[i], and row i of
every other `Metas` column (speaker, phrase, language, transcript) labels
it. `_load_split` checks once that the matrix file lists the metadata's
ids in the same order and keeps no second copy of them.
Trials travel as columns (a `Trials`: trial, model, test utterance and
claimed-phrase ids), keys as (trial ids, labels) and scores as (trial ids,
values): every stage checks once per score or key file that it lists
exactly the split's trial ids in trial-list order (DataFormatError naming
the file and the first id that differs) and then works on float64 vectors
row-aligned to that list.
Scoring and normalization work on whole splits: each backend scores a
split's row-aligned (enroll, test) arrays in one call (NPLDA in one call
per claimed phrase), and AS-norm takes its cohort statistics in one call
per side and language group.
"""

from __future__ import annotations

import functools
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

from . import backend, extractor, fileio, metrics, norm, nplda, synthgen
from .config import ConfigError, PipelineConfig, dump_config
from .core import NumericalError, build_enroll_model, validate_protocol
from .synthgen import RNG_ALGORITHM, Task

SPLITS = ("train", "dev", "eval")
TRIAL_SPLITS = ("dev", "eval")  # the splits with trial lists


def _workpath(cfg: PipelineConfig, name: str) -> Path:
    return Path(cfg.workdir) / name


def _child_seeds(seed: int, n: int) -> list:
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(n)]


# ---------------------------------------------------------------------------
# gen


def cmd_gen(cfg: PipelineConfig) -> List[Path]:
    """Generate the corpus, split it by speakers, and write protocol files."""
    seeds = _child_seeds(cfg.seed, 4)
    corpus = synthgen.gen_corpus(cfg.gen_config(seed=seeds[0]))

    speakers = list(corpus.speaker_ids)
    rng = np.random.default_rng(seeds[1])
    order = [speakers[i] for i in rng.permutation(len(speakers))]
    n_train = max(2, round(cfg.train_fraction * len(order)))
    n_dev = max(2, round(cfg.dev_fraction * len(order)))
    if n_train + n_dev + 2 > len(order):
        raise ConfigError("not enough speakers for a train/dev/eval split")
    groups = {
        "train": order[:n_train],
        "dev": order[n_train : n_train + n_dev],
        "eval": order[n_train + n_dev :],
    }

    # draw both protocols before writing, so a draw that fails leaves no file
    subs = {split: corpus.subset_by_speakers(spk_ids) for split, spk_ids in groups.items()}
    protocols = {}
    for split, n_trials, trial_seed in (("dev", cfg.n_dev_trials, seeds[2]),
                                        ("eval", cfg.n_eval_trials, seeds[3])):
        metas = subs[split].metas
        protocols[split] = protocol = synthgen.gen_trials(
            metas, corpus.inventory, Task(cfg.task), n_trials, trial_seed,
            proportions=list(cfg.proportions) or None, n_enroll=cfg.n_enroll,
        )
        problems = validate_protocol(protocol.trials, protocol.labels, metas, protocol.enroll_map)
        if problems:
            raise RuntimeError(f"generated {split} protocol is inconsistent: {problems[:3]}")

    written: List[Path] = []
    for split, sub in subs.items():
        feats, meta = _workpath(cfg, f"feats_{split}.npz"), _workpath(cfg, f"meta_{split}.meta")
        fileio.write_matrix(feats, sub.metas.utt_ids, sub.x)
        fileio.write_metas(meta, sub.metas)
        written += [feats, meta]
        if split in protocols:
            protocol = protocols[split]
            trials, keys, enroll = (_workpath(cfg, f"{name}_{split}.txt")
                                    for name in ("trials", "keys", "enroll"))
            fileio.write_trials(trials, protocol.trials)
            fileio.write_keys(keys, protocol.trials.ids, protocol.labels)
            fileio.write_enroll_map(enroll, protocol.enroll_map)
            written += [trials, keys, enroll]
    fileio.write_inventory(_workpath(cfg, "inventory.txt"), corpus.inventory)
    written.append(_workpath(cfg, "inventory.txt"))
    return written


def _load_split(cfg: PipelineConfig, split: str, extracted: bool = False):
    """(x, metas) of a split's features, or with `extracted` of its
    embeddings: row i of x is utterance metas.utt_ids[i]. The matrix file
    must list the metadata's ids in the same order (DataFormatError)."""
    path = _workpath(cfg, f"emb_{split}.npz" if extracted else f"feats_{split}.npz")
    ids, x = fileio.read_matrix(path)
    metas = fileio.read_metas(_workpath(cfg, f"meta_{split}.meta"))
    if tuple(ids) != metas.utt_ids:
        raise fileio.DataFormatError(f"{path}: ids differ from those of meta_{split}.meta")
    return x, metas


# ---------------------------------------------------------------------------
# score and key files


def _check_trial_ids(path, ids: list, trial_ids: tuple, split: str) -> None:
    """DataFormatError naming the file and its first differing id unless
    `ids` are the split's trial ids, in trial-list order."""
    if tuple(ids) == trial_ids:
        return
    k = next((i for i, (a, b) in enumerate(zip(ids, trial_ids)) if a != b),
             min(len(ids), len(trial_ids)))
    got = repr(ids[k]) if k < len(ids) else "the end of the file"
    want = repr(trial_ids[k]) if k < len(trial_ids) else "no trial"
    raise fileio.DataFormatError(
        f"{path}:{k + 1}: trial-id mismatch with trials_{split}.txt: {got} where it has {want}")


def _read_scores(cfg: PipelineConfig, system: str, split: str, trial_ids: tuple) -> np.ndarray:
    """A system's scores of a split, row-aligned to the split's trial ids."""
    path = _workpath(cfg, f"scores_{system}_{split}.txt")
    ids, values = fileio.read_scores(path)
    _check_trial_ids(path, ids, trial_ids, split)
    return values


def _target_mask(cfg: PipelineConfig, split: str, trial_ids: tuple) -> np.ndarray:
    """Which of the split's trials are targets, from its keys."""
    path = _workpath(cfg, f"keys_{split}.txt")
    ids, labels = fileio.read_keys(path)
    _check_trial_ids(path, ids, trial_ids, split)
    return np.fromiter((label.is_target for label in labels), dtype=bool, count=len(labels))


# ---------------------------------------------------------------------------
# train / extract


def cmd_train(cfg: PipelineConfig) -> List[Path]:
    """Train the embedding network on the train split."""
    feats, metas = _load_split(cfg, "train")
    inventory = fileio.read_inventory(_workpath(cfg, "inventory.txt"))
    seeds = _child_seeds(cfg.seed, 6)
    net = extractor.Extractor.init(cfg.dim, cfg.hidden_dim, cfg.emb_dim, seed=seeds[4])
    result = extractor.train(net, feats, metas, inventory, cfg.train_config(seed=seeds[5]))
    path = _workpath(cfg, "ckpt.npz")
    fileio.write_checkpoint(path, result.extractor, cfg.strategy, cfg.seed)
    return [path]


def cmd_extract(cfg: PipelineConfig) -> List[Path]:
    """Map every split's features through the trained network."""
    net, _, _ = fileio.read_checkpoint(_workpath(cfg, "ckpt.npz"))
    written = []
    for split in SPLITS:
        ids, feats = fileio.read_matrix(_workpath(cfg, f"feats_{split}.npz"))
        path = _workpath(cfg, f"emb_{split}.npz")
        fileio.write_matrix(path, ids, extractor.extract_embeddings(net, feats))
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# scoring


def _pair_vectors(ids, x, enroll_map, trials):
    """Row-aligned (N, D) enroll centroids and test vectors of the trials,
    from the rows of x (one per id)."""
    row_of = {u: i for i, u in enumerate(ids)}
    centroids = {
        model_id: build_enroll_model(model_id, x[[row_of[u] for u in utt_ids]])
        for model_id, utt_ids in enroll_map.items()
    }
    enroll = np.stack([centroids[m] for m in trials.model_ids])
    test = x[[row_of[u] for u in trials.test_ids]]
    return enroll, test


def _trial_vectors(cfg: PipelineConfig, split: str):
    """A split's trials with their row-aligned (N, D) enroll and test vectors.

    A model the trials name but the enroll map lacks, or an utterance the
    enroll map or trials name but the embeddings lack, raises
    DataFormatError naming the file that lacks it and the id.
    """
    emb_path = _workpath(cfg, f"emb_{split}.npz")
    enroll_path = _workpath(cfg, f"enroll_{split}.txt")
    ids, x = fileio.read_matrix(emb_path)
    trials = fileio.read_trials(_workpath(cfg, f"trials_{split}.txt"))
    enroll_map = fileio.read_enroll_map(enroll_path)
    known = set(ids)
    for trial_id, model_id, test_id in zip(trials.ids, trials.model_ids, trials.test_ids):
        if model_id not in enroll_map:
            raise fileio.DataFormatError(
                f"{enroll_path}: no enrollment for model {model_id!r} of trial {trial_id}")
        if test_id not in known:
            raise fileio.DataFormatError(
                f"{emb_path}: no embedding for test utterance {test_id!r}")
    for model_id, utt_ids in enroll_map.items():
        missing = [u for u in utt_ids if u not in known]
        if missing:
            raise fileio.DataFormatError(
                f"{emb_path}: no embedding for utterance {missing[0]!r} enrolling {model_id!r}")
    enroll, test = _pair_vectors(ids, x, enroll_map, trials)
    return trials, enroll, test


def _train_backend_scorers(cfg: PipelineConfig) -> Dict[str, Callable]:
    """One trial scorer per configured backend: (trials_path, trials, enroll,
    test) -> scores, for the Trials read from trials_path and their
    row-aligned (N, D) enroll and test vectors."""
    scorers: Dict[str, Callable] = {"cosine": lambda path, trials, e, t: backend.cosine_score(e, t)}
    if not ({"plda", "nplda"} & set(cfg.backends)):
        return scorers
    x, metas = _load_split(cfg, "train", extracted=True)
    if "plda" in cfg.backends:
        plda_model, _ = backend.plda_em_train(x, metas.speakers, iters=cfg.plda_iters)
        plda_scorer = backend.PldaScorer.from_model(plda_model)
        scorers["plda"] = lambda path, trials, e, t: plda_scorer.score(e, t)
    if "nplda" in cfg.backends:
        params_by_phrase = _train_nplda_bank(cfg, x, metas)
        scorers["nplda"] = functools.partial(_score_by_claimed_phrase, params_by_phrase)
    return scorers


def _score_by_claimed_phrase(params_by_phrase, trials_path, trials, e, t) -> np.ndarray:
    """NPLDA scores, one nplda_score call per claimed phrase; DataFormatError
    naming the trials file for a trial that claims a phrase without a model."""
    phrases = np.asarray(trials.claimed, dtype=object)
    scores = np.empty(len(phrases))
    for phrase in dict.fromkeys(trials.claimed):
        params = params_by_phrase.get(phrase)
        if params is None:
            trial_id = trials.ids[trials.claimed.index(phrase)]
            raise fileio.DataFormatError(
                f"{trials_path}: trial {trial_id} claims phrase {phrase!r}, "
                "which has no NPLDA model")
        rows = phrases == phrase
        scores[rows] = nplda.nplda_score(params, e[rows], t[rows])
    return scores


def _train_nplda_bank(cfg: PipelineConfig, x, metas) -> Dict[str, backend.PldaScorer]:
    """Per-phrase NPLDA bank, one form per train phrase in first-appearance
    order: PLDA EM on that phrase's rows gives the generative form, which
    same-phrase cost training then fine-tunes. A phrase with too little data
    for PLDA raises DataFormatError naming meta_train.meta and the phrase; a
    NumericalError names the phrase. Every phrase's PLDA is trained before
    the training pairs are drawn: their draw fails first on such a phrase,
    without naming it."""
    spk = np.asarray(metas.speakers)
    phr = np.asarray(metas.phrases)
    bank = {}
    for phrase in dict.fromkeys(phr.tolist()):
        mask = phr == phrase
        try:
            model, _ = backend.plda_em_train(x[mask], spk[mask], iters=cfg.plda_iters)
            bank[phrase] = backend.PldaScorer.from_model(model)
        except NumericalError as exc:
            raise NumericalError(f"PLDA of phrase {phrase!r}: {exc}") from exc
        except ValueError as exc:
            raise fileio.DataFormatError(
                f"{_workpath(cfg, 'meta_train.meta')}: phrase {phrase!r}: {exc}") from exc

    inventory = fileio.read_inventory(_workpath(cfg, "inventory.txt"))
    seeds = _child_seeds(cfg.seed, 7)
    protocol = synthgen.gen_trials(
        metas, inventory, Task.TD, cfg.n_dev_trials, seeds[6],
        proportions=(0.5, 0.0, 0.5, 0.0), n_enroll=cfg.n_enroll,
    )
    enroll, test = _pair_vectors(metas.utt_ids, x, protocol.enroll_map, protocol.trials)
    phrase_of_utt = dict(zip(metas.utt_ids, metas.phrases))
    claimed = np.asarray(protocol.trials.claimed, dtype=object)
    spoken = np.asarray([phrase_of_utt[u] for u in protocol.trials.test_ids], dtype=object)
    is_target = np.asarray([label.is_target for label in protocol.labels], dtype=bool)

    train_cfg = cfg.nplda_config()
    for phrase, init in bank.items():
        rows = (claimed == phrase) & (spoken == phrase)
        labels = is_target[rows]
        if labels.size < 4 or labels.all() or not labels.any():
            continue  # too little data; keep generative init
        bank[phrase] = nplda.train_nplda(
            init, enroll[rows], test[rows], labels, claimed[rows], spoken[rows], train_cfg
        ).params

    return bank


def cmd_score(cfg: PipelineConfig) -> List[Path]:
    """Score every configured backend over the dev and eval trial lists."""
    scorers = _train_backend_scorers(cfg)
    written = []
    for split in TRIAL_SPLITS:
        trials, enroll, test = _trial_vectors(cfg, split)
        trials_path = _workpath(cfg, f"trials_{split}.txt")
        for name in cfg.backends:
            path = _workpath(cfg, f"scores_{name}_{split}.txt")
            fileio.write_scores(path, trials.ids, scorers[name](trials_path, trials, enroll, test))
            written.append(path)
    return written


# ---------------------------------------------------------------------------
# normalization


def cmd_norm(cfg: PipelineConfig) -> List[Path]:
    """AS-Norm (optionally language-dependent) over the norm_backend scores."""
    train_x, train_meta = _load_split(cfg, "train", extracted=True)
    cohort = norm.build_cohort(train_x, train_meta)
    n_top = norm.effective_n_top(cfg.n_top, cohort, cfg.language_dependent)
    cohort_scorer = backend.cosine_score  # cosine cohort scores, whatever the norm_backend

    classifier = None
    written = []
    if cfg.language_dependent and cfg.use_lid:
        classifier = norm.train_language_id(
            train_x, train_meta.languages, epochs=cfg.lid_epochs, lr=cfg.lid_lr)
    for split in TRIAL_SPLITS:
        trials, enroll, test = _trial_vectors(cfg, split)
        raw = _read_scores(cfg, cfg.norm_backend, split, trials.ids)
        test_langs = None
        if classifier is not None:
            test_langs, _ = norm.predict_language(classifier, test)
        elif cfg.language_dependent:
            meta_path = _workpath(cfg, f"meta_{split}.meta")
            metas = fileio.read_metas(meta_path)
            lang_by_utt = dict(zip(metas.utt_ids, metas.languages))
            try:
                test_langs = [lang_by_utt[u] for u in trials.test_ids]
            except KeyError as exc:
                raise fileio.DataFormatError(
                    f"{meta_path}: no language for test utterance {exc.args[0]!r}") from exc
        normed = norm.language_dependent_as_norm(
            raw, enroll, test, cohort, cohort_scorer, n_top, test_langs,
        )
        path = _workpath(cfg, f"scores_{cfg.norm_backend}_norm_{split}.txt")
        fileio.write_scores(path, trials.ids, normed)
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# phrase filter


def cmd_filter(cfg: PipelineConfig) -> List[Path]:
    """Floor the scores of trials whose recognized phrase mismatches the claim."""
    if cfg.task != "TD":
        raise ConfigError("the phrase filter applies to TD trials only")
    inventory = fileio.read_inventory(_workpath(cfg, "inventory.txt"))
    tested = {split: _tested_transcripts(cfg, split) for split in TRIAL_SPLITS}
    # a transcript's phrase depends on its text only: classify each distinct one once
    distinct = list(dict.fromkeys(text for _, texts in tested.values() for text in texts))
    phrase_of_text = dict(zip(distinct, metrics.classify_phrases(distinct, inventory)))
    written = []
    for split, (trials, texts) in tested.items():
        mismatch = np.fromiter(
            (phrase_of_text[text] != claimed for claimed, text in zip(trials.claimed, texts)),
            dtype=bool, count=len(texts),
        )
        for system in _fusion_inputs(cfg):
            scores = _read_scores(cfg, system, split, trials.ids)
            path = _workpath(cfg, f"scores_{system}_filt_{split}.txt")
            fileio.write_scores(
                path, trials.ids, metrics.apply_phrase_filter(scores, mismatch, cfg.filter_floor))
            written.append(path)
    return written


def _tested_transcripts(cfg: PipelineConfig, split: str):
    """A split's trials and the transcript of each trial's test utterance
    (an utterance without one reads as the empty text); DataFormatError
    for a trial without a claimed phrase or a test utterance without metadata."""
    trials_path = _workpath(cfg, f"trials_{split}.txt")
    meta_path = _workpath(cfg, f"meta_{split}.meta")
    trials = fileio.read_trials(trials_path)
    metas = fileio.read_metas(meta_path)
    text_of = {utt: text or "" for utt, text in zip(metas.utt_ids, metas.transcripts)}
    for trial_id, test_id, claimed in zip(trials.ids, trials.test_ids, trials.claimed):
        if claimed is None:
            raise fileio.DataFormatError(f"{trials_path}: trial {trial_id} has no claimed phrase")
        if test_id not in text_of:
            raise fileio.DataFormatError(
                f"{meta_path}: no transcript for test utterance {test_id!r}")
    return trials, [text_of[u] for u in trials.test_ids]


def _fusion_inputs(cfg: PipelineConfig) -> List[str]:
    """System names fed to fusion, before any filtering suffix."""
    systems = []
    for name in cfg.backends:
        if name == cfg.norm_backend:
            systems.append(f"{name}_norm")
        else:
            systems.append(name)
    return systems


def _final_systems(cfg: PipelineConfig) -> List[str]:
    suffix = "_filt" if cfg.task == "TD" else ""
    return [s + suffix for s in _fusion_inputs(cfg)]


# ---------------------------------------------------------------------------
# fusion and evaluation


def cmd_fuse(cfg: PipelineConfig) -> List[Path]:
    """Tune fusion weights on dev minDCF and apply them to the eval scores."""
    systems = _final_systems(cfg)
    dev_ids = fileio.read_trials(_workpath(cfg, "trials_dev.txt")).ids
    dev_scores = np.stack([_read_scores(cfg, s, "dev", dev_ids) for s in systems])
    params = cfg.dcf_params()
    weights = metrics.tune_weights(
        dev_scores, _target_mask(cfg, "dev", dev_ids), params, cfg.grid_step)

    eval_ids = fileio.read_trials(_workpath(cfg, "trials_eval.txt")).ids
    fused = metrics.fuse(np.stack([_read_scores(cfg, s, "eval", eval_ids) for s in systems]),
                         weights)
    wpath = _workpath(cfg, "fusion_weights.txt")
    fileio.write_lines(wpath, [f"{s} {repr(w)}" for s, w in zip(systems, weights.weights)])
    spath = _workpath(cfg, "scores_fused_eval.txt")
    fileio.write_scores(spath, eval_ids, fused)
    return [wpath, spath]


def cmd_eval(cfg: PipelineConfig) -> List[Path]:
    """EER / minDCF report over every final system plus the fusion."""
    trial_ids = fileio.read_trials(_workpath(cfg, "trials_eval.txt")).ids
    is_target = _target_mask(cfg, "eval", trial_ids)
    params = cfg.dcf_params()
    lines = []
    for system in _final_systems(cfg) + ["fused"]:
        scores = _read_scores(cfg, system, "eval", trial_ids)
        lines.append(
            f"{system} eer={repr(metrics.eer(scores, is_target))} "
            f"min_dcf={repr(metrics.min_dcf(scores, is_target, params))}"
        )
    out = _workpath(cfg, "metrics.txt")
    fileio.write_lines(out, lines)
    print("\n".join(lines))
    return [out]


# ---------------------------------------------------------------------------
# end to end


def cmd_e2e(cfg: PipelineConfig) -> List[Path]:
    """Run the whole pipeline and write a manifest of seeds and digests."""
    written = []
    written += cmd_gen(cfg)
    written += cmd_train(cfg)
    written += cmd_extract(cfg)
    written += cmd_score(cfg)
    written += cmd_norm(cfg)
    if cfg.task == "TD":
        written += cmd_filter(cfg)
    written += cmd_fuse(cfg)
    written += cmd_eval(cfg)

    lines = ["MANIFEST", f"rng={RNG_ALGORITHM}"]
    lines += dump_config(cfg)
    digests = sorted(
        (Path(p).name, fileio.sha256_of(p)) for p in dict.fromkeys(written)
    )
    lines += [f"sha256 {name} {digest}" for name, digest in digests]
    manifest = _workpath(cfg, "manifest.txt")
    fileio.write_lines(manifest, lines)
    return written + [manifest]
