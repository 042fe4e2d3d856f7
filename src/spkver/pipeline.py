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
    lang_clf.npz                   language classifier (norm with LID): weights, bias
    scores_{system}_{split}.txt    trial scores per system
    fusion_weights.txt, metrics.txt, manifest.txt

Splits are train / dev / eval, by disjoint speaker groups of one corpus. A
split travels as (ids, x): its utterance ids and one matrix row per id.
Scoring and normalization work on whole splits: each backend scores a
split's row-aligned (enroll, test) arrays in one call (NPLDA in one call
per claimed phrase), and AS-norm takes its cohort statistics in one call
per side and language group.
"""

from __future__ import annotations

import functools
from pathlib import Path
from typing import Callable, Dict, List, Sequence

import numpy as np

from . import backend, extractor, fileio, metrics, norm, nplda, synthgen
from .config import ConfigError, PipelineConfig
from .core import build_enroll_model, validate_protocol
from .synthgen import RNG_ALGORITHM, GenConfig, Task

SPLITS = ("train", "dev", "eval")


def _workpath(cfg: PipelineConfig, name: str) -> Path:
    return Path(cfg.workdir) / name


def _child_seeds(seed: int, n: int) -> list:
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(n)]


# ---------------------------------------------------------------------------
# gen


def cmd_gen(cfg: PipelineConfig) -> List[Path]:
    """Generate the corpus, split it by speakers, and write protocol files."""
    seeds = _child_seeds(cfg.seed, 4)
    gen_cfg = GenConfig(
        n_speakers=cfg.n_speakers,
        n_phrases=cfg.n_phrases,
        n_utts_per_cell=cfg.n_utts_per_cell,
        dim=cfg.dim,
        phrase_strength=cfg.phrase_strength,
        language_shift=cfg.language_shift,
        noise_sigma=cfg.noise_sigma,
        transcript_error_rate=cfg.transcript_error_rate,
        seed=seeds[0],
    )
    corpus = synthgen.gen_corpus(gen_cfg)

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

    task = Task(cfg.task)
    proportions = list(cfg.proportions) if cfg.proportions else None
    written: List[Path] = []
    for split, spk_ids in groups.items():
        sub = corpus.subset_by_speakers(spk_ids)
        fileio.write_matrix(_workpath(cfg, f"feats_{split}.npz"), sub.ids, sub.x)
        fileio.write_metas(_workpath(cfg, f"meta_{split}.meta"), sub.metas)
        written += [_workpath(cfg, f"feats_{split}.npz"), _workpath(cfg, f"meta_{split}.meta")]
        if split == "train":
            continue
        n_trials = cfg.n_dev_trials if split == "dev" else cfg.n_eval_trials
        trial_seed = seeds[2] if split == "dev" else seeds[3]
        protocol = synthgen.gen_trials(
            sub.metas, corpus.inventory, task, n_trials, trial_seed,
            proportions=proportions, n_enroll=cfg.n_enroll,
        )
        problems = validate_protocol(
            protocol.trials, protocol.keys, sub.metas, protocol.enroll_map
        )
        if problems:
            raise RuntimeError(f"generated {split} protocol is inconsistent: {problems[:3]}")
        fileio.write_trials(_workpath(cfg, f"trials_{split}.txt"), protocol.trials)
        fileio.write_keys(_workpath(cfg, f"keys_{split}.txt"), protocol.keys)
        fileio.write_enroll_map(_workpath(cfg, f"enroll_{split}.txt"), protocol.enroll_map)
        written += [
            _workpath(cfg, f"trials_{split}.txt"),
            _workpath(cfg, f"keys_{split}.txt"),
            _workpath(cfg, f"enroll_{split}.txt"),
        ]
    fileio.write_inventory(_workpath(cfg, "inventory.txt"), corpus.inventory)
    written.append(_workpath(cfg, "inventory.txt"))
    return written


def _load_split(cfg: PipelineConfig, split: str, extracted: bool = False):
    """(ids, x, metas) of a split's features, or with `extracted` of its
    embeddings; the metadata must list the same ids in the same order."""
    path = _workpath(cfg, f"emb_{split}.npz" if extracted else f"feats_{split}.npz")
    ids, x = fileio.read_matrix(path)
    metas = fileio.read_metas(_workpath(cfg, f"meta_{split}.meta"))
    if ids != [m.utt_id for m in metas]:
        raise fileio.DataFormatError(f"{path}: ids differ from those of meta_{split}.meta")
    return ids, x, metas


# ---------------------------------------------------------------------------
# train / extract


def cmd_train(cfg: PipelineConfig) -> List[Path]:
    """Train the embedding network on the train split."""
    _, feats, metas = _load_split(cfg, "train")
    inventory = fileio.read_inventory(_workpath(cfg, "inventory.txt"))
    seeds = _child_seeds(cfg.seed, 6)
    net = extractor.Extractor.init(cfg.dim, cfg.hidden_dim, cfg.emb_dim, seed=seeds[4])
    result = extractor.train(net, feats, metas, inventory, cfg.train_config(seed=seeds[5]))
    path = _workpath(cfg, "ckpt.npz")
    fileio.write_checkpoint(path, result.extractor, cfg.strategy, cfg.seed)
    return [path]


def cmd_extract(cfg: PipelineConfig, splits: Sequence[str] = SPLITS) -> List[Path]:
    """Map every split's features through the trained network."""
    net, _, _ = fileio.read_checkpoint(_workpath(cfg, "ckpt.npz"))
    written = []
    for split in splits:
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
    enroll = np.stack([centroids[t.model_id] for t in trials])
    test = x[[row_of[t.test_utt_id] for t in trials]]
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
    for t in trials:
        if t.model_id not in enroll_map:
            raise fileio.DataFormatError(
                f"{enroll_path}: no enrollment for model {t.model_id!r} of trial {t.trial_id}")
        if t.test_utt_id not in known:
            raise fileio.DataFormatError(
                f"{emb_path}: no embedding for test utterance {t.test_utt_id!r}")
    for model_id, utt_ids in enroll_map.items():
        missing = [u for u in utt_ids if u not in known]
        if missing:
            raise fileio.DataFormatError(
                f"{emb_path}: no embedding for utterance {missing[0]!r} enrolling {model_id!r}")
    enroll, test = _pair_vectors(ids, x, enroll_map, trials)
    return trials, enroll, test


def _train_backend_scorers(cfg: PipelineConfig) -> Dict[str, Callable]:
    """One trial scorer per configured backend: (trials, enroll, test) ->
    scores, for row-aligned (N, D) enroll and test vectors."""
    scorers: Dict[str, Callable] = {"cosine": lambda trials, e, t: backend.cosine_score(e, t)}
    if not ({"plda", "nplda"} & set(cfg.backends)):
        return scorers
    ids, x, metas = _load_split(cfg, "train", extracted=True)
    if "plda" in cfg.backends:
        spk = [m.speaker_id for m in metas]
        plda_model, _ = backend.plda_em_train(x, spk, iters=cfg.plda_iters)
        plda_scorer = backend.PldaScorer(plda_model)
        scorers["plda"] = lambda trials, e, t: plda_scorer.score(e, t)
    if "nplda" in cfg.backends:
        params_by_phrase = _train_nplda_bank(cfg, ids, x, metas)
        scorers["nplda"] = functools.partial(_score_by_claimed_phrase, params_by_phrase)
    return scorers


def _score_by_claimed_phrase(params_by_phrase, trials, e, t) -> np.ndarray:
    """NPLDA scores, one nplda_score call per claimed phrase."""
    phrases = np.asarray([trial.claimed_phrase_id for trial in trials], dtype=object)
    scores = np.empty(len(trials))
    for phrase in dict.fromkeys(phrases):
        params = params_by_phrase.get(phrase)
        if params is None:
            raise ConfigError(f"no NPLDA model for claimed phrase {phrase!r}")
        rows = phrases == phrase
        scores[rows] = nplda.nplda_score(params, e[rows], t[rows])
    return scores


def _train_nplda_bank(cfg: PipelineConfig, ids, x, metas) -> Dict[str, nplda.NpldaParams]:
    """Per-phrase NPLDA bank: generative init plus same-phrase cost training."""
    spk = [m.speaker_id for m in metas]
    phr = [m.phrase_id for m in metas]
    bank, failures = backend.train_phrase_plda_bank(x, spk, phr, iters=cfg.plda_iters)
    if failures:
        raise ConfigError(f"phrase PLDA training failed for: {sorted(failures)}")

    inventory = fileio.read_inventory(_workpath(cfg, "inventory.txt"))
    seeds = _child_seeds(cfg.seed, 7)
    protocol = synthgen.gen_trials(
        metas, inventory, Task.TD, cfg.n_dev_trials, seeds[6],
        proportions=(0.5, 0.0, 0.5, 0.0), n_enroll=cfg.n_enroll,
    )
    enroll, test = _pair_vectors(ids, x, protocol.enroll_map, protocol.trials)
    phrase_of_utt = {m.utt_id: m.phrase_id for m in metas}
    claimed = np.asarray([t.claimed_phrase_id for t in protocol.trials], dtype=object)
    spoken = np.asarray([phrase_of_utt[t.test_utt_id] for t in protocol.trials], dtype=object)
    is_target = np.asarray([k.label.is_target for k in protocol.keys], dtype=bool)

    params_by_phrase = {}
    train_cfg = nplda.NpldaTrainConfig(
        learning_rate=cfg.nplda_lr,
        epochs=cfg.nplda_epochs,
        alpha=cfg.nplda_alpha,
        dcf=metrics.DcfParams(cfg.p_target, cfg.c_miss, cfg.c_fa),
    )
    for phrase, model in bank.items():
        rows = (claimed == phrase) & (spoken == phrase)
        init = nplda.init_from_plda(model)
        labels = is_target[rows]
        if labels.size < 4 or labels.all() or not labels.any():
            params_by_phrase[phrase] = init  # too little data; keep generative init
            continue
        result = nplda.train_nplda(
            init, enroll[rows], test[rows], labels, claimed[rows], spoken[rows], train_cfg
        )
        params_by_phrase[phrase] = result.params

    return params_by_phrase


def cmd_score(cfg: PipelineConfig, splits: Sequence[str] = ("dev", "eval")) -> List[Path]:
    """Score every configured backend over the dev and eval trial lists."""
    scorers = _train_backend_scorers(cfg)
    written = []
    for split in splits:
        trials, enroll, test = _trial_vectors(cfg, split)
        for name in cfg.backends:
            values = scorers[name](trials, enroll, test)
            scores = {t.trial_id: float(s) for t, s in zip(trials, values)}
            path = _workpath(cfg, f"scores_{name}_{split}.txt")
            fileio.write_scores(path, scores)
            written.append(path)
    return written


# ---------------------------------------------------------------------------
# normalization


def cmd_norm(cfg: PipelineConfig, splits: Sequence[str] = ("dev", "eval")) -> List[Path]:
    """AS-Norm (optionally language-dependent) over the norm_backend scores."""
    train_ids, train_x, train_meta = _load_split(cfg, "train", extracted=True)
    cohort = norm.build_cohort(train_ids, train_x, train_meta)
    n_top = norm.effective_n_top(cfg.n_top, cohort, cfg.language_dependent)
    cohort_scorer = backend.cosine_score  # cosine cohort scores, whatever the norm_backend

    classifier = None
    written = []
    if cfg.language_dependent and cfg.use_lid:
        langs = [m.language for m in train_meta]
        classifier = norm.train_language_id(train_x, langs, epochs=cfg.lid_epochs, lr=cfg.lid_lr)
        fileio.write_lang_classifier(_workpath(cfg, "lang_clf.npz"), classifier)
        written.append(_workpath(cfg, "lang_clf.npz"))
    for split in splits:
        raw = fileio.read_scores(_workpath(cfg, f"scores_{cfg.norm_backend}_{split}.txt"))
        trials, enroll, test = _trial_vectors(cfg, split)
        test_langs = None
        if classifier is not None:
            test_langs, _ = norm.predict_language(classifier, test)
        elif cfg.language_dependent:
            metas = fileio.read_metas(_workpath(cfg, f"meta_{split}.meta"))
            lang_by_utt = {m.utt_id: m.language for m in metas}
            test_langs = [lang_by_utt[t.test_utt_id] for t in trials]
        normed = norm.language_dependent_as_norm(
            np.asarray([raw[t.trial_id] for t in trials]),
            enroll, test, cohort, cohort_scorer, n_top, test_langs,
        )
        out = {t.trial_id: float(s) for t, s in zip(trials, normed)}
        path = _workpath(cfg, f"scores_{cfg.norm_backend}_norm_{split}.txt")
        fileio.write_scores(path, out)
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# phrase filter


def cmd_filter(cfg: PipelineConfig, splits: Sequence[str] = ("dev", "eval")) -> List[Path]:
    """Floor the scores of trials whose recognized phrase mismatches the claim."""
    if cfg.task != "TD":
        raise ConfigError("the phrase filter applies to TD trials only")
    inventory = fileio.read_inventory(_workpath(cfg, "inventory.txt"))
    phrase_of_text: Dict[str, str] = {}  # a transcript's phrase depends on its text only
    written = []
    for split in splits:
        trials = fileio.read_trials(_workpath(cfg, f"trials_{split}.txt"))
        metas = fileio.read_metas(_workpath(cfg, f"meta_{split}.meta"))
        transcripts = {m.utt_id: m.transcript or "" for m in metas}
        tested = {t.test_utt_id: transcripts[t.test_utt_id]
                  for t in trials if t.test_utt_id in transcripts}
        for text in tested.values():
            if text not in phrase_of_text:
                phrase_of_text[text] = metrics.classify_phrase(text, inventory)
        classified = {u: phrase_of_text[text] for u, text in tested.items()}
        for system in _fusion_inputs(cfg):
            src = _workpath(cfg, f"scores_{system}_{split}.txt")
            scores = fileio.read_scores(src)
            filtered = metrics.apply_phrase_filter(scores, trials, classified, cfg.filter_floor)
            path = _workpath(cfg, f"scores_{system}_filt_{split}.txt")
            fileio.write_scores(path, filtered)
            written.append(path)
    return written


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
    dev_keys = {k.trial_id: k.label for k in fileio.read_keys(_workpath(cfg, "keys_dev.txt"))}
    dev_sets = [
        fileio.read_scores(_workpath(cfg, f"scores_{s}_dev.txt")) for s in systems
    ]
    params = metrics.DcfParams(cfg.p_target, cfg.c_miss, cfg.c_fa)
    weights = metrics.tune_weights(dev_sets, dev_keys, params, cfg.grid_step)

    eval_sets = [
        fileio.read_scores(_workpath(cfg, f"scores_{s}_eval.txt")) for s in systems
    ]
    fused = metrics.fuse(eval_sets, weights)
    wpath = _workpath(cfg, "fusion_weights.txt")
    fileio.write_lines(wpath, [f"{s} {repr(w)}" for s, w in zip(systems, weights.weights)])
    spath = _workpath(cfg, "scores_fused_eval.txt")
    fileio.write_scores(spath, fused)
    return [wpath, spath]


def cmd_eval(cfg: PipelineConfig) -> List[Path]:
    """EER / minDCF report over every final system plus the fusion."""
    keys = {k.trial_id: k.label for k in fileio.read_keys(_workpath(cfg, "keys_eval.txt"))}
    params = metrics.DcfParams(cfg.p_target, cfg.c_miss, cfg.c_fa)
    lines = []
    for system in _final_systems(cfg) + ["fused"]:
        path = _workpath(cfg, f"scores_{system}_eval.txt")
        if not path.exists():
            continue
        scores = fileio.read_scores(path)
        lines.append(
            f"{system} eer={repr(metrics.eer(scores, keys))} "
            f"min_dcf={repr(metrics.min_dcf(scores, keys, params))}"
        )
    out = _workpath(cfg, "metrics.txt")
    fileio.write_lines(out, lines)
    print("\n".join(lines))
    return [out]


# ---------------------------------------------------------------------------
# end to end


def cmd_e2e(cfg: PipelineConfig) -> List[Path]:
    """Run the whole pipeline and write a manifest of seeds and digests."""
    from .config import dump_config

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
