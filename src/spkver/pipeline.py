"""End-to-end pipeline stages behind the CLI subcommands.

Every stage reads its inputs from the working directory and writes its
outputs there, so any stage rerun from on-disk state reproduces its prior
outputs byte-for-byte. `run_stage` runs one stage and returns the files it
read and wrote, as its fileio session recorded them. fileio describes their
formats: a features or embeddings file holds members ids and x (one row per
id), the checkpoint the trained extractor (w1, b1, w2, b2, strategy, seed),
and a scores file one score per trial of a split for one system.

Splits are train / dev / eval, by disjoint speaker groups of one corpus. A
labelled split travels as (x, metas), with the metadata as columns
row-aligned to x: row i of x is utterance metas.utt_ids[i], and row i of
every other `Metas` column (speaker, phrase, language, transcript) labels
it. `_load_split` checks once that the matrix file lists the metadata's
ids in the same order and keeps no second copy of them.
Trials travel as columns (a `Trials`: trial, model, test utterance and
claimed-phrase ids), keys as (trial ids, labels) and scores as (trial ids,
values). A stage checks once per score or key file that it lists exactly
the split's trial ids in trial-list order, and resolves every other id once
per file with `_rows`: the row of each wanted id among the file's unique
ids. Both raise DataFormatError naming the file and the first id at fault.
A trial is then a pair of table rows: its model's row of the (M, D) table
of unit enroll centroids and its test utterance's row of the split's
(U, D) embeddings; its language, transcript and spoken phrase are columns
indexed by the test rows. Every back-end scores through one contract,
(enroll table, test table, model rows, test rows): cosine, the PLDA form
that EM trains on every train row, and the NPLDA forms that fine-tune it
once per train phrase. Scoring and normalization work on whole splits:
each scorer takes the two tables once per call and combines each trial's
two rows alone (NPLDA in one call per claimed phrase), and AS-norm takes
its cohort statistics in one call per side and language group, for each
table row the trials use, however many trials share it.

`cmd_e2e` runs its stages inside one session, so no file one stage writes
is parsed again by a later stage that reads it unchanged, and builds its
manifest from that session's record: what each stage read and wrote, and
the sha256 of the bytes written, so no file is read back to digest it.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from . import backend, extractor, fileio, metrics, norm, nplda, synthgen
from .config import ConfigError, PipelineConfig, dump_config
from .core import unit_rows
from .synthgen import RNG_ALGORITHM, Task

STAGES = ("gen", "train", "extract", "score", "norm", "filter", "fuse", "eval")
SPLITS = ("train", "dev", "eval")
TRIAL_SPLITS = ("dev", "eval")  # the splits with trial lists


def _workpath(cfg: PipelineConfig, name: str) -> Path:
    return Path(cfg.workdir) / name


def _child_seed(seed: int, i: int) -> int:
    """Child i of `seed`, as SeedSequence(seed).spawn(n)[i] for any n > i: gen
    draws with 0-3, train with 4 and 5, the NPLDA training pairs with 6."""
    return int(np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(1)[0])


# ---------------------------------------------------------------------------
# system names


def _systems(cfg: PipelineConfig) -> Dict[str, Tuple[str, str]]:
    """Each backend's score system as normalized (`_norm` added for the
    norm_backend only) and as fused and evaluated (`_filt` added after the
    TD phrase filter)."""
    filt = "_filt" if cfg.task == "TD" else ""
    normed = {name: f"{name}_norm" if name == cfg.norm_backend else name for name in cfg.backends}
    return {name: (system, system + filt) for name, system in normed.items()}


# ---------------------------------------------------------------------------
# gen


def cmd_gen(cfg: PipelineConfig) -> None:
    """Generate the corpus, split it by speakers, and write protocol files."""
    seeds = [_child_seed(cfg.seed, i) for i in range(4)]
    corpus = synthgen.gen_corpus(cfg, seeds[0])

    speakers = list(corpus.speaker_ids)
    rng = np.random.default_rng(seeds[1])
    order = [speakers[i] for i in rng.permutation(len(speakers))]
    n_train, n_dev, _ = cfg.split_sizes()
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
        protocols[split] = synthgen.gen_trials(
            subs[split].metas, Task(cfg.task), n_trials, trial_seed,
            proportions=cfg.proportions, n_enroll=cfg.n_enroll,
        )

    for split, sub in subs.items():
        fileio.write_matrix(_workpath(cfg, f"feats_{split}.npz"), sub.metas.utt_ids, sub.x)
        fileio.write_metas(_workpath(cfg, f"meta_{split}.meta"), sub.metas)
        if split in protocols:
            protocol = protocols[split]
            fileio.write_trials(_workpath(cfg, f"trials_{split}.txt"), protocol.trials)
            fileio.write_keys(_workpath(cfg, f"keys_{split}.txt"), protocol.trials.ids,
                              protocol.labels)
            fileio.write_enroll_map(_workpath(cfg, f"enroll_{split}.txt"), protocol.enroll_map)
    fileio.write_inventory(_workpath(cfg, "inventory.txt"), corpus.inventory)


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


def _check_trial_ids(path, ids: tuple, trial_ids: tuple, split: str) -> None:
    """DataFormatError naming the file and its first differing id unless
    `ids` are the split's trial ids, in trial-list order."""
    if ids == trial_ids:
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


def _read_trials(cfg: PipelineConfig, split: str):
    """A split's trials; DataFormatError naming the file if it lists none."""
    trials = fileio.read_trials(_workpath(cfg, f"trials_{split}.txt"))
    if not trials.ids:
        raise fileio.DataFormatError(f"{_workpath(cfg, f'trials_{split}.txt')}: no trials")
    return trials


def _target_mask(cfg: PipelineConfig, split: str, trial_ids: tuple) -> np.ndarray:
    """Which of the split's trials are targets, from its keys, which must hold both kinds."""
    path = _workpath(cfg, f"keys_{split}.txt")
    ids, labels = fileio.read_keys(path)
    _check_trial_ids(path, ids, trial_ids, split)
    mask = np.fromiter((label.is_target for label in labels), dtype=bool, count=len(labels))
    if mask.all() or not mask.any():
        raise fileio.DataFormatError(f"{path}: no {'nontarget' if mask.all() else 'target'} trial")
    return mask


# ---------------------------------------------------------------------------
# train / extract


def cmd_train(cfg: PipelineConfig) -> None:
    """Train the embedding network on the train split."""
    feats, metas = _load_split(cfg, "train")
    inventory = fileio.read_inventory(_workpath(cfg, "inventory.txt"))
    net = extractor.Extractor.init(cfg.dim, cfg.hidden_dim, cfg.emb_dim, _child_seed(cfg.seed, 4))
    result = extractor.train(net, feats, metas, inventory, cfg, _child_seed(cfg.seed, 5))
    fileio.write_checkpoint(_workpath(cfg, "ckpt.npz"), result.extractor, cfg.strategy, cfg.seed)


def cmd_extract(cfg: PipelineConfig) -> None:
    """Map every split's features through the trained network, then forget
    them and the checkpoint, which no later stage reads."""
    net, _, _ = fileio.read_checkpoint(_workpath(cfg, "ckpt.npz"))
    for split in SPLITS:
        ids, feats = fileio.read_matrix(_workpath(cfg, f"feats_{split}.npz"))
        fileio.write_matrix(_workpath(cfg, f"emb_{split}.npz"), ids,
                            extractor.extract_embeddings(net, feats))
    fileio.forget(_workpath(cfg, "ckpt.npz"), *(_workpath(cfg, f"feats_{s}.npz") for s in SPLITS))


# ---------------------------------------------------------------------------
# scoring


def _rows(path, ids, wanted, missing) -> np.ndarray:
    """The row of each wanted id among a file's unique `ids`, as an int
    array. The first wanted id the file lacks, wanted[i], raises
    DataFormatError naming `path` and the message `missing(i)`."""
    row_of = dict(zip(ids, range(len(ids))))
    rows = np.fromiter((row_of.get(u, -1) for u in wanted), dtype=np.intp, count=len(wanted))
    if (rows < 0).any():
        raise fileio.DataFormatError(f"{path}: {missing(int(np.argmax(rows < 0)))}")
    return rows


def _trial_rows(emb_path, ids, x, enroll_path, enroll_map, trials):
    """The (M, D) table of unit centroids of the models of `enroll_map`, in
    its order, and per trial its model's row there and its test utterance's
    row among `ids` (one per row of x). A model or utterance that
    `enroll_map` or `ids` lacks raises DataFormatError naming the file."""
    models = list(enroll_map)
    model_rows = _rows(enroll_path, models, trials.model_ids, lambda i: (
        f"no enrollment for model {trials.model_ids[i]!r} of trial {trials.ids[i]}"))
    test_rows = _rows(emb_path, ids, trials.test_ids, lambda i: (
        f"no embedding for test utterance {trials.test_ids[i]!r}"))
    owners = [m for m in models for _ in enroll_map[m]]
    utts = [u for m in models for u in enroll_map[m]]
    utt_rows = _rows(emb_path, ids, utts, lambda i: (
        f"no embedding for utterance {utts[i]!r} enrolling {owners[i]!r}"))
    counts = np.fromiter(map(len, enroll_map.values()), dtype=np.intp, count=len(models))
    return _centroids(x, utt_rows, counts, models), model_rows, test_rows


def _centroids(x, rows, counts, models) -> np.ndarray:
    """The unit-norm mean of each model's rows of x, `rows` listing counts[k]
    rows for models[k], model after model: one (m, c, D) block mean per
    distinct count c. NumericalError names the first zero-norm model."""
    starts, means = np.cumsum(counts) - counts, np.empty((len(counts), x.shape[1]))
    for c in set(counts.tolist()):
        group = np.flatnonzero(counts == c)
        means[group] = x[rows[starts[group, None] + np.arange(c)]].mean(axis=1)
    return unit_rows(means, lambda k: f"zero-norm centroid for model {models[k]}")


def _trial_tables(cfg: PipelineConfig, split: str):
    """A split's trials, its enroll-centroid and embedding tables and the
    trials' rows of each, as `_trial_rows` gives them."""
    emb_path = _workpath(cfg, f"emb_{split}.npz")
    enroll_path = _workpath(cfg, f"enroll_{split}.txt")
    ids, x = fileio.read_matrix(emb_path)
    trials = _read_trials(cfg, split)
    enroll_map = fileio.read_enroll_map(enroll_path)
    enroll, model_rows, test_rows = _trial_rows(emb_path, ids, x, enroll_path, enroll_map, trials)
    return trials, enroll, x, model_rows, test_rows


def _score_by_claimed_phrase(bank, trials_path, trials, e, t, e_rows, t_rows) -> np.ndarray:
    """NPLDA scores, one nplda_score call per claimed phrase; DataFormatError
    naming the trials file for a trial that claims a phrase without a model."""
    forms = list(bank.values())
    which = _rows(trials_path, list(bank), trials.claimed, lambda i: (
        f"trial {trials.ids[i]} claims phrase {trials.claimed[i]!r}, which has no NPLDA model"))
    scores = np.empty(len(which))
    for k in np.flatnonzero(np.bincount(which)):
        rows = which == k
        scores[rows] = nplda.nplda_score(forms[k], e, t, e_rows[rows], t_rows[rows])
    return scores


def _train_nplda_bank(cfg: PipelineConfig, x, metas,
                      form: backend.PldaScorer) -> Dict[str, backend.PldaScorer]:
    """Per-phrase NPLDA bank, one form per train phrase in first-appearance
    order: `form`, the PLDA of every train row, fine-tuned on the phrase's
    same-phrase training pairs, or `form` itself if it has too few. A phrase
    without impostor pairs (only one speaker has more than n_enroll
    utterances of it) or a failed pair draw raises DataFormatError."""
    meta_path = _workpath(cfg, "meta_train.meta")
    cells = Counter(zip(metas.phrases, metas.speakers))
    enrollable = Counter(phrase for (phrase, _), n in cells.items() if n > cfg.n_enroll)
    lone = [phrase for phrase, n in enrollable.items() if n == 1]
    if lone:
        raise fileio.DataFormatError(
            f"{meta_path}: NPLDA training pairs: infeasible request: only one speaker "
            f"has more than n_enroll={cfg.n_enroll} utterances of phrase {lone[0]!r}")
    try:
        protocol = synthgen.gen_trials(
            metas, Task.TD, cfg.n_dev_trials, _child_seed(cfg.seed, 6),
            proportions=(0.5, 0.0, 0.5, 0.0), n_enroll=cfg.n_enroll,
        )
    except ValueError as exc:
        raise fileio.DataFormatError(f"{meta_path}: NPLDA training pairs: {exc}") from exc
    enroll, model_rows, test_rows = _trial_rows(
        meta_path, metas.utt_ids, x, meta_path, protocol.enroll_map, protocol.trials)
    claimed = np.asarray(protocol.trials.claimed, dtype=object)
    spoken = np.asarray(metas.phrases, dtype=object)[test_rows]
    is_target = np.asarray([label.is_target for label in protocol.labels], dtype=bool)

    bank = {}
    for phrase in dict.fromkeys(metas.phrases):
        rows = (claimed == phrase) & (spoken == phrase)
        labels = is_target[rows]
        if labels.size < 4 or labels.all() or not labels.any():
            bank[phrase] = form  # too little data: keep the generative form
        else:
            bank[phrase] = nplda.train_nplda(form, enroll, x, model_rows[rows], test_rows[rows],
                                             labels, claimed[rows], spoken[rows], cfg).params
    return bank


def cmd_score(cfg: PipelineConfig) -> None:
    """Score every configured backend over the dev and eval trial lists."""
    form = bank = None
    if {"plda", "nplda"} & set(cfg.backends):
        x, metas = _load_split(cfg, "train", extracted=True)
        model, _ = backend.plda_em_train(x, metas.speakers, iters=cfg.plda_iters)
        form = backend.PldaScorer.from_model(model)
        if "nplda" in cfg.backends:
            bank = _train_nplda_bank(cfg, x, metas, form)
    for split in TRIAL_SPLITS:
        trials, enroll, test, model_rows, test_rows = _trial_tables(cfg, split)
        for name in cfg.backends:
            if name == "nplda":
                scores = _score_by_claimed_phrase(bank, _workpath(cfg, f"trials_{split}.txt"),
                                                  trials, enroll, test, model_rows, test_rows)
            else:
                scorer = form.score if name == "plda" else backend.cosine_score
                scores = scorer(enroll, test, model_rows, test_rows)
            fileio.write_scores(_workpath(cfg, f"scores_{name}_{split}.txt"), trials.ids, scores)


# ---------------------------------------------------------------------------
# normalization


def cmd_norm(cfg: PipelineConfig) -> None:
    """AS-Norm (optionally language-dependent) over the norm_backend scores."""
    train_x, train_meta = _load_split(cfg, "train", extracted=True)
    cohort = norm.build_cohort(train_x, train_meta)
    n_top = norm.effective_n_top(cfg.n_top, cohort, cfg.language_dependent)
    cohort_scorer = backend.cosine_score  # cosine cohort scores, whatever the norm_backend

    system, _ = _systems(cfg)[cfg.norm_backend]
    classifier = None
    if cfg.language_dependent and cfg.use_lid:
        classifier = norm.train_language_id(
            train_x, train_meta.languages, epochs=cfg.lid_epochs, lr=cfg.lid_lr)
    for split in TRIAL_SPLITS:
        trials, enroll, test, model_rows, test_rows = _trial_tables(cfg, split)
        raw = _read_scores(cfg, cfg.norm_backend, split, trials.ids)
        test_langs = None
        if classifier is not None:  # each tested utterance classified once
            tested, row_of = np.unique(test_rows, return_inverse=True)
            test_langs, _ = norm.predict_language(classifier, test[tested])
            test_langs = np.asarray(test_langs, dtype=object)[row_of]
        elif cfg.language_dependent:
            meta_path = _workpath(cfg, f"meta_{split}.meta")
            metas = fileio.read_metas(meta_path)
            test_langs = np.asarray(metas.languages, dtype=object)[_rows(
                meta_path, metas.utt_ids, trials.test_ids,
                lambda i: f"no language for test utterance {trials.test_ids[i]!r}")]
        normed = norm.language_dependent_as_norm(
            raw, enroll, test, model_rows, test_rows, cohort, cohort_scorer, n_top, test_langs,
        )
        fileio.write_scores(_workpath(cfg, f"scores_{system}_{split}.txt"), trials.ids, normed)


# ---------------------------------------------------------------------------
# phrase filter


def cmd_filter(cfg: PipelineConfig) -> None:
    """Floor the scores of trials whose recognized phrase mismatches the claim."""
    if cfg.task != "TD":
        raise ConfigError("the phrase filter applies to TD trials only")
    inventory = fileio.read_inventory(_workpath(cfg, "inventory.txt"))
    tested = {split: _tested_transcripts(cfg, split) for split in TRIAL_SPLITS}
    # a transcript's phrase depends on its text only: classify each distinct one once
    distinct = list(dict.fromkeys(text for _, texts in tested.values() for text in texts))
    phrase_of_text = dict(zip(distinct, metrics.classify_phrases(distinct, inventory)))
    for split, (trials, texts) in tested.items():
        mismatch = np.fromiter(
            (phrase_of_text[text] != claimed for claimed, text in zip(trials.claimed, texts)),
            dtype=bool, count=len(texts),
        )
        for system, filtered in _systems(cfg).values():
            scores = _read_scores(cfg, system, split, trials.ids)
            fileio.write_scores(_workpath(cfg, f"scores_{filtered}_{split}.txt"), trials.ids,
                                metrics.apply_phrase_filter(scores, mismatch, cfg.filter_floor))


def _tested_transcripts(cfg: PipelineConfig, split: str):
    """A split's trials and the transcript of each trial's test utterance
    (an utterance without one reads as the empty text); DataFormatError
    for a trial without a claimed phrase or a test utterance without metadata."""
    trials_path = _workpath(cfg, f"trials_{split}.txt")
    meta_path = _workpath(cfg, f"meta_{split}.meta")
    trials = _read_trials(cfg, split)
    metas = fileio.read_metas(meta_path)
    if None in trials.claimed:
        trial_id = trials.ids[trials.claimed.index(None)]
        raise fileio.DataFormatError(f"{trials_path}: trial {trial_id} has no claimed phrase")
    rows = _rows(meta_path, metas.utt_ids, trials.test_ids,
                 lambda i: f"no transcript for test utterance {trials.test_ids[i]!r}")
    return trials, [metas.transcripts[i] or "" for i in rows]


# ---------------------------------------------------------------------------
# fusion and evaluation


def cmd_fuse(cfg: PipelineConfig) -> None:
    """Tune fusion weights on dev minDCF and apply them to the eval scores."""
    systems = [fused for _, fused in _systems(cfg).values()]
    dev_ids = _read_trials(cfg, "dev").ids
    dev_scores = np.stack([_read_scores(cfg, s, "dev", dev_ids) for s in systems])
    params = cfg.dcf_params()
    weights = metrics.tune_weights(
        dev_scores, _target_mask(cfg, "dev", dev_ids), params, cfg.grid_step)

    eval_ids = _read_trials(cfg, "eval").ids
    fused = metrics.fuse(np.stack([_read_scores(cfg, s, "eval", eval_ids) for s in systems]),
                         weights)
    fileio.write_lines(_workpath(cfg, "fusion_weights.txt"),
                       [f"{s} {repr(w)}" for s, w in zip(systems, weights.weights)])
    fileio.write_scores(_workpath(cfg, "scores_fused_eval.txt"), eval_ids, fused)


def cmd_eval(cfg: PipelineConfig) -> None:
    """EER / minDCF report over every final system plus the fusion."""
    trial_ids = _read_trials(cfg, "eval").ids
    is_target = _target_mask(cfg, "eval", trial_ids)
    params = cfg.dcf_params()
    lines = []
    for system in [fused for _, fused in _systems(cfg).values()] + ["fused"]:
        scores = _read_scores(cfg, system, "eval", trial_ids)
        lines.append(
            f"{system} eer={repr(metrics.eer(scores, is_target))} "
            f"min_dcf={repr(metrics.min_dcf(scores, is_target, params))}"
        )
    fileio.write_lines(_workpath(cfg, "metrics.txt"), lines)
    print("\n".join(lines))


# ---------------------------------------------------------------------------
# end to end


def cmd_e2e(cfg: PipelineConfig) -> None:
    """Run the whole pipeline and write a manifest of its config and its session's record."""
    lines = ["MANIFEST", f"rng={RNG_ALGORITHM}"] + dump_config(cfg)
    with fileio.session() as files:  # one session, so a text file is parsed once per run
        start = len(files)
        for stage in STAGES:
            if stage != "filter" or cfg.task == "TD":  # the phrase filter runs for TD only
                reads, writes = [[Path(p).name for p in paths] for paths in run_stage(cfg, stage)]
                lines.append(f"stage {stage} reads {','.join(reads) or '-'} "
                             f"writes {','.join(writes) or '-'}")
        digests = {Path(path).name: sha for op, path, sha in files[start:] if op == "write"}
    lines += [f"sha256 {name} {digests[name]}" for name in sorted(digests)]
    fileio.write_lines(_workpath(cfg, "manifest.txt"), lines)


def run_stage(cfg: PipelineConfig, stage: str) -> Tuple[List[str], List[str]]:
    """Run `cmd_<stage>` inside a fileio session, looking it up when called so
    that a wrapper set on the module runs. Returns the paths of the files the
    stage read, each once in first-read order, and of those it wrote, in order."""
    with fileio.session() as files:
        start = len(files)
        globals()[f"cmd_{stage}"](cfg)
        record = files[start:]
    return (list(dict.fromkeys(path for op, path, _ in record if op == "read")),
            [path for op, path, _ in record if op == "write"])
