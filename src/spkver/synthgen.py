"""Deterministic synthetic corpus generator.

Utterance vectors follow an additive latent-factor model,

    x = normalize(v_spk + alpha * v_phrase + beta * d_lang + eps),

with one factor vector per speaker and per phrase (isotropic standard
normal), a single unit-norm language-shift direction applied to all L2
utterances, and isotropic noise eps with standard deviation sigma.
Dialing alpha makes same-phrase impostors hard; dialing beta creates a
cross-language shift. All randomness comes from one seeded generator
(numpy PCG64, recorded in run manifests), so a fixed seed reproduces a
corpus bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .core import Language, Metas, PhraseInventory, TrialLabel, Trials, unit_rows

if TYPE_CHECKING:
    from .config import PipelineConfig

RNG_ALGORITHM = "numpy-pcg64"

_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


class Task(Enum):
    TD = "TD"
    TI = "TI"


@dataclass(frozen=True, eq=False)
class SynthCorpus:
    """(N, dim) utterance vectors and their labels: row i of x is utterance
    metas.utt_ids[i]."""

    x: np.ndarray
    metas: Metas
    inventory: PhraseInventory

    @property
    def speaker_ids(self) -> tuple:
        return tuple(dict.fromkeys(self.metas.speakers))

    def subset_by_speakers(self, speaker_ids: Sequence[str]) -> "SynthCorpus":
        """Restrict to the given speakers, keeping the inventory."""
        keep = set(speaker_ids)
        rows = [i for i, spk in enumerate(self.metas.speakers) if spk in keep]
        return replace(
            self,
            x=self.x[rows],
            metas=Metas(*(tuple(column[i] for i in rows) for column in self.metas)),
        )


def _gen_reference_texts(rng: np.random.Generator, n_phrases: int) -> list:
    """Random reference strings, re-drawn until pairwise clearly distinct."""
    from .metrics import levenshtein

    texts: list = []
    while len(texts) < n_phrases:
        length = int(rng.integers(10, 15))
        cand = "".join(_ALPHABET[i] for i in rng.integers(0, 26, size=length))
        min_required = int(np.ceil(0.4 * max([length] + [len(t) for t in texts])))
        if all(levenshtein(cand, t) >= min_required for t in texts):
            texts.append(cand)
    return texts


def gen_transcript(reference_text: str, error_rate: float, seed: int) -> str:
    """Corrupt a reference with independent per-character edit events.

    Each character independently suffers, with probability error_rate, one
    of substitution (by a different letter), deletion, or insertion of a
    random letter after it. error_rate=0 returns the reference verbatim.
    """
    if not 0.0 <= error_rate <= 1.0:
        raise ValueError("error_rate must lie in [0, 1]")
    if error_rate == 0.0:
        return reference_text
    rng = np.random.default_rng(seed)
    out = []
    for ch in reference_text:
        if rng.random() >= error_rate:
            out.append(ch)
            continue
        op = int(rng.integers(3))
        if op == 0:  # substitute with a different letter
            others = _ALPHABET.replace(ch, "") if ch in _ALPHABET else _ALPHABET
            out.append(others[int(rng.integers(len(others)))])
        elif op == 1:  # delete
            pass
        else:  # insert after
            out.append(ch)
            out.append(_ALPHABET[int(rng.integers(26))])
    return "".join(out)


def gen_corpus(cfg: PipelineConfig, seed: int) -> SynthCorpus:
    """Generate a corpus under the latent-factor model from the corpus keys of
    `cfg` (dim, the counts, the strengths, noise_sigma and
    transcript_error_rate) and `seed`. Same seed, same bytes.

    Draw order is fixed: speaker factors, phrase factors, language direction,
    reference texts, then per utterance (speaker-major, phrase, repetition):
    language coin, noise vector, transcript seed.
    """
    rng = np.random.default_rng(seed)
    spk_factors = rng.standard_normal((cfg.n_speakers, cfg.dim))
    phr_factors = rng.standard_normal((cfg.n_phrases, cfg.dim))
    d_lang = rng.standard_normal(cfg.dim)
    d_lang = d_lang / np.linalg.norm(d_lang)
    texts = _gen_reference_texts(rng, cfg.n_phrases)

    n_l1 = (cfg.n_phrases + 1) // 2
    inventory = PhraseInventory(
        phrase_ids=tuple(f"ph{p:02d}" for p in range(cfg.n_phrases)),
        languages=tuple(Language.L1 if p < n_l1 else Language.L2
                        for p in range(cfg.n_phrases)),
        texts=tuple(texts),
    )

    # the loop makes only the draws, in their order, each noise vector into its
    # row of x; the sums then run in place (IEEE addition commutes: same bits)
    cells = [(s, p, j) for s in range(cfg.n_speakers) for p in range(cfg.n_phrases)
             for j in range(cfg.n_utts_per_cell)]
    is_l2, x, seeds = np.empty(len(cells), dtype=bool), np.empty((len(cells), cfg.dim)), []
    for i in range(len(cells)):
        is_l2[i] = rng.random() < 0.5
        rng.standard_normal(out=x[i])
        seeds.append(int(rng.integers(2**63)))
    x *= cfg.noise_sigma
    mean = (spk_factors[:, None] + cfg.phrase_strength * phr_factors)[:, :, None]  # (S, P, 1, D)
    by_cell, l2 = x.reshape(*mean.shape[:2], -1, cfg.dim), is_l2.reshape(*mean.shape[:2], -1, 1)
    np.add(by_cell, mean, out=by_cell, where=~l2)
    np.add(by_cell, mean + cfg.language_shift * d_lang, out=by_cell, where=l2)
    ids = tuple(f"spk{s:03d}_ph{p:02d}_u{j:02d}" for s, p, j in cells)
    x = unit_rows(x, lambda i: f"degenerate zero-norm utterance {ids[i]}")
    metas = Metas(ids, tuple(f"spk{s:03d}" for s, _, _ in cells),
                  tuple(inventory.phrase_ids[p] for _, p, _ in cells),
                  tuple(Language.L2 if in_l2 else Language.L1 for in_l2 in is_l2.tolist()),
                  tuple(gen_transcript(texts[p], cfg.transcript_error_rate, utt_seed)
                        for (_, p, _), utt_seed in zip(cells, seeds)))
    return SynthCorpus(x=x, metas=metas, inventory=inventory)


@dataclass(frozen=True)
class TrialProtocol:
    """Trials, one label per trial, and the enrollment map that makes them
    resolvable."""

    trials: Trials
    labels: tuple
    enroll_map: dict  # model_id -> tuple of enrollment utt_ids


_LABELS = {
    Task.TD: (TrialLabel.TC, TrialLabel.TW, TrialLabel.IC, TrialLabel.IW),
    Task.TI: (TrialLabel.TARGET, TrialLabel.NONTARGET),
}


def trial_proportions(task: Task, proportions: Sequence[float]) -> list:
    """The checked per-label proportions of a task; empty ones give uniform ones."""
    labels = _LABELS[task]
    if not proportions:
        return [1.0 / len(labels)] * len(labels)
    props = [float(p) for p in proportions]
    if len(props) != len(labels):
        names = ", ".join(label.name for label in labels)
        raise ValueError(f"{task.value} proportions must have {len(labels)} entries ({names})")
    if not all(0 <= p < np.inf for p in props) or sum(props) <= 0:
        raise ValueError("proportions must be finite, non-negative and sum > 0")
    return props


def trial_counts(task: Task, n_trials: int, proportions: Sequence[float]) -> dict:
    """Trials per label of a task: the largest-remainder allocation of
    n_trials over the checked proportions (`trial_proportions`)."""
    props = trial_proportions(task, proportions)
    props = [p / sum(props) for p in props]
    base = [int(np.floor(n_trials * p)) for p in props]
    remainders = [n_trials * p - b for p, b in zip(props, base)]
    short = n_trials - sum(base)
    for idx in sorted(range(len(props)), key=lambda i: (-remainders[i], i))[:short]:
        base[idx] += 1
    return dict(zip(_LABELS[task], base))


def _choice(rng: np.random.Generator, items: Sequence):
    return items[int(rng.integers(len(items)))]


def gen_trials(
    metas: Metas,
    task: Task,
    n_trials: int,
    seed: int,
    proportions: Sequence[float],
    n_enroll: int,
) -> TrialProtocol:
    """Sample a keyed trial list over the utterances of `metas`, with
    n_trials allocated over the labels by `trial_counts`.

    TD mode enrolls each (speaker, phrase) cell on its first n_enroll
    utterances and emits TC/TW/IC/IW labels in the given proportions (empty:
    uniform); TW and IW trials need at least 2 distinct phrases in `metas`.
    TI mode enrolls each speaker on its first n_enroll L1 utterances, tests
    against held-out utterances of either language, and emits
    TARGET/NONTARGET (empty proportions: half-and-half). Enrollment
    utterances are never reused as test utterances.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be positive")
    rng = np.random.default_rng(seed)
    if len(set(metas.speakers)) < 2:
        raise ValueError("trial generation needs at least 2 speakers")
    if task is Task.TD and any(phrase is None for phrase in metas.phrases):
        raise ValueError("TD trials require phrase labels on every utterance")
    counts = trial_counts(task, n_trials, proportions)
    if task is Task.TD:
        return _gen_td(metas, counts, n_enroll, rng)
    return _gen_ti(metas, counts, n_enroll, rng)


def _gen_td(metas, counts, n_enroll, rng) -> TrialProtocol:
    # Enrollment cells: first n_enroll utterances of each (speaker, phrase)
    # cell enroll; the rest are that cell's test pool.
    cells: dict = {}
    test_pool: dict = {}
    for utt, spk, phr in zip(metas.utt_ids, metas.speakers, metas.phrases):
        cells.setdefault((spk, phr), []).append(utt)
    enroll_map = {}
    models = []
    for (spk, phr), utts in cells.items():
        if len(utts) < n_enroll + 1:
            continue
        model_id = f"m_{spk}_{phr}"
        enroll_map[model_id] = tuple(utts[:n_enroll])
        test_pool[(spk, phr)] = utts[n_enroll:]
        models.append((model_id, spk, phr))
    if not models:
        raise ValueError("no (speaker, phrase) cell has enough utterances to enroll")
    if counts[TrialLabel.TW] + counts[TrialLabel.IW] > 0 and len(set(metas.phrases)) < 2:
        raise ValueError("TW/IW trials need at least 2 phrases")

    model_ids, test_ids, claimed, labels = [], [], [], []
    for label, count in counts.items():
        # a label's test pool for a model: the cells that share the model's
        # speaker (TC, TW) or not, and its phrase (TC, IC) or not, in cell order
        same_spk = label in (TrialLabel.TC, TrialLabel.TW)
        same_phr = label in (TrialLabel.TC, TrialLabel.IC)
        pools: dict = {}  # model_id -> its pool, built on first use
        for _ in range(count):
            model_id, spk, phr = _choice(rng, models)
            pool = pools.get(model_id)
            if pool is None:
                pool = pools[model_id] = [
                    u for (s, p), us in test_pool.items()
                    if (s == spk) == same_spk and (p == phr) == same_phr for u in us
                ]
            if not pool:
                raise ValueError(f"infeasible request: no test utterances for label {label.value}")
            model_ids.append(model_id)
            test_ids.append(_choice(rng, pool))
            claimed.append(phr)
        labels += [label] * count
    return _protocol(model_ids, test_ids, claimed, labels, enroll_map)


def _gen_ti(metas, counts, n_enroll, rng) -> TrialProtocol:
    # Enroll each speaker on its first n_enroll L1 utterances; every other
    # utterance (any language) is eligible as test material.
    by_spk: dict = {}  # speaker -> its (utt_id, language) pairs
    for utt, spk, lang in zip(metas.utt_ids, metas.speakers, metas.languages):
        by_spk.setdefault(spk, []).append((utt, lang))
    enroll_map = {}
    test_pool: dict = {}
    for spk, utts in by_spk.items():
        l1 = [utt for utt, lang in utts if lang is Language.L1]
        if len(l1) < n_enroll:
            continue
        enrolled = l1[:n_enroll]
        enrolled_set = set(enrolled)
        rest = [utt for utt, _ in utts if utt not in enrolled_set]
        if not rest:
            continue
        enroll_map[f"m_{spk}"] = tuple(enrolled)
        test_pool[spk] = rest
    eligible = sorted(test_pool)
    if len(eligible) < 2:
        raise ValueError(
            "infeasible request: need >=2 speakers with enough L1 utterances to enroll"
        )

    others = {spk: [s for s in eligible if s != spk] for spk in eligible}

    model_ids, test_ids, labels = [], [], []
    for label, count in counts.items():
        for _ in range(count):
            spk = _choice(rng, eligible)
            if label is TrialLabel.TARGET:
                test_ids.append(_choice(rng, test_pool[spk]))
            else:
                other = _choice(rng, others[spk])
                test_ids.append(_choice(rng, test_pool[other]))
            model_ids.append(f"m_{spk}")
        labels += [label] * count
    return _protocol(model_ids, test_ids, [None] * len(labels), labels, enroll_map)


def _protocol(model_ids, test_ids, claimed, labels, enroll_map) -> TrialProtocol:
    """The protocol of the drawn trial columns, with ids t000000, t000001, ..."""
    ids = tuple(f"t{i:06d}" for i in range(len(labels)))
    trials = Trials(ids, tuple(model_ids), tuple(test_ids), tuple(claimed))
    return TrialProtocol(trials, tuple(labels), enroll_map)
