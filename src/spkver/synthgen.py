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
from typing import Optional, Sequence

import numpy as np

from .core import (
    Embedding,
    Language,
    NumericalError,
    PhraseEntry,
    PhraseInventory,
    Trial,
    TrialKey,
    TrialLabel,
    UttMeta,
)

RNG_ALGORITHM = "numpy-pcg64"

_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


class Task(Enum):
    TD = "TD"
    TI = "TI"


@dataclass(frozen=True)
class GenConfig:
    n_speakers: int
    n_phrases: int
    n_utts_per_cell: int
    dim: int
    phrase_strength: float = 0.0
    language_shift: float = 0.0
    noise_sigma: float = 0.0
    transcript_error_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_speakers < 1 or self.n_phrases < 1 or self.n_utts_per_cell < 1:
            raise ValueError("counts must be positive")
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        if self.phrase_strength < 0 or self.language_shift < 0 or self.noise_sigma < 0:
            raise ValueError("strengths and noise sigma must be >= 0")
        if not 0.0 <= self.transcript_error_rate <= 1.0:
            raise ValueError("transcript_error_rate must lie in [0, 1]")


@dataclass(frozen=True)
class SynthCorpus:
    embeddings: tuple
    metas: tuple
    inventory: PhraseInventory

    @property
    def speaker_ids(self) -> tuple:
        seen = dict.fromkeys(m.speaker_id for m in self.metas)
        return tuple(seen)

    def subset_by_speakers(self, speaker_ids: Sequence[str]) -> "SynthCorpus":
        """Restrict to the given speakers, keeping the inventory."""
        keep = set(speaker_ids)
        metas = tuple(m for m in self.metas if m.speaker_id in keep)
        utts = {m.utt_id for m in metas}
        embeddings = tuple(e for e in self.embeddings if e.utt_id in utts)
        return replace(self, embeddings=embeddings, metas=metas)


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


def gen_corpus(config: GenConfig) -> SynthCorpus:
    """Generate a corpus under the latent-factor model. Same seed, same bytes.

    Draw order is fixed: speaker factors, phrase factors, language direction,
    reference texts, then per utterance (speaker-major, phrase, repetition):
    language coin, noise vector, transcript seed.
    """
    rng = np.random.default_rng(config.seed)
    spk_factors = rng.standard_normal((config.n_speakers, config.dim))
    phr_factors = rng.standard_normal((config.n_phrases, config.dim))
    d_lang = rng.standard_normal(config.dim)
    d_lang = d_lang / np.linalg.norm(d_lang)
    texts = _gen_reference_texts(rng, config.n_phrases)

    n_l1 = (config.n_phrases + 1) // 2
    entries = tuple(
        PhraseEntry(
            phrase_id=f"ph{p:02d}",
            text=texts[p],
            language=Language.L1 if p < n_l1 else Language.L2,
        )
        for p in range(config.n_phrases)
    )
    inventory = PhraseInventory(entries)

    embeddings, metas = [], []
    for s in range(config.n_speakers):
        spk_id = f"spk{s:03d}"
        for p in range(config.n_phrases):
            for j in range(config.n_utts_per_cell):
                utt_id = f"{spk_id}_ph{p:02d}_u{j:02d}"
                lang = Language.L2 if rng.random() < 0.5 else Language.L1
                vec = spk_factors[s] + config.phrase_strength * phr_factors[p]
                if lang is Language.L2:
                    vec = vec + config.language_shift * d_lang
                vec = vec + config.noise_sigma * rng.standard_normal(config.dim)
                norm = float(np.linalg.norm(vec))
                if norm < 1e-12:
                    raise NumericalError(f"degenerate zero-norm utterance {utt_id}")
                transcript = gen_transcript(
                    texts[p],
                    config.transcript_error_rate,
                    seed=int(rng.integers(2**63)),
                )
                embeddings.append(Embedding(utt_id=utt_id, vec=vec / norm))
                metas.append(
                    UttMeta(
                        utt_id=utt_id,
                        speaker_id=spk_id,
                        phrase_id=f"ph{p:02d}",
                        language=lang,
                        transcript=transcript,
                    )
                )
    return SynthCorpus(embeddings=tuple(embeddings), metas=tuple(metas), inventory=inventory)


@dataclass(frozen=True)
class TrialProtocol:
    """Trials, keys, and the enrollment map that makes them resolvable."""

    trials: tuple
    keys: tuple
    enroll_map: dict  # model_id -> tuple of enrollment utt_ids


_LABELS = {
    Task.TD: (TrialLabel.TC, TrialLabel.TW, TrialLabel.IC, TrialLabel.IW),
    Task.TI: (TrialLabel.TARGET, TrialLabel.NONTARGET),
}


def trial_proportions(task: Task, proportions: Optional[Sequence[float]] = None) -> list:
    """The checked per-label proportions of a task; None gives uniform ones."""
    labels = _LABELS[task]
    if proportions is None:
        return [1.0 / len(labels)] * len(labels)
    props = [float(p) for p in proportions]
    if len(props) != len(labels):
        names = ", ".join(label.name for label in labels)
        raise ValueError(f"{task.value} proportions must have {len(labels)} entries ({names})")
    if not all(0 <= p < np.inf for p in props) or sum(props) <= 0:
        raise ValueError("proportions must be finite, non-negative and sum > 0")
    return props


def _allocate(n_trials: int, props: Sequence[float]) -> list:
    """Largest-remainder allocation of n_trials over checked proportions."""
    props = [p / sum(props) for p in props]
    base = [int(np.floor(n_trials * p)) for p in props]
    remainders = [n_trials * p - b for p, b in zip(props, base)]
    short = n_trials - sum(base)
    for idx in sorted(range(len(props)), key=lambda i: (-remainders[i], i))[:short]:
        base[idx] += 1
    return base


def _choice(rng: np.random.Generator, items: Sequence):
    return items[int(rng.integers(len(items)))]


def gen_trials(
    metas: Sequence[UttMeta],
    inventory: PhraseInventory,
    task: Task,
    n_trials: int,
    seed: int,
    proportions: Optional[Sequence[float]] = None,
    n_enroll: int = 3,
) -> TrialProtocol:
    """Sample a keyed trial list over the utterances in `metas`.

    TD mode enrolls per (speaker, phrase) cell and emits TC/TW/IC/IW labels
    with the requested proportions (default uniform). TI mode enrolls each
    speaker on L1 utterances only, tests against held-out utterances of
    either language, and emits TARGET/NONTARGET (default half-and-half).
    Enrollment utterances are never reused as test utterances.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be positive")
    rng = np.random.default_rng(seed)
    if len({m.speaker_id for m in metas}) < 2:
        raise ValueError("trial generation needs at least 2 speakers")
    if task is Task.TD and any(m.phrase_id is None for m in metas):
        raise ValueError("TD trials require phrase labels on every utterance")
    counts = dict(zip(_LABELS[task], _allocate(n_trials, trial_proportions(task, proportions))))
    if task is Task.TD:
        return _gen_td(metas, inventory, counts, n_enroll, rng)
    return _gen_ti(metas, counts, n_enroll, rng)


def _gen_td(metas, inventory, counts, n_enroll, rng) -> TrialProtocol:
    # Enrollment cells: first n_enroll utterances of each (speaker, phrase)
    # cell enroll; the rest are that cell's test pool.
    cells: dict = {}
    test_pool: dict = {}
    for m in metas:
        cells.setdefault((m.speaker_id, m.phrase_id), []).append(m.utt_id)
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
    if counts[TrialLabel.TW] + counts[TrialLabel.IW] > 0 and len(inventory) < 2:
        raise ValueError("TW/IW trials need at least 2 phrases")

    trials, keys = [], []
    idx = 0
    for label, count in counts.items():
        for _ in range(count):
            model_id, spk, phr = _choice(rng, models)
            if label is TrialLabel.TC:
                pool = test_pool.get((spk, phr), [])
            elif label is TrialLabel.TW:
                pool = [u for (s, p), us in test_pool.items() if s == spk and p != phr for u in us]
            elif label is TrialLabel.IC:
                pool = [u for (s, p), us in test_pool.items() if s != spk and p == phr for u in us]
            else:
                pool = [u for (s, p), us in test_pool.items() if s != spk and p != phr for u in us]
            if not pool:
                raise ValueError(f"infeasible request: no test utterances for label {label.value}")
            test_utt = _choice(rng, pool)
            trial_id = f"t{idx:06d}"
            idx += 1
            trials.append(Trial(trial_id, model_id, test_utt, claimed_phrase_id=phr))
            keys.append(TrialKey(trial_id, label))
    return TrialProtocol(tuple(trials), tuple(keys), enroll_map)


def _gen_ti(metas, counts, n_enroll, rng) -> TrialProtocol:
    # Enroll each speaker on its first n_enroll L1 utterances; every other
    # utterance (any language) is eligible as test material.
    by_spk: dict = {}
    for m in metas:
        by_spk.setdefault(m.speaker_id, []).append(m)
    enroll_map = {}
    test_pool: dict = {}
    for spk, ms in by_spk.items():
        l1 = [m.utt_id for m in ms if m.language is Language.L1]
        if len(l1) < n_enroll:
            continue
        enrolled = l1[:n_enroll]
        rest = [m.utt_id for m in ms if m.utt_id not in set(enrolled)]
        if not rest:
            continue
        enroll_map[f"m_{spk}"] = tuple(enrolled)
        test_pool[spk] = rest
    eligible = sorted(test_pool)
    if len(eligible) < 2:
        raise ValueError(
            "infeasible request: need >=2 speakers with enough L1 utterances to enroll"
        )

    trials, keys = [], []
    idx = 0
    for label, count in counts.items():
        for _ in range(count):
            spk = _choice(rng, eligible)
            if label is TrialLabel.TARGET:
                test_utt = _choice(rng, test_pool[spk])
            else:
                other = _choice(rng, [s for s in eligible if s != spk])
                test_utt = _choice(rng, test_pool[other])
            trial_id = f"t{idx:06d}"
            idx += 1
            trials.append(Trial(trial_id, f"m_{spk}", test_utt, claimed_phrase_id=None))
            keys.append(TrialKey(trial_id, label))
    return TrialProtocol(tuple(trials), tuple(keys), enroll_map)
