"""Core domain types: utterances, embeddings, enrollment models, trials, keys.

Everything here is immutable after construction; the operations are pure
functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional, Sequence

import numpy as np


class NumericalError(ArithmeticError):
    """A computation degenerated: zero norm, zero variance, singular model."""


class Language(Enum):
    L1 = "L1"
    L2 = "L2"


class TrialLabel(Enum):
    """Trial outcome classes.

    Text-dependent trials use the four-way labels (target-correct,
    target-wrong, impostor-correct, impostor-wrong); only TC is accepted.
    Text-independent trials use TARGET / NONTARGET.
    """

    TC = "TC"
    TW = "TW"
    IC = "IC"
    IW = "IW"
    TARGET = "TGT"
    NONTARGET = "NTG"

    @property
    def is_target(self) -> bool:
        return self in (TrialLabel.TC, TrialLabel.TARGET)


def _as_vector(vec) -> np.ndarray:
    arr = np.asarray(vec, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector has non-finite components")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Embedding:
    """A fixed-dimension vector attached to one utterance."""

    utt_id: str
    vec: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "vec", _as_vector(self.vec))

    @property
    def dim(self) -> int:
        return int(self.vec.shape[0])


@dataclass(frozen=True)
class UttMeta:
    """Speaker / phrase / language / transcript labels for one utterance.

    phrase_id and transcript are None for text-independent data.
    """

    utt_id: str
    speaker_id: str
    phrase_id: Optional[str]
    language: Language
    transcript: Optional[str] = None


@dataclass(frozen=True, eq=False)
class EnrollModel:
    """Representation of a speaker built from enrollment utterances.

    The centroid always has unit Euclidean norm.
    """

    model_id: str
    utt_ids: tuple
    centroid: np.ndarray

    def __post_init__(self) -> None:
        if not self.utt_ids:
            raise ValueError("enrollment model needs at least one utterance")
        vec = _as_vector(self.centroid)
        if abs(float(np.linalg.norm(vec)) - 1.0) > 1e-9:
            raise ValueError("enrollment centroid must have unit norm")
        object.__setattr__(self, "centroid", vec)
        object.__setattr__(self, "utt_ids", tuple(self.utt_ids))


@dataclass(frozen=True)
class Trial:
    """One verification question: does test_utt come from the enrolled speaker
    (and, in the text-dependent case, the claimed phrase)?"""

    trial_id: str
    model_id: str
    test_utt_id: str
    claimed_phrase_id: Optional[str] = None


@dataclass(frozen=True)
class TrialKey:
    trial_id: str
    label: TrialLabel


@dataclass(frozen=True)
class PhraseEntry:
    phrase_id: str
    text: str
    language: Language

    def __post_init__(self) -> None:
        if not self.text:
            raise ValueError(f"phrase {self.phrase_id}: empty reference text")


@dataclass(frozen=True)
class PhraseInventory:
    """Closed, ordered inventory of pass-phrases with reference texts."""

    entries: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        ids = [e.phrase_id for e in self.entries]
        if len(set(ids)) != len(ids):
            raise ValueError("phrase ids must be distinct")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @property
    def phrase_ids(self) -> tuple:
        return tuple(e.phrase_id for e in self.entries)


def build_enroll_model(model_id: str, embeddings: Sequence[Embedding]) -> EnrollModel:
    """Average enrollment embeddings and scale the mean to unit norm.

    Raises ValueError on an empty list or a dimension mismatch, and
    NumericalError when the mean cancels to (near) zero norm.
    """
    if not embeddings:
        raise ValueError("enrollment needs at least one embedding")
    dims = {e.dim for e in embeddings}
    if len(dims) != 1:
        raise ValueError(f"embedding dimension mismatch: {sorted(dims)}")
    mean = np.mean([e.vec for e in embeddings], axis=0)
    norm = float(np.linalg.norm(mean))
    if norm < 1e-12:
        raise NumericalError(f"zero-norm centroid for model {model_id}")
    return EnrollModel(
        model_id=model_id,
        utt_ids=tuple(e.utt_id for e in embeddings),
        centroid=mean / norm,
    )


def validate_protocol(
    trials: Sequence[Trial],
    keys: Sequence[TrialKey],
    metas: Sequence[UttMeta],
    enroll_map: Mapping[str, Sequence[str]],
) -> list:
    """Cross-check a trial protocol; return a list of violation strings.

    An empty report means the protocol is consistent. Nothing is raised:
    all problems are reported.
    """
    report = []

    known_utts = set()
    for meta in metas:
        if meta.utt_id in known_utts:
            report.append(f"duplicate utt_id in metas: {meta.utt_id}")
        known_utts.add(meta.utt_id)

    for model_id, utt_ids in enroll_map.items():
        for utt_id in utt_ids:
            if utt_id not in known_utts:
                report.append(f"model {model_id}: dangling enrollment utterance {utt_id}")

    seen_trials = set()
    for trial in trials:
        if trial.trial_id in seen_trials:
            report.append(f"duplicate trial_id: {trial.trial_id}")
        seen_trials.add(trial.trial_id)
        if trial.model_id not in enroll_map:
            report.append(f"trial {trial.trial_id}: dangling model {trial.model_id}")
        if trial.test_utt_id not in known_utts:
            report.append(f"trial {trial.trial_id}: dangling test utterance {trial.test_utt_id}")

    keyed = set()
    for key in keys:
        if key.trial_id in keyed:
            report.append(f"duplicate key for trial {key.trial_id}")
        keyed.add(key.trial_id)
        if key.trial_id not in seen_trials:
            report.append(f"key {key.trial_id}: no matching trial")
    for trial in trials:
        if trial.trial_id not in keyed:
            report.append(f"trial {trial.trial_id}: missing key")

    return report
