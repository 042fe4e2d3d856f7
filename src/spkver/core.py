"""Core domain types: utterance labels, trials, keys, phrase inventories.

Everything here is immutable after construction; the operations are pure
functions. Vectors are plain arrays: a split is a pair (ids, x) with one row
of x per id. Trials and keys are columns: a trial list is one `Trials` of
equal-length tuples, and its key is one TrialLabel per trial, in trial order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, NamedTuple, Optional, Sequence

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


class Trials(NamedTuple):
    """A trial list as four equal-length columns. Trial ids[i] asks whether
    utterance test_ids[i] comes from the speaker enrolled as model_ids[i]
    and, text-dependent, speaks phrase claimed[i] (None for TI trials).
    The trial count is len(trials.ids); len(trials) counts the columns."""

    ids: tuple
    model_ids: tuple
    test_ids: tuple
    claimed: tuple


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


def build_enroll_model(model_id: str, rows: np.ndarray) -> np.ndarray:
    """The unit-norm mean of a model's (n, D) enrollment rows: its centroid.

    Raises ValueError unless the rows form a non-empty (n, D) array, and
    NumericalError when the mean cancels to (near) zero norm.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise ValueError(f"model {model_id}: expected (n, D) enrollment rows, got {rows.shape}")
    mean = rows.mean(axis=0)
    norm = float(np.linalg.norm(mean))
    if norm < 1e-12:
        raise NumericalError(f"zero-norm centroid for model {model_id}")
    return mean / norm


def validate_protocol(
    trials: Trials,
    labels: Sequence[TrialLabel],
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
    for trial_id, model_id, test_id in zip(trials.ids, trials.model_ids, trials.test_ids):
        if trial_id in seen_trials:
            report.append(f"duplicate trial_id: {trial_id}")
        seen_trials.add(trial_id)
        if model_id not in enroll_map:
            report.append(f"trial {trial_id}: dangling model {model_id}")
        if test_id not in known_utts:
            report.append(f"trial {trial_id}: dangling test utterance {test_id}")

    if len(labels) != len(trials.ids):
        report.append(f"{len(labels)} labels for {len(trials.ids)} trials")

    return report
