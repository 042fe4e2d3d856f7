"""Core domain types: utterance labels, trials, keys, phrase inventories.

Everything here is immutable after construction; the operations are pure
functions. Labels are columns of equal-length tuples, not per-row objects:
a split is a pair (x, metas), where row i of x is utterance
metas.utt_ids[i] and row i of every other `Metas` column labels it. A
trial list is one `Trials`, its key is one TrialLabel per trial in trial
order, and a `PhraseInventory` holds one column per field. `Frozen` is
the base of the immutable records that check their values.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

import numpy as np


class NumericalError(ArithmeticError):
    """A computation degenerated: zero norm, zero variance, singular model."""


class Frozen:
    """Base of a checked record: its `__init__` checks each field and stores
    it once, through `Frozen.__init__`; assigning or deleting a field later
    raises AttributeError."""

    __slots__ = ()

    def __init__(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


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


class Metas(NamedTuple):
    """Utterance labels as five equal-length columns: utterance utt_ids[i]
    is spoken by speakers[i] in languages[i] (a Language), saying phrase
    phrases[i] with ASR-style transcript transcripts[i]. A phrase or
    transcript is None where it is absent (text-independent data). The
    utterance count is len(metas.utt_ids); len(metas) counts the columns."""

    utt_ids: tuple
    speakers: tuple
    phrases: tuple
    languages: tuple
    transcripts: tuple


class Trials(NamedTuple):
    """A trial list as four equal-length columns. Trial ids[i] asks whether
    utterance test_ids[i] comes from the speaker enrolled as model_ids[i]
    and, text-dependent, speaks phrase claimed[i] (None for TI trials).
    The trial count is len(trials.ids); len(trials) counts the columns."""

    ids: tuple
    model_ids: tuple
    test_ids: tuple
    claimed: tuple


class PhraseInventory(NamedTuple):
    """Closed, ordered inventory of pass-phrases as three equal-length
    columns in file order: phrase phrase_ids[i] is in languages[i] and has
    reference text texts[i]. len(inventory.phrase_ids) counts the phrases."""

    phrase_ids: tuple
    languages: tuple
    texts: tuple


def unit_rows(v: np.ndarray, zero_norm) -> np.ndarray:
    """Divide the rows of an (N, D) array by their norms in place, each norm
    equal to np.linalg.norm of its row, and return it. NumericalError
    (zero_norm(i)) for the first row i of (near) zero norm, with v unchanged."""
    norms = np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])  # per-row dots, as norm takes them
    if (norms < 1e-12).any():
        raise NumericalError(zero_norm(int(np.argmax(norms < 1e-12))))
    v /= norms[:, None]
    return v
