"""File formats tying the pipeline together.

Numeric artifacts are uncompressed `.npz` archives (`np.savez`), read back
with `allow_pickle=False`:

- an id-keyed matrix (features, embeddings) holds `ids`, a 1-D unicode array
  of unique whitespace-free ids, and `x`, a finite 2-D float64 array with one
  row per id (`write_matrix` / `read_matrix`);
- a model file holds named arrays (`write_arrays` / `read_arrays`): the
  extractor checkpoint `w1`, `b1`, `w2`, `b2`, `strategy` and `seed`.

numpy stores every member with a fixed zip timestamp, so equal arrays give
equal bytes. Everything people read (metadata, inventory, trials, keys,
enrollment maps, scores) is UTF-8 text with LF endings and single-space
separators; scores are printed as the shortest decimal that round-trips the
64-bit value (Python repr). Text files travel as columns in file order: a
metadata file as a `Metas` (`write_metas` / `read_metas`), whose rows the
pipeline keeps aligned to the rows of the split's `x`, an inventory as a
`PhraseInventory` (`write_inventory` / `read_inventory`), a trials file as
a `Trials` (`write_trials` / `read_trials`), a
key file as (trial ids, TrialLabels) (`write_keys` / `read_keys`), and a
score file as (trial ids, values), a list of ids and a float64 vector,
which the pipeline keeps row-aligned to the split's trial list
(`write_scores` / `read_scores`).
Every reader raises DataFormatError naming the file and the line or member
at fault.
"""

from __future__ import annotations

import hashlib
import math
import zipfile
from pathlib import Path
from typing import Dict, Mapping, Sequence

import numpy as np

from .core import Language, Metas, NumericalError, PhraseInventory, TrialLabel, Trials


class DataFormatError(ValueError):
    """Malformed data file; the message names the file and the line or member."""


def _check_token(token: str, what: str) -> str:
    if not token or token.split() != [token]:
        raise ValueError(f"{what} {token!r} must be non-empty and whitespace-free")
    return token


def _fail(path, lineno: int, msg: str):
    raise DataFormatError(f"{path}:{lineno}: {msg}")


def _read_lines(path) -> list:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def write_lines(path, lines: Sequence[str]) -> None:
    """Write each line followed by LF, in one go, creating the parent directory."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(line + "\n" for line in lines))


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# binary arrays

# What np.load raises on a truncated or corrupt archive or member.
_NPZ_ERRORS = (OSError, EOFError, KeyError, NotImplementedError, ValueError, zipfile.BadZipFile)


def write_arrays(path, arrays: Mapping[str, np.ndarray]) -> None:
    """Write named arrays as an uncompressed .npz at exactly `path`."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:  # a handle, so numpy adds no .npz suffix
        np.savez(fh, **arrays)


def read_arrays(path, names: Sequence[str]) -> Dict[str, np.ndarray]:
    """The named members of an .npz file; any other member is ignored.

    A file that is not an .npz archive, a missing, truncated or corrupt member
    and an object array (which would need unpickling) raise DataFormatError.
    """
    try:
        fh = open(path, "rb")  # np.load leaks the handles it opens on a corrupt zip
    except OSError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    out = {}
    with fh:
        try:
            npz = np.load(fh, allow_pickle=False)
        except _NPZ_ERRORS as exc:
            raise DataFormatError(f"{path}: not a readable .npz archive: {exc}") from exc
        if isinstance(npz, np.ndarray):
            raise DataFormatError(f"{path}: a bare .npy array, not an .npz archive")
        with npz:
            for name in names:
                if name not in npz.files:
                    raise DataFormatError(f"{path}: missing member {name!r}")
                try:
                    out[name] = npz[name]
                except _NPZ_ERRORS as exc:
                    raise DataFormatError(f"{path}: member {name!r} is unreadable: {exc}") from exc
    return out


def _floats(path, name: str, value: np.ndarray, ndim: int) -> np.ndarray:
    if value.dtype != np.float64 or value.ndim != ndim:
        raise DataFormatError(
            f"{path}: member {name!r} must be a {ndim}-D float64 array, "
            f"got {value.ndim}-D {value.dtype}"
        )
    bad = ~np.isfinite(value)
    if bad.any():
        raise DataFormatError(
            f"{path}: member {name!r} has non-finite values at {np.argwhere(bad)[0].tolist()}"
        )
    return value


def _checked_matrix(path, ids: np.ndarray, x: np.ndarray):
    """Validated (ids as a list of str, x) of an id-keyed matrix."""
    if ids.dtype.kind != "U" or ids.ndim != 1 or ids.size == 0:
        raise DataFormatError(
            f"{path}: member 'ids' must be a non-empty 1-D unicode array, "
            f"got shape {ids.shape} {ids.dtype}"
        )
    id_list = ids.tolist()
    seen = set()
    for token in id_list:
        try:
            _check_token(token, "id")
        except ValueError as exc:
            raise DataFormatError(f"{path}: member 'ids': {exc}") from exc
        if token in seen:
            raise DataFormatError(f"{path}: member 'ids': duplicate id {token!r}")
        seen.add(token)
    _floats(path, "x", x, 2)
    if x.shape[0] != len(id_list):
        raise DataFormatError(
            f"{path}: member 'x' has {x.shape[0]} rows for {len(id_list)} ids"
        )
    return id_list, x


def write_matrix(path, ids: Sequence[str], x: np.ndarray) -> None:
    """Write an id-keyed matrix: `ids` plus `x`, one float64 row per id."""
    ids_arr = np.asarray(ids, dtype=str)
    x = np.ascontiguousarray(x, dtype=np.float64)
    _checked_matrix(path, ids_arr, x)
    write_arrays(path, {"ids": ids_arr, "x": x})


def read_matrix(path):
    """(ids, x) of an id-keyed matrix: a list of str and an (N, D) float64 array."""
    arrays = read_arrays(path, ("ids", "x"))
    return _checked_matrix(path, arrays["ids"], arrays["x"])


# ---------------------------------------------------------------------------
# utterance metadata


def write_metas(path, metas: Metas) -> None:
    """Write one `utt spk phrase lang transcript` line per utterance; an
    absent phrase, and an absent or empty transcript, is written `-`.
    Columns of unequal length raise ValueError."""
    lines = ["META"]
    for utt, spk, phrase, lang, transcript in zip(*metas, strict=True):
        _check_token(utt, "utt_id")
        _check_token(spk, "speaker_id")
        phrase = "-" if phrase is None else _check_token(phrase, "phrase_id")
        transcript = transcript if transcript not in (None, "") else "-"
        lines.append(f"{utt} {spk} {phrase} {lang.value} {transcript}")
    write_lines(path, lines)


def read_metas(path) -> Metas:
    """The utterance labels of a metadata file as columns, in file order; a
    phrase or transcript `-` reads as None. A line without five fields, an
    empty id, a repeated utt_id and an unknown language raise
    DataFormatError naming the line."""
    lines = _read_lines(path)
    if not lines or lines[0] != "META":
        _fail(path, 1, "expected 'META' header")
    utts, spks, phrases, languages, transcripts, seen = [], [], [], [], [], set()
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(" ", 4)
        if len(parts) != 5:
            _fail(path, lineno, "expected 5 fields: utt spk phrase lang transcript")
        utt, spk, phrase, lang, transcript = parts
        for value, what in ((utt, "utt_id"), (spk, "speaker_id"), (phrase, "phrase_id")):
            if not value:
                _fail(path, lineno, f"empty {what}")
        if utt in seen:
            _fail(path, lineno, f"duplicate utt_id {utt}")
        seen.add(utt)
        try:
            languages.append(Language(lang))
        except ValueError:
            _fail(path, lineno, f"unknown language {lang!r}")
        utts.append(utt)
        spks.append(spk)
        phrases.append(None if phrase == "-" else phrase)
        transcripts.append(None if transcript == "-" else transcript)
    return Metas(tuple(utts), tuple(spks), tuple(phrases), tuple(languages), tuple(transcripts))


# ---------------------------------------------------------------------------
# phrase inventory


def write_inventory(path, inventory: PhraseInventory) -> None:
    lines = ["INV"]
    for phrase_id, text, lang in zip(*inventory, strict=True):
        _check_token(phrase_id, "phrase_id")
        if not text:
            raise ValueError(f"phrase {phrase_id}: empty reference text")
        lines.append(f"{phrase_id} {lang.value} {text}")
    write_lines(path, lines)


def read_inventory(path) -> PhraseInventory:
    """The phrases of an inventory file as columns, in file order. A line
    without three fields, an empty phrase id or reference text, a repeated
    phrase id and an unknown language raise DataFormatError naming the line."""
    lines = _read_lines(path)
    if not lines or lines[0] != "INV":
        _fail(path, 1, "expected 'INV' header")
    phrase_ids, texts, languages, seen = [], [], [], set()
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(" ", 2)
        if len(parts) != 3:
            _fail(path, lineno, "expected 3 fields: phrase lang text")
        phrase_id, lang, text = parts
        if not phrase_id:
            _fail(path, lineno, "empty phrase_id")
        if phrase_id in seen:
            _fail(path, lineno, f"duplicate phrase_id {phrase_id}")
        seen.add(phrase_id)
        try:
            languages.append(Language(lang))
        except ValueError:
            _fail(path, lineno, f"unknown language {lang!r}")
        if not text:
            _fail(path, lineno, f"phrase {phrase_id}: empty reference text")
        phrase_ids.append(phrase_id)
        texts.append(text)
    return PhraseInventory(tuple(phrase_ids), tuple(texts), tuple(languages))


# ---------------------------------------------------------------------------
# enrollment map, trials, keys, scores


def write_enroll_map(path, enroll_map: Mapping[str, Sequence[str]]) -> None:
    lines = []
    for model_id, utt_ids in enroll_map.items():
        _check_token(model_id, "model_id")
        if not utt_ids:
            raise ValueError(f"model {model_id} has no enrollment utterances")
        lines.append(model_id + " " + " ".join(_check_token(u, "utt_id") for u in utt_ids))
    write_lines(path, lines)


def read_enroll_map(path) -> dict:
    out: Dict[str, tuple] = {}
    for lineno, line in enumerate(_read_lines(path), start=1):
        parts = line.split(" ")
        if len(parts) < 2:
            _fail(path, lineno, "expected model_id plus at least one utt_id")
        if parts[0] in out:
            _fail(path, lineno, f"duplicate model_id {parts[0]}")
        out[parts[0]] = tuple(parts[1:])
    return out


def write_trials(path, trials: Trials) -> None:
    write_lines(path, [
        f"{trial_id} {model_id} {test_id} {'-' if claimed is None else claimed}"
        for trial_id, model_id, test_id, claimed in zip(*trials)
    ])


def read_trials(path) -> Trials:
    """The trials of a trials file as columns, in file order; a claimed
    phrase `-` reads as None. A line without exactly four fields and a
    repeated trial id raise DataFormatError naming the line."""
    ids, model_ids, test_ids, claimed, seen = [], [], [], [], set()
    for lineno, line in enumerate(_read_lines(path), start=1):
        parts = line.split(" ")
        if len(parts) != 4:
            _fail(path, lineno, "expected 4 fields: trial model test_utt claimed_phrase")
        if parts[0] in seen:
            _fail(path, lineno, f"duplicate trial_id {parts[0]}")
        seen.add(parts[0])
        ids.append(parts[0])
        model_ids.append(parts[1])
        test_ids.append(parts[2])
        claimed.append(None if parts[3] == "-" else parts[3])
    return Trials(tuple(ids), tuple(model_ids), tuple(test_ids), tuple(claimed))


def write_keys(path, trial_ids: Sequence[str], labels: Sequence[TrialLabel]) -> None:
    """Write one `trial_id label` line per trial; `labels` holds one
    TrialLabel per trial id."""
    if len(labels) != len(trial_ids):
        raise ValueError(f"{len(trial_ids)} trial ids for {len(labels)} labels")
    write_lines(path, [f"{t} {label.value}" for t, label in zip(trial_ids, labels)])


_LABELS = {label.value: label for label in TrialLabel}


def read_keys(path):
    """(trial ids, labels) of a key file in file order: a list of str and a
    list of TrialLabel."""
    ids, labels = [], []
    for lineno, line in enumerate(_read_lines(path), start=1):
        parts = line.split(" ")
        if len(parts) != 2:
            _fail(path, lineno, "expected 2 fields: trial label")
        if parts[1] not in _LABELS:
            _fail(path, lineno, f"unknown trial label {parts[1]!r}")
        ids.append(parts[0])
        labels.append(_LABELS[parts[1]])
    return ids, labels


def write_scores(path, trial_ids: Sequence[str], values) -> None:
    """Write one `trial_id score` line per trial; `values` holds one finite
    score per trial id."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (len(trial_ids),):
        raise ValueError(f"{len(trial_ids)} trial ids for scores of shape {values.shape}")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise NumericalError(
            f"non-finite score {float(values[bad[0]])!r} for trial {trial_ids[bad[0]]}")
    if "\n".join(trial_ids).split() != list(trial_ids):  # an empty id or one with whitespace
        for trial_id in trial_ids:
            _check_token(trial_id, "trial_id")
    write_lines(path, [f"{t} {value!r}" for t, value in zip(trial_ids, values.tolist())])


def read_scores(path):
    """(trial ids, scores) of a score file in file order: a list of str and
    a float64 vector. A line without exactly two fields, a repeated trial id
    and a non-numeric or non-finite score raise DataFormatError naming the line."""
    ids, values, seen = [], [], set()
    for lineno, line in enumerate(_read_lines(path), start=1):
        parts = line.split(" ")
        if len(parts) != 2:
            _fail(path, lineno, "expected 2 fields: trial score")
        if parts[0] in seen:
            _fail(path, lineno, f"duplicate trial_id {parts[0]}")
        seen.add(parts[0])
        try:
            value = float(parts[1])
        except ValueError:
            _fail(path, lineno, f"non-numeric score {parts[1]!r}")
        if not math.isfinite(value):
            _fail(path, lineno, f"non-finite score {parts[1]!r} for trial {parts[0]}")
        ids.append(parts[0])
        values.append(value)
    return ids, np.asarray(values, dtype=np.float64)


# ---------------------------------------------------------------------------
# checkpoint


def write_checkpoint(path, extractor, strategy: str, seed: int) -> None:
    write_arrays(path, {
        "w1": extractor.w1,
        "b1": extractor.b1,
        "w2": extractor.w2,
        "b2": extractor.b2,
        "strategy": np.asarray(_check_token(strategy, "strategy")),
        "seed": np.asarray(seed, dtype=np.int64),
    })


def read_checkpoint(path):
    from .extractor import Extractor

    arrays = read_arrays(path, ("w1", "b1", "w2", "b2", "strategy", "seed"))
    strategy, seed = arrays["strategy"], arrays["seed"]
    if strategy.dtype.kind != "U" or strategy.ndim != 0:
        raise DataFormatError(f"{path}: member 'strategy' must be a unicode scalar")
    if seed.dtype != np.int64 or seed.ndim != 0:
        raise DataFormatError(f"{path}: member 'seed' must be an int64 scalar")
    extractor = Extractor(**{
        name: _floats(path, name, arrays[name], ndim)
        for name, ndim in (("w1", 2), ("b1", 1), ("w2", 2), ("b2", 1))
    })
    return extractor, str(strategy), int(seed)

