"""File formats tying the pipeline together.

Numeric artifacts are uncompressed `.npz` archives (`np.savez`), read back
with `allow_pickle=False`. numpy stamps every member with a fixed zip time,
so equal arrays give equal bytes.

- An id-keyed matrix (features, embeddings) holds `ids`, a 1-D unicode array
  of unique tokens (below), and `x`, a finite 2-D float64 array with one row
  per id (`write_matrix` / `read_matrix`).
- A model file holds named arrays (`write_arrays` / `read_arrays`): the
  extractor checkpoint `w1`, `b1`, `w2`, `b2`, `strategy` and `seed`.

Everything people read is UTF-8 text with LF endings: an optional header
line, then one row per line, fields separated by single spaces. One row
rule holds for every text format, and a writer raises ValueError, before it
writes, for exactly the rows its reader rejects, so a file written reads
back as given:

- a token is a non-empty, whitespace-free str; every field is a token but a
  free last field, which may hold spaces but no line break;
- an optional field (marked ?) holds None as "-", so "-" is no value there;
- the first field is the row's key, unique in its file.

The formats:

- metadata: header `META`, rows `utt_id speaker_id phrase_id? language
  transcript?`, the free transcript possibly empty;
- inventory: header `INV`, rows `phrase_id language text`, the free
  reference text not empty;
- enrollment map: rows `model_id utt_id...`, one or more utterance ids;
- trials: rows `trial_id model_id test_id claimed_phrase?`;
- keys: rows `trial_id label`;
- scores: rows `trial_id score`, each score finite and written as the
  shortest decimal that round-trips it (Python repr).

Each reads as columns in file order: a `Metas` row-aligned to its split's
`x`, a `PhraseInventory`, a dict of utterance-id tuples, a `Trials`, and
(trial ids, values) row-aligned to the split's trials.
Every reader raises DataFormatError naming the file and the line or member
at fault.
"""

from __future__ import annotations

import hashlib
import zipfile
from operator import attrgetter
from pathlib import Path
from typing import Callable, Dict, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .core import Language, Metas, NumericalError, PhraseInventory, TrialLabel, Trials


class DataFormatError(ValueError):
    """Malformed data file; the message names the file and the line or member."""


def _fail(path, lineno: int, msg: str):
    raise DataFormatError(f"{path}:{lineno}: {msg}")


def _check_tokens(values: list, what: str, path=None, lines: Sequence[int] = ()) -> None:
    """Raise ValueError, or with a `path` DataFormatError naming line lines[i],
    for the first values[i] that is not a token."""
    if "\n".join(values).split() == values:  # one C-level pass
        return
    i, value = next((i, v) for i, v in enumerate(values) if v.split() != [v])
    msg = f"{what} {value!r} must be non-empty and whitespace-free"
    if path is None:
        raise ValueError(msg)
    _fail(path, lines[i], f"empty {what}" if value == "" else msg)


def _repeat(values: list) -> Optional[int]:
    """The index of the first value equal to an earlier one, or None."""
    first: Dict[str, int] = {}
    return None if len(set(values)) == len(values) else next(
        i for i, v in enumerate(values) if first.setdefault(v, i) != i)


def _read_lines(path) -> list:
    """The lines of a UTF-8 text file with LF endings; invalid UTF-8 and a
    carriage return anywhere raise DataFormatError naming the line."""
    try:
        data = Path(path).read_bytes()
        text = data.decode("utf-8")
    except OSError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        _fail(path, data.count(b"\n", 0, exc.start) + 1, f"not UTF-8: {exc}")
    if "\r" in text:
        _fail(path, text.count("\n", 0, text.index("\r")) + 1, "carriage return (LF endings only)")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def write_lines(path, lines: Sequence[str]) -> None:
    """Write each line followed by LF, in one go, creating the parent directory."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join([*lines, ""]))


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
    try:
        _check_tokens(id_list, "id")
    except ValueError as exc:
        raise DataFormatError(f"{path}: member 'ids': {exc}") from exc
    i = _repeat(id_list)
    if i is not None:
        raise DataFormatError(f"{path}: member 'ids': duplicate id {id_list[i]!r}")
    _floats(path, "x", x, 2)
    if x.shape[0] != len(id_list):
        raise DataFormatError(
            f"{path}: member 'x' has {x.shape[0]} rows for {len(id_list)} ids"
        )
    return id_list, x


def write_matrix(path, ids: Sequence[str], x: np.ndarray) -> None:
    """Write an id-keyed matrix: `ids` plus `x`, one float64 row per id. An
    id that numpy's unicode array would change (a trailing NUL, a non-str)
    raises ValueError before anything is written."""
    ids_arr = np.asarray(ids, dtype=str)
    kept = ids_arr.tolist()
    if kept != list(ids):
        given, back = next((a, b) for a, b in zip(ids, kept) if a != b)
        raise ValueError(f"id {given!r} would read back as {back!r}")
    x = np.ascontiguousarray(x, dtype=np.float64)
    _checked_matrix(path, ids_arr, x)
    write_arrays(path, {"ids": ids_arr, "x": x})


def read_matrix(path):
    """(ids, x) of an id-keyed matrix: a list of str and an (N, D) float64 array."""
    arrays = read_arrays(path, ("ids", "x"))
    return _checked_matrix(path, arrays["ids"], arrays["x"])


# ---------------------------------------------------------------------------
# text rows


class _Field(NamedTuple):
    """A text field, named `name` in messages; an `optional` one holds None as "-".
    `parse` maps its text to a value (raising KeyError or ValueError, reported as
    `bad` formatted with the text) and `show` a value to its text (None: as is)."""

    name: str
    optional: bool = False
    parse: Optional[Callable] = None
    bad: str = ""
    show: Optional[Callable] = None


class _Format(NamedTuple):
    """A header line or None, the fields, whether the last is free, and the message
    (formatted with the key) for an empty free field, "" where it may be empty."""

    header: Optional[str]
    fields: tuple
    free: bool = False
    empty: str = ""


def _read_rows(path, fmt: _Format) -> list:
    """The columns of a text file, one list per field in file order, with
    "-" read as None in optional fields and parsed fields parsed. A row that
    breaks the row rule raises DataFormatError naming its line."""
    lines = _read_lines(path)
    if fmt.header is not None and lines[:1] != [fmt.header]:
        _fail(path, 1, f"expected {fmt.header!r} header")
    first = 1 + (fmt.header is not None)  # the line number of the first row
    n = len(fmt.fields)
    rows = [line.split(" ", n - 1 if fmt.free else -1) for line in lines[first - 1:]]
    if set(map(len, rows)) - {n}:
        i = next(i for i, row in enumerate(rows) if len(row) != n)
        _fail(path, first + i, f"expected {n} fields: {' '.join(f.name for f in fmt.fields)}")
    columns = [list(column) for column in zip(*rows)] or [[] for _ in fmt.fields]
    for k, (column, field) in enumerate(zip(columns, fmt.fields)):
        if not (fmt.free and k == n - 1):
            _check_tokens(column, field.name, path, range(first, first + len(column)))
        elif fmt.empty and "" in column:
            _fail(path, first + column.index(""), fmt.empty.format(columns[0][column.index("")]))
        if field.optional:
            columns[k] = column = [None if text == "-" else text for text in column]
        if field.parse is not None:
            try:
                columns[k] = list(map(field.parse, column))
            except (KeyError, ValueError):
                for i, text in enumerate(column):
                    try:
                        field.parse(text)
                    except (KeyError, ValueError):
                        _fail(path, first + i, field.bad.format(text))
    i = _repeat(columns[0])
    if i is not None:
        _fail(path, first + i, f"duplicate {fmt.fields[0].name} {columns[0][i]}")
    return columns


def _write_rows(path, fmt: _Format, columns: Sequence[Sequence]) -> None:
    """Write one row per index of `columns`, one sequence per field. Columns
    of unequal length and a value that breaks the row rule raise ValueError
    before anything is written."""
    texts = []
    for column, field in zip(columns, fmt.fields):
        if field.optional:
            if "-" in column:
                raise ValueError(f"{field.name} '-' would read back as absent")
            column = ["-" if value is None else value for value in column]
        column = list(column if field.show is None else map(field.show, column))
        if not (fmt.free and field is fmt.fields[-1]):
            _check_tokens(column, field.name)
        elif fmt.empty and "" in column:
            raise ValueError(fmt.empty.format(texts[0][column.index("")]))
        elif "\n" in "".join(column) or "\r" in "".join(column):
            text = next(text for text in column if "\n" in text or "\r" in text)
            raise ValueError(f"{field.name} {text!r} holds a line break")
        texts.append(column)
    i = _repeat(texts[0])
    if i is not None:
        raise ValueError(f"duplicate {fmt.fields[0].name} {texts[0][i]}")
    rows = list(map(" ".join, zip(*texts, strict=True)))  # ValueError for unequal columns
    write_lines(path, [fmt.header] * (fmt.header is not None) + rows)


_LANGUAGE = _Field("language", parse={m.value: m for m in Language}.__getitem__,
                   bad="unknown language {!r}", show=attrgetter("value"))
_METAS = _Format("META", (
    _Field("utt_id"), _Field("speaker_id"), _Field("phrase_id", optional=True), _LANGUAGE,
    _Field("transcript", optional=True)), free=True)
_INVENTORY = _Format("INV", (_Field("phrase_id"), _LANGUAGE, _Field("text")),
                     free=True, empty="phrase {}: empty reference text")
_ENROLL = _Format(None, (_Field("model_id"), _Field("utt_ids")),
                  free=True, empty="model {} has no enrollment utterances")
_TRIALS = _Format(None, (_Field("trial_id"), _Field("model_id"), _Field("test_id"),
                         _Field("claimed_phrase", optional=True)))
_KEYS = _Format(None, (_Field("trial_id"), _Field(
    "label", parse={m.value: m for m in TrialLabel}.__getitem__,
    bad="unknown trial label {!r}", show=attrgetter("value"))))
_SCORES = _Format(None, (
    _Field("trial_id"), _Field("score", parse=float, bad="non-numeric score {!r}", show=repr)))


def write_metas(path, metas: Metas) -> None:
    """Write a metadata file, one row per utterance (see the module docstring)."""
    _write_rows(path, _METAS, metas)


def read_metas(path) -> Metas:
    """The utterance labels of a metadata file as columns, in file order."""
    return Metas(*map(tuple, _read_rows(path, _METAS)))


def write_inventory(path, inventory: PhraseInventory) -> None:
    """Write an inventory file, one row per phrase."""
    _write_rows(path, _INVENTORY, (inventory.phrase_ids, inventory.languages, inventory.texts))


def read_inventory(path) -> PhraseInventory:
    """The phrases of an inventory file as columns, in file order."""
    phrase_ids, languages, texts = _read_rows(path, _INVENTORY)
    return PhraseInventory(tuple(phrase_ids), tuple(texts), tuple(languages))


def write_enroll_map(path, enroll_map: Mapping[str, Sequence[str]]) -> None:
    """Write an enrollment map, one row per model with its utterance ids."""
    _check_tokens([utt for utts in enroll_map.values() for utt in utts], "utt_id")
    _write_rows(path, _ENROLL, (list(enroll_map), [" ".join(u) for u in enroll_map.values()]))


def read_enroll_map(path) -> dict:
    """Model id -> tuple of enrollment utterance ids, in file order."""
    model_ids, texts = _read_rows(path, _ENROLL)
    utt_ids = [text.split(" ") for text in texts]
    _check_tokens([utt for ids in utt_ids for utt in ids], "utt_id", path,
                  [lineno for lineno, ids in enumerate(utt_ids, start=1) for _ in ids])
    return dict(zip(model_ids, map(tuple, utt_ids)))


def write_trials(path, trials: Trials) -> None:
    """Write a trials file, one row per trial."""
    _write_rows(path, _TRIALS, trials)


def read_trials(path) -> Trials:
    """The trials of a trials file as columns, in file order."""
    return Trials(*map(tuple, _read_rows(path, _TRIALS)))


def write_keys(path, trial_ids: Sequence[str], labels: Sequence[TrialLabel]) -> None:
    """Write one TrialLabel per trial id."""
    if len(labels) != len(trial_ids):
        raise ValueError(f"{len(trial_ids)} trial ids for {len(labels)} labels")
    _write_rows(path, _KEYS, (trial_ids, labels))


def read_keys(path):
    """(trial ids, labels): a list of str and a list of TrialLabel."""
    return tuple(_read_rows(path, _KEYS))


def write_scores(path, trial_ids: Sequence[str], values) -> None:
    """Write one finite score per trial id; NumericalError for a non-finite one."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (len(trial_ids),):
        raise ValueError(f"{len(trial_ids)} trial ids for scores of shape {values.shape}")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise NumericalError(
            f"non-finite score {float(values[bad[0]])!r} for trial {trial_ids[bad[0]]}")
    _write_rows(path, _SCORES, (trial_ids, values.tolist()))


def read_scores(path):
    """(trial ids, scores): a list of str and a float64 vector."""
    ids, values = _read_rows(path, _SCORES)
    values = np.asarray(values, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:  # the message quotes the line's text
        i, text = int(bad[0]), _read_lines(path)[bad[0]].split(" ")[1]
        _fail(path, i + 1, f"non-finite score {text!r} for trial {ids[i]}")
    return ids, values


# ---------------------------------------------------------------------------
# checkpoint


def write_checkpoint(path, extractor, strategy: str, seed: int) -> None:
    _check_tokens([strategy], "strategy")
    write_arrays(path, {
        "w1": extractor.w1,
        "b1": extractor.b1,
        "w2": extractor.w2,
        "b2": extractor.b2,
        "strategy": np.asarray(strategy),
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

