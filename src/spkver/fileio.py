"""Bit-exact, line-oriented file formats tying the pipeline together.

All files are UTF-8 with LF endings and single-space separators. Floats are
printed as the shortest decimal that round-trips the underlying 64-bit
value (Python repr), so write -> read reproduces every object exactly.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Dict, Mapping, Sequence

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


class DataFormatError(ValueError):
    """Malformed data file; message carries file and line number."""


def _fmt(value: float) -> str:
    return repr(float(value))


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


def _write_text(path, lines: Sequence[str]) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# embeddings


def write_embeddings(path, embeddings: Sequence[Embedding]) -> None:
    if not embeddings:
        raise ValueError("refusing to write an empty embedding file")
    dim = embeddings[0].dim
    lines = [f"EMB {dim}"]
    for emb in embeddings:
        if emb.dim != dim:
            raise ValueError(f"embedding {emb.utt_id} has dim {emb.dim}, expected {dim}")
        _check_token(emb.utt_id, "utt_id")
        lines.append(emb.utt_id + " " + " ".join(map(repr, emb.vec.tolist())))
    _write_text(path, lines)


def read_embeddings(path) -> list:
    lines = _read_lines(path)
    if not lines or not lines[0].startswith("EMB "):
        _fail(path, 1, "expected 'EMB <dim>' header")
    try:
        dim = int(lines[0].split(" ")[1])
    except (IndexError, ValueError):
        _fail(path, 1, "bad embedding header")
    out = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(" ")
        if len(parts) != dim + 1:
            _fail(path, lineno, f"expected utt_id plus {dim} values, got {len(parts) - 1}")
        try:
            vec = np.asarray(list(map(float, parts[1:])))
        except ValueError:
            _fail(path, lineno, "non-numeric embedding value")
        out.append(Embedding(utt_id=parts[0], vec=vec))
    return out


# ---------------------------------------------------------------------------
# utterance metadata


def write_metas(path, metas: Sequence[UttMeta]) -> None:
    lines = ["META"]
    for m in metas:
        _check_token(m.utt_id, "utt_id")
        _check_token(m.speaker_id, "speaker_id")
        phrase = m.phrase_id if m.phrase_id is not None else "-"
        transcript = m.transcript if m.transcript not in (None, "") else "-"
        lines.append(f"{m.utt_id} {m.speaker_id} {phrase} {m.language.value} {transcript}")
    _write_text(path, lines)


def read_metas(path) -> list:
    lines = _read_lines(path)
    if not lines or lines[0] != "META":
        _fail(path, 1, "expected 'META' header")
    out = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(" ", 4)
        if len(parts) != 5:
            _fail(path, lineno, "expected 5 fields: utt spk phrase lang transcript")
        utt, spk, phrase, lang, transcript = parts
        try:
            language = Language(lang)
        except ValueError:
            _fail(path, lineno, f"unknown language {lang!r}")
        out.append(
            UttMeta(
                utt_id=utt,
                speaker_id=spk,
                phrase_id=None if phrase == "-" else phrase,
                language=language,
                transcript=None if transcript == "-" else transcript,
            )
        )
    return out


# ---------------------------------------------------------------------------
# phrase inventory


def write_inventory(path, inventory: PhraseInventory) -> None:
    lines = ["INV"]
    for entry in inventory:
        _check_token(entry.phrase_id, "phrase_id")
        lines.append(f"{entry.phrase_id} {entry.language.value} {entry.text}")
    _write_text(path, lines)


def read_inventory(path) -> PhraseInventory:
    lines = _read_lines(path)
    if not lines or lines[0] != "INV":
        _fail(path, 1, "expected 'INV' header")
    entries = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(" ", 2)
        if len(parts) != 3:
            _fail(path, lineno, "expected 3 fields: phrase lang text")
        try:
            language = Language(parts[1])
        except ValueError:
            _fail(path, lineno, f"unknown language {parts[1]!r}")
        entries.append(PhraseEntry(phrase_id=parts[0], text=parts[2], language=language))
    return PhraseInventory(tuple(entries))


# ---------------------------------------------------------------------------
# enrollment map, trials, keys, scores


def write_enroll_map(path, enroll_map: Mapping[str, Sequence[str]]) -> None:
    lines = []
    for model_id, utt_ids in enroll_map.items():
        _check_token(model_id, "model_id")
        if not utt_ids:
            raise ValueError(f"model {model_id} has no enrollment utterances")
        lines.append(model_id + " " + " ".join(_check_token(u, "utt_id") for u in utt_ids))
    _write_text(path, lines)


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


def write_trials(path, trials: Sequence[Trial]) -> None:
    lines = []
    for t in trials:
        claimed = t.claimed_phrase_id if t.claimed_phrase_id is not None else "-"
        lines.append(f"{t.trial_id} {t.model_id} {t.test_utt_id} {claimed}")
    _write_text(path, lines)


def read_trials(path) -> list:
    out = []
    for lineno, line in enumerate(_read_lines(path), start=1):
        parts = line.split(" ")
        if len(parts) != 4:
            _fail(path, lineno, "expected 4 fields: trial model test_utt claimed_phrase")
        out.append(
            Trial(
                trial_id=parts[0],
                model_id=parts[1],
                test_utt_id=parts[2],
                claimed_phrase_id=None if parts[3] == "-" else parts[3],
            )
        )
    return out


def write_keys(path, keys: Sequence[TrialKey]) -> None:
    _write_text(path, [f"{k.trial_id} {k.label.value}" for k in keys])


def read_keys(path) -> list:
    out = []
    for lineno, line in enumerate(_read_lines(path), start=1):
        parts = line.split(" ")
        if len(parts) != 2:
            _fail(path, lineno, "expected 2 fields: trial label")
        try:
            label = TrialLabel(parts[1])
        except ValueError:
            _fail(path, lineno, f"unknown trial label {parts[1]!r}")
        out.append(TrialKey(trial_id=parts[0], label=label))
    return out


def write_scores(path, scores: Mapping[str, float]) -> None:
    lines = []
    for trial_id, score in scores.items():
        _check_token(trial_id, "trial_id")
        if not np.isfinite(score):
            raise NumericalError(f"non-finite score {score!r} for trial {trial_id}")
        lines.append(f"{trial_id} {_fmt(score)}")
    _write_text(path, lines)


def read_scores(path) -> dict:
    out: Dict[str, float] = {}
    for lineno, line in enumerate(_read_lines(path), start=1):
        parts = line.split(" ")
        if len(parts) != 2:
            _fail(path, lineno, "expected 2 fields: trial score")
        if parts[0] in out:
            _fail(path, lineno, f"duplicate trial_id {parts[0]}")
        try:
            out[parts[0]] = float(parts[1])
        except ValueError:
            _fail(path, lineno, f"non-numeric score {parts[1]!r}")
    return out


# ---------------------------------------------------------------------------
# typed model containers: named MAT blocks plus a SCALARS block


def write_container(
    path,
    kind: str,
    mats: Mapping[str, np.ndarray],
    scalars: Mapping[str, float],
    strings: Mapping[str, str] = {},
) -> None:
    lines = [kind]
    for name, value in strings.items():
        lines.append(f"STR {_check_token(name, 'name')} {_check_token(value, 'value')}")
    for name, mat in mats.items():
        arr = np.atleast_2d(np.asarray(mat, dtype=np.float64))
        lines.append(f"MAT {_check_token(name, 'name')} {arr.shape[0]} {arr.shape[1]}")
        for row in arr:
            lines.append(" ".join(map(repr, row.tolist())))
    lines.append("SCALARS")
    for name, value in scalars.items():
        lines.append(f"{_check_token(name, 'name')} {_fmt(value)}")
    _write_text(path, lines)


def read_container(path, expected_kind: str = None):
    lines = _read_lines(path)
    if not lines:
        _fail(path, 1, "empty container file")
    kind = lines[0]
    if expected_kind is not None and kind != expected_kind:
        _fail(path, 1, f"expected a {expected_kind} file, found {kind!r}")
    strings: Dict[str, str] = {}
    mats: Dict[str, np.ndarray] = {}
    scalars: Dict[str, float] = {}
    i = 1
    while i < len(lines) and lines[i] != "SCALARS":
        parts = lines[i].split(" ")
        if parts[0] == "STR":
            if len(parts) != 3:
                _fail(path, i + 1, "expected 'STR <name> <value>'")
            strings[parts[1]] = parts[2]
            i += 1
        elif parts[0] == "MAT":
            if len(parts) != 4:
                _fail(path, i + 1, "expected 'MAT <name> <rows> <cols>'")
            try:
                rows, cols = int(parts[2]), int(parts[3])
            except ValueError:
                _fail(path, i + 1, "non-integer matrix shape")
            block = lines[i + 1 : i + 1 + rows]
            if len(block) != rows:
                _fail(path, i + 1, f"matrix {parts[1]} truncated")
            try:
                mat = np.asarray([list(map(float, row.split(" "))) for row in block])
            except ValueError:
                _fail(path, i + 2, f"non-numeric value in matrix {parts[1]}")
            if mat.shape != (rows, cols):
                _fail(path, i + 1, f"matrix {parts[1]} shape mismatch")
            mats[parts[1]] = mat
            i += 1 + rows
        else:
            _fail(path, i + 1, f"unexpected line {lines[i]!r}")
    if i == len(lines):
        _fail(path, len(lines), "missing SCALARS block")
    for lineno, line in enumerate(lines[i + 1 :], start=i + 2):
        parts = line.split(" ")
        if len(parts) != 2:
            _fail(path, lineno, "expected '<name> <value>' scalar line")
        try:
            scalars[parts[0]] = float(parts[1])
        except ValueError:
            _fail(path, lineno, f"non-numeric scalar {parts[1]!r}")
    return kind, strings, mats, scalars


# ---------------------------------------------------------------------------
# concrete model serializers


def write_plda(path, model) -> None:
    write_container(
        path,
        "PLDA",
        mats={"mu": model.mu, "sigma_b": model.sigma_b, "sigma_w": model.sigma_w},
        scalars={},
    )


def read_plda(path):
    from .backend import PldaModel

    _, _, mats, _ = read_container(path, "PLDA")
    for name in ("mu", "sigma_b", "sigma_w"):
        if name not in mats:
            raise DataFormatError(f"{path}: missing matrix {name}")
    return PldaModel(mu=mats["mu"][0], sigma_b=mats["sigma_b"], sigma_w=mats["sigma_w"])


def write_nplda(path, params) -> None:
    write_container(
        path,
        "NPLDA",
        mats={"lam": params.lam, "gamma": params.gamma, "c": params.c},
        scalars={"k": params.k},
    )


def read_nplda(path):
    from .nplda import NpldaParams

    _, _, mats, scalars = read_container(path, "NPLDA")
    for name in ("lam", "gamma", "c"):
        if name not in mats:
            raise DataFormatError(f"{path}: missing matrix {name}")
    if "k" not in scalars:
        raise DataFormatError(f"{path}: missing scalar k")
    return NpldaParams(lam=mats["lam"], gamma=mats["gamma"], c=mats["c"][0], k=scalars["k"])


def write_checkpoint(path, extractor, strategy: str, seed: int) -> None:
    write_container(
        path,
        "CKPT",
        strings={"strategy": strategy},
        mats={
            "w1": extractor.w1,
            "b1": extractor.b1,
            "w2": extractor.w2,
            "b2": extractor.b2,
        },
        scalars={
            "in_dim": extractor.in_dim,
            "hidden_dim": extractor.w1.shape[0],
            "emb_dim": extractor.emb_dim,
            "seed": seed,
        },
    )


def read_checkpoint(path):
    from .extractor import Extractor

    _, strings, mats, scalars = read_container(path, "CKPT")
    for name in ("w1", "b1", "w2", "b2"):
        if name not in mats:
            raise DataFormatError(f"{path}: missing matrix {name}")
    extractor = Extractor(
        w1=mats["w1"], b1=mats["b1"][0], w2=mats["w2"], b2=mats["b2"][0]
    )
    return extractor, strings.get("strategy", ""), int(scalars.get("seed", 0))


def write_lang_classifier(path, classifier) -> None:
    write_container(
        path,
        "LANGCLF",
        mats={"weights": classifier.weights, "bias": classifier.bias},
        scalars={},
    )


def read_lang_classifier(path):
    from .norm import LangClassifier

    _, _, mats, _ = read_container(path, "LANGCLF")
    return LangClassifier(weights=mats["weights"], bias=mats["bias"][0])
