import hashlib
import io
import os
import re
import zipfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from spkver import fileio
from spkver.core import Language, Metas, NumericalError, PhraseInventory, TrialLabel, Trials
from spkver.extractor import Extractor
from spkver.fileio import DataFormatError


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def _savez(path, **arrays):
    """Write an .npz directly, bypassing the checks of fileio's writers."""
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


class Unpickled(Exception):
    pass


def _trip():
    raise Unpickled


class _Tripwire:
    """Raises Unpickled when it is unpickled."""

    def __reduce__(self):
        return _trip, ()


# awkward float64 values: signed zeros, subnormals, extremes and the 1-ulp
# neighbours of each
_MAX = float(np.finfo(np.float64).max)
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, _MAX, -_MAX, 1.0, 0.1, 1e16]
_EDGES += [float(np.nextafter(v, d)) for v in _EDGES[:] for d in (-_MAX, _MAX)]
_FLOATS = st.one_of(st.sampled_from(_EDGES), st.floats(allow_nan=False, allow_infinity=False))
# ids that str.split() keeps whole: no separators, no control characters
_IDS = st.text(st.characters(exclude_categories=("Zs", "Zl", "Zp", "Cc", "Cs")), min_size=1)


class TestEmbeddingRoundTrip:
    @given(data=st.data(), n=st.integers(1, 6), dim=st.integers(1, 5))
    def test_bitwise_round_trip(self, tmp_path_factory, data, n, dim):
        ids = data.draw(st.lists(_IDS, min_size=n, max_size=n, unique=True))
        x = data.draw(hnp.arrays(np.float64, (n, dim), elements=_FLOATS))
        path = tmp_path_factory.getbasetemp() / "round_trip.npz"
        fileio.write_matrix(path, ids, x)
        back_ids, back_x = fileio.read_matrix(path)
        assert back_ids == ids
        assert back_x.dtype == np.float64 and back_x.shape == (n, dim)
        np.testing.assert_array_equal(back_x.view(np.uint64), x.view(np.uint64))

    def test_rewrite_is_byte_identical(self, tmp_path, rng):
        ids, x = [f"u{i}" for i in range(5)], rng.normal(size=(5, 3))
        p1, p2, p3 = tmp_path / "a.npz", tmp_path / "b.npz", tmp_path / "c.npz"
        fileio.write_matrix(p1, ids, x)
        fileio.write_matrix(p2, ids, x.copy())
        fileio.write_matrix(p3, *fileio.read_matrix(p1))
        assert p1.read_bytes() == p2.read_bytes() == p3.read_bytes()
        # numpy stamps every member with the fixed zip epoch, not the clock
        with zipfile.ZipFile(p1) as zf:
            assert {info.date_time for info in zf.infolist()} == {(1980, 1, 1, 0, 0, 0)}

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.npz"
        path.write_text("nope 1.0\n")
        with pytest.raises(DataFormatError, match="bad.npz: not a readable .npz archive"):
            fileio.read_matrix(path)
        np.save(path.with_suffix(".npy"), np.ones((2, 2)))
        path.write_bytes(path.with_suffix(".npy").read_bytes())
        with pytest.raises(DataFormatError, match="bad.npz: a bare .npy array"):
            fileio.read_matrix(path)

    def test_row_count_mismatch_reported(self, tmp_path):
        path = tmp_path / "bad.npz"
        _savez(path, ids=np.asarray(["u1", "u2"]), x=np.ones((3, 2)))
        with pytest.raises(DataFormatError, match="bad.npz: member 'x' has 3 rows for 2 ids"):
            fileio.read_matrix(path)
        _savez(path, ids=np.asarray(["u1", "u2"]), x=np.ones(2))
        with pytest.raises(DataFormatError, match="member 'x' must be a 2-D float64 array"):
            fileio.read_matrix(path)

    def test_whitespace_id_rejected_on_write(self, tmp_path):
        path = tmp_path / "x.npz"
        with pytest.raises(DataFormatError, match="x.npz: member 'ids'.*whitespace-free"):
            fileio.write_matrix(path, ["a b"], np.ones((1, 2)))
        assert not path.exists()

    @pytest.mark.parametrize("utt_id", ["", "a\tb", "a\nb", "a\u00a0b", "a\u2003b", " a"])
    def test_any_whitespace_or_empty_id_rejected(self, tmp_path, utt_id):
        with pytest.raises(ValueError, match="whitespace-free"):
            fileio.write_matrix(tmp_path / "x.npz", [utt_id], np.ones((1, 2)))
        path = tmp_path / "y.npz"
        _savez(path, ids=np.asarray(["u", utt_id]), x=np.ones((2, 2)))
        with pytest.raises(DataFormatError, match="y.npz: member 'ids'.*whitespace-free"):
            fileio.read_matrix(path)

    @pytest.mark.parametrize("ids", [["a\x00", "b"], ["a\x00", "a"]])
    def test_id_numpy_would_change_is_never_written(self, tmp_path, ids):
        # numpy's unicode arrays drop trailing NULs: the first read back as
        # ['a', 'b'], the second was refused as a duplicate of 'a'
        path = tmp_path / "x.npz"
        with pytest.raises(ValueError, match=r"id 'a\\x00' would read back as 'a'"):
            fileio.write_matrix(path, ids, np.ones((2, 2)))
        assert not path.exists()

    def test_duplicate_id_reported(self, tmp_path):
        with pytest.raises(DataFormatError, match="duplicate id 'u1'"):
            fileio.write_matrix(tmp_path / "x.npz", ["u1", "u2", "u1"], np.ones((3, 2)))
        path = tmp_path / "y.npz"
        _savez(path, ids=np.asarray(["u1", "u1"]), x=np.ones((2, 2)))
        with pytest.raises(DataFormatError, match="y.npz: member 'ids': duplicate id 'u1'"):
            fileio.read_matrix(path)

    def test_empty_matrix_refused(self, tmp_path):
        with pytest.raises(DataFormatError, match="non-empty 1-D unicode array"):
            fileio.write_matrix(tmp_path / "x.npz", [], np.ones((0, 2)))

    def test_file_holds_ids_and_x_members(self, tmp_path, rng):
        ids, x = ["u0", "u1", "u2"], rng.normal(size=(3, 4))
        path = tmp_path / "x.npz"
        fileio.write_matrix(path, ids, x)
        with np.load(path, allow_pickle=False) as npz:
            assert npz.files == ["ids", "x"]
            assert npz["ids"].dtype.kind == "U" and npz["ids"].tolist() == ids
            assert npz["x"].dtype == np.float64
            np.testing.assert_array_equal(npz["x"], x)

    def test_non_float64_matrix_reported(self, tmp_path):
        path = tmp_path / "bad.npz"
        for x in (np.ones((2, 2), dtype=np.int64), np.asarray([["1.0", "x"], ["1", "2"]]),
                  np.ones((2, 2), dtype=np.float32)):
            _savez(path, ids=np.asarray(["u1", "u2"]), x=x)
            with pytest.raises(DataFormatError,
                               match="bad.npz: member 'x' must be a 2-D float64 array"):
                fileio.read_matrix(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_vector_rejected_on_read(self, tmp_path, bad):
        path = tmp_path / "bad.npz"
        _savez(path, ids=np.asarray(["u1", "u2"]), x=np.array([[1.0, 2.0], [1.0, float(bad)]]))
        with pytest.raises(DataFormatError,
                           match=r"bad.npz: member 'x' has non-finite values at \[1, 1\]"):
            fileio.read_matrix(path)

    def test_non_finite_matrix_never_written(self, tmp_path):
        path = tmp_path / "x.npz"
        with pytest.raises(DataFormatError, match="non-finite"):
            fileio.write_matrix(path, ["u1"], np.array([[0.5, np.nan]]))
        assert not path.exists()

    def test_missing_member_reported(self, tmp_path):
        path = tmp_path / "bad.npz"
        _savez(path, ids=np.asarray(["u1"]))
        with pytest.raises(DataFormatError, match="bad.npz: missing member 'x'"):
            fileio.read_matrix(path)

    @pytest.mark.parametrize("member", ["ids", "x"])
    def test_object_array_is_refused_unopened(self, tmp_path, member):
        arrays = {"ids": np.asarray(["u1"]), "x": np.ones((1, 2))}
        arrays[member] = np.asarray([_Tripwire()], dtype=object)
        path = tmp_path / "bad.npz"
        _savez(path, **arrays)
        with pytest.raises(DataFormatError, match=f"bad.npz: member '{member}' is unreadable"):
            fileio.read_matrix(path)
        with np.load(path, allow_pickle=True) as npz, pytest.raises(Unpickled):
            npz[member]  # the tripwire does fire when unpickled

    def test_every_truncation_and_corruption_is_reported(self, tmp_path):
        ids, x = ["u1", "u2"], np.arange(6.0).reshape(2, 3)
        good = io.BytesIO()
        np.savez(good, ids=np.asarray(ids), x=x)
        data = good.getvalue()
        path = tmp_path / "bad.npz"
        damaged = [data[:n] for n in range(len(data))]
        damaged += [data[:i] + bytes([data[i] ^ 0xFF]) + data[i + 1:] for i in range(len(data))]
        n_reported = 0
        for blob in damaged:
            path.write_bytes(blob)
            try:
                back = fileio.read_matrix(path)
            except DataFormatError as exc:
                assert str(exc).startswith(f"{path}: ")
                n_reported += 1
            else:  # damage to a field numpy does not read must not change the data
                assert back[0] == ids
                np.testing.assert_array_equal(back[1], x)
        assert n_reported > len(data)


# a transcript: whitespace-free words joined by single spaces, never the "-" of an absent one
_TEXTS = st.lists(_IDS, min_size=1, max_size=3).map(" ".join).filter(lambda t: t != "-")


class TestMetaRoundTrip:
    def test_round_trip_with_optional_fields(self, tmp_path):
        metas = Metas(("u1", "u2", "u3"), ("s1", "s1", "s2"), ("ph00", None, "ph01"),
                      (Language.L1, Language.L2, Language.L1), ("hello there friend", None, "x"))
        path = tmp_path / "m.meta"
        fileio.write_metas(path, metas)
        assert fileio.read_metas(path) == metas

    def test_transcript_keeps_internal_spaces(self, tmp_path):
        metas = Metas(("u1",), ("s1",), ("p",), (Language.L1,), ("a b c d",))
        path = tmp_path / "m.meta"
        fileio.write_metas(path, metas)
        assert fileio.read_metas(path).transcripts == ("a b c d",)

    # an absent phrase or transcript (None) is written as "-"
    @given(st.lists(st.tuples(_IDS, _IDS, st.none() | _IDS.filter(lambda t: t != "-"),
                              st.sampled_from(Language), st.none() | _TEXTS),
                    unique_by=lambda row: row[0], max_size=12))
    def test_columns_round_trip(self, tmp_path_factory, rows):
        path = tmp_path_factory.getbasetemp() / "m.meta"
        metas = Metas(*(tuple(row[k] for row in rows) for k in range(5)))
        fileio.write_metas(path, metas)
        lines = [f"{utt} {spk} {phrase or '-'} {lang.value} {transcript or '-'}"
                 for utt, spk, phrase, lang, transcript in rows]
        assert path.read_bytes() == "".join(f"{line}\n" for line in ["META"] + lines).encode()
        assert fileio.read_metas(path) == metas

    @pytest.mark.parametrize("metas", [
        Metas(("u1", "u2"), ("s1",), (None, None), (Language.L1,) * 2, (None, None)),
        Metas(("u1",), ("s1",), ("",), (Language.L1,), (None,)),
    ])
    def test_unequal_columns_or_empty_phrase_are_not_written(self, tmp_path, metas):
        with pytest.raises(ValueError):
            fileio.write_metas(tmp_path / "m.meta", metas)
        assert not (tmp_path / "m.meta").exists()

    @pytest.mark.parametrize("line, field", [
        (" s1 ph00 L1 -", "utt_id"),
        ("u1  ph00 L1 -", "speaker_id"),
        ("u1 s1  L1 -", "phrase_id"),
    ])
    def test_empty_id_names_the_line(self, tmp_path, line, field):
        # these read as '' before; write_metas refuses to write such values
        path = tmp_path / "m.meta"
        path.write_text(f"META\nu0 s0 ph00 L2 -\n{line}\n")
        with pytest.raises(DataFormatError, match=f"m.meta:3: empty {field}$"):
            fileio.read_metas(path)

    def test_unknown_language_reports_line(self, tmp_path):
        path = tmp_path / "m.meta"
        path.write_text("META\nu1 s1 - L9 -\n")
        with pytest.raises(DataFormatError, match="m.meta:2"):
            fileio.read_metas(path)

    def test_duplicate_utt_id_names_the_line(self, tmp_path):
        path = tmp_path / "m.meta"
        path.write_text("META\nu1 s1 - L1 -\nu2 s1 - L1 -\nu1 s2 - L2 other words\n")
        with pytest.raises(DataFormatError, match="m.meta:4: duplicate utt_id u1$"):
            fileio.read_metas(path)


class TestProtocolFiles:
    def test_trials_keys_enroll_round_trip(self, tmp_path):
        trials = Trials(("t1", "t2"), ("m1", "m1"), ("u1", "u2"), ("ph00", None))
        labels = [TrialLabel.TC, TrialLabel.NONTARGET]
        enroll = {"m1": ("u3", "u4"), "m2": ("u5",)}
        fileio.write_trials(tmp_path / "t.txt", trials)
        fileio.write_keys(tmp_path / "k.txt", trials.ids, labels)
        fileio.write_enroll_map(tmp_path / "e.txt", enroll)
        assert (tmp_path / "t.txt").read_text() == "t1 m1 u1 ph00\nt2 m1 u2 -\n"
        assert (tmp_path / "k.txt").read_text() == "t1 TC\nt2 NTG\n"
        assert fileio.read_trials(tmp_path / "t.txt") == trials
        assert fileio.read_keys(tmp_path / "k.txt") == (("t1", "t2"), tuple(labels))
        assert fileio.read_enroll_map(tmp_path / "e.txt") == enroll

    # a claimed phrase of None (text-independent) is written as "-"
    @given(st.lists(st.tuples(_IDS, _IDS, _IDS, st.none() | _IDS.filter(lambda t: t != "-"),
                              st.sampled_from(list(TrialLabel))), max_size=20))
    def test_trials_and_keys_round_trip(self, tmp_path_factory, rows):
        path = tmp_path_factory.getbasetemp()
        trials = Trials(*(tuple(row[k] for row in rows) for k in range(4)))
        labels = [row[4] for row in rows]
        repeat = next((t for i, t in enumerate(trials.ids) if t in trials.ids[:i]), None)
        if repeat is not None:  # neither writer writes a file its reader rejects
            for write in (lambda p: fileio.write_trials(p, trials),
                          lambda p: fileio.write_keys(p, trials.ids, labels)):
                (path / "x.txt").unlink(missing_ok=True)
                with pytest.raises(ValueError, match=f"^duplicate trial_id {re.escape(repeat)}$"):
                    write(path / "x.txt")
                assert not (path / "x.txt").exists()
            return
        fileio.write_trials(path / "t.txt", trials)
        fileio.write_keys(path / "k.txt", trials.ids, labels)
        assert fileio.read_keys(path / "k.txt") == (trials.ids, tuple(labels))
        assert fileio.read_trials(path / "t.txt") == trials

    def test_key_count_must_match_trial_ids(self, tmp_path):
        with pytest.raises(ValueError, match="2 trial ids for 1 labels"):
            fileio.write_keys(tmp_path / "k.txt", ["t0", "t1"], [TrialLabel.TC])
        assert not (tmp_path / "k.txt").exists()

    def test_key_tokens(self, tmp_path):
        path = tmp_path / "k.txt"
        path.write_text("t1 TGT\nt2 NTG\nt3 TW\n")
        ids, labels = fileio.read_keys(path)
        assert ids == ("t1", "t2", "t3")
        assert labels == (TrialLabel.TARGET, TrialLabel.NONTARGET, TrialLabel.TW)

    def test_scores_round_trip_and_duplicate_detection(self, tmp_path, rng):
        ids, values = [f"t{i}" for i in range(30)], rng.normal(size=30)
        path = tmp_path / "s.txt"
        fileio.write_scores(path, ids, values)
        back_ids, back = fileio.read_scores(path)
        assert back_ids == tuple(ids) and back.dtype == np.float64
        np.testing.assert_array_equal(back, values)
        path.write_text("t1 0.5\nt1 0.7\n")
        with pytest.raises(DataFormatError, match="duplicate"):
            fileio.read_scores(path)

    def test_score_file_bytes_are_id_and_repr_per_line(self, tmp_path, rng):
        values = [float(v) for v in rng.normal(size=40) * 10.0 ** rng.integers(-12, 12, 40)]
        values += [0.0, -0.0, 5e-324, 1e308, -1000.0, 0.1 + 0.2, 1.0, -3.0]
        ids = [f"t{i:06d}" for i in range(len(values))]
        path = tmp_path / "s.txt"
        fileio.write_scores(path, ids, np.asarray(values))
        expected = "".join(f"{i} {v!r}\n" for i, v in zip(ids, values))
        assert path.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize("text, message", [
        ("t0 0.5\nt1 0.5 0.7\n", "s.txt:2: expected 2 fields"),
        ("t0 0.5\n\nt1 0.5\n", "s.txt:2: expected 2 fields"),
        ("t0 0.5\nt1 0.7\nt0 0.1\n", "s.txt:3: duplicate trial_id t0"),
        ("t0 0.5\nt1 abc\n", "s.txt:2: non-numeric score 'abc'"),
        ("t0\t0.5\n", "s.txt:1: expected 2 fields"),
        ("t0 0.5\nt1 nan\n", "s.txt:2: non-finite score 'nan' for trial t1"),
        ("t0 -inf\n", "s.txt:1: non-finite score '-inf' for trial t0"),
    ])
    def test_score_errors_name_the_line(self, tmp_path, text, message):
        path = tmp_path / "s.txt"
        path.write_text(text)
        with pytest.raises(DataFormatError, match=message):
            fileio.read_scores(path)

    def test_non_finite_score_file_is_read_once(self, tmp_path):
        # the error path read the file a second time to quote the line
        path = tmp_path / "s.txt"
        path.write_text("t0 0.5\nt1 nan\n")
        with fileio.session() as files, pytest.raises(
                DataFormatError, match="s.txt:2: non-finite score 'nan' for trial t1"):
            fileio.read_scores(path)
        assert files == [("read", str(path), None)]

    @pytest.mark.parametrize("text, message", [
        ("t0 TC\nt1 TC IW\n", "k.txt:2: expected 2 fields"),
        ("t0 TC\n\nt1 IW\n", "k.txt:2: expected 2 fields"),
        ("t0 TC\nt1 TW\nt2 XX\n", "k.txt:3: unknown trial label 'XX'"),
    ])
    def test_key_errors_name_the_line(self, tmp_path, text, message):
        path = tmp_path / "k.txt"
        path.write_text(text)
        with pytest.raises(DataFormatError, match=message):
            fileio.read_keys(path)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_score_is_never_written(self, tmp_path, bad):
        path = tmp_path / "s.txt"
        with pytest.raises(NumericalError, match="non-finite"):
            fileio.write_scores(path, ["t0", "t1"], [0.5, bad])
        assert not path.exists()

    def test_trials_without_four_fields_name_the_line(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("t1 m1 u1 ph00\nt2 m1 u2\n")
        with pytest.raises(DataFormatError, match="t.txt:2: expected 4 fields"):
            fileio.read_trials(path)

    def test_duplicate_trial_id_names_the_line(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("t1 m1 u1 ph00\nt2 m1 u2 ph00\nt1 m2 u3 ph01\n")
        with pytest.raises(DataFormatError, match="t.txt:3: duplicate trial_id t1$"):
            fileio.read_trials(path)

    @pytest.mark.parametrize("trial_id", ["", "a b", "a\tb", " a", "a\u00a0b"])
    def test_whitespace_trial_id_is_never_written(self, tmp_path, trial_id):
        path = tmp_path / "s.txt"
        with pytest.raises(ValueError, match="trial_id .* must be non-empty and whitespace-free"):
            fileio.write_scores(path, ["t0", trial_id, "t2"], [0.5, 0.25, 0.125])
        assert not path.exists()

    def test_one_score_per_trial_id(self, tmp_path):
        with pytest.raises(ValueError, match="2 trial ids for scores of shape"):
            fileio.write_scores(tmp_path / "s.txt", ["t0", "t1"], [0.5])


class TestInventory:
    def test_round_trip(self, tmp_path):
        inv = PhraseInventory(("ph00", "ph01"), (Language.L1, Language.L2),
                              ("salamaleikum", "good morning"))
        path = tmp_path / "inv.txt"
        fileio.write_inventory(path, inv)
        assert fileio.read_inventory(path) == inv

    @given(st.lists(st.tuples(_IDS, st.sampled_from(Language), _TEXTS),
                    unique_by=lambda row: row[0], max_size=8))
    def test_columns_round_trip(self, tmp_path_factory, rows):
        path = tmp_path_factory.getbasetemp() / "inv.txt"
        inv = PhraseInventory(*(tuple(row[k] for row in rows) for k in range(3)))
        fileio.write_inventory(path, inv)
        lines = ["INV"] + [f"{phrase} {lang.value} {text}" for phrase, lang, text in rows]
        assert path.read_bytes() == "".join(f"{line}\n" for line in lines).encode()
        assert fileio.read_inventory(path) == inv

    def test_duplicate_phrase_id_names_the_line(self, tmp_path):
        path = tmp_path / "inv.txt"
        path.write_text("INV\nph00 L1 good morning\nph00 L2 good evening\n")
        with pytest.raises(DataFormatError, match="inv.txt:3: duplicate phrase_id ph00$"):
            fileio.read_inventory(path)

    @pytest.mark.parametrize("line, message", [
        ("ph01 L1 ", "phrase ph01: empty reference text"),  # a bare ValueError before
        (" L1 abc", "empty phrase_id"),  # accepted before
    ])
    def test_empty_field_names_the_line(self, tmp_path, line, message):
        path = tmp_path / "inv.txt"
        path.write_text(f"INV\nph00 L1 good morning\n{line}\n")
        with pytest.raises(DataFormatError, match=f"inv.txt:3: {message}$"):
            fileio.read_inventory(path)

    def test_empty_reference_text_is_not_written(self, tmp_path):
        inv = PhraseInventory(("ph00",), (Language.L1,), ("",))
        with pytest.raises(ValueError, match="phrase ph00: empty reference text"):
            fileio.write_inventory(tmp_path / "inv.txt", inv)
        assert not (tmp_path / "inv.txt").exists()


def _score_columns(path):
    ids, values = fileio.read_scores(path)
    return ids, tuple(values.tolist())


# values that break the row rule one way or another: empty, the "-" of an
# absent value, whitespace, line breaks
_AWKWARD = st.sampled_from(["a", "b", "-", "", "a b", " ", "\t", "x\ny", "x\rz"])
# each text format: (a strategy per field, columns -> value, writer, reader)
_FORMATS = {
    "metas": ((_AWKWARD, _AWKWARD, st.none() | _AWKWARD, st.sampled_from(Language),
               st.none() | _AWKWARD),
              lambda cols: Metas(*cols), fileio.write_metas, fileio.read_metas),
    "inventory": ((_AWKWARD, st.sampled_from(Language), _AWKWARD),
                  lambda cols: PhraseInventory(*cols), fileio.write_inventory,
                  fileio.read_inventory),
    "enroll": ((_AWKWARD, st.lists(_AWKWARD, max_size=3).map(tuple)),
               lambda cols: dict(zip(*cols)), fileio.write_enroll_map, fileio.read_enroll_map),
    "trials": ((_AWKWARD, _AWKWARD, _AWKWARD, st.none() | _AWKWARD),
               lambda cols: Trials(*cols), fileio.write_trials, fileio.read_trials),
    "keys": ((_AWKWARD, st.sampled_from(TrialLabel)), tuple,
             lambda path, value: fileio.write_keys(path, *value), fileio.read_keys),
    "scores": ((_AWKWARD, st.floats(allow_nan=False, allow_infinity=False)), tuple,
               lambda path, value: fileio.write_scores(path, *value), _score_columns),
}
_HEADERS = {"metas": "META\n", "inventory": "INV\n"}
# fields of a line that a reader may or may not accept
_FIELDS = st.sampled_from(["a", "b", "-", "", "\t", "\r", "L1", "TC", "0.5"])


class TestRowRule:
    """Writers refuse exactly what readers reject."""

    @pytest.mark.parametrize("name", sorted(_FORMATS))
    @given(data=st.data())
    def test_a_file_written_reads_back_as_given(self, tmp_path_factory, name, data):
        fields, make, write, read = _FORMATS[name]
        rows = data.draw(st.lists(st.tuples(*fields), max_size=4))
        value = make([tuple(row[k] for row in rows) for k in range(len(fields))])
        path = tmp_path_factory.getbasetemp() / f"{name}.txt"
        path.unlink(missing_ok=True)
        try:
            write(path, value)
        except ValueError:
            assert not path.exists()
        else:
            assert read(path) == value

    @pytest.mark.parametrize("name", sorted(_FORMATS))
    @given(data=st.data())
    def test_a_file_read_writes_back_byte_for_byte(self, tmp_path_factory, name, data):
        _, _, write, read = _FORMATS[name]
        lines = data.draw(st.lists(st.lists(_FIELDS, min_size=1, max_size=6).map(" ".join),
                                   max_size=4))
        text = _HEADERS.get(name, "") + "".join(f"{line}\n" for line in lines)
        path = tmp_path_factory.getbasetemp() / f"{name}.txt"
        path.write_text(text, encoding="utf-8")
        try:
            value = read(path)
        except DataFormatError:
            return
        path.unlink()
        write(path, value)
        assert path.read_text(encoding="utf-8") == text

    @pytest.mark.parametrize("write, message", [
        # these wrote a file that its reader rejected or read back differently
        (lambda p: fileio.write_trials(p, Trials(("t1", "t2"), ("m1",), ("u1", "u2"),
                                                 (None, None))), "shorter"),
        (lambda p: fileio.write_trials(p, Trials(("a b",), ("m1",), ("u1",), (None,))),
         "trial_id 'a b' must be non-empty and whitespace-free"),
        (lambda p: fileio.write_keys(p, ["t0", "a b"], [TrialLabel.TC] * 2),
         "trial_id 'a b' must be non-empty and whitespace-free"),
        (lambda p: fileio.write_keys(p, ["t1", "t1"], [TrialLabel.TC, TrialLabel.IW]),
         "duplicate trial_id t1"),
        (lambda p: fileio.write_trials(p, Trials(("t1",), ("m1",), ("u1",), ("-",))),
         "claimed_phrase '-' would read back as absent"),
        (lambda p: fileio.write_metas(p, Metas(("u1",), ("s1",), ("-",), (Language.L1,),
                                               (None,))),
         "phrase_id '-' would read back as absent"),
        (lambda p: fileio.write_metas(p, Metas(("u1",), ("s1",), ("p",), (Language.L1,),
                                               ("-",))),
         "transcript '-' would read back as absent"),
        (lambda p: fileio.write_metas(p, Metas(("u1",), ("s1",), ("p",), (Language.L1,),
                                               ("a\nb",))),
         r"transcript 'a\\nb' holds a line break"),
        (lambda p: fileio.write_inventory(p, PhraseInventory(("ph00",), (Language.L1,),
                                                             ("a\rb",))),
         r"text 'a\\rb' holds a line break"),
    ])
    def test_writer_refuses_what_its_reader_rejects(self, tmp_path, write, message):
        path = tmp_path / "f.txt"
        with pytest.raises(ValueError, match=message):
            write(path)
        assert not path.exists()

    @pytest.mark.parametrize("read, text, message", [
        # each of these was read, with an empty id or a repeated trial id
        (fileio.read_trials, "t0 m0 u0 -\nt1  u1 -\n", "f.txt:2: empty model_id$"),
        (fileio.read_scores, " 0.5\n", "f.txt:1: empty trial_id$"),
        (fileio.read_keys, "t0 TC\n TC\n", "f.txt:2: empty trial_id$"),
        (fileio.read_enroll_map, "m0 u0\nm1 u1 \n", "f.txt:2: empty utt_id$"),
        (fileio.read_keys, "t1 TC\nt1 IW\n", "f.txt:2: duplicate trial_id t1$"),
        (fileio.read_enroll_map, "m0 u0\nm1 \n", "f.txt:2: model m1 has no enrollment"),
        (fileio.read_trials, "t0 m0\tx u0 -\n", r"f.txt:1: model_id 'm0\\tx' must be"),
        (fileio.read_scores, "\n", "f.txt:1: expected 2 fields"),
    ])
    def test_reader_rejects_what_its_writer_refuses(self, tmp_path, read, text, message):
        path = tmp_path / "f.txt"
        path.write_text(text)
        with pytest.raises(DataFormatError, match=message):
            read(path)

    @pytest.mark.parametrize("read, data, message", [
        # read as two scores
        (fileio.read_scores, b"t1 0.5\r\nt2 0.25\r\n", "f.txt:1: carriage return"),
        # split in two and reported as line 3 of a two-line file
        (fileio.read_metas, b"META\nu1 s1 - L1 ab\rcd\n", "f.txt:2: carriage return"),
        # raised a UnicodeDecodeError that named no file
        (fileio.read_scores, b"\xff\xfe", "f.txt:1: not UTF-8"),
    ], ids=["crlf", "lone_cr", "not_utf8"])
    def test_reader_rejects_what_is_not_utf8_with_lf_endings(self, tmp_path, read, data,
                                                              message):
        path = tmp_path / "f.txt"
        path.write_bytes(data)
        with pytest.raises(DataFormatError, match=message):
            read(path)

    def test_empty_transcript_round_trips(self, tmp_path):
        # it was written "-" and read back as None, the absent transcript
        metas = Metas(("u1", "u2"), ("s1", "s1"), ("p", "p"), (Language.L1,) * 2, ("", None))
        path = tmp_path / "m.meta"
        fileio.write_metas(path, metas)
        assert path.read_text() == "META\nu1 s1 p L1 \nu2 s1 p L1 -\n"
        assert fileio.read_metas(path) == metas


def _kept_paths():
    return [key[0] for key in fileio._session.get().kept]


class TestKeptColumns:
    """Inside a `session` a text file written is not parsed again while its
    bytes stay the same."""

    @pytest.mark.parametrize("name", sorted(_FORMATS))
    @given(data=st.data())
    def test_every_format_round_trips_through_the_kept_columns(self, tmp_path_factory, name,
                                                               data):
        fields, make, write, read = _FORMATS[name]
        rows = data.draw(st.lists(st.tuples(*fields), max_size=4))
        value = make([tuple(row[k] for row in rows) for k in range(len(fields))])
        path = tmp_path_factory.getbasetemp() / f"kept_{name}.txt"
        path.unlink(missing_ok=True)
        with fileio.session():
            try:
                write(path, value)
            except ValueError:
                assert _kept_paths() == []
                return
            assert _kept_paths() == [str(path)]
            with mock.patch.object(fileio, "_read_lines", side_effect=AssertionError("parsed")):
                kept = read(path)
        parsed = read(path)
        assert kept == value
        assert repr(kept) == repr(parsed)  # the same values of the same types

    def test_same_size_edit_is_parsed_again(self, tmp_path):
        path = tmp_path / "s.txt"

        def edit(data):  # as if within one mtime tick: size and times unchanged
            path.write_bytes(data)
            os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
            assert path.stat().st_size == stat.st_size

        with fileio.session():
            fileio.write_scores(path, ["t0", "t1"], [0.5, 0.25])
            stat = path.stat()
            edit(b"t0 0.5\nt1 0.75\n")
            ids, values = fileio.read_scores(path)
            assert ids == ("t0", "t1") and values.tolist() == [0.5, 0.75]
            edit(b"t0 0.5\nt1 0.7x\n")
            with pytest.raises(DataFormatError, match="s.txt:2: non-numeric score '0.7x'"):
                fileio.read_scores(path)

    def test_another_format_is_not_answered_from_the_kept_columns(self, tmp_path):
        path = tmp_path / "k.txt"
        with fileio.session():
            fileio.write_keys(path, ["t0", "t1"], [TrialLabel.TC, TrialLabel.IW])
            assert fileio.read_enroll_map(path) == {"t0": ("TC",), "t1": ("IW",)}
            with pytest.raises(DataFormatError, match="k.txt:1: non-numeric score 'TC'"):
                fileio.read_scores(path)
            assert fileio.read_keys(path) == (("t0", "t1"), (TrialLabel.TC, TrialLabel.IW))

    def test_a_mutated_column_does_not_change_the_next_read(self, tmp_path):
        path = tmp_path / "k.txt"
        ids, labels = ["t0", "t1"], [TrialLabel.TC, TrialLabel.IW]
        with fileio.session():
            fileio.write_keys(path, ids, labels)
            ids[0], labels[1] = "x", TrialLabel.TC
            kept = fileio.read_keys(path)
            assert kept == (("t0", "t1"), (TrialLabel.TC, TrialLabel.IW))
            assert fileio.read_keys(path) is kept  # the kept tuples themselves, not a copy

    def test_nothing_is_kept_after_the_context(self, tmp_path):
        path = tmp_path / "s.txt"
        assert fileio._session.get() is None
        with fileio.session():
            fileio.write_scores(path, ["t0"], [0.5])
            assert _kept_paths() == [str(path)]
        assert fileio._session.get() is None
        with pytest.raises(RuntimeError):
            with fileio.session():
                fileio.read_scores(path)
                raise RuntimeError
        assert fileio._session.get() is None
        fileio.write_scores(path, ["t0"], [0.5])
        fileio.read_scores(path)
        assert fileio._session.get() is None


def _parsed(path, names):
    with np.load(path, allow_pickle=False) as npz:
        return {name: npz[name] for name in names}


_NO_LOAD = mock.patch.object(np, "load", side_effect=AssertionError("parsed"))
# a kind of file -> (name, writer, reader, (owner, name) of what parses it, its format)
_ONE_FILE = {
    "npz": ("x.npz", lambda path: fileio.write_matrix(path, ["u0"], np.ones((1, 2))),
            fileio.read_matrix, (np, "load"), "npz"),
    "text": ("s.txt", lambda path: fileio.write_scores(path, ["t0"], [0.5]),
             fileio.read_scores, (fileio, "_read_lines"), fileio._SCORES),
}


class TestKeptArrays:
    """Inside a `session` an .npz written is not parsed again while its bytes
    stay the same: its reads view the kept bytes."""

    @settings(deadline=None)
    @given(data=st.data(), n=st.integers(0, 4), dim=st.integers(1, 5),
           order=st.sampled_from("CF"))
    def test_kept_arrays_equal_parsed_ones(self, tmp_path_factory, data, n, dim, order):
        arrays = {
            "x": np.asarray(data.draw(hnp.arrays(np.float64, (n, dim), elements=_FLOATS)),
                            order=order),
            "ids": np.asarray(data.draw(st.lists(_IDS, min_size=n, max_size=n)), dtype=str),
            "scalar": np.asarray(data.draw(st.text(max_size=3))),
            "seed": np.asarray(data.draw(st.integers(-2**63, 2**63 - 1)), dtype=np.int64),
            "ints": data.draw(hnp.arrays(np.int32, (dim, n, 2))),
        }
        path = tmp_path_factory.getbasetemp() / "kept.npz"
        with fileio.session():
            fileio.write_arrays(path, arrays)
            with _NO_LOAD:
                kept = fileio.read_arrays(path, list(arrays))
        parsed = _parsed(path, list(arrays))
        for name, value in kept.items():
            assert value.dtype == parsed[name].dtype and value.shape == parsed[name].shape
            assert value.tobytes() == parsed[name].tobytes()
            assert not value.flags.writeable

    def test_checks_run_on_a_kept_read(self, tmp_path):
        path = tmp_path / "x.npz"
        with fileio.session(), _NO_LOAD:
            fileio.write_arrays(path, {"ids": np.asarray(["u0", "u0"]), "x": np.ones((2, 2))})
            with pytest.raises(DataFormatError, match="x.npz: member 'ids': duplicate id 'u0'"):
                fileio.read_matrix(path)
            fileio.write_checkpoint(path, Extractor.init(4, 6, 3, seed=9), "PCT", 17)
            net, strategy, seed = fileio.read_checkpoint(path)
        assert (strategy, seed) == ("PCT", 17) and not net.w1.flags.writeable

    def test_a_missing_member_is_the_same_error(self, tmp_path):
        path = tmp_path / "emb.npz"
        fileio.write_matrix(path, ["u0"], np.ones((1, 2)))
        with pytest.raises(DataFormatError) as parsed:
            fileio.read_checkpoint(path)
        with fileio.session(), _NO_LOAD:
            fileio.write_matrix(path, ["u0"], np.ones((1, 2)))
            with pytest.raises(DataFormatError) as kept:
                fileio.read_checkpoint(path)
        assert str(kept.value) == str(parsed.value) == f"{path}: missing member 'w1'"

    def test_changed_bytes_are_parsed_again(self, tmp_path):
        path, other = tmp_path / "x.npz", tmp_path / "other.npz"
        fileio.write_matrix(other, ["u0", "u1"], np.full((2, 3), 2.0))
        with fileio.session():
            fileio.write_matrix(path, ["u0", "u1"], np.ones((2, 3)))
            path.write_bytes(other.read_bytes())  # the same size, other values
            with mock.patch.object(np, "load", wraps=np.load) as load:
                ids, x = fileio.read_matrix(path)
            assert load.call_count == 1
            assert ids == ["u0", "u1"] and x.tolist() == [[2.0] * 3] * 2

    def test_a_kept_read_is_recorded(self, tmp_path):
        path = tmp_path / "x.npz"
        with fileio.session() as files:
            fileio.write_matrix(path, ["u0"], np.ones((1, 2)))
            with _NO_LOAD:
                fileio.read_matrix(path)
        assert files == [("write", str(path), _sha256(path)), ("read", str(path), None)]

    @pytest.mark.parametrize("kind", sorted(_ONE_FILE))
    def test_nothing_is_kept_outside_a_session(self, tmp_path, kind):
        name, write, read, (owner, parser), fmt = _ONE_FILE[kind]
        path = tmp_path / name
        write(path)  # before any session
        with fileio.session():
            with mock.patch.object(owner, parser, wraps=getattr(owner, parser)) as parse:
                read(path)
                read(path)  # a parse is not kept either
            assert parse.call_count == 2
            write(path)
            assert list(fileio._session.get().kept) == [(str(path), fmt)]
        assert fileio._session.get() is None
        with mock.patch.object(owner, parser, wraps=getattr(owner, parser)) as parse:
            _, values = read(path)  # after the session
        assert parse.call_count == 1 and values.flags.writeable

    def test_a_read_after_forget_is_parsed(self, tmp_path):
        path, scores = tmp_path / "x.npz", tmp_path / "s.txt"
        with fileio.session():
            fileio.write_matrix(path, ["u0", "u1"], np.arange(6.0).reshape(2, 3))
            fileio.write_scores(scores, ["t0"], [0.5])
            fileio.write_keys(scores, ["t0"], [TrialLabel.TC])  # a second format
            fileio.forget(path, scores)
            assert _kept_paths() == []
            with mock.patch.object(np, "load", wraps=np.load) as load:
                ids, x = fileio.read_matrix(path)
            assert load.call_count == 1 and x.flags.writeable
            assert ids == ["u0", "u1"] and x.tolist() == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]

    def test_forget_outside_a_session_does_nothing(self, tmp_path):
        path = tmp_path / "x.npz"
        fileio.write_matrix(path, ["u0"], np.ones((1, 2)))
        fileio.forget(path, tmp_path / "missing.npz")
        assert fileio._session.get() is None
        assert fileio.read_matrix(path)[0] == ["u0"]


@pytest.mark.parametrize("write", [
    lambda path: fileio.write_lines(path, ["a"]),
    lambda path: fileio.write_scores(path, ["t0"], [0.5]),
    lambda path: fileio.write_matrix(path, ["u0"], np.ones((1, 2))),
], ids=["lines", "rows", "npz"])
def test_a_failed_write_is_data_error(tmp_path, write):
    (tmp_path / "file").write_bytes(b"")
    path = tmp_path / "file" / "x"
    with pytest.raises(DataFormatError, match=re.escape(f"{path}: ")):
        write(path)


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestSessionRecord:
    """A `session` records ("read" or "write", str(path), digest) for every
    file a reader or writer opens, in call order: the sha256 of a write's
    bytes, None for a read."""

    def test_text_and_npz_files_are_recorded_in_call_order(self, tmp_path):
        scores, matrix, lines = tmp_path / "s.txt", tmp_path / "x.npz", tmp_path / "l.txt"
        with fileio.session() as files:
            fileio.write_scores(scores, ["t0"], [0.5])
            fileio.write_matrix(matrix, ["u0"], np.ones((1, 2)))
            fileio.read_matrix(matrix)
            with mock.patch.object(fileio, "_read_lines", side_effect=AssertionError("parsed")):
                fileio.read_scores(scores)  # answered from the kept columns
            fileio.write_lines(lines, ["a"])
            fileio.read_scores(scores)
        assert files == [("write", str(scores), _sha256(scores)),
                         ("write", str(matrix), _sha256(matrix)),
                         ("read", str(matrix), None), ("read", str(scores), None),
                         ("write", str(lines), _sha256(lines)), ("read", str(scores), None)]
        assert all(type(path) is str for _, path, _ in files)

    def test_nothing_is_recorded_outside_a_session(self, tmp_path):
        path = tmp_path / "s.txt"
        fileio.write_scores(path, ["t0"], [0.5])  # before any session
        with fileio.session() as files:
            fileio.read_scores(path)
        fileio.read_scores(path)  # after a normal exit
        with pytest.raises(RuntimeError):
            with fileio.session() as raised:
                fileio.read_scores(path)
                raise RuntimeError
        fileio.write_scores(path, ["t0"], [0.5])  # after an exit by exception
        fileio.write_matrix(tmp_path / "x.npz", ["u0"], np.ones((1, 2)))
        assert files == raised == [("read", str(path), None)]
        assert fileio._session.get() is None

    def test_a_nested_session_joins_the_active_one(self, tmp_path):
        path = tmp_path / "s.txt"
        with fileio.session() as outer:
            fileio.write_scores(path, ["t0"], [0.5])
            with fileio.session() as inner:
                assert inner is outer
                with mock.patch.object(fileio, "_read_lines", side_effect=AssertionError):
                    fileio.read_scores(path)  # the outer session's kept columns
            assert fileio._session.get() is not None  # the inner exit ends nothing
            fileio.read_scores(path)
        assert outer == [("write", str(path), _sha256(path)),
                         ("read", str(path), None), ("read", str(path), None)]
        assert fileio._session.get() is None


class TestModelContainers:
    def test_checkpoint_round_trip(self, tmp_path):
        net = Extractor.init(4, 6, 3, seed=9)
        path = tmp_path / "ckpt.npz"
        fileio.write_checkpoint(path, net, strategy="PCT", seed=17)
        back, strategy, seed = fileio.read_checkpoint(path)
        assert strategy == "PCT" and seed == 17
        for name in ("w1", "b1", "w2", "b2"):
            np.testing.assert_array_equal(getattr(back, name), getattr(net, name))

    @pytest.mark.parametrize("name", ["w1", "b1", "w2", "b2"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_is_never_written(self, tmp_path, name, bad):
        # it was written, and extract then failed on the file as a data error
        net = Extractor.init(4, 6, 3, seed=9)
        getattr(net, name).flat[-1] = bad
        path = tmp_path / "ckpt.npz"
        with pytest.raises(NumericalError, match=f"^non-finite extractor weight {name}$"):
            fileio.write_checkpoint(path, net, strategy="PCT", seed=17)
        assert not path.exists()

    @pytest.mark.parametrize("payload", ["matrix", "checkpoint"])
    def test_written_bytes_are_those_savez_writes_to_a_file(self, tmp_path, rng, payload):
        # .npz bytes are numpy's writer's: an archive built in memory must
        # equal one np.savez writes through an open file handle
        net, ids, x = Extractor.init(4, 6, 3, seed=9), ["u0", "u1", "u2"], rng.normal(size=(3, 5))
        path = tmp_path / "got.npz"
        if payload == "matrix":
            fileio.write_matrix(path, ids, x)
            arrays = dict(ids=np.asarray(ids, dtype=str), x=x)
        else:
            fileio.write_checkpoint(path, net, strategy="PCT", seed=17)
            arrays = dict(w1=net.w1, b1=net.b1, w2=net.w2, b2=net.b2,
                          strategy=np.asarray("PCT"), seed=np.asarray(17, dtype=np.int64))
        _savez(tmp_path / "want.npz", **arrays)
        assert path.read_bytes() == (tmp_path / "want.npz").read_bytes()

    def test_kind_mismatch(self, tmp_path):
        path = tmp_path / "emb.npz"
        fileio.write_matrix(path, ["u1", "u2"], np.eye(2))
        with pytest.raises(DataFormatError, match="emb.npz: missing member 'w1'"):
            fileio.read_checkpoint(path)

    def test_file_holds_named_members(self, tmp_path):
        net = Extractor.init(4, 6, 3, seed=9)
        path = tmp_path / "ckpt.npz"
        fileio.write_checkpoint(path, net, strategy="PCT", seed=17)
        first = path.read_bytes()
        fileio.write_checkpoint(path, net, strategy="PCT", seed=17)
        assert path.read_bytes() == first
        with np.load(path, allow_pickle=False) as npz:
            assert npz.files == ["w1", "b1", "w2", "b2", "strategy", "seed"]
            assert npz["strategy"].shape == () and str(npz["strategy"]) == "PCT"
            assert npz["seed"].dtype == np.int64 and int(npz["seed"]) == 17
            np.testing.assert_array_equal(npz["w2"], net.w2)

    def test_non_float64_member_reported(self, tmp_path):
        net = Extractor.init(2, 3, 2, seed=0)
        members = dict(w1=net.w1, b1=net.b1, w2=net.w2, b2=net.b2,
                       strategy=np.asarray("AAM_ONLY"), seed=np.asarray(0, dtype=np.int64))
        path = tmp_path / "bad.npz"
        _savez(path, **{**members, "w2": np.ones((3, 2), dtype=np.int64)})
        with pytest.raises(DataFormatError,
                           match="bad.npz: member 'w2' must be a 2-D float64 array"):
            fileio.read_checkpoint(path)
        _savez(path, **{**members, "b1": np.array([0.0, np.inf, 0.0])})
        with pytest.raises(DataFormatError, match="bad.npz: member 'b1' has non-finite"):
            fileio.read_checkpoint(path)

    def test_truncated_file_reported(self, tmp_path):
        net = Extractor.init(2, 2, 2, seed=0)
        path = tmp_path / "ckpt.npz"
        fileio.write_checkpoint(path, net, strategy="AAM_ONLY", seed=0)
        path.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(DataFormatError, match="ckpt.npz: not a readable .npz archive"):
            fileio.read_checkpoint(path)
