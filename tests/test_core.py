import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import centroids_literal
from spkver import fileio
from spkver.backend import PldaModel, PldaScorer
from spkver.core import Metas, NumericalError, PhraseInventory, TrialLabel, Trials
from spkver.metrics import DcfParams, FusionWeights
from spkver.norm import NormStats
from spkver.nplda import NpldaTrainResult
from spkver.pipeline import _centroids, _trial_rows
from spkver.synthgen import SynthCorpus, TrialProtocol


def centroid(rows, model_id="m"):
    """The centroid `pipeline._centroids` gives one model enrolled on all of `rows`."""
    rows = np.asarray(rows, dtype=np.float64)
    return _centroids(rows, np.arange(len(rows)), np.array([len(rows)]), [model_id])[0]


class TestBuildEnrollModel:
    """The enroll centroid: the unit-norm mean of a model's rows."""

    def test_identical_vectors_average_to_themselves(self):
        u = np.array([0.6, 0.8])
        np.testing.assert_allclose(centroid(np.stack([u] * 3)), u, atol=1e-12)

    def test_symmetric_pair(self):
        np.testing.assert_allclose(centroid([[1.0, 0.0], [0.0, 1.0]]),
                                   [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_cancellation_raises(self):
        with pytest.raises(NumericalError, match="zero-norm centroid for model m"):
            centroid([[1.0, 0.0], [-1.0, 0.0]])

    def test_empty_and_mismatched(self, tmp_path):
        # the centroids never see an empty or ragged enrollment: the enroll
        # map refuses a model without utterances, the matrix file a non-2-D x
        path = tmp_path / "enroll.txt"
        with pytest.raises(ValueError, match="model m has no enrollment utterances"):
            fileio.write_enroll_map(path, {"m": ()})
        path.write_text("m \n")
        with pytest.raises(fileio.DataFormatError, match="model m has no enrollment utterances"):
            fileio.read_enroll_map(path)
        with pytest.raises(ValueError, match="must be a 2-D float64 array"):
            fileio.write_matrix(tmp_path / "x.npz", ["u"], np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            fileio.write_matrix(tmp_path / "x.npz", ["u", "v"], [[1.0, 0.0], [1.0, 0.0, 0.0]])

    @given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.integers(1, 6))
    def test_unit_norm_and_permutation_invariance(self, seed, dim, count):
        rng = np.random.default_rng(seed)
        vecs = rng.normal(size=(count, dim))
        try:
            c = centroid(vecs)
        except NumericalError:
            return  # degenerate draw
        assert abs(np.linalg.norm(c) - 1.0) < 1e-12
        np.testing.assert_allclose(c, centroid(vecs[::-1]), atol=1e-12)


# model -> its rows of x: the enrollment counts 1, 2, 3, 8 and 9, interleaved
_ENROLL_ROWS = {
    "m0": [4, 0, 7], "m1": [12], "m2": list(range(20, 29)), "m3": [1, 2],
    "m4": list(range(30, 38)), "m5": [5, 6, 9], "m6": [3], "m7": list(range(40, 49)),
    "m8": [10, 11], "m9": [13, 14, 15, 16, 17, 18, 19, 29],
}


def _outcome(fn, *args):
    """An array's bytes, or the type and message of what was raised."""
    try:
        return fn(*args).tobytes()
    except NumericalError as exc:
        return type(exc), str(exc)


class TestCentroidsAgainstLiteral:
    """One block mean per enrollment count against the per-model centroids it
    replaced: the same bytes, and the same error for a zero-norm model."""

    @pytest.mark.parametrize("dim", [16, 64])
    def test_mixed_counts_through_trial_rows(self, dim):
        rng = np.random.default_rng(dim)
        x = rng.standard_normal((52, dim))
        ids = [f"u{i:02d}" for i in range(len(x))]
        enroll_map = {m: tuple(ids[i] for i in rows) for m, rows in _ENROLL_ROWS.items()}
        models = [f"m{k}" for k in rng.integers(0, len(enroll_map), size=40)]
        tests = [ids[i] for i in rng.integers(0, len(x), size=40)]
        trials = Trials(tuple(f"t{i}" for i in range(40)), tuple(models), tuple(tests),
                        (None,) * 40)
        enroll, model_rows, test_rows = _trial_rows("emb", ids, x, "enroll", enroll_map, trials)
        assert enroll.tobytes() == centroids_literal(x, _ENROLL_ROWS).tobytes()
        assert model_rows.tolist() == [int(m[1:]) for m in models]
        assert test_rows.tolist() == [ids.index(t) for t in tests]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 64),
           st.lists(st.integers(1, 10), min_size=1, max_size=12))
    def test_any_counts_and_dims(self, seed, dim, counts):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((sum(counts) + 3, dim))
        rows = rng.permutation(len(x))[:sum(counts)]
        starts = np.cumsum(counts) - counts
        enroll_rows = {f"m{k}": rows[s:s + c] for k, (s, c) in enumerate(zip(starts, counts))}
        assert (_outcome(_centroids, x, rows, np.array(counts), list(enroll_rows))
                == _outcome(centroids_literal, x, enroll_rows))

    def test_first_zero_norm_model_is_named(self):
        x = np.random.default_rng(3).standard_normal((52, 16))
        x[[20, 21, 22]] = x[[23, 24, 25]]  # m2's first six rows: three pairs u, -u
        x[[23, 24, 25]] *= -1.0
        x[[26, 27, 28]] = 0.0
        x[10], x[11] = x[12], -x[12]  # m8 cancels too, but m2 comes first
        got = _outcome(_centroids, x, np.concatenate(list(map(np.array, _ENROLL_ROWS.values()))),
                       np.array([len(r) for r in _ENROLL_ROWS.values()]), list(_ENROLL_ROWS))
        assert got == (NumericalError, "zero-norm centroid for model m2")
        assert _outcome(centroids_literal, x, _ENROLL_ROWS) == got


class TestTypes:
    def test_target_pooling(self):
        assert TrialLabel.TC.is_target and TrialLabel.TARGET.is_target
        for label in (TrialLabel.TW, TrialLabel.IC, TrialLabel.IW, TrialLabel.NONTARGET):
            assert not label.is_target


# a small instance of every immutable record of the package, and one of its fields
_FORM = PldaScorer(np.eye(2), np.eye(2), np.zeros(2), 0.0)
_IMMUTABLE = {
    "PldaModel": (lambda: PldaModel(np.zeros(2), np.eye(2), np.eye(2)), "mu"),
    "PldaScorer": (lambda: _FORM, "k"),
    "DcfParams": (lambda: DcfParams(0.01, 10.0, 1.0), "p_target"),
    "FusionWeights": (lambda: FusionWeights((0.5, 0.5)), "weights"),
    "NormStats": (lambda: NormStats(0.0, 1.0), "sigma"),
    "NpldaTrainResult": (lambda: NpldaTrainResult(_FORM, 0.0, ()), "params"),
    "SynthCorpus": (lambda: SynthCorpus(np.zeros((0, 2)), Metas((), (), (), (), ()),
                                        PhraseInventory((), (), ())), "x"),
    "TrialProtocol": (lambda: TrialProtocol(Trials((), (), (), ()), (), {}), "labels"),
}


@pytest.mark.parametrize("name", _IMMUTABLE)
def test_record_rejects_assignment(name):
    build, field = _IMMUTABLE[name]
    record = build()
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = None
    assert getattr(record, field) is not None
