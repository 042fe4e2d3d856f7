import numpy as np
import pytest
from hypothesis import given, strategies as st

from spkver.core import NumericalError, TrialLabel, build_enroll_model


class TestBuildEnrollModel:
    def test_identical_vectors_average_to_themselves(self):
        u = np.array([0.6, 0.8])
        centroid = build_enroll_model("m", np.stack([u] * 3))
        np.testing.assert_allclose(centroid, u, atol=1e-12)

    def test_symmetric_pair(self):
        centroid = build_enroll_model("m", np.array([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_allclose(centroid, [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_cancellation_raises(self):
        with pytest.raises(NumericalError, match="zero-norm centroid"):
            build_enroll_model("m", np.array([[1.0, 0.0], [-1.0, 0.0]]))

    def test_empty_and_mismatched(self):
        with pytest.raises(ValueError, match="expected \\(n, D\\) enrollment rows"):
            build_enroll_model("m", np.empty((0, 2)))
        with pytest.raises(ValueError, match="expected \\(n, D\\) enrollment rows"):
            build_enroll_model("m", np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            build_enroll_model("m", [[1.0, 0.0], [1.0, 0.0, 0.0]])

    @given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.integers(1, 6))
    def test_unit_norm_and_permutation_invariance(self, seed, dim, count):
        rng = np.random.default_rng(seed)
        vecs = rng.normal(size=(count, dim))
        try:
            centroid = build_enroll_model("m", vecs)
        except NumericalError:
            return  # degenerate draw
        assert abs(np.linalg.norm(centroid) - 1.0) < 1e-12
        flipped = build_enroll_model("m", vecs[::-1])
        np.testing.assert_allclose(centroid, flipped, atol=1e-12)


class TestTypes:
    def test_target_pooling(self):
        assert TrialLabel.TC.is_target and TrialLabel.TARGET.is_target
        for label in (TrialLabel.TW, TrialLabel.IC, TrialLabel.IW, TrialLabel.NONTARGET):
            assert not label.is_target
