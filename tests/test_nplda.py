import numpy as np
import pytest

from oracles import check_gradients, plda_llr_joint_literal, train_nplda_literal
from spkver import nplda
from spkver.backend import PldaModel, PldaScorer, plda_em_train
from spkver.config import PipelineConfig
from spkver.metrics import DcfParams
from spkver.nplda import nplda_score, soft_detcost, train_nplda

DCF = PipelineConfig().dcf_params()  # the configured operating point


def _random_pd(rng, dim, scale=1.0):
    a = rng.normal(size=(dim, dim))
    return scale * (a @ a.T / dim + 0.2 * np.eye(dim))


def _aligned(n):
    """The row arrays of n row-aligned pairs: pair i is row i of each table."""
    return np.arange(n), np.arange(n)


def _score(form, e, t):
    """nplda_score of the pairs (e[n], t[n]) of row-aligned (N, D) arrays,
    or of the one pair of (D,) vectors e and t."""
    e, t = np.atleast_2d(e), np.atleast_2d(t)
    return nplda_score(form, e, t, *_aligned(len(e)))


def _model(seed=0, dim=2):
    rng = np.random.default_rng(seed)
    return PldaModel(
        mu=rng.normal(size=dim),
        sigma_b=_random_pd(rng, dim),
        sigma_w=_random_pd(rng, dim, scale=0.6),
    )


class TestInitFromPlda:
    @pytest.mark.parametrize("dim", [2, 5])
    def test_reproduces_generative_llr_pointwise(self, dim):
        model = _model(seed=dim, dim=dim)
        form = PldaScorer.from_model(model)
        rng = np.random.default_rng(100 + dim)
        for _ in range(100):
            e = model.mu + rng.normal(size=dim)
            t = model.mu + rng.normal(size=dim)
            expected = float(plda_llr_joint_literal(model, e, t)[0])
            assert abs(_score(form, e, t)[0] - expected) < 1e-8

    def test_reproduces_generative_llr_of_a_trained_model(self):
        # D=48 as in the pipeline's embeddings: 50 speakers x 12 rows
        rng = np.random.default_rng(48)
        dim, n_spk, n_utt = 48, 50, 12
        factors = rng.normal(size=(n_spk, dim))
        x = np.repeat(factors, n_utt, axis=0) + 0.7 * rng.normal(size=(n_spk * n_utt, dim))
        model, _ = plda_em_train(x, np.repeat(np.arange(n_spk), n_utt), iters=10)
        e, t = x[rng.permutation(len(x))[:200]], x[rng.permutation(len(x))[:200]]
        expected = plda_llr_joint_literal(model, e, t)
        tol = 1e-12 * np.max(np.abs(expected))
        form = PldaScorer.from_model(model)
        np.testing.assert_allclose(_score(form, e, t), expected, rtol=0, atol=tol)

    def test_zero_between_covariance(self):
        model = PldaModel(mu=np.ones(3), sigma_b=np.zeros((3, 3)), sigma_w=np.eye(3))
        params = PldaScorer.from_model(model)
        np.testing.assert_allclose(params.lam, 0.0, atol=1e-12)
        rng = np.random.default_rng(0)
        for _ in range(5):
            assert _score(params, rng.normal(size=3), rng.normal(size=3)) == pytest.approx(
                0.0, abs=1e-10)

    def test_zero_epochs_leaves_scores_unchanged(self):
        model = _model(3)
        params = PldaScorer.from_model(model)
        rng = np.random.default_rng(4)
        e = rng.normal(size=(10, 2))
        t = rng.normal(size=(10, 2))
        labels = [True] * 5 + [False] * 5
        result = train_nplda(
            params, e, t, *_aligned(10), labels, ["p"] * 10, ["p"] * 10,
            PipelineConfig(nplda_epochs=0),
        )
        np.testing.assert_array_equal(_score(result.params, e, t), _score(params, e, t))


class TestNpldaScore:
    """NPLDA scores a `PldaScorer` form exactly as the form's own `score`."""

    def test_constant_params(self):
        form = PldaScorer(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2), 3.0)
        rng = np.random.default_rng(1)
        e, t = rng.normal(size=(1, 2)), rng.normal(size=(1, 2))
        assert nplda_score(form, e, t, [0], [0]) == form.score(e, t, [0], [0]) == 3.0

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(2)
        lam = rng.normal(size=(3, 3))  # deliberately asymmetric
        gamma = _random_pd(rng, 3)
        form = PldaScorer(lam, gamma, rng.normal(size=3), -0.5)
        for _ in range(10):
            e, t = rng.normal(size=(1, 3)), rng.normal(size=(1, 3))
            assert nplda_score(form, e, t, [0], [0]) == form.score(e, t, [0], [0])
            assert _score(form, e, t) == pytest.approx(_score(form, t, e), abs=1e-12)

    def test_batch_equals_per_row_calls(self):
        rng = np.random.default_rng(3)
        form = PldaScorer(rng.normal(size=(3, 3)), _random_pd(rng, 3), rng.normal(size=3), 0.7)
        e, t = rng.normal(size=(8, 3)), rng.normal(size=(5, 3))
        e_rows, t_rows = rng.integers(0, 8, 12), rng.integers(0, 5, 12)
        rows = nplda_score(form, e, t, e_rows, t_rows)
        np.testing.assert_array_equal(rows, form.score(e, t, e_rows, t_rows))
        np.testing.assert_allclose(
            rows, [_score(form, e[a], t[b])[0] for a, b in zip(e_rows, t_rows)],
            rtol=1e-12, atol=1e-12,
        )

    def test_dimension_mismatch(self):
        form = PldaScorer(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2), 0.0)
        for score in (nplda_score, PldaScorer.score):
            with pytest.raises(ValueError, match="dimension mismatch"):
                score(form, np.zeros((1, 3)), np.zeros((1, 3)), [0], [0])


class TestSoftDetcost:
    def test_separated_scores_with_sharp_sigmoid(self):
        scores = np.array([5.0, 6.0, -5.0, -6.0])
        labels = np.array([True, True, False, False])
        loss, _, _ = soft_detcost(scores, labels, theta=0.0, alpha=50.0, cost_params=DCF)
        assert loss < 1e-8

    def test_symmetric_case(self):
        scores = np.array([1.0, -1.0, 1.0, -1.0])
        labels = np.array([True, True, False, False])
        params = DcfParams(p_target=0.5, c_miss=1.0, c_fa=1.0)
        loss, _, _ = soft_detcost(scores, labels, theta=0.0, alpha=2.0, cost_params=params)
        # P_miss = P_fa = mean(sig(+-2)) = 0.5 by symmetry
        sig = 0.5 * (1 + np.tanh(1.0))
        expected = (0.5 * ((sig + (1 - sig)) / 2) + 0.5 * ((sig + (1 - sig)) / 2)) / 0.5
        assert loss == pytest.approx(expected)

    def test_single_class_raises(self):
        with pytest.raises(ValueError):
            soft_detcost(np.ones(3), np.array([True, True, True]), 0.0, 10.0, DCF)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            scores = rng.normal(size=9)
            labels = np.array([True] * 4 + [False] * 5)
            theta = float(rng.normal())
            loss, d_scores, d_theta = soft_detcost(scores, labels, theta, alpha=4.0, cost_params=DCF)

            def fn(arrays):
                value, _, _ = soft_detcost(arrays["scores"], labels,
                                           float(arrays["theta"]), alpha=4.0, cost_params=DCF)
                return value

            check_gradients(
                fn,
                {"scores": scores.copy(), "theta": np.array(theta)},
                {"scores": d_scores, "theta": np.array(d_theta)},
            )


class TestTrainNplda:
    def _training_set(self, seed=0, n=60):
        model = _model(seed)
        params = PldaScorer.from_model(model)
        rng = np.random.default_rng(seed + 1)
        lb = np.linalg.cholesky(model.sigma_b)
        lw = np.linalg.cholesky(model.sigma_w)
        e, t, labels = [], [], []
        for i in range(n):
            y = lb @ rng.normal(size=2)
            e.append(model.mu + y + lw @ rng.normal(size=2))
            if i % 2 == 0:
                t.append(model.mu + y + lw @ rng.normal(size=2))
                labels.append(True)
            else:
                y2 = lb @ rng.normal(size=2)
                t.append(model.mu + y2 + lw @ rng.normal(size=2))
                labels.append(False)
        return params, np.asarray(e), np.asarray(t), labels

    def test_training_cost_never_ends_higher(self):
        params, e, t, labels = self._training_set(7)
        result = train_nplda(
            params, e, t, *_aligned(len(e)), labels, ["p"] * len(labels), ["p"] * len(labels),
            PipelineConfig(nplda_lr=5e-5, nplda_epochs=5),
        )
        assert result.loss_trace[-1] <= result.loss_trace[0]
        assert len(result.loss_trace) == 6

    def test_mixed_phrase_pair_rejected_before_update(self):
        params, e, t, labels = self._training_set(8)
        phrases_e = ["p"] * len(labels)
        phrases_t = ["p"] * len(labels)
        phrases_t[3] = "q"
        with pytest.raises(ValueError, match="same-phrase constraint violated by training pair 3$"):
            train_nplda(params, e, t, *_aligned(len(e)), labels, phrases_e, phrases_t,
                        PipelineConfig())

    def test_single_class_batch_rejected(self):
        params, e, t, labels = self._training_set(9)
        with pytest.raises(ValueError):
            train_nplda(params, e, t, *_aligned(len(e)), [True] * len(labels),
                        ["p"] * len(labels), ["p"] * len(labels), PipelineConfig())

    def test_deterministic(self):
        params, e, t, labels = self._training_set(10)
        cfg = PipelineConfig(nplda_epochs=3)
        phrases = ["p"] * len(labels)
        a = train_nplda(params, e, t, *_aligned(len(e)), labels, phrases, phrases, cfg)
        b = train_nplda(params, e, t, *_aligned(len(e)), labels, phrases, phrases, cfg)
        np.testing.assert_array_equal(a.params.lam, b.params.lam)
        assert a.theta == b.theta and a.loss_trace == b.loss_trace

    def _check_against_oracle(self, epochs, e_rows=None, t_rows=None):
        params, e, t, labels = self._training_set(11 + epochs)
        if e_rows is None:
            e_rows, t_rows = _aligned(len(e))
        cfg = PipelineConfig(nplda_lr=2e-3, nplda_epochs=epochs)
        result = train_nplda(params, e, t, e_rows, t_rows, labels, ["p"] * len(labels),
                             ["p"] * len(labels), cfg)
        form, theta_lit, trace = train_nplda_literal(params, e[e_rows], t[t_rows], labels, cfg)
        # the library sums the gradients per table row, the oracle per pair
        for name in ("lam", "gamma", "c"):
            expected = getattr(form, name)
            np.testing.assert_allclose(getattr(result.params, name), expected, rtol=0,
                                       atol=1e-12 * np.abs(expected).max(), err_msg=name)
        assert result.params.k == pytest.approx(form.k, rel=1e-12)
        assert result.theta == pytest.approx(theta_lit, rel=1e-12)
        np.testing.assert_allclose(result.loss_trace, trace, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("epochs", [0, 1, 6])
    def test_matches_two_scoring_oracle(self, epochs):
        self._check_against_oracle(epochs)

    @pytest.mark.parametrize("epochs", [0, 1, 6])
    def test_pairs_sharing_table_rows_match_the_oracle(self, epochs):
        # pairs share rows of the tables, and some rows are in no pair
        rng = np.random.default_rng(epochs)
        self._check_against_oracle(epochs, rng.integers(0, 20, 60), rng.integers(0, 40, 60))

    def test_scores_the_batch_once_per_epoch(self, monkeypatch):
        params, e, t, labels = self._training_set(12)
        calls = []
        score = nplda.nplda_score

        def counting(*args):
            calls.append(1)
            return score(*args)

        monkeypatch.setattr(nplda, "nplda_score", counting)
        train_nplda(params, e, t, *_aligned(len(e)), labels, ["p"] * len(labels),
                    ["p"] * len(labels), PipelineConfig(nplda_epochs=5))
        assert len(calls) == 6
