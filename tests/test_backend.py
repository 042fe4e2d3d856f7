import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

from oracles import (
    auc_by_sorting,
    plda_em_literal,
    plda_marginal_loglik_literal,
    plda_score_broadcast,
)
from spkver.backend import (
    PldaModel,
    PldaScorer,
    _marginal_loglik,
    _sufficient_stats,
    cosine_score,
    plda_em_train,
)
from spkver.core import NumericalError
from spkver.nplda import nplda_score


class TestCosine:
    def test_same_vector(self):
        u = np.array([0.3, -0.4, 0.5])
        assert cosine_score(u, u) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_score(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_closed_form(self):
        value = cosine_score(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        assert value == pytest.approx(1 / np.sqrt(2))

    def test_zero_vector(self):
        with pytest.raises(NumericalError):
            cosine_score(np.zeros(3), np.ones(3))

    def test_batch_equals_per_row_calls(self):
        rng = np.random.default_rng(13)
        e, t = rng.normal(size=(9, 5)), rng.normal(size=(9, 5))
        rows = [cosine_score(e[i], t[i]) for i in range(9)]
        np.testing.assert_array_equal(cosine_score(e, t), rows)
        outer = [[cosine_score(a, b) for b in t] for a in e]
        np.testing.assert_array_equal(cosine_score(e[:, None, :], t), outer)
        assert isinstance(cosine_score(e[0], t[0]), float)

    def test_one_zero_vector_in_batch(self):
        rng = np.random.default_rng(14)
        e, t = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
        t[4] = 0.0
        with pytest.raises(NumericalError):
            cosine_score(e, t)
        with pytest.raises(NumericalError):
            cosine_score(t[:, None, :], e)

    def test_dimension_mismatch_in_batch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            cosine_score(np.ones((4, 3)), np.ones((4, 2)))

    @given(st.integers(0, 2**32 - 1), st.floats(0.01, 50), st.floats(0.01, 50))
    @settings(max_examples=40)
    def test_symmetry_and_scale_invariance(self, seed, a, b):
        rng = np.random.default_rng(seed)
        e, t = rng.normal(size=4), rng.normal(size=4)
        assert cosine_score(e, t) == pytest.approx(cosine_score(t, e), abs=1e-12)
        assert cosine_score(a * e, b * t) == pytest.approx(cosine_score(e, t), abs=1e-9)


def _random_pd(rng, dim, scale=1.0):
    a = rng.normal(size=(dim, dim))
    return scale * (a @ a.T / dim + 0.2 * np.eye(dim))


def _simulate(rng, sigma_b, sigma_w, n_speakers, n_utts, mu=None):
    dim = sigma_b.shape[0]
    mu = np.zeros(dim) if mu is None else mu
    lb = np.linalg.cholesky(sigma_b)
    lw = np.linalg.cholesky(sigma_w)
    x, labels = [], []
    for s in range(n_speakers):
        y = lb @ rng.normal(size=dim)
        for _ in range(n_utts):
            x.append(mu + y + lw @ rng.normal(size=dim))
            labels.append(s)
    return np.asarray(x), np.asarray(labels)


class TestPldaEm:
    def test_recovers_known_covariances(self):
        rng = np.random.default_rng(42)
        sigma_b = np.array([[2.0, 0.6], [0.6, 1.0]])
        sigma_w = np.array([[0.5, -0.1], [-0.1, 0.8]])
        x, labels = _simulate(rng, sigma_b, sigma_w, n_speakers=500, n_utts=10)
        model, trace = plda_em_train(x, labels, iters=25)
        rel_b = np.linalg.norm(model.sigma_b - sigma_b) / np.linalg.norm(sigma_b)
        rel_w = np.linalg.norm(model.sigma_w - sigma_w) / np.linalg.norm(sigma_w)
        assert rel_b < 0.15 and rel_w < 0.15

    def test_loglik_trace_monotone(self):
        rng = np.random.default_rng(5)
        x, labels = _simulate(rng, _random_pd(rng, 3), _random_pd(rng, 3), 40, 5)
        _, trace = plda_em_train(x, labels, iters=20)
        diffs = np.diff(trace)
        assert np.all(diffs >= -1e-8)

    def test_zero_iters_returns_initialization(self):
        rng = np.random.default_rng(6)
        x, labels = _simulate(rng, np.eye(2), np.eye(2), 10, 4)
        model, trace = plda_em_train(x, labels, iters=0)
        xc = x - x.mean(axis=0)
        total = xc.T @ xc / x.shape[0]
        np.testing.assert_allclose(model.sigma_b, total / 2, atol=1e-12)
        np.testing.assert_allclose(model.sigma_w, total / 2, atol=1e-12)
        assert len(trace) == 1

    def test_degenerate_data_reported(self):
        x = np.ones((10, 2))
        labels = [0] * 5 + [1] * 5
        with pytest.raises(NumericalError, match="degenerate"):
            plda_em_train(x, labels, iters=3)

    def test_needs_two_speakers_and_repeats(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError):
            plda_em_train(rng.normal(size=(6, 2)), [0] * 6, iters=1)
        with pytest.raises(ValueError):
            plda_em_train(rng.normal(size=(3, 2)), [0, 1, 2], iters=1)


def _mixed_count_corpus(seed, dim, extra_counts):
    """Speakers with utterance counts 1, 2, 3 plus `extra_counts`, drawn from
    a two-covariance model, with rows shuffled so speakers interleave."""
    rng = np.random.default_rng(seed)
    counts = [1, 2, 3] + list(extra_counts)
    lb = np.linalg.cholesky(_random_pd(rng, dim, scale=2.0))
    lw = np.linalg.cholesky(_random_pd(rng, dim))
    mu = rng.normal(size=dim)
    x, labels = [], []
    for s, cnt in enumerate(counts):
        y = lb @ rng.normal(size=dim)
        for _ in range(cnt):
            x.append(mu + y + lw @ rng.normal(size=dim))
            labels.append(f"spk{s:02d}")
    order = rng.permutation(len(x))
    return np.asarray(x)[order], np.asarray(labels)[order]


def _grouped_marginal(x, labels, sigma_b, sigma_w, mu):
    _, index, counts = np.unique(labels, return_inverse=True, return_counts=True)
    stats = _sufficient_stats(x - mu, index, counts)
    loglik, _ = _marginal_loglik(stats, sigma_b, sigma_w)
    return loglik


def _rel(a, b):
    return np.linalg.norm(np.asarray(a) - np.asarray(b)) / np.linalg.norm(np.asarray(b))


# At least 6 speakers for at most 4 dimensions: with fewer speakers than
# dimensions Sigma_b collapses onto the ridge and the log-likelihood passes
# near 0, where a relative comparison measures only cancellation.
mixed_corpora = st.tuples(
    st.integers(0, 2**32 - 1),
    st.integers(1, 4),
    st.lists(st.integers(1, 6), min_size=3, max_size=12),
)


class TestGroupedPldaAgainstLiteral:
    """The count-grouped EM and marginal against the per-speaker forms they
    replaced, on speakers with at least three distinct utterance counts."""

    @given(mixed_corpora, st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_em_matches_per_speaker_oracle(self, corpus, iters):
        x, labels = _mixed_count_corpus(*corpus)
        model, trace = plda_em_train(x, labels, iters=iters)
        (mu, sigma_b, sigma_w), expected = plda_em_literal(x, labels, iters=iters)
        np.testing.assert_array_equal(model.mu, mu)
        assert _rel(model.sigma_b, sigma_b) <= 1e-10
        assert _rel(model.sigma_w, sigma_w) <= 1e-10
        np.testing.assert_allclose(trace, expected, rtol=1e-10, atol=0)
        assert np.all(np.diff(trace) >= -1e-8 * np.abs(trace[1:]))

    @given(mixed_corpora, st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_marginal_matches_per_speaker_oracle(self, corpus, model_seed):
        x, labels = _mixed_count_corpus(*corpus)
        rng = np.random.default_rng(model_seed)
        dim = x.shape[1]
        sigma_b, sigma_w, mu = _random_pd(rng, dim), _random_pd(rng, dim), rng.normal(size=dim)
        got = _grouped_marginal(x, labels, sigma_b, sigma_w, mu)
        expected = plda_marginal_loglik_literal(x, labels, sigma_b, sigma_w, mu)
        assert got == pytest.approx(expected, rel=1e-10, abs=0)

    @pytest.mark.parametrize("seed", range(4))
    def test_marginal_matches_stacked_gaussian(self, seed):
        x, labels = _mixed_count_corpus(seed, 3, [4, 1, 5, 2])
        rng = np.random.default_rng(100 + seed)
        sigma_b, sigma_w, mu = _random_pd(rng, 3), _random_pd(rng, 3), rng.normal(size=3)
        expected = 0.0
        for spk in np.unique(labels):
            rows = x[labels == spk]
            n = rows.shape[0]
            cov = np.kron(np.eye(n), sigma_w) + np.kron(np.ones((n, n)), sigma_b)
            expected += stats.multivariate_normal(np.tile(mu, n), cov).logpdf(rows.ravel())
        got = _grouped_marginal(x, labels, sigma_b, sigma_w, mu)
        assert got == pytest.approx(expected, rel=1e-10, abs=0)

    def test_every_count_distinct(self):
        x, labels = _mixed_count_corpus(9, 2, [4, 5, 6, 7])
        model, trace = plda_em_train(x, labels, iters=6)
        (_, sigma_b, sigma_w), expected = plda_em_literal(x, labels, iters=6)
        assert _rel(model.sigma_b, sigma_b) <= 1e-10
        assert _rel(model.sigma_w, sigma_w) <= 1e-10
        np.testing.assert_allclose(trace, expected, rtol=1e-10, atol=0)


class TestQuadraticForm:
    def test_asymmetric_lam_is_stored_symmetrized(self):
        rng = np.random.default_rng(20)
        lam = rng.normal(size=(3, 3))
        form = PldaScorer(lam, np.eye(3), np.zeros(3), 0.0)
        np.testing.assert_array_equal(form.lam, 0.5 * (lam + lam.T))
        np.testing.assert_array_equal(form.lam, form.lam.T)
        assert not np.array_equal(lam, lam.T)  # the input itself is left as it was

    def test_fields_are_float64(self):
        form = PldaScorer(np.eye(2, dtype=int), [[1, 0], [0, 1]], [1, 2], 3)
        for value in (form.lam, form.gamma, form.c):
            assert value.dtype == np.float64
        assert type(form.k) is float

    def test_asymmetric_gamma_is_rejected(self):
        gamma = np.eye(2)
        gamma[0, 1] = 1e-9
        with pytest.raises(ValueError, match="gamma must be symmetric"):
            PldaScorer(np.eye(2), gamma, np.zeros(2), 0.0)
        gamma[0, 1] = 1e-11  # within the 1e-10 tolerance
        np.testing.assert_array_equal(PldaScorer(np.eye(2), gamma, np.zeros(2), 0.0).gamma, gamma)

    @pytest.mark.parametrize("name", ["gamma", "sigma_b", "sigma_w"])
    def test_symmetry_tolerance_past_the_exact_compare(self, name):
        def build(mat):
            if name == "gamma":
                return PldaScorer(np.eye(3), mat, np.zeros(3), 0.0).gamma
            covs = {"sigma_b": np.eye(3), "sigma_w": np.eye(3), name: mat}
            return getattr(PldaModel(mu=np.zeros(3), **covs), name)

        # not exactly symmetric, so the allclose check decides; the entry's
        # mirror is 0, so only its 1e-10 absolute tolerance applies
        mat = np.diag([1.0, 2.0, 3.0])
        mat[2, 1] = 1e-12
        np.testing.assert_array_equal(build(mat), mat)
        mat[2, 1] = 1e-6
        with pytest.raises(ValueError, match=f"{name} must be symmetric"):
            build(mat)

    @pytest.mark.parametrize("name", ["gamma", "sigma_b", "sigma_w"])
    def test_symmetry_tolerance_is_absolute_only(self, name):
        # an entry near 1 raised by 1e-6 is 1e-6 off its mirror, far past
        # 1e-10, though within np.allclose's default relative tolerance
        mat = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])  # PD
        mat[0, 1] += 1e-6
        with pytest.raises(ValueError, match=f"{name} must be symmetric"):
            if name == "gamma":
                PldaScorer(np.eye(3), mat, np.zeros(3), 0.0)
            else:
                PldaModel(mu=np.zeros(3), **{"sigma_b": np.eye(3), "sigma_w": np.eye(3),
                                             name: mat})

    @pytest.mark.parametrize("field", ["lam", "gamma", "c", "k"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_are_rejected(self, field, bad):
        values = {"lam": np.eye(2), "gamma": np.eye(2), "c": np.zeros(2), "k": 0.0}
        if field == "k":
            values["k"] = bad
        else:
            values[field] = values[field].copy()
            values[field].flat[0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            PldaScorer(**values)

    def test_from_model_is_a_fixed_point_of_the_constructor(self):
        rng = np.random.default_rng(21)
        model = PldaModel(mu=rng.normal(size=3), sigma_b=_random_pd(rng, 3),
                          sigma_w=_random_pd(rng, 3, scale=0.7))
        form = PldaScorer.from_model(model)
        again = PldaScorer(form.lam, form.gamma, form.c, form.k)
        for name in ("lam", "gamma", "c"):
            np.testing.assert_array_equal(getattr(again, name), getattr(form, name))
        assert again.k == form.k

    def test_frozen(self):
        form = PldaScorer(np.eye(2), np.eye(2), np.zeros(2), 0.0)
        with pytest.raises(AttributeError):
            form.k = 1.0


def _gaussian_logpdf(cov):
    """d -> log N(d; 0, cov), from an inverse and a log-determinant computed
    once (a scipy distribution built per call is about 15x slower)."""
    inv, (_, logdet) = np.linalg.inv(cov), np.linalg.slogdet(cov)
    const = -0.5 * (len(cov) * np.log(2 * np.pi) + logdet)
    return lambda d: const - 0.5 * (d @ inv @ d)


def _aligned(scorer, e, t):
    """`scorer`'s scores of the pairs (e[n], t[n]) of row-aligned (N, D)
    arrays, or of the one pair of (D,) vectors e and t."""
    e, t = np.atleast_2d(e), np.atleast_2d(t)
    rows = np.arange(len(e))
    return scorer.score(e, t, rows, rows)


class TestPldaScoring:
    def _model(self, seed=0, dim=2):
        rng = np.random.default_rng(seed)
        return PldaModel(
            mu=rng.normal(size=dim),
            sigma_b=_random_pd(rng, dim),
            sigma_w=_random_pd(rng, dim, scale=0.7),
        )

    def test_symmetric(self):
        model = self._model(1)
        rng = np.random.default_rng(2)
        for _ in range(10):
            e, t = rng.normal(size=2), rng.normal(size=2)
            assert _aligned(PldaScorer.from_model(model), e, t) == pytest.approx(
                _aligned(PldaScorer.from_model(model), t, e), abs=1e-10
            )

    def test_no_speaker_information_scores_zero(self):
        model = PldaModel(mu=np.zeros(2), sigma_b=np.zeros((2, 2)), sigma_w=np.eye(2))
        rng = np.random.default_rng(3)
        for _ in range(5):
            scorer = PldaScorer.from_model(model)
            assert _aligned(scorer, rng.normal(size=2), rng.normal(size=2)) == pytest.approx(
                0.0, abs=1e-12)

    def test_degenerate_model_fails_loudly(self):
        # no within-speaker noise: same-speaker pairs are singular, the LLR unbounded
        model = PldaModel(mu=np.zeros(2), sigma_b=np.eye(2), sigma_w=np.zeros((2, 2)))
        with pytest.raises(NumericalError):
            PldaScorer.from_model(model)

    def test_same_point_at_mean_dominates(self):
        model = self._model(4)
        far = model.mu + 10.0
        scorer = PldaScorer.from_model(model)
        assert _aligned(scorer, model.mu, model.mu) >= _aligned(scorer, model.mu, far)

    def test_matches_numeric_integration(self):
        # quadrature oracle: integrate the latent speaker variable in 2-D
        model = self._model(8)
        t_cov = model.sigma_b + model.sigma_w
        rng = np.random.default_rng(9)
        marg = stats.multivariate_normal(mean=model.mu, cov=t_cov)
        log_prior, log_lik = _gaussian_logpdf(model.sigma_b), _gaussian_logpdf(model.sigma_w)
        for _ in range(4):
            e = model.mu + rng.normal(size=2)
            t = model.mu + rng.normal(size=2)

            def integrand(y2, y1):
                y = np.array([y1, y2])
                return np.exp(log_prior(y) + log_lik(e - model.mu - y) + log_lik(t - model.mu - y))

            num, err = integrate.dblquad(integrand, -9, 9, -9, 9,
                                         epsabs=1e-12, epsrel=1e-9)
            expected = np.log(num) - marg.logpdf(e) - marg.logpdf(t)
            assert _aligned(PldaScorer.from_model(model), e, t) == pytest.approx(expected,
                                                                                 abs=1e-6)
            assert err < 1e-10

    def test_batch_scorer_matches_single(self):
        model = self._model(10, dim=3)
        scorer = PldaScorer.from_model(model)
        rng = np.random.default_rng(11)
        e = rng.normal(size=(7, 3))
        t = rng.normal(size=(7, 3))
        batch = _aligned(scorer, e, t)
        for i in range(7):
            assert batch[i] == pytest.approx(_aligned(scorer, e[i], t[i])[0], abs=1e-12)

    def test_table_scorer_matches_per_pair_calls(self):
        model = self._model(15, dim=3)
        scorer = PldaScorer.from_model(model)
        rng = np.random.default_rng(16)
        e, t = rng.normal(size=(4, 3)), rng.normal(size=(6, 3))
        e_rows, t_rows = np.divmod(np.arange(24), 6)  # every (model, utterance) pair
        outer = scorer.score(e, t, e_rows, t_rows).reshape(4, 6)
        expected = [[_aligned(scorer, a, b)[0] for b in t] for a in e]
        np.testing.assert_allclose(outer, expected, rtol=1e-12, atol=1e-12)
        with pytest.raises(ValueError, match="dimension mismatch"):
            scorer.score(e, np.ones((4, 2)), [0], [0])
        with pytest.raises(ValueError, match="dimension mismatch"):
            scorer.score(e[0], t, [0], [0])  # a table is (M, D), not one vector

    def test_plda_beats_cosine_on_anisotropic_data(self):
        # raw (unnormalized-factor) data with strongly anisotropic within-cov
        rng = np.random.default_rng(12)
        sigma_b = np.diag([4.0, 0.05])
        sigma_w = np.diag([0.05, 2.0])
        x, labels = _simulate(rng, sigma_b, sigma_w, n_speakers=40, n_utts=4,
                              mu=np.array([1.0, 1.0]))
        model, _ = plda_em_train(x, labels, iters=15)
        scorer = PldaScorer.from_model(model)
        same_llr, same_cos, diff_llr, diff_cos = [], [], [], []
        for i in range(0, len(x), 2):
            j = i + 1
            pair = (_aligned(scorer, x[i], x[j])[0], cosine_score(x[i], x[j]))
            if labels[i] == labels[j]:
                same_llr.append(pair[0])
                same_cos.append(pair[1])
        for i in range(0, len(x) - 7, 7):
            j = i + 5
            if labels[i] != labels[j]:
                diff_llr.append(_aligned(scorer, x[i], x[j])[0])
                diff_cos.append(cosine_score(x[i], x[j]))
        auc_llr = auc_by_sorting(same_llr, diff_llr)
        auc_cos = auc_by_sorting(same_cos, diff_cos)
        assert auc_llr > auc_cos


class TestTrialsAreTableRows:
    """A trial is a pair of rows of the enroll and test tables: its score
    depends on those two rows under the tables, not on the other trials
    scored in the same call."""

    @staticmethod
    def _tables(seed, n_models, n_utts, n_trials, dim):
        rng = np.random.default_rng(seed)
        e, t = rng.normal(size=(n_models, dim)), rng.normal(size=(n_utts, dim))
        rows = rng.integers(0, n_models, n_trials), rng.integers(0, n_utts, n_trials)
        model = PldaModel(mu=rng.normal(size=dim), sigma_b=_random_pd(rng, dim),
                          sigma_w=_random_pd(rng, dim, scale=0.7))
        return rng, e, t, rows, PldaScorer.from_model(model)

    @given(st.integers(0, 2**32 - 1), st.sampled_from(["cosine", "plda", "nplda"]),
           st.integers(1, 30), st.integers(1, 60), st.integers(1, 200), st.integers(2, 64))
    @settings(max_examples=80, deadline=None)
    def test_score_is_bitwise_the_same_in_any_subset_or_order(self, seed, backend, n_models,
                                                              n_utts, n_trials, dim):
        rng, e, t, (e_rows, t_rows), form = self._tables(seed, n_models, n_utts, n_trials, dim)
        # an NPLDA form: a PLDA form moved off its generative values
        tuned = PldaScorer(form.lam + 0.1 * rng.normal(size=(dim, dim)), form.gamma,
                           form.c + rng.normal(size=dim), form.k - 0.5)
        score = {
            "cosine": lambda a, b: cosine_score(e[a], t[b]),
            "plda": lambda a, b: form.score(e, t, a, b),
            "nplda": lambda a, b: nplda_score(tuned, e, t, a, b),
        }[backend]
        whole = score(e_rows, t_rows)
        pick = rng.permutation(n_trials)[:int(rng.integers(1, n_trials + 1))]
        assert score(e_rows[pick], t_rows[pick]).tobytes() == whole[pick].tobytes()
        for i in pick[:3]:  # one trial alone
            assert score(e_rows[i:i + 1], t_rows[i:i + 1]).tobytes() == whole[i:i + 1].tobytes()

    @given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(1, 60),
           st.integers(1, 200), st.integers(2, 64))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_broadcasting_oracle(self, seed, n_models, n_utts, n_trials, dim):
        _, e, t, (e_rows, t_rows), form = self._tables(seed, n_models, n_utts, n_trials, dim)
        expected = plda_score_broadcast(form, e[e_rows], t[t_rows])
        np.testing.assert_allclose(form.score(e, t, e_rows, t_rows), expected, rtol=0,
                                   atol=1e-12 * np.abs(expected).max())
