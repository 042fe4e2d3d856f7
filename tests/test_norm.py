import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    as_norm_literal,
    cohort_stats_literal,
    language_dependent_as_norm_per_trial,
    meta_rows,
)
from spkver.backend import cosine_score
from spkver.config import PipelineConfig
from spkver.core import Language, Metas, NumericalError
from spkver.norm import (
    Cohort,
    NormStats,
    as_norm,
    build_cohort,
    cohort_stats,
    effective_n_top,
    language_dependent_as_norm,
    predict_language,
    train_language_id,
)
from spkver.synthgen import gen_corpus


def _cohort(vecs, langs=None):
    """A cohort of the given rows, all L1 unless languages are given."""
    x = np.asarray(vecs, dtype=np.float64)
    langs = [Language.L1] * len(x) if langs is None else langs
    return Cohort(x, np.array(langs, dtype=object))


def _dot_scorer(a, b):
    return np.einsum("...d,...d->...", a, b)


class TestCohortStats:
    def test_top_two_arithmetic(self):
        # cohort scoring 0.9 / 0.5 / 0.1 against the anchor, N_top=2
        cohort = _cohort([[0.9], [0.5], [0.1]])
        stats = cohort_stats(np.array([[1.0]]), cohort, _dot_scorer, n_top=2)
        assert stats.mu.shape == stats.sigma.shape == (1,)
        assert stats.mu[0] == pytest.approx(0.7)
        assert stats.sigma[0] == pytest.approx(0.2)

    def test_identical_scores_zero_variance(self):
        cohort = _cohort([[0.5], [0.5]])
        with pytest.raises(NumericalError, match="zero variance"):
            cohort_stats(np.array([[1.0]]), cohort, _dot_scorer, n_top=2)

    def test_language_filter_equals_subcohort(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(12, 3))
        cohort = _cohort(x, [Language.L2 if i % 2 else Language.L1 for i in range(12)])
        sub = _cohort(x[1::2], [Language.L2] * 6)
        anchor = rng.normal(size=(1, 3))
        a = cohort_stats(anchor, cohort, _dot_scorer, 4, language_filter=Language.L2)
        b = cohort_stats(anchor, sub, _dot_scorer, 4)
        np.testing.assert_array_equal(a.mu, b.mu)
        np.testing.assert_array_equal(a.sigma, b.sigma)

    def test_filtered_cohort_too_small(self):
        cohort = _cohort([[1.0], [2.0]], [Language.L1, Language.L2])
        with pytest.raises(ValueError, match="usable entries"):
            cohort_stats(np.array([[1.0]]), cohort, _dot_scorer, 2, Language.L2)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_order_invariance(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(8, 4))
        anchor = rng.normal(size=(1, 4))
        a = cohort_stats(anchor, _cohort(x), _dot_scorer, 3)
        b = cohort_stats(anchor, _cohort(x[rng.permutation(8)]), _dot_scorer, 3)
        np.testing.assert_allclose(a.mu, b.mu, rtol=0, atol=1e-12)
        np.testing.assert_allclose(a.sigma, b.sigma, rtol=0, atol=1e-12)


class TestAsNorm:
    def test_unit_stats(self):
        stats = NormStats(mu=0.0, sigma=1.0)
        assert as_norm(1.0, stats, stats) == 2.0

    def test_score_at_both_means_is_zero(self):
        stats = NormStats(mu=0.7, sigma=0.3)
        assert as_norm(0.7, stats, stats) == 0.0

    def test_direct_evaluation(self):
        enroll = NormStats(mu=0.5, sigma=0.5)
        test = NormStats(mu=0.0, sigma=1.0)
        assert as_norm(1.0, enroll, test) == pytest.approx(2.0)

    def test_zero_sigma_rejected(self):
        good = NormStats(mu=0.0, sigma=1.0)
        bad = NormStats(mu=0.0, sigma=0.0)
        with pytest.raises(NumericalError):
            as_norm(1.0, good, bad)

    @given(st.floats(-3, 3), st.floats(-3, 3), st.floats(0.1, 2), st.floats(0.1, 2),
           st.floats(-2, 2), st.floats(0.01, 1))
    def test_strictly_increasing_in_raw_score(self, mu_e, mu_t, sig_e, sig_t, s, delta):
        enroll = NormStats(mu_e, sig_e)
        test = NormStats(mu_t, sig_t)
        assert as_norm(s + delta, enroll, test) > as_norm(s, enroll, test)


class TestLanguageDependentAsNorm:
    def _mixed_cohort(self, seed=1, n=20):
        rng = np.random.default_rng(seed)
        langs = [Language.L2 if i % 2 else Language.L1 for i in range(n)]
        return _cohort(rng.normal(size=(n, 4)), langs), rng

    def test_monolingual_cohort_equals_plain_asnorm(self):
        rng = np.random.default_rng(2)
        cohort = _cohort(rng.normal(size=(10, 4)))
        e, t = rng.normal(size=(1, 4)), rng.normal(size=(1, 4))
        raw = _dot_scorer(e, t)
        one = np.zeros(1, dtype=np.intp)  # the one trial: row 0 of each table
        ld = language_dependent_as_norm(raw, e, t, one, one, cohort, _dot_scorer, 4, Language.L1)
        plain = as_norm(
            raw,
            cohort_stats(e, cohort, _dot_scorer, 4),
            cohort_stats(t, cohort, _dot_scorer, 4),
        )
        np.testing.assert_array_equal(ld, plain)

    def test_enroll_side_uses_language_subcohort(self):
        cohort, rng = self._mixed_cohort()
        e, t = rng.normal(size=(1, 4)), rng.normal(size=(1, 4))
        raw = _dot_scorer(e, t)
        one = np.zeros(1, dtype=np.intp)  # the one trial: row 0 of each table
        ld = language_dependent_as_norm(raw, e, t, one, one, cohort, _dot_scorer, 5, Language.L2)
        expected = as_norm(
            raw,
            cohort_stats(e, cohort, _dot_scorer, 5, language_filter=Language.L2),
            cohort_stats(t, cohort, _dot_scorer, 5),
        )
        np.testing.assert_array_equal(ld, expected)

    def test_language_gap_shrinks_versus_plain_asnorm(self):
        # corpus with a real language shift (comparable to the sqrt(dim)
        # speaker-factor norm): cross-language targets score low raw; the
        # language-restricted enroll cohort compensates. Gaps are measured
        # in pooled-std units because the two normalizations rescale scores.
        corpus = gen_corpus(PipelineConfig(
            n_speakers=30, n_phrases=2, n_utts_per_cell=10, dim=16,
            phrase_strength=0.0, language_shift=3.0, noise_sigma=0.4,
        ), 5)
        speakers = corpus.speaker_ids
        cohort_corpus = corpus.subset_by_speakers(speakers[:15])
        eval_corpus = corpus.subset_by_speakers(speakers[15:])
        cohort = build_cohort(cohort_corpus.x, cohort_corpus.metas)
        n_top = effective_n_top(10, cohort, language_dependent=True)

        by_spk = {}
        for vec, meta in zip(eval_corpus.x, meta_rows(eval_corpus.metas)):
            by_spk.setdefault(meta.speaker_id, []).append((vec, meta.language))
        enroll, test, langs = [], [], []
        for rows in by_spk.values():
            l1 = [i for i, (_, lang) in enumerate(rows) if lang is Language.L1]
            if len(l1) < 4:
                continue
            centroid = np.mean([rows[i][0] for i in l1[:3]], axis=0)
            centroid /= np.linalg.norm(centroid)
            for i, (vec, lang) in enumerate(rows):
                if i not in l1[:3]:
                    enroll.append(centroid)
                    test.append(vec)
                    langs.append(lang)
        enroll, test = np.array(enroll), np.array(test)
        rows = np.arange(len(enroll))  # one enroll and one test row per trial
        raw = cosine_score(enroll, test)
        cross = np.array([lang is Language.L2 for lang in langs])
        scores = {
            "plain": as_norm(raw, cohort_stats(enroll, cohort, cosine_score, n_top),
                             cohort_stats(test, cohort, cosine_score, n_top)),
            "lang": language_dependent_as_norm(raw, enroll, test, rows, rows, cohort,
                                               cosine_score, n_top, langs),
        }
        gaps = {mode: abs(float(np.mean(s[~cross]) - np.mean(s[cross]))) / float(np.std(s))
                for mode, s in scores.items()}
        assert gaps["lang"] < gaps["plain"]

    def test_effective_n_top_clamps_to_language_subsets(self):
        cohort, _ = self._mixed_cohort(n=10)  # 5 per language
        assert effective_n_top(200, cohort, language_dependent=True) == 5
        assert effective_n_top(200, cohort, language_dependent=False) == 10
        assert effective_n_top(3, cohort, True) == 3


class TestLanguageId:
    def _labeled(self, corpus):
        return corpus.x, list(corpus.metas.languages)

    def test_separable_clusters_reach_full_accuracy(self):
        corpus = gen_corpus(PipelineConfig(
            n_speakers=10, n_phrases=2, n_utts_per_cell=10, dim=8,
            phrase_strength=0.0, language_shift=8.0, noise_sigma=0.05,
        ), 6)
        x, langs = self._labeled(corpus)
        clf = train_language_id(x, langs, epochs=1000, lr=2.0)
        predicted, _ = predict_language(clf, x)
        assert predicted == langs

    def test_zero_epochs_predicts_uniform(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(10, 4))
        langs = [Language.L1] * 5 + [Language.L2] * 5
        clf = train_language_id(x, langs, epochs=0)
        predicted, posterior = predict_language(clf, x)
        np.testing.assert_allclose(posterior, 0.5)
        # tie-break toward the lower-indexed language
        assert predicted == [Language.L1] * len(x)

    def test_no_shift_accuracy_near_chance(self):
        corpus = gen_corpus(PipelineConfig(
            n_speakers=25, n_phrases=2, n_utts_per_cell=20, dim=8,
            phrase_strength=0.0, language_shift=0.0, noise_sigma=0.5,
        ), 8)
        x, langs = self._labeled(corpus)
        assert len(langs) == 1000
        clf = train_language_id(x, langs, epochs=200, lr=0.5)
        predicted, _ = predict_language(clf, x)
        hits = sum(p is l for p, l in zip(predicted, langs))
        assert 0.4 <= hits / len(langs) <= 0.6

    def test_single_language_rejected(self):
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError):
            train_language_id(rng.normal(size=(4, 3)), [Language.L1] * 4)

    def test_posterior_saturates_along_weight_direction(self):
        rng = np.random.default_rng(10)
        x = np.concatenate([rng.normal(-1, 0.3, size=(20, 3)),
                            rng.normal(1, 0.3, size=(20, 3))])
        langs = [Language.L1] * 20 + [Language.L2] * 20
        clf = train_language_id(x, langs, epochs=300, lr=1.0)
        direction = clf.weights[1] - clf.weights[0]
        predicted, posterior = predict_language(clf, [50.0 * direction / np.linalg.norm(direction)])
        assert predicted == [Language.L2]
        assert posterior.shape == (1, 2) and posterior[0, 1] > 0.999

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(6, 3))
        langs = [Language.L1] * 3 + [Language.L2] * 3
        clf = train_language_id(x, langs, epochs=1)
        with pytest.raises(ValueError, match="dimension 3"):
            predict_language(clf, np.zeros((1, 4)))
        # one embedding is not a batch
        with pytest.raises(ValueError, match=r"shape \(3,\)"):
            predict_language(clf, np.zeros(3))


class TestBuildCohort:
    def test_one_entry_per_speaker_language(self):
        corpus = gen_corpus(PipelineConfig(
            n_speakers=5, n_phrases=2, n_utts_per_cell=6, dim=6,
            phrase_strength=0.0, noise_sigma=0.3,
        ), 12)
        # rows in reverse order: each entry averages its own rows wherever they sit,
        # and entries come in the first-appearance order of (speaker, language)
        x, metas = corpus.x[::-1], Metas(*(column[::-1] for column in corpus.metas))
        cohort = build_cohort(x, metas)
        rows = meta_rows(metas)
        expected = list(dict.fromkeys((m.speaker_id, m.language) for m in rows))
        assert len(expected) > 5  # some speaker speaks both languages
        assert cohort.x.shape == (len(expected), 6) and cohort.x.dtype == np.float64
        assert cohort.languages.shape == (len(expected),)
        for (spk, lang), row, entry_lang in zip(expected, cohort.x, cohort.languages):
            assert entry_lang is lang
            members = [vec for vec, m in zip(x, rows) if m.speaker_id == spk and m.language is lang]
            np.testing.assert_allclose(row, np.mean(members, axis=0), atol=1e-12)

    def test_no_rows_rejected(self):
        with pytest.raises(ValueError, match="cohort must be non-empty"):
            build_cohort(np.empty((0, 3)), Metas((), (), (), (), ()))


def _random_cohort(rng, n_l1, n_l2, dim):
    x = np.concatenate([rng.normal(size=(n_l1, dim)), rng.normal(size=(n_l2, dim))])
    langs = np.array([Language.L1] * n_l1 + [Language.L2] * n_l2, dtype=object)
    order = rng.permutation(len(x))
    return _cohort(x[order], list(langs[order]))


class TestBatchedNormMatchesLiteral:
    """Batched cohort statistics and AS-norm against the trial-at-a-time
    oracle they replaced; the per-element arithmetic is the same, so the
    tolerance only covers summation order."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 10), st.integers(2, 8),
           st.integers(2, 8), st.sampled_from([None, Language.L1, Language.L2]))
    @settings(max_examples=40, deadline=None)
    def test_cohort_stats_rows_match_literal(self, seed, n_anchors, n_l1, n_l2, lang):
        rng = np.random.default_rng(seed)
        cohort = _random_cohort(rng, n_l1, n_l2, dim=4)
        limit = len(cohort.x) if lang is None else int(np.sum(cohort.languages == lang))
        n_top = int(rng.integers(2, limit + 1))
        anchors = rng.normal(size=(n_anchors, 4))
        stats = cohort_stats(anchors, cohort, cosine_score, n_top, language_filter=lang)
        expected = [cohort_stats_literal(a, cohort, cosine_score, n_top, lang) for a in anchors]
        np.testing.assert_allclose(stats.mu, [m for m, _ in expected], rtol=1e-12, atol=0)
        np.testing.assert_allclose(stats.sigma, [s for _, s in expected], rtol=1e-12, atol=0)

    @given(st.integers(0, 2**32 - 1),
           st.sampled_from(["plain", "ld_metadata", "ld_lid", "ld_one_trial_group"]),
           st.integers(1, 12), st.integers(2, 8), st.integers(2, 8), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_as_norm_matches_literal(self, seed, mode, n_trials, n_l1, n_l2, full_depth):
        rng = np.random.default_rng(seed)
        dim = 4
        cohort = _random_cohort(rng, n_l1, n_l2, dim)
        # full_depth: n_top equals the smallest filtered cohort size
        limit = effective_n_top(10**6, cohort, language_dependent=mode != "plain")
        n_top = limit if full_depth else int(rng.integers(2, limit + 1))
        enroll = rng.normal(size=(n_trials, dim))
        test = rng.normal(size=(n_trials, dim))
        raw = rng.normal(size=n_trials)
        if mode == "plain":
            langs = None
            got = as_norm(raw, cohort_stats(enroll, cohort, cosine_score, n_top),
                          cohort_stats(test, cohort, cosine_score, n_top))
        else:
            if mode == "ld_lid":
                clf = train_language_id(cohort.x, list(cohort.languages), epochs=20)
                langs, _ = predict_language(clf, test)
                assert langs == [predict_language(clf, v[None])[0][0] for v in test]
            elif mode == "ld_metadata":
                langs = [(Language.L1, Language.L2)[i] for i in rng.integers(0, 2, n_trials)]
            else:
                langs = [Language.L1] * n_trials
                langs[int(rng.integers(n_trials))] = Language.L2
            rows = np.arange(n_trials)
            got = language_dependent_as_norm(raw, enroll, test, rows, rows, cohort,
                                             cosine_score, n_top, langs)
        expected = as_norm_literal(raw, enroll, test, cohort, cosine_score, n_top, langs)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)


class TestDistinctAnchorRows:
    """Each table row the trials use is scored against the cohort once; the
    gathered statistics give the AS-norm of scoring every trial's rows, bit
    for bit."""

    @given(st.integers(0, 2**32 - 1), st.sampled_from(["one", "all", "mixed"]),
           st.integers(1, 12), st.sampled_from(["none", "one", "per_trial"]),
           st.integers(2, 8), st.integers(2, 8), st.integers(2, 8), st.booleans())
    @example(seed=0, repeats="all", n_trials=1, languages="per_trial", n_l1=3, n_l2=2, dim=4,
             full_depth=True)
    @example(seed=1, repeats="mixed", n_trials=12, languages="per_trial", n_l1=2, n_l2=5,
             dim=3, full_depth=True)
    @settings(max_examples=80, deadline=None)
    def test_matches_per_trial_bit_for_bit(self, seed, repeats, n_trials, languages, n_l1,
                                           n_l2, dim, full_depth):
        rng = np.random.default_rng(seed)
        cohort = _random_cohort(rng, n_l1, n_l2, dim)

        def table_rows():
            """A table with a spare row no trial uses, and each trial's row of it."""
            if repeats == "all":
                rows = rng.permutation(n_trials)
            elif repeats == "one":
                rows = np.zeros(n_trials, dtype=np.intp)
            else:
                n_distinct = int(rng.integers(1, n_trials + 1))
                rows = rng.permutation(np.concatenate([
                    np.arange(n_distinct), rng.integers(0, n_distinct, n_trials - n_distinct)]))
            return rng.normal(size=(rows.max() + 2, dim)), rows

        (enroll, enroll_rows), (test, test_rows) = table_rows(), table_rows()
        raw = rng.normal(size=n_trials)
        both = (Language.L1, Language.L2)
        langs = {
            "none": None,
            "one": both[int(rng.integers(2))],
            "per_trial": [both[i] for i in rng.integers(0, 2, n_trials)],
        }[languages]
        # n_top up to the smallest cohort a call may be filtered to
        limit = effective_n_top(10**6, cohort, language_dependent=langs is not None)
        n_top = limit if full_depth else int(rng.integers(2, limit + 1))
        got = language_dependent_as_norm(raw, enroll, test, enroll_rows, test_rows, cohort,
                                         cosine_score, n_top, langs)
        expected = language_dependent_as_norm_per_trial(
            raw, enroll[enroll_rows], test[test_rows], cohort, cosine_score, n_top, langs)
        assert got.dtype == expected.dtype and got.shape == expected.shape == (n_trials,)
        assert got.tobytes() == expected.tobytes()


class TestBatchFailures:
    """A bad row in a batch fails the whole batch as the scalar code did."""

    def test_one_zero_norm_anchor_in_batch(self):
        rng = np.random.default_rng(20)
        cohort = _random_cohort(rng, 4, 4, dim=3)
        anchors = rng.normal(size=(6, 3))
        anchors[3] = 0.0
        with pytest.raises(NumericalError, match="zero vector"):
            cohort_stats(anchors, cohort, cosine_score, 3)

    def test_one_zero_variance_row_among_many(self):
        cohort = _cohort([[1.0, 0.0], [1.0, 1.0], [1.0, -1.0]])
        # the anchor [1, 0] scores 1, 1, 1 against the cohort
        anchors = np.array([[0.0, 1.0], [0.3, 1.0], [1.0, 0.0], [0.5, -1.0]])
        with pytest.raises(NumericalError, match="zero variance"):
            cohort_stats(anchors, cohort, _dot_scorer, 3)
        cohort_stats(np.delete(anchors, 2, axis=0), cohort, _dot_scorer, 3)

    def test_too_small_filtered_cohort_for_one_language_group(self):
        rng = np.random.default_rng(21)
        cohort = _random_cohort(rng, 4, 1, dim=3)
        e, t = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        langs = [Language.L1, Language.L2, Language.L1]
        with pytest.raises(ValueError, match="usable entries"):
            language_dependent_as_norm(np.zeros(3), e, t, np.arange(3), np.arange(3), cohort,
                                       cosine_score, 2, langs)
        with pytest.raises(ValueError, match="usable entries in a language"):
            effective_n_top(2, cohort, language_dependent=True)

    def test_one_zero_sigma_in_batched_stats(self):
        good = NormStats(mu=np.zeros(3), sigma=np.ones(3))
        bad = NormStats(mu=np.zeros(3), sigma=np.array([1.0, 0.0, 1.0]))
        with pytest.raises(NumericalError):
            as_norm(np.ones(3), good, bad)
