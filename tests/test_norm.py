import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import as_norm_literal, cohort_stats_literal
from spkver.backend import cosine_score
from spkver.core import Embedding, Language, NumericalError
from spkver.norm import (
    Cohort,
    CohortEntry,
    NormStats,
    as_norm,
    build_cohort,
    cohort_stats,
    effective_n_top,
    language_dependent_as_norm,
    predict_language,
    train_language_id,
)
from spkver.synthgen import GenConfig, gen_corpus


def _entry(utt_id, vec, lang=Language.L1):
    return CohortEntry(utt_id=utt_id, vec=np.asarray(vec, dtype=float), language=lang)


def _dot_scorer(a, b):
    return np.einsum("...d,...d->...", a, b)


class TestCohortStats:
    def test_top_two_arithmetic(self):
        # cohort scoring 0.9 / 0.5 / 0.1 against the anchor, N_top=2
        cohort = Cohort((
            _entry("a", [0.9]), _entry("b", [0.5]), _entry("c", [0.1]),
        ))
        stats = cohort_stats(np.array([1.0]), cohort, _dot_scorer, n_top=2)
        assert stats.mu == pytest.approx(0.7)
        assert stats.sigma == pytest.approx(0.2)

    def test_identical_scores_zero_variance(self):
        cohort = Cohort((_entry("a", [0.5]), _entry("b", [0.5])))
        with pytest.raises(NumericalError, match="zero variance"):
            cohort_stats(np.array([1.0]), cohort, _dot_scorer, n_top=2)

    def test_language_filter_equals_subcohort(self):
        rng = np.random.default_rng(0)
        entries = tuple(
            _entry(f"u{i}", rng.normal(size=3), Language.L2 if i % 2 else Language.L1)
            for i in range(12)
        )
        cohort = Cohort(entries)
        sub = Cohort(tuple(e for e in entries if e.language is Language.L2))
        anchor = rng.normal(size=3)
        a = cohort_stats(anchor, cohort, _dot_scorer, 4, language_filter=Language.L2)
        b = cohort_stats(anchor, sub, _dot_scorer, 4)
        assert a == b

    def test_filtered_cohort_too_small(self):
        cohort = Cohort((_entry("a", [1.0]), _entry("b", [2.0], Language.L2)))
        with pytest.raises(ValueError, match="usable entries"):
            cohort_stats(np.array([1.0]), cohort, _dot_scorer, 2, Language.L2)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_order_invariance(self, seed):
        rng = np.random.default_rng(seed)
        entries = [_entry(f"u{i}", rng.normal(size=4)) for i in range(8)]
        anchor = rng.normal(size=4)
        a = cohort_stats(anchor, Cohort(tuple(entries)), _dot_scorer, 3)
        perm = [entries[i] for i in rng.permutation(8)]
        b = cohort_stats(anchor, Cohort(tuple(perm)), _dot_scorer, 3)
        assert a.mu == pytest.approx(b.mu, abs=1e-12)
        assert a.sigma == pytest.approx(b.sigma, abs=1e-12)


class TestAsNorm:
    def test_unit_stats(self):
        stats = NormStats(mu=0.0, sigma=1.0, n_top=2)
        assert as_norm(1.0, stats, stats) == 2.0

    def test_score_at_both_means_is_zero(self):
        stats = NormStats(mu=0.7, sigma=0.3, n_top=2)
        assert as_norm(0.7, stats, stats) == 0.0

    def test_direct_evaluation(self):
        enroll = NormStats(mu=0.5, sigma=0.5, n_top=2)
        test = NormStats(mu=0.0, sigma=1.0, n_top=2)
        assert as_norm(1.0, enroll, test) == pytest.approx(2.0)

    def test_zero_sigma_rejected(self):
        good = NormStats(mu=0.0, sigma=1.0, n_top=2)
        bad = NormStats(mu=0.0, sigma=0.0, n_top=2)
        with pytest.raises(NumericalError):
            as_norm(1.0, good, bad)

    @given(st.floats(-3, 3), st.floats(-3, 3), st.floats(0.1, 2), st.floats(0.1, 2),
           st.floats(-2, 2), st.floats(0.01, 1))
    def test_strictly_increasing_in_raw_score(self, mu_e, mu_t, sig_e, sig_t, s, delta):
        enroll = NormStats(mu_e, sig_e, 2)
        test = NormStats(mu_t, sig_t, 2)
        assert as_norm(s + delta, enroll, test) > as_norm(s, enroll, test)


class TestLanguageDependentAsNorm:
    def _mixed_cohort(self, seed=1, n=20):
        rng = np.random.default_rng(seed)
        entries = tuple(
            _entry(f"u{i}", rng.normal(size=4), Language.L2 if i % 2 else Language.L1)
            for i in range(n)
        )
        return Cohort(entries), rng

    def test_monolingual_cohort_equals_plain_asnorm(self):
        rng = np.random.default_rng(2)
        entries = tuple(_entry(f"u{i}", rng.normal(size=4)) for i in range(10))
        cohort = Cohort(entries)
        e, t = rng.normal(size=4), rng.normal(size=4)
        raw = _dot_scorer(e, t)
        ld = language_dependent_as_norm(raw, e, t, cohort, _dot_scorer, 4, Language.L1)
        plain = as_norm(
            raw,
            cohort_stats(e, cohort, _dot_scorer, 4),
            cohort_stats(t, cohort, _dot_scorer, 4),
        )
        assert ld == plain

    def test_enroll_side_uses_language_subcohort(self):
        cohort, rng = self._mixed_cohort()
        e, t = rng.normal(size=4), rng.normal(size=4)
        raw = _dot_scorer(e, t)
        ld = language_dependent_as_norm(raw, e, t, cohort, _dot_scorer, 5, Language.L2)
        expected = as_norm(
            raw,
            cohort_stats(e, cohort, _dot_scorer, 5, language_filter=Language.L2),
            cohort_stats(t, cohort, _dot_scorer, 5),
        )
        assert ld == expected

    def test_language_gap_shrinks_versus_plain_asnorm(self):
        # corpus with a real language shift (comparable to the sqrt(dim)
        # speaker-factor norm): cross-language targets score low raw; the
        # language-restricted enroll cohort compensates. Gaps are measured
        # in pooled-std units because the two normalizations rescale scores.
        corpus = gen_corpus(GenConfig(
            n_speakers=30, n_phrases=2, n_utts_per_cell=10, dim=16,
            phrase_strength=0.0, language_shift=3.0, noise_sigma=0.4, seed=5,
        ))
        speakers = corpus.speaker_ids
        cohort_corpus = corpus.subset_by_speakers(speakers[:15])
        eval_corpus = corpus.subset_by_speakers(speakers[15:])
        cohort = build_cohort(cohort_corpus.embeddings, cohort_corpus.metas)
        n_top = effective_n_top(10, cohort, language_dependent=True)

        meta = {m.utt_id: m for m in eval_corpus.metas}
        gaps = {}
        for mode in ("plain", "lang"):
            same, cross = [], []
            by_spk = {}
            for emb in eval_corpus.embeddings:
                by_spk.setdefault(meta[emb.utt_id].speaker_id, []).append(emb)
            for spk, embs in by_spk.items():
                l1 = [e for e in embs if meta[e.utt_id].language is Language.L1]
                if len(l1) < 4:
                    continue
                centroid = np.mean([e.vec for e in l1[:3]], axis=0)
                centroid /= np.linalg.norm(centroid)
                enrolled = {e.utt_id for e in l1[:3]}
                for emb in embs:
                    if emb.utt_id in enrolled:
                        continue
                    raw = cosine_score(centroid, emb.vec)
                    lang = meta[emb.utt_id].language
                    if mode == "lang":
                        score = language_dependent_as_norm(
                            raw, centroid, emb.vec, cohort, cosine_score, n_top, lang
                        )
                    else:
                        score = as_norm(
                            raw,
                            cohort_stats(centroid, cohort, cosine_score, n_top),
                            cohort_stats(emb.vec, cohort, cosine_score, n_top),
                        )
                    (same if lang is Language.L1 else cross).append(score)
            pooled_std = float(np.std(same + cross))
            gaps[mode] = abs(float(np.mean(same) - np.mean(cross))) / pooled_std
        assert gaps["lang"] < gaps["plain"]

    def test_effective_n_top_clamps_to_language_subsets(self):
        cohort, _ = self._mixed_cohort(n=10)  # 5 per language
        assert effective_n_top(200, cohort, language_dependent=True) == 5
        assert effective_n_top(200, cohort, language_dependent=False) == 10
        assert effective_n_top(3, cohort, True) == 3


class TestLanguageId:
    def _labeled(self, corpus):
        metas = {m.utt_id: m for m in corpus.metas}
        x = np.stack([e.vec for e in corpus.embeddings])
        langs = [metas[e.utt_id].language for e in corpus.embeddings]
        return x, langs

    def test_separable_clusters_reach_full_accuracy(self):
        corpus = gen_corpus(GenConfig(
            n_speakers=10, n_phrases=2, n_utts_per_cell=10, dim=8,
            phrase_strength=0.0, language_shift=8.0, noise_sigma=0.05, seed=6,
        ))
        x, langs = self._labeled(corpus)
        clf = train_language_id(x, langs, epochs=1000, lr=2.0)
        hits = sum(predict_language(clf, v)[0] is l for v, l in zip(x, langs))
        assert hits == len(langs)

    def test_zero_epochs_predicts_uniform(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(10, 4))
        langs = [Language.L1] * 5 + [Language.L2] * 5
        clf = train_language_id(x, langs, epochs=0)
        lang, posterior = predict_language(clf, x[0])
        np.testing.assert_allclose(posterior, [0.5, 0.5])
        assert lang is Language.L1  # tie-break toward the lower-indexed language

    def test_no_shift_accuracy_near_chance(self):
        corpus = gen_corpus(GenConfig(
            n_speakers=25, n_phrases=2, n_utts_per_cell=20, dim=8,
            phrase_strength=0.0, language_shift=0.0, noise_sigma=0.5, seed=8,
        ))
        x, langs = self._labeled(corpus)
        assert len(langs) == 1000
        clf = train_language_id(x, langs, epochs=200, lr=0.5)
        hits = sum(predict_language(clf, v)[0] is l for v, l in zip(x, langs))
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
        lang, posterior = predict_language(clf, 50.0 * direction / np.linalg.norm(direction))
        assert lang is Language.L2
        assert posterior[1] > 0.999

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(6, 3))
        langs = [Language.L1] * 3 + [Language.L2] * 3
        clf = train_language_id(x, langs, epochs=1)
        with pytest.raises(ValueError):
            predict_language(clf, np.zeros(4))


class TestBuildCohort:
    def test_one_entry_per_speaker_language(self):
        corpus = gen_corpus(GenConfig(
            n_speakers=5, n_phrases=2, n_utts_per_cell=6, dim=6,
            noise_sigma=0.3, seed=12,
        ))
        cohort = build_cohort(corpus.embeddings, corpus.metas)
        meta = {m.utt_id: m for m in corpus.metas}
        expected = {(m.speaker_id, m.language) for m in corpus.metas}
        assert len(cohort) == len(expected)
        for entry in cohort.entries:
            spk, lang = entry.utt_id.split(":")
            members = [
                e.vec for e in corpus.embeddings
                if meta[e.utt_id].speaker_id == spk
                and meta[e.utt_id].language.value == lang
            ]
            np.testing.assert_allclose(entry.vec, np.mean(members, axis=0), atol=1e-12)


def _random_cohort(rng, n_l1, n_l2, dim):
    entries = [_entry(f"a{i}", rng.normal(size=dim), Language.L1) for i in range(n_l1)]
    entries += [_entry(f"b{i}", rng.normal(size=dim), Language.L2) for i in range(n_l2)]
    return Cohort(tuple(entries[i] for i in rng.permutation(len(entries))))


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
        limit = len(cohort.filtered(lang))
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
                x = np.stack([e.vec for e in cohort.entries])
                clf = train_language_id(x, [e.language for e in cohort.entries], epochs=20)
                langs, _ = predict_language(clf, test)
                assert langs == [predict_language(clf, v)[0] for v in test]
            elif mode == "ld_metadata":
                langs = [(Language.L1, Language.L2)[i] for i in rng.integers(0, 2, n_trials)]
            else:
                langs = [Language.L1] * n_trials
                langs[int(rng.integers(n_trials))] = Language.L2
            got = language_dependent_as_norm(raw, enroll, test, cohort, cosine_score,
                                             n_top, langs)
        expected = as_norm_literal(raw, enroll, test, cohort, cosine_score, n_top, langs)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)


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
        cohort = Cohort((_entry("a", [1.0, 0.0]), _entry("b", [1.0, 1.0]),
                         _entry("c", [1.0, -1.0])))
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
            language_dependent_as_norm(np.zeros(3), e, t, cohort, cosine_score, 2, langs)
        with pytest.raises(ValueError, match="usable entries in a language"):
            effective_n_top(2, cohort, language_dependent=True)

    def test_one_zero_sigma_in_batched_stats(self):
        good = NormStats(mu=np.zeros(3), sigma=np.ones(3), n_top=2)
        bad = NormStats(mu=np.zeros(3), sigma=np.array([1.0, 0.0, 1.0]), n_top=2)
        with pytest.raises(NumericalError):
            as_norm(np.ones(3), good, bad)
