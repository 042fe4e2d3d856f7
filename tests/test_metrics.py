import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    eer_bruteforce,
    levenshtein_recursive,
    min_dcf_bruteforce,
    tune_weights_literal,
)
from spkver import metrics
from spkver.core import Language, PhraseEntry, PhraseInventory, Trial, TrialLabel
from spkver.metrics import (
    DcfParams,
    FusionWeights,
    apply_phrase_filter,
    classify_phrase,
    eer,
    fuse,
    levenshtein,
    min_dcf,
    min_dcf_details,
    tune_weights,
)


def _score_set(tgt, non):
    scores, keys = {}, {}
    for i, s in enumerate(tgt):
        scores[f"t{i}"] = float(s)
        keys[f"t{i}"] = TrialLabel.TARGET
    for i, s in enumerate(non):
        scores[f"n{i}"] = float(s)
        keys[f"n{i}"] = TrialLabel.NONTARGET
    return scores, keys


class TestEer:
    def test_perfect_separation(self):
        scores, keys = _score_set([1.0, 0.9], [0.1, 0.2])
        assert eer(scores, keys) == 0.0

    def test_crossing_case(self):
        # frozen from the exhaustive threshold-sweep oracle
        assert eer_bruteforce([3, 2], [1, 2.5]) == 0.5
        scores, keys = _score_set([3, 2], [1, 2.5])
        assert eer(scores, keys) == 0.5

    def test_all_equal(self):
        assert eer_bruteforce([1.0, 1.0], [1.0, 1.0, 1.0]) == 0.5
        scores, keys = _score_set([1.0, 1.0], [1.0, 1.0, 1.0])
        assert eer(scores, keys) == 0.5

    def test_single_class_raises(self):
        scores, keys = _score_set([1.0], [])
        with pytest.raises(ValueError):
            eer(scores, keys)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(-40, 40), min_size=1, max_size=40),
        st.lists(st.integers(-40, 40), min_size=1, max_size=40),
    )
    def test_matches_bruteforce(self, tgt, non):
        # integer scores get plenty of ties, the hard case for sweeps
        tgt = [s / 4.0 for s in tgt]
        non = [s / 4.0 for s in non]
        scores, keys = _score_set(tgt, non)
        assert eer(scores, keys) == pytest.approx(eer_bruteforce(tgt, non), abs=1e-12)


class TestMinDcf:
    def test_perfect_separation(self):
        scores, keys = _score_set([1.0, 0.9], [0.1, 0.2])
        assert min_dcf(scores, keys) == 0.0

    def test_all_equal_hits_reject_all_endpoint(self):
        # accept-all costs 9.9 under the defaults, reject-all exactly 1.0
        scores, keys = _score_set([0.5, 0.5], [0.5, 0.5])
        assert min_dcf(scores, keys) == pytest.approx(1.0, abs=1e-12)

    def test_threshold_is_reported(self):
        scores, keys = _score_set([0.9, 0.8], [0.1, 0.2])
        cost, threshold = min_dcf_details(scores, keys)
        assert cost == 0.0
        assert 0.2 < threshold <= 0.8

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(-40, 40), min_size=1, max_size=40),
        st.lists(st.integers(-40, 40), min_size=1, max_size=40),
        st.floats(0.01, 0.5),
    )
    def test_matches_bruteforce(self, tgt, non, p_target):
        params = DcfParams(p_target=p_target, c_miss=10.0, c_fa=1.0)
        scores, keys = _score_set(tgt, non)
        expected = min_dcf_bruteforce(tgt, non, p_target, 10.0, 1.0)
        assert min_dcf(scores, keys, params) == pytest.approx(expected, abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            tgt = rng.normal(1, 1, size=rng.integers(1, 30))
            non = rng.normal(0, 1, size=rng.integers(1, 30))
            scores, keys = _score_set(tgt, non)
            value = min_dcf(scores, keys)
            assert 0.0 <= value <= 1.0


class TestMonotoneInvariance:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_eer_min_dcf_invariant_under_increasing_transform(self, seed):
        rng = np.random.default_rng(seed)
        tgt = rng.normal(1, 1, size=12)
        non = rng.normal(0, 1, size=15)
        scores, keys = _score_set(tgt, non)
        warped, _ = _score_set(np.tanh(tgt) * 3 + 1, np.tanh(non) * 3 + 1)
        assert eer(scores, keys) == pytest.approx(eer(warped, keys), abs=1e-12)
        assert min_dcf(scores, keys) == pytest.approx(min_dcf(warped, keys), abs=1e-12)


class TestLevenshtein:
    @pytest.mark.parametrize(
        "a,b,expected",
        [("abc", "abc", 0), ("", "abc", 3), ("kitten", "sitting", 3), ("ab", "", 2)],
    )
    def test_known_distances(self, a, b, expected):
        assert levenshtein_recursive(a, b) == expected  # oracle agrees
        assert levenshtein(a, b) == expected

    @given(st.text(alphabet="abcd", max_size=12), st.text(alphabet="abcd", max_size=12))
    def test_matches_recursive_definition(self, a, b):
        assert levenshtein(a, b) == levenshtein_recursive(a, b)

    @given(
        st.text(alphabet="abc", max_size=10),
        st.text(alphabet="abc", max_size=10),
        st.text(alphabet="abc", max_size=10),
    )
    def test_symmetry_and_triangle(self, a, b, c):
        assert levenshtein(a, b) == levenshtein(b, a)
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


def _inventory():
    return PhraseInventory(
        (
            PhraseEntry("ph00", "salamaleikum", Language.L1),
            PhraseEntry("ph01", "sobhbekheyr", Language.L1),
            PhraseEntry("ph02", "goodmorningall", Language.L2),
        )
    )


class TestClassifyPhrase:
    def test_exact_match(self):
        assert classify_phrase("sobhbekheyr", _inventory()) == "ph01"

    def test_tie_breaks_by_inventory_order(self):
        inv = PhraseInventory(
            (
                PhraseEntry("p1", "aaaa", Language.L1),
                PhraseEntry("p2", "bbbb", Language.L1),
                PhraseEntry("p3", "cccc", Language.L2),
            )
        )
        # equidistant from every entry
        assert classify_phrase("dddd", inv) == "p1"

    def test_empty_inventory(self):
        with pytest.raises(ValueError):
            classify_phrase("x", PhraseInventory(()))

    def test_noisy_transcripts_still_classify(self):
        from spkver.synthgen import gen_transcript

        inv = _inventory()
        correct = 0
        total = 0
        for i, entry in enumerate(inv):
            for k in range(340):
                noisy = gen_transcript(entry.text, 0.1, seed=1000 * i + k)
                total += 1
                correct += classify_phrase(noisy, inv) == entry.phrase_id
        assert correct / total >= 0.99


class TestPhraseFilter:
    def _setup(self):
        trials = [
            Trial("t0", "m", "u0", "ph00"),
            Trial("t1", "m", "u1", "ph00"),
            Trial("t2", "m", "u2", "ph00"),
        ]
        scores = {"t0": 1.0, "t1": 0.5, "t2": -0.2}
        classified = {"u0": "ph00", "u1": "ph01", "u2": "ph00"}
        return trials, scores, classified

    def test_mismatch_gets_floor(self):
        trials, scores, classified = self._setup()
        out = apply_phrase_filter(scores, trials, classified, floor=-1000.0)
        assert out == {"t0": 1.0, "t1": -1000.0, "t2": -0.2}

    def test_all_match_is_identity(self):
        trials, scores, classified = self._setup()
        classified["u1"] = "ph00"
        assert apply_phrase_filter(scores, trials, classified) == scores

    def test_missing_classification(self):
        trials, scores, classified = self._setup()
        del classified["u1"]
        with pytest.raises(ValueError, match="no phrase classification"):
            apply_phrase_filter(scores, trials, classified)

    def test_never_raises_scores(self):
        trials, scores, classified = self._setup()
        out = apply_phrase_filter(scores, trials, classified, floor=-5)
        assert all(out[t] <= scores[t] for t in scores)


class TestFusion:
    def test_single_system_identity(self):
        s = {"a": 1.0, "b": -2.0}
        assert fuse([s], FusionWeights((1.0,))) == s

    def test_identical_sets_any_weights(self):
        s = {"a": 1.0, "b": -2.0}
        assert fuse([s, s], FusionWeights((0.3, 0.7))) == pytest.approx(s)

    def test_mean_weights(self):
        a = {"x": 1.0, "y": 3.0}
        b = {"x": 3.0, "y": -1.0}
        assert fuse([a, b], FusionWeights((0.5, 0.5))) == {"x": 2.0, "y": 1.0}

    def test_mismatched_ids(self):
        with pytest.raises(ValueError, match="trial-id mismatch"):
            fuse([{"a": 1.0}, {"b": 1.0}], FusionWeights((0.5, 0.5)))

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            FusionWeights((0.5, 0.6))
        with pytest.raises(ValueError):
            FusionWeights((-0.1, 1.1))


class TestTuneWeights:
    def test_single_system(self):
        scores, keys = _score_set([2.0, 1.5], [0.1])
        assert tune_weights([scores], keys).weights == (1.0,)

    def test_perfect_system_wins(self):
        rng = np.random.default_rng(7)
        tgt, non = rng.normal(2, 0.1, 20), rng.normal(-2, 0.1, 20)
        good, keys = _score_set(tgt, non)
        noise = {k: float(v) for k, v in zip(good, rng.normal(0, 100, size=len(good)))}
        # oracle: walk all 11 grid points by hand and check (1.0, 0.0) is
        # the unique minimizer before trusting the search
        costs = {}
        for i in range(11):
            w = FusionWeights((i / 10, 1 - i / 10))
            costs[w.weights] = min_dcf(fuse([good, noise], w), keys)
        assert costs[(1.0, 0.0)] == 0.0
        assert all(c > 0.0 for w, c in costs.items() if w != (1.0, 0.0))
        weights = tune_weights([good, noise], keys, grid_step=0.1)
        assert weights.weights[0] == 1.0

    def test_duplicate_systems_tie_break_lexicographic(self):
        scores, keys = _score_set([1.0, 0.8, 0.6], [0.7, 0.2])
        weights = tune_weights([scores, dict(scores)], keys, grid_step=0.5)
        assert weights.weights == (0.0, 1.0)

    def test_never_worse_than_best_single(self):
        rng = np.random.default_rng(3)
        keys = None
        for _ in range(10):
            sets = []
            for _ in range(3):
                tgt = rng.normal(1, 1, size=15)
                non = rng.normal(0, 1, size=25)
                scores, keys = _score_set(tgt, non)
                sets.append(scores)
            fused_cost = min_dcf(fuse(sets, tune_weights(sets, keys)), keys)
            singles = [min_dcf(s, keys) for s in sets]
            assert fused_cost <= min(singles) + 1e-12


def _fusion_case(seed, n_systems, n_trials):
    """Scores on a quarter grid (many ties) with a fifth floored at -1000."""
    rng = np.random.default_rng(seed)
    labels = rng.random(n_trials) < 0.4
    labels[:2] = (True, False)
    keys = {f"t{i}": TrialLabel.TARGET if lab else TrialLabel.NONTARGET
            for i, lab in enumerate(labels)}
    sets = []
    for _ in range(n_systems):
        scores = np.round(rng.normal(labels * rng.uniform(0, 2), 1.0) * 4) / 4
        scores[rng.random(n_trials) < 0.2] = -1000.0
        sets.append({f"t{i}": float(s) for i, s in enumerate(scores)})
    return sets, keys


class TestTuneWeightsAgainstLiteral:
    """The one-sweep grid search against the per-weight-vector loop."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 4), st.integers(2, 50), st.sampled_from([0.5, 0.25, 0.2, 0.1]),
        st.floats(0.01, 0.5), st.integers(0, 2**32 - 1),
    )
    def test_same_weights_as_loop(self, n_systems, n_trials, grid_step, p_target, seed):
        if n_systems == 4 and grid_step < 0.2:
            grid_step = 0.2  # keeps the loop oracle's 4-system grid at 56 points
        sets, keys = _fusion_case(seed, n_systems, n_trials)
        params = DcfParams(p_target=p_target)
        got = tune_weights(sets, keys, params, grid_step)
        assert got.weights == tune_weights_literal(sets, keys, params, grid_step).weights

    def test_rows_swept_in_blocks(self, monkeypatch):
        # 66 grid points of 40 trials in blocks of 3 rows, the last one short
        monkeypatch.setattr(metrics, "_SWEEP_SCORES", 120)
        for seed in range(5):
            sets, keys = _fusion_case(seed, 3, 40)
            got = tune_weights(sets, keys, grid_step=0.1)
            assert got.weights == tune_weights_literal(sets, keys, grid_step=0.1).weights

    def test_grid_order_matches_product_filter(self):
        import itertools

        for n_systems, n in ((2, 4), (3, 5), (4, 3), (3, 20)):
            expected = [tuple(i / n for i in p)
                        for p in itertools.product(range(n + 1), repeat=n_systems)
                        if sum(p) == n]
            assert [tuple(w) for w in metrics._simplex_grid(n_systems, n)] == expected

    def test_bad_inputs_raise(self):
        sets, keys = _fusion_case(0, 2, 10)
        with pytest.raises(ValueError, match="trial-id mismatch"):
            tune_weights([sets[0], {**sets[1], "extra": 0.0}], keys)
        with pytest.raises(ValueError, match="has no key"):
            tune_weights(sets, {k: v for k, v in keys.items() if k != "t3"})
        with pytest.raises(ValueError, match="non-finite score for trial t4"):
            tune_weights([sets[0], {**sets[1], "t4": float("inf")}], keys)
        with pytest.raises(ValueError, match="at least one target and one nontarget"):
            tune_weights(sets, {k: TrialLabel.TARGET for k in keys})
