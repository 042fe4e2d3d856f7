import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    aligned_literal,
    apply_phrase_filter_dict,
    classify_phrase_literal,
    eer_bruteforce,
    eer_dict,
    fuse_dict,
    levenshtein_loop,
    levenshtein_recursive,
    min_dcf_bruteforce,
    min_dcf_dict,
    tune_weights_literal,
)
from spkver import metrics
from spkver.config import PipelineConfig
from spkver.core import Language, PhraseInventory, TrialLabel, Trials
from spkver.metrics import (
    DcfParams,
    FusionWeights,
    apply_phrase_filter,
    classify_phrases,
    eer,
    fuse,
    levenshtein,
    min_dcf,
    min_dcf_details,
    tune_weights,
)

# the configured settings: the operating point, the fusion grid step and the
# phrase filter's floor
CFG = PipelineConfig()
DCF = CFG.dcf_params()


def _score_set(tgt, non):
    """Row-aligned scores and target flags, the targets first."""
    scores = np.concatenate([np.asarray(tgt, dtype=np.float64), np.asarray(non, dtype=np.float64)])
    return scores, np.arange(scores.size) < len(tgt)


def _as_dicts(ids, scores, is_target):
    """The {trial_id: score} and {trial_id: TrialLabel} forms of row-aligned arrays."""
    labels = [TrialLabel.TARGET if t else TrialLabel.NONTARGET for t in is_target]
    return dict(zip(ids, map(float, scores))), dict(zip(ids, labels))


def _matrix(sets, keys):
    """(systems, N) scores and the target flags of dict score sets, in the
    first set's trial order."""
    ids, scores = aligned_literal(sets)
    return scores, np.asarray([keys[t].is_target for t in ids])


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

    def test_misaligned_or_non_finite_scores_raise(self):
        scores, is_target = _score_set([1.0, 0.9], [0.1, 0.2])
        with pytest.raises(ValueError, match="target flags"):
            eer(scores, is_target[:-1])
        with pytest.raises(ValueError, match="expected 1-D scores"):
            min_dcf(scores[None], is_target, DCF)
        scores[2] = np.nan
        with pytest.raises(ValueError, match=r"non-finite score at \[2\]"):
            eer(scores, is_target)

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
        assert min_dcf(scores, keys, DCF) == 0.0

    def test_all_equal_hits_reject_all_endpoint(self):
        # accept-all costs 9.9 at the configured operating point, reject-all exactly 1.0
        scores, keys = _score_set([0.5, 0.5], [0.5, 0.5])
        assert min_dcf(scores, keys, DCF) == pytest.approx(1.0, abs=1e-12)

    def test_operating_point_has_no_default_of_its_own(self):
        with pytest.raises(TypeError):
            DcfParams()

    def test_threshold_is_reported(self):
        scores, keys = _score_set([0.9, 0.8], [0.1, 0.2])
        cost, threshold = min_dcf_details(scores, keys, DCF)
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
            value = min_dcf(scores, keys, DCF)
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
        assert min_dcf(scores, keys, DCF) == pytest.approx(min_dcf(warped, keys, DCF), abs=1e-12)

    # small integers give ties within and across the classes
    _SCORES = st.lists(st.floats(-1e3, 1e3) | st.integers(-3, 3).map(float),
                       min_size=1, max_size=25)

    @settings(max_examples=150, deadline=None)
    @given(_SCORES, _SCORES)
    @example([0.5], [0.5, -1.0, 0.5])  # one target
    @example([2.0, 2.0, -3.0], [7.0])  # one nontarget
    def test_dense_ranks_change_nothing(self, tgt, non):
        # a dense rank is a strictly increasing map of the scores that keeps
        # their ties
        scores, keys = _score_set(tgt, non)
        ranks = np.unique(scores, return_inverse=True)[1].astype(np.float64)
        assert eer(ranks, keys) == eer(scores, keys)
        assert min_dcf(ranks, keys, DCF) == min_dcf(scores, keys, DCF)


class TestAgainstDictForms:
    """The row-aligned metrics against the per-trial dict forms they replaced,
    on trials listed in a drawn order."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 40), st.integers(0, 2**32 - 1), st.floats(0.01, 0.5))
    def test_eer_and_min_dcf_equal_dict_forms(self, n, seed, p_target):
        rng = np.random.default_rng(seed)
        is_target = rng.random(n) < 0.4
        is_target[:2] = (True, False)
        rng.shuffle(is_target)
        scores = np.round(rng.normal(is_target * 1.0, 1.0) * 4) / 4  # ties
        ids = [f"t{i}" for i in rng.permutation(n)]
        score_dict, keys = _as_dicts(ids, scores, is_target)
        params = dataclasses.replace(DCF, p_target=p_target)
        assert eer(scores, is_target) == eer_dict(score_dict, keys)
        assert min_dcf_details(scores, is_target, params) == min_dcf_dict(score_dict, keys, params)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 30), st.integers(0, 2**32 - 1))
    def test_fuse_equals_dict_form(self, n_systems, n, seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=(n_systems, n)) * 10.0 ** rng.integers(-3, 3, (n_systems, 1))
        raw = rng.integers(0, 20, n_systems) + 1
        weights = FusionWeights(tuple(raw / raw.sum()))
        ids = [f"t{i}" for i in rng.permutation(n)]
        sets = [dict(zip(ids, row.tolist())) for row in scores]
        assert fuse(scores, weights).tolist() == list(fuse_dict(sets, weights).values())

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 30), st.integers(0, 2**32 - 1))
    def test_phrase_filter_equals_dict_form(self, n, seed):
        rng = np.random.default_rng(seed)
        phrases = ["ph00", "ph01", "ph02"]
        order = rng.permutation(n)
        claimed = tuple(phrases[int(rng.integers(3))] for _ in order)
        trials = Trials(tuple(f"t{i}" for i in order), ("m",) * n,
                        tuple(f"u{i % 7}" for i in order), claimed)
        classified = {f"u{k}": phrases[int(rng.integers(3))] for k in range(7)}
        scores = rng.normal(size=n)
        mismatch = np.asarray([classified[u] != c for u, c in zip(trials.test_ids, claimed)])
        expected = apply_phrase_filter_dict(
            dict(zip(trials.ids, scores.tolist())), trials, classified, -7.5)
        assert apply_phrase_filter(scores, mismatch, -7.5).tolist() == list(expected.values())


class TestLevenshtein:
    @pytest.mark.parametrize(
        "a,b,expected",
        [("abc", "abc", 0), ("", "abc", 3), ("kitten", "sitting", 3), ("ab", "", 2),
         ("", "", 0), ("héllo", "hello", 1), ("\U0001f600a", "a", 1)],
    )
    def test_known_distances(self, a, b, expected):
        assert levenshtein_recursive(a, b) == expected  # oracle agrees
        assert levenshtein_loop(a, b) == expected
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


# a small alphabet for many matches, plus non-ASCII letters, an astral-plane
# character and NUL, which numpy's fixed-width strings drop from a text's end
_TEXT = st.text(alphabet="abcé\u4e2d\U0001f600\x00", max_size=9)


class TestBatchedEditDistance:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_TEXT, max_size=6), st.lists(_TEXT, max_size=5))
    def test_every_pair_matches_oracles(self, texts, refs):
        dist = metrics._edit_distances(texts, refs)
        assert dist.shape == (len(texts), len(refs)) and dist.dtype == np.int64
        for i, text in enumerate(texts):
            for j, ref in enumerate(refs):
                expected = levenshtein_recursive(text, ref)
                assert levenshtein_loop(text, ref) == expected
                assert dist[i, j] == expected

    def test_unequal_lengths_in_one_batch(self):
        texts = ["", "a", "kitten", "abcdefghijklmnopqrst"]
        refs = ["sitting", "", "abc"]
        expected = [[levenshtein_recursive(t, r) for r in refs] for t in texts]
        assert metrics._edit_distances(texts, refs).tolist() == expected


def _inventory():
    return PhraseInventory(("ph00", "ph01", "ph02"), (Language.L1, Language.L1, Language.L2),
                           ("salamaleikum", "sobhbekheyr", "goodmorningall"))


class TestClassifyPhrase:
    def test_exact_match(self):
        assert classify_phrases(["sobhbekheyr"], _inventory()) == ["ph01"]

    def test_tie_breaks_by_inventory_order(self):
        inv = PhraseInventory(("p1", "p2", "p3"), (Language.L1, Language.L1, Language.L2),
                              ("aaaa", "bbbb", "cccc"))
        # "dddd" is equidistant from every entry, "bbcc" from p2 and p3
        assert classify_phrases(["dddd", "bbcc", ""], inv) == ["p1", "p2", "p1"]
        assert classify_phrase_literal("bbcc", inv) == "p2"

    def test_empty_inventory(self):
        with pytest.raises(ValueError):
            classify_phrases(["x"], PhraseInventory((), (), ()))

    def test_no_transcripts(self):
        assert classify_phrases([], _inventory()) == []

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_TEXT, max_size=8),
           st.lists(_TEXT.filter(bool), min_size=1, max_size=4, unique=True))
    def test_matches_one_at_a_time_oracle(self, texts, refs):
        inv = PhraseInventory(tuple(f"p{k}" for k in range(len(refs))),
                              (Language.L1,) * len(refs), tuple(refs))
        assert classify_phrases(texts, inv) == [classify_phrase_literal(t, inv) for t in texts]

    def test_noisy_transcripts_still_classify(self):
        from spkver.synthgen import gen_transcript

        inv = _inventory()
        texts, truth = [], []
        for i, (phrase_id, text) in enumerate(zip(inv.phrase_ids, inv.texts)):
            for k in range(340):
                texts.append(gen_transcript(text, 0.1, seed=1000 * i + k))
                truth.append(phrase_id)
        got = classify_phrases(texts, inv)
        assert np.mean([g == t for g, t in zip(got, truth)]) >= 0.99


class TestPhraseFilter:
    def test_mismatch_gets_floor(self):
        out = apply_phrase_filter([1.0, 0.5, -0.2], [False, True, False], floor=-1000.0)
        assert out.tolist() == [1.0, -1000.0, -0.2]

    def test_all_match_is_identity(self):
        scores = np.asarray([1.0, 0.5, -0.2])
        assert apply_phrase_filter(scores, np.zeros(3, dtype=bool), CFG.filter_floor).tolist() == scores.tolist()

    def test_misaligned_mask_raises(self):
        with pytest.raises(ValueError, match="mismatch flags"):
            apply_phrase_filter([1.0, 0.5, -0.2], [False, True], CFG.filter_floor)

    def test_never_raises_scores(self):
        scores = np.asarray([1.0, 0.5, -0.2])
        out = apply_phrase_filter(scores, [True, True, False], floor=-5)
        assert (out <= scores).all()


class TestFusion:
    def test_single_system_identity(self):
        s = np.asarray([[1.0, -2.0]])
        assert fuse(s, FusionWeights((1.0,))).tolist() == [1.0, -2.0]

    def test_identical_sets_any_weights(self):
        s = np.asarray([1.0, -2.0])
        np.testing.assert_allclose(fuse(np.stack([s, s]), FusionWeights((0.3, 0.7))), s)

    def test_mean_weights(self):
        scores = np.asarray([[1.0, 3.0], [3.0, -1.0]])
        assert fuse(scores, FusionWeights((0.5, 0.5))).tolist() == [2.0, 1.0]

    def test_one_weight_per_system(self):
        with pytest.raises(ValueError, match="one weight per system"):
            fuse(np.ones((3, 4)), FusionWeights((0.5, 0.5)))

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            FusionWeights((0.5, 0.6))
        with pytest.raises(ValueError):
            FusionWeights((-0.1, 1.1))


class TestTuneWeights:
    def test_single_system(self):
        scores, is_target = _score_set([2.0, 1.5], [0.1])
        assert tune_weights(scores[None], is_target, DCF, CFG.grid_step).weights == (1.0,)

    def test_perfect_system_wins(self):
        rng = np.random.default_rng(7)
        tgt, non = rng.normal(2, 0.1, 20), rng.normal(-2, 0.1, 20)
        good, is_target = _score_set(tgt, non)
        scores = np.stack([good, rng.normal(0, 100, size=good.size)])
        # oracle: walk all 11 grid points by hand and check (1.0, 0.0) is
        # the unique minimizer before trusting the search
        costs = {}
        for i in range(11):
            w = FusionWeights((i / 10, 1 - i / 10))
            costs[w.weights] = min_dcf(fuse(scores, w), is_target, DCF)
        assert costs[(1.0, 0.0)] == 0.0
        assert all(c > 0.0 for w, c in costs.items() if w != (1.0, 0.0))
        weights = tune_weights(scores, is_target, DCF, grid_step=0.1)
        assert weights.weights[0] == 1.0

    def test_duplicate_systems_tie_break_lexicographic(self):
        scores, is_target = _score_set([1.0, 0.8, 0.6], [0.7, 0.2])
        weights = tune_weights(np.stack([scores, scores]), is_target, DCF, grid_step=0.5)
        assert weights.weights == (0.0, 1.0)

    def test_never_worse_than_best_single(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            is_target = np.arange(40) < 15
            scores = rng.normal(is_target * 1.0, 1.0, size=(3, 40))
            fused_cost = min_dcf(fuse(scores, tune_weights(scores, is_target, DCF, CFG.grid_step)), is_target, DCF)
            singles = [min_dcf(s, is_target, DCF) for s in scores]
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
        params = dataclasses.replace(DCF, p_target=p_target)
        got = tune_weights(*_matrix(sets, keys), params, grid_step)
        assert got.weights == tune_weights_literal(sets, keys, params, grid_step).weights

    def test_rows_swept_in_blocks(self, monkeypatch):
        # 66 grid points of 40 trials: one row per block (a budget below the
        # trial count), blocks of 3 rows with the last one short, and the
        # whole grid in one block
        for budget in (10, 120, 66 * 40):
            monkeypatch.setattr(metrics, "_SWEEP_SCORES", budget)
            for seed in range(5):
                sets, keys = _fusion_case(seed, 3, 40)
                got = tune_weights(*_matrix(sets, keys), DCF, grid_step=0.1)
                assert got.weights == tune_weights_literal(sets, keys, DCF, grid_step=0.1).weights

    @pytest.mark.parametrize("n_trials", [150, 3000])
    def test_sweep_memory_is_bounded(self, n_trials):
        # 3 systems at grid_step 0.05 (231 grid points), at the dev trial
        # counts of the td-pct-fusion benchmark and of scale L; one bound
        # for both, since a block's size does not grow with either count
        rng = np.random.default_rng(n_trials)
        is_target = rng.random(n_trials) < 0.3
        scores = rng.normal(size=(3, n_trials)) + is_target
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            entry = tracemalloc.get_traced_memory()[0]
            tune_weights(scores, is_target, DCF, grid_step=0.05)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"tune_weights peaked {peak / 2**20:.2f} MiB above its entry"

    def test_grid_order_matches_product_filter(self):
        import itertools

        for n_systems, n in ((2, 4), (3, 5), (4, 3), (3, 20)):
            expected = [tuple(i / n for i in p)
                        for p in itertools.product(range(n + 1), repeat=n_systems)
                        if sum(p) == n]
            assert [tuple(w) for w in metrics._simplex_grid(n_systems, n)] == expected

    def test_bad_inputs_raise(self):
        scores, is_target = _matrix(*_fusion_case(0, 2, 10))
        with pytest.raises(ValueError, match="target flags"):
            tune_weights(scores, is_target[:-1], DCF, CFG.grid_step)
        with pytest.raises(ValueError, match="expected 2-D scores"):
            tune_weights(scores[0], is_target, DCF, CFG.grid_step)
        bad = scores.copy()
        bad[1, 4] = np.inf
        with pytest.raises(ValueError, match=r"non-finite score at \[1, 4\]"):
            tune_weights(bad, is_target, DCF, CFG.grid_step)
        with pytest.raises(ValueError, match="at least one target and one nontarget"):
            tune_weights(scores, np.ones_like(is_target), DCF, CFG.grid_step)
        with pytest.raises(ValueError, match="at least one system"):
            tune_weights(np.empty((0, 10)), is_target, DCF, CFG.grid_step)
