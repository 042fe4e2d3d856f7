import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    check_gradients,
    ge2e_loss_literal,
    meta_rows,
    pmt_loss,
    product_label,
    spk_plus_phrase_loss,
)
from spkver.core import Metas, NumericalError
from spkver.extractor import (
    ALL_ROWS,
    AamHead,
    Extractor,
    Ge2eParams,
    Strategy,
    TrainConfig,
    aam_loss,
    extract_embeddings,
    ge2e_loss,
    heads_loss,
    pct_loss,
    train,
)
from spkver.synthgen import GenConfig, gen_corpus


def _unit_rows(rng, n, d):
    x = rng.normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _head(rng, n_classes, dim, scale=8.0, margin=0.2):
    return AamHead(weights=_unit_rows(rng, n_classes, dim), scale=scale, margin=margin)


class TestForward:
    def test_zero_weights_flags_degenerate_normalization(self):
        net = Extractor(np.zeros((3, 2)), np.zeros(3), np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(NumericalError, match="zero-norm embedding"):
            extract_embeddings(net, np.array([[1.0, -1.0]]))

    def test_identity_like_network(self):
        d = 3
        net = Extractor(np.eye(d), np.zeros(d), np.eye(d), np.zeros(d))
        feats = np.array([[2.0, -1.0, 1.0]])
        unit = extract_embeddings(net, feats)
        relu = np.maximum(feats, 0.0)
        np.testing.assert_allclose(unit, relu / np.linalg.norm(relu))

    def test_deterministic(self):
        net = Extractor.init(4, 6, 3, seed=1)
        x = np.random.default_rng(2).normal(size=(5, 4))
        np.testing.assert_array_equal(extract_embeddings(net, x), extract_embeddings(net, x))

    def test_dim_mismatch(self):
        net = Extractor.init(4, 6, 3, seed=1)
        with pytest.raises(ValueError, match=r"features must be \(N, 4\)"):
            extract_embeddings(net, np.zeros((1, 5)))
        # one feature vector is not a batch
        with pytest.raises(ValueError, match=r"got shape \(4,\)"):
            extract_embeddings(net, np.zeros(4))

    def test_extract_embeddings_unit(self):
        net = Extractor.init(4, 6, 3, seed=3)
        x = np.random.default_rng(4).normal(size=(8, 4))
        unit = extract_embeddings(net, x)
        np.testing.assert_allclose(np.linalg.norm(unit, axis=1), 1.0, atol=1e-12)


class TestAamLoss:
    def test_zero_margin_is_plain_scaled_softmax(self):
        rng = np.random.default_rng(0)
        e = _unit_rows(rng, 5, 3)
        labels = np.array([0, 1, 0, 1, 1])
        head = _head(rng, 2, 3, scale=4.0, margin=0.0)
        loss, _, _ = aam_loss(e, labels, head)
        logits = 4.0 * e @ head.weights.T
        logp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        expected = -logp[np.arange(5), labels].mean()
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_single_class_loss_is_zero(self):
        rng = np.random.default_rng(1)
        e = _unit_rows(rng, 4, 3)
        head = _head(rng, 1, 3, margin=0.3)
        loss, d_e, d_w = aam_loss(e, [0, 0, 0, 0], head)
        assert loss == 0.0
        np.testing.assert_allclose(d_e, 0.0, atol=1e-15)
        np.testing.assert_allclose(d_w, 0.0, atol=1e-15)

    def test_batch_permutation_invariance(self):
        rng = np.random.default_rng(2)
        e = _unit_rows(rng, 6, 4)
        labels = np.array([0, 1, 2, 0, 1, 2])
        head = _head(rng, 3, 4)
        perm = np.array([3, 0, 5, 2, 4, 1])
        loss_a, _, _ = aam_loss(e, labels, head)
        loss_b, _, _ = aam_loss(e[perm], labels[perm], head)
        assert loss_a == pytest.approx(loss_b, abs=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            e = _unit_rows(rng, 4, 3)
            labels = rng.integers(0, 2, size=4)
            head = _head(rng, 2, 3)
            loss, d_e, d_w = aam_loss(e, labels, head)

            def fn(arrays):
                h = AamHead(weights=arrays["w"], scale=head.scale, margin=head.margin)
                return aam_loss(arrays["e"], labels, h)[0]

            check_gradients(fn, {"e": e.copy(), "w": head.weights.copy()},
                            {"e": d_e, "w": d_w})

    def test_label_out_of_range(self):
        rng = np.random.default_rng(4)
        head = _head(rng, 2, 3)
        with pytest.raises(ValueError):
            aam_loss(_unit_rows(rng, 2, 3), [0, 2], head)


class TestSpkPlusPhrase:
    def test_zero_weight_reduces_to_speaker_loss(self):
        rng = np.random.default_rng(5)
        e = _unit_rows(rng, 6, 4)
        spk = rng.integers(0, 3, size=6)
        phr = rng.integers(0, 2, size=6)
        spk_head, phr_head = _head(rng, 3, 4), _head(rng, 2, 4)
        plain, de_plain, dw_plain = aam_loss(e, spk, spk_head)
        joint, de_joint, dw_spk, dw_phr = spk_plus_phrase_loss(
            e, spk, phr, spk_head, phr_head, multitask_weight=0.0
        )
        assert joint == plain
        np.testing.assert_array_equal(de_joint, de_plain)
        np.testing.assert_array_equal(dw_spk, dw_plain)
        np.testing.assert_allclose(dw_phr, 0.0)

    def test_duplicated_head_doubles_loss(self):
        rng = np.random.default_rng(6)
        e = _unit_rows(rng, 5, 4)
        labels = rng.integers(0, 3, size=5)
        head = _head(rng, 3, 4)
        single, _, _ = aam_loss(e, labels, head)
        double, _, _, _ = spk_plus_phrase_loss(e, labels, labels, head,
                                               AamHead(head.weights.copy(), head.scale, head.margin),
                                               multitask_weight=1.0)
        assert double == pytest.approx(2 * single, abs=1e-12)

    def test_missing_phrase_labels(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError):
            spk_plus_phrase_loss(_unit_rows(rng, 2, 3), [0, 1], None,
                                 _head(rng, 2, 3), _head(rng, 2, 3))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(8)
        e = _unit_rows(rng, 4, 3)
        spk = rng.integers(0, 2, size=4)
        phr = rng.integers(0, 2, size=4)
        sh, ph = _head(rng, 2, 3), _head(rng, 2, 3)
        lam = 0.7
        _, d_e, d_ws, d_wp = spk_plus_phrase_loss(e, spk, phr, sh, ph, lam)

        def fn(arrays):
            h1 = AamHead(arrays["ws"], sh.scale, sh.margin)
            h2 = AamHead(arrays["wp"], ph.scale, ph.margin)
            return spk_plus_phrase_loss(arrays["e"], spk, phr, h1, h2, lam)[0]

        check_gradients(
            fn,
            {"e": e.copy(), "ws": sh.weights.copy(), "wp": ph.weights.copy()},
            {"e": d_e, "ws": d_ws, "wp": d_wp},
        )


class TestProductLabel:
    @pytest.mark.parametrize("spk,phr,n,expected", [(0, 0, 10, 0), (2, 3, 10, 23)])
    def test_definition(self, spk, phr, n, expected):
        assert product_label(spk, phr, n) == expected

    def test_bijection_over_product_set(self):
        seen = {product_label(s, p, 2) for s in range(3) for p in range(2)}
        assert seen == set(range(6))

    @given(st.integers(0, 50), st.integers(1, 20))
    def test_bijection_property(self, spk, n_phrases):
        values = [product_label(spk, p, n_phrases) for p in range(n_phrases)]
        assert len(set(values)) == n_phrases

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            product_label(0, 5, 5)
        with pytest.raises(ValueError):
            product_label(-1, 0, 5)


class TestPmtLoss:
    def test_single_phrase_equals_plain_aam_exactly(self):
        rng = np.random.default_rng(9)
        e = _unit_rows(rng, 5, 4)
        labels = rng.integers(0, 3, size=5)
        head = _head(rng, 3, 4)
        plain, de, dw = aam_loss(e, labels, head)
        routed, de_r, dws = pmt_loss(e, labels, ["p0"] * 5, {"p0": head})
        assert routed == plain
        np.testing.assert_array_equal(de_r, de)
        np.testing.assert_array_equal(dws["p0"], dw)

    def test_partition_additivity(self):
        rng = np.random.default_rng(10)
        e = _unit_rows(rng, 6, 4)
        labels = rng.integers(0, 2, size=6)
        phrases = ["a"] * 2 + ["b"] * 4
        heads = {"a": _head(rng, 2, 4), "b": _head(rng, 2, 4)}
        total, _, _ = pmt_loss(e, labels, phrases, heads)
        la, _, _ = aam_loss(e[:2], labels[:2], heads["a"])
        lb, _, _ = aam_loss(e[2:], labels[2:], heads["b"])
        assert total == pytest.approx((2 * la + 4 * lb) / 6, abs=1e-12)

    def test_unknown_phrase(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError, match="no classification head"):
            pmt_loss(_unit_rows(rng, 2, 3), [0, 1], ["a", "zz"], {"a": _head(rng, 2, 3)})

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(12)
        e = _unit_rows(rng, 5, 3)
        labels = rng.integers(0, 2, size=5)
        phrases = ["a", "b", "a", "b", "a"]
        heads = {"a": _head(rng, 2, 3), "b": _head(rng, 2, 3)}
        _, d_e, d_ws = pmt_loss(e, labels, phrases, heads)

        def fn(arrays):
            hs = {
                "a": AamHead(arrays["wa"], heads["a"].scale, heads["a"].margin),
                "b": AamHead(arrays["wb"], heads["b"].scale, heads["b"].margin),
            }
            return pmt_loss(arrays["e"], labels, phrases, hs)[0]

        check_gradients(
            fn,
            {"e": e.copy(), "wa": heads["a"].weights.copy(), "wb": heads["b"].weights.copy()},
            {"e": d_e, "wa": d_ws["a"], "wb": d_ws["b"]},
        )


def _pmt_terms(labels, phrases):
    """heads_loss terms of PMT, one head per phrase, in first-appearance order as in train."""
    labels, phrases = np.asarray(labels), np.asarray(phrases)
    terms = []
    for p in dict.fromkeys(phrases.tolist()):
        rows = np.flatnonzero(phrases == p)
        terms.append((p, rows, labels[rows], rows.size / len(labels)))
    return terms


class TestHeadsLossAgainstOracles:
    """heads_loss against the per-strategy losses it replaced, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12), st.integers(2, 5), st.integers(1, 4), st.integers(1, 4),
           st.sampled_from([0.0, 0.3, 1.0]), st.integers(0, 2**32 - 1))
    def test_speaker_plus_phrase(self, n, dim, n_spk, n_phr, weight, seed):
        rng = np.random.default_rng(seed)
        e = rng.normal(size=(n, dim))
        spk, phr = rng.integers(0, n_spk, size=n), rng.integers(0, n_phr, size=n)
        heads = {"spk": _head(rng, n_spk, dim), "phrase": _head(rng, n_phr, dim)}
        loss, d_e, d_heads = heads_loss(
            e, [("spk", ALL_ROWS, spk, 1.0), ("phrase", ALL_ROWS, phr, weight)], heads)
        ref, d_e_ref, dw_spk, dw_phr = spk_plus_phrase_loss(
            e, spk, phr, heads["spk"], heads["phrase"], weight)
        assert loss == ref
        assert np.array_equal(d_e, d_e_ref)
        assert list(d_heads) == ["spk", "phrase"]
        assert np.array_equal(d_heads["spk"], dw_spk)
        assert np.array_equal(d_heads["phrase"], dw_phr)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 10), st.integers(2, 5), st.integers(1, 4), st.integers(1, 4),
           st.integers(0, 2**32 - 1))
    def test_speaker_times_phrase(self, n, dim, n_spk, n_phr, seed):
        rng = np.random.default_rng(seed)
        e = rng.normal(size=(n, dim))
        spk, phr = rng.integers(0, n_spk, size=n), rng.integers(0, n_phr, size=n)
        heads = {"product": _head(rng, n_spk * n_phr, dim)}
        loss, d_e, d_heads = heads_loss(
            e, [("product", ALL_ROWS, spk * n_phr + phr, 1.0)], heads)
        product = [product_label(int(s), int(p), n_phr) for s, p in zip(spk, phr)]
        ref, d_e_ref, d_w_ref = aam_loss(e, product, heads["product"])
        assert loss == ref
        assert np.array_equal(d_e, d_e_ref)
        assert np.array_equal(d_heads["product"], d_w_ref)

    @settings(max_examples=100, deadline=None)
    @given(st.permutations(["p0", "p1", "p2", "p3"]), st.integers(1, 4), st.integers(0, 8),
           st.integers(2, 5), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_per_phrase_heads(self, order, n_used, n_extra, dim, n_spk, seed):
        # phrases first appear in `order`, which need not be the inventory's
        rng = np.random.default_rng(seed)
        used = order[:n_used]
        phrases = used + [used[i] for i in rng.integers(0, n_used, size=n_extra)]
        n = len(phrases)
        e = rng.normal(size=(n, dim))
        spk = rng.integers(0, n_spk, size=n)
        heads = {p: _head(rng, n_spk, dim) for p in ["p0", "p1", "p2", "p3"]}
        loss, d_e, d_heads = heads_loss(e, _pmt_terms(spk, phrases), heads)
        ref, d_e_ref, d_heads_ref = pmt_loss(e, spk, phrases, heads)
        assert loss == ref
        assert np.array_equal(d_e, d_e_ref)
        assert list(d_heads) == list(d_heads_ref) == used
        for p in used:
            assert np.array_equal(d_heads[p], d_heads_ref[p])

    def test_repeated_head_sums_its_gradients(self):
        rng = np.random.default_rng(22)
        e = rng.normal(size=(5, 3))
        labels = rng.integers(0, 2, size=5)
        heads = {"spk": _head(rng, 2, 3)}
        loss, d_e, d_heads = heads_loss(
            e, [("spk", ALL_ROWS, labels, 0.25), ("spk", ALL_ROWS, labels, 0.75)], heads)
        ref, d_e_ref, d_w_ref = aam_loss(e, labels, heads["spk"])
        assert loss == pytest.approx(ref, rel=1e-15)
        np.testing.assert_allclose(d_e, d_e_ref, rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(d_heads["spk"], d_w_ref, rtol=1e-14, atol=1e-15)


class TestHeadsLossGradients:
    def _check(self, e, terms, heads):
        _, d_e, d_heads = heads_loss(e, terms, heads)

        def fn(arrays):
            hs = {k: AamHead(arrays[k], h.scale, h.margin) for k, h in heads.items()}
            return heads_loss(arrays["e"], terms, hs)[0]

        arrays = {"e": e.copy(), **{k: h.weights.copy() for k, h in heads.items()}}
        check_gradients(fn, arrays, {"e": d_e, **d_heads})

    def test_overlapping_terms(self):
        # speaker + phrase: both terms score every row
        rng = np.random.default_rng(23)
        e = _unit_rows(rng, 5, 3)
        spk, phr = rng.integers(0, 3, size=5), rng.integers(0, 2, size=5)
        heads = {"spk": _head(rng, 3, 3), "phrase": _head(rng, 2, 3)}
        self._check(e, [("spk", ALL_ROWS, spk, 1.0), ("phrase", ALL_ROWS, phr, 0.6)], heads)

    def test_partitioning_terms(self):
        # per-phrase heads: each row is scored by its own phrase's head only
        rng = np.random.default_rng(24)
        e = _unit_rows(rng, 6, 3)
        spk = rng.integers(0, 2, size=6)
        phrases = ["b", "a", "b", "c", "a", "b"]
        heads = {p: _head(rng, 2, 3) for p in "abc"}
        self._check(e, _pmt_terms(spk, phrases), heads)


class TestGe2eLoss:
    def test_hand_evaluated_two_by_two(self):
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        batch = np.stack([[e1, e1], [e2, e2]])
        loss, _, _, _ = ge2e_loss(batch, Ge2eParams(w=1.0, b=0.0))
        assert loss == pytest.approx(np.log(1 + np.exp(-1.0)), abs=1e-12)

    def test_full_confusion_gives_log_s(self):
        v = np.array([0.6, 0.8])
        batch = np.stack([[v, v]] * 3)
        loss, _, _, _ = ge2e_loss(batch, Ge2eParams(w=2.0, b=0.3))
        assert loss == pytest.approx(np.log(3), abs=1e-12)

    def test_too_few_speakers_or_utts(self):
        rng = np.random.default_rng(13)
        with pytest.raises(ValueError):
            ge2e_loss(rng.normal(size=(1, 2, 3)), Ge2eParams())
        with pytest.raises(ValueError):
            ge2e_loss(rng.normal(size=(2, 1, 3)), Ge2eParams())

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(14)
        for _ in range(3):
            batch = rng.normal(size=(3, 2, 3))
            batch /= np.linalg.norm(batch, axis=2, keepdims=True)
            params = Ge2eParams(w=1.5, b=-0.4)
            _, d_e, d_w, d_b = ge2e_loss(batch, params)

            def fn(arrays):
                p = Ge2eParams(w=float(arrays["w"]), b=float(arrays["b"]))
                return ge2e_loss(arrays["e"], p)[0]

            check_gradients(
                fn,
                {"e": batch.copy(), "w": np.array(1.5), "b": np.array(-0.4)},
                {"e": d_e, "w": np.array(d_w), "b": np.array(d_b)},
            )


class TestGe2eAgainstLiteral:
    """The whole-array GE2E against the S x U x S loop it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 8), st.integers(2, 5), st.integers(2, 7),
        st.floats(0.1, 30.0), st.floats(-10.0, 10.0), st.integers(0, 2**32 - 1),
    )
    def test_matches_loop(self, s_n, u_n, dim, w, b, seed):
        batch = np.random.default_rng(seed).normal(size=(s_n, u_n, dim))
        params = Ge2eParams(w=w, b=b)
        loss, d_e, d_w, d_b = ge2e_loss(batch, params)
        loss_ref, d_e_ref, d_w_ref, d_b_ref = ge2e_loss_literal(batch, params)
        assert abs(loss - loss_ref) <= 1e-12 * abs(loss_ref)
        largest = max(np.abs(d_e_ref).max(), abs(d_w_ref))
        assert np.abs(d_e - d_e_ref).max() <= 1e-10 * largest
        assert abs(d_w - d_w_ref) <= 1e-10 * largest
        # the softmax rows sum to one, so the bias gradient is analytically 0
        assert abs(d_b) <= 1e-12 and abs(d_b_ref) <= 1e-12

    # values on a 1/8 grid, so that the centroid sums below cancel exactly
    @staticmethod
    def _zero_utterance(rng):
        batch = np.round(rng.normal(size=(3, 2, 4)) * 8) / 8
        batch[1, 0] = 0.0
        return batch

    @staticmethod
    def _zero_own_centroid(rng):
        # utterance (1, 0)'s own centroid averages (1, 1) and (1, 2)
        batch = np.round(rng.normal(size=(3, 3, 4)) * 8) / 8
        batch[1, 1] = -batch[1, 2]
        return batch

    @staticmethod
    def _zero_full_centroid(rng):
        # speaker 1's full centroid is zero; each own centroid is not
        batch = np.round(rng.normal(size=(3, 2, 4)) * 8) / 8
        batch[1, 1] = -batch[1, 0]
        return batch

    @pytest.mark.parametrize("loss_fn", [ge2e_loss, ge2e_loss_literal])
    @pytest.mark.parametrize("make", ["_zero_utterance", "_zero_own_centroid",
                                      "_zero_full_centroid"])
    def test_zero_norm_raises(self, loss_fn, make):
        batch = getattr(self, make)(np.random.default_rng(19))
        with pytest.raises(NumericalError, match="zero-norm"):
            loss_fn(batch, Ge2eParams())


class TestPctLoss:
    def _batch(self, rng, n_spk=3, dim=4):
        e = _unit_rows(rng, 2 * n_spk, dim)
        spk = np.repeat(np.arange(n_spk), 2)
        return e, spk

    def test_zero_contrastive_weight_reduces_to_aam(self):
        rng = np.random.default_rng(15)
        e, spk = self._batch(rng)
        head = _head(rng, 3, 4)
        plain, de, dw = aam_loss(e, spk, head)
        combo, de_c, dw_c, d_w, d_b = pct_loss(e, spk, ["p"] * 6, head, Ge2eParams(), 0.0)
        assert combo == plain
        np.testing.assert_array_equal(de_c, de)
        np.testing.assert_array_equal(dw_c, dw)
        assert d_w == 0.0 and d_b == 0.0

    def test_mixed_phrase_batch_rejected(self):
        rng = np.random.default_rng(16)
        e, spk = self._batch(rng)
        with pytest.raises(ValueError, match="same-phrase constraint violated"):
            pct_loss(e, spk, ["p"] * 5 + ["q"], _head(rng, 3, 4), Ge2eParams())

    def test_wrong_utterance_count_rejected(self):
        rng = np.random.default_rng(17)
        e = _unit_rows(rng, 5, 4)
        spk = [0, 0, 1, 1, 1]
        with pytest.raises(ValueError, match="two utterances per speaker"):
            pct_loss(e, spk, ["p"] * 5, _head(rng, 2, 4), Ge2eParams())

    def test_gradients_follow_interleaved_batch_rows(self):
        # speakers in scattered rows get the gradients of a grouped batch
        rng = np.random.default_rng(20)
        e, spk = self._batch(rng, n_spk=4, dim=5)
        head = _head(rng, 4, 5)
        perm = rng.permutation(len(spk))
        grouped = pct_loss(e, spk, ["p"] * 8, head, Ge2eParams(w=3.0, b=-1.0))
        mixed = pct_loss(e[perm], spk[perm], ["p"] * 8, head, Ge2eParams(w=3.0, b=-1.0))
        assert mixed[0] == pytest.approx(grouped[0], rel=1e-12)
        np.testing.assert_allclose(mixed[1], grouped[1][perm], rtol=0, atol=1e-12)
        np.testing.assert_allclose(mixed[2], grouped[2], rtol=0, atol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(18)
        e, spk = self._batch(rng, n_spk=3, dim=3)
        head = _head(rng, 3, 3)
        mu = 0.8
        _, d_e, d_head, d_w, d_b = pct_loss(e, spk, ["p"] * 6, head, Ge2eParams(w=1.2, b=0.1), mu)

        def fn(arrays):
            h = AamHead(arrays["w_head"], head.scale, head.margin)
            p = Ge2eParams(w=float(arrays["gw"]), b=float(arrays["gb"]))
            return pct_loss(arrays["e"], spk, ["p"] * 6, h, p, mu)[0]

        check_gradients(
            fn,
            {"e": e.copy(), "w_head": head.weights.copy(),
             "gw": np.array(1.2), "gb": np.array(0.1)},
            {"e": d_e, "w_head": d_head, "gw": np.array(d_w), "gb": np.array(d_b)},
        )


def _train_corpus(**kw):
    base = dict(n_speakers=4, n_phrases=2, n_utts_per_cell=4, dim=6,
                phrase_strength=0.8, noise_sigma=0.3, seed=21)
    base.update(kw)
    return gen_corpus(GenConfig(**base))


def _train_inputs(corpus):
    """The (features, metas, inventory) arguments of `train` for a corpus."""
    return corpus.x, corpus.metas, corpus.inventory


class TestTrain:
    def test_zero_epochs_leaves_parameters_unchanged(self):
        corpus = _train_corpus()
        net = Extractor.init(6, 8, 5, seed=0)
        result = train(net, *_train_inputs(corpus),
                       TrainConfig(strategy=Strategy.AAM_ONLY, epochs=0))
        np.testing.assert_array_equal(result.extractor.w1, net.w1)
        np.testing.assert_array_equal(result.extractor.w2, net.w2)
        assert result.loss_trace == ()

    def test_loss_decreases_on_separable_corpus(self):
        corpus = _train_corpus(n_speakers=2, phrase_strength=0.0, noise_sigma=0.1)
        net = Extractor.init(6, 8, 5, seed=1)
        cfg = TrainConfig(strategy=Strategy.AAM_ONLY, epochs=200,
                          lr_initial=0.05, lr_final=1e-3)
        result = train(net, *_train_inputs(corpus), cfg)
        assert result.loss_trace[-1] < result.loss_trace[0]

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_training_is_bit_reproducible(self, strategy):
        corpus = _train_corpus()
        net = Extractor.init(6, 8, 5, seed=2)
        cfg = TrainConfig(strategy=strategy, epochs=5, lr_initial=0.02,
                          lr_final=0.01, pct_speakers_per_batch=3, seed=33)
        a = train(net, *_train_inputs(corpus), cfg)
        b = train(net, *_train_inputs(corpus), cfg)
        np.testing.assert_array_equal(a.extractor.w1, b.extractor.w1)
        np.testing.assert_array_equal(a.extractor.w2, b.extractor.w2)
        assert a.loss_trace == b.loss_trace
        assert list(a.heads) == list(b.heads)
        for name, head in a.heads.items():
            np.testing.assert_array_equal(head.weights, b.heads[name].weights)
        if strategy is Strategy.PCT:
            assert a.ge2e.w == b.ge2e.w and a.ge2e.b == b.ge2e.b
        else:
            assert a.ge2e is None and b.ge2e is None

    @pytest.mark.parametrize("strategy", [s for s in Strategy if s is not Strategy.PCT])
    @pytest.mark.parametrize("multitask_weight", [1.0, 0.3])
    def test_first_loss_is_the_oracle_loss_at_the_initial_network(self, strategy,
                                                                   multitask_weight):
        # pins the order of the head seeds and the terms of each objective;
        # the metas are reversed so that phrases do not first appear in
        # inventory order, and with five phrases the PMT sum then rounds
        # differently in inventory order
        corpus = _train_corpus(n_phrases=5)
        feats = corpus.x[::-1]
        metas = Metas(*(column[::-1] for column in corpus.metas))
        net = Extractor.init(6, 8, 5, seed=6)
        cfg = TrainConfig(strategy=strategy, epochs=1, multitask_weight=multitask_weight,
                          aam_scale=16.0, aam_margin=0.3, seed=34)
        result = train(net, feats, metas, corpus.inventory, cfg)

        rng = np.random.default_rng(cfg.seed)

        def head(n_classes):
            return AamHead.init(n_classes, 5, int(rng.integers(2**63)), 16.0, 0.3)

        unit = extract_embeddings(net, feats)
        rows = meta_rows(metas)
        speakers = sorted({m.speaker_id for m in rows})
        spk = [speakers.index(m.speaker_id) for m in rows]
        phrase_ids = list(corpus.inventory.phrase_ids)
        phr = [phrase_ids.index(m.phrase_id) for m in rows]
        if strategy is Strategy.AAM_ONLY:
            expected = aam_loss(unit, spk, head(len(speakers)))[0]
        elif strategy is Strategy.SPK_PLUS_PHRASE:
            spk_head = head(len(speakers))
            expected = spk_plus_phrase_loss(unit, spk, phr, spk_head, head(len(phrase_ids)),
                                            multitask_weight)[0]
        elif strategy is Strategy.SPK_TIMES_PHRASE:
            product = [product_label(s, p, len(phrase_ids)) for s, p in zip(spk, phr)]
            expected = aam_loss(unit, product, head(len(speakers) * len(phrase_ids)))[0]
        else:
            heads = {p: head(len(speakers)) for p in phrase_ids}
            assert list(dict.fromkeys(m.phrase_id for m in rows)) != phrase_ids
            expected = pmt_loss(unit, spk, [m.phrase_id for m in rows], heads)[0]
        assert result.loss_trace[0] == expected

    def test_inputs_not_mutated(self):
        corpus = _train_corpus()
        net = Extractor.init(6, 8, 5, seed=3)
        w1_before = net.w1.copy()
        train(net, *_train_inputs(corpus),
              TrainConfig(strategy=Strategy.SPK_PLUS_PHRASE, epochs=3,
                          lr_initial=0.05, lr_final=0.01))
        np.testing.assert_array_equal(net.w1, w1_before)

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_every_strategy_runs_and_heads_stay_unit(self, strategy):
        corpus = _train_corpus()
        net = Extractor.init(6, 8, 5, seed=4)
        cfg = TrainConfig(strategy=strategy, epochs=4, lr_initial=0.05, lr_final=0.01,
                          pct_speakers_per_batch=3)
        result = train(net, *_train_inputs(corpus), cfg)
        assert len(result.loss_trace) == 4
        for head in result.heads.values():
            np.testing.assert_allclose(np.linalg.norm(head.weights, axis=1), 1.0,
                                       atol=1e-12)

    def test_features_need_one_row_per_meta(self):
        feats, metas, inventory = _train_inputs(_train_corpus())
        net = Extractor.init(6, 8, 5, seed=5)
        with pytest.raises(ValueError, match="one row per meta"):
            train(net, feats[:-1], metas, inventory, TrainConfig(epochs=1))

    def test_phrase_strategy_requires_phrase_labels(self):
        corpus = _train_corpus()
        stripped = corpus.metas._replace(phrases=(None,) * len(corpus.metas.utt_ids))
        feats, _, inventory = _train_inputs(corpus)
        net = Extractor.init(6, 8, 5, seed=5)
        with pytest.raises(ValueError, match="requires phrase labels"):
            train(net, feats, stripped, inventory, TrainConfig(strategy=Strategy.PMT, epochs=1))
