import numpy as np
import pytest

from spkver import fileio
from spkver.backend import PldaModel
from spkver.core import (
    Embedding,
    Language,
    NumericalError,
    PhraseEntry,
    PhraseInventory,
    Trial,
    TrialKey,
    TrialLabel,
    UttMeta,
)
from spkver.extractor import Extractor
from spkver.fileio import DataFormatError
from spkver.nplda import NpldaParams
from spkver.norm import LangClassifier


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestEmbeddingRoundTrip:
    def test_bitwise_round_trip(self, tmp_path, rng):
        # awkward values on purpose: denormals, negatives, integers
        vecs = [rng.normal(size=4) * 10.0 ** rng.integers(-8, 8) for _ in range(20)]
        vecs.append(np.array([1.0, -1.0, 0.0, 5e-324]))
        embs = [Embedding(f"utt{i}", v) for i, v in enumerate(vecs)]
        path = tmp_path / "x.emb"
        fileio.write_embeddings(path, embs)
        back = fileio.read_embeddings(path)
        assert len(back) == len(embs)
        for a, b in zip(embs, back):
            assert a.utt_id == b.utt_id
            np.testing.assert_array_equal(a.vec, b.vec)

    def test_rewrite_is_byte_identical(self, tmp_path, rng):
        embs = [Embedding(f"u{i}", rng.normal(size=3)) for i in range(5)]
        p1, p2 = tmp_path / "a.emb", tmp_path / "b.emb"
        fileio.write_embeddings(p1, embs)
        fileio.write_embeddings(p2, fileio.read_embeddings(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.emb"
        path.write_text("nope 1.0\n")
        with pytest.raises(DataFormatError, match="bad.emb:1"):
            fileio.read_embeddings(path)

    def test_wrong_arity_reports_line(self, tmp_path):
        path = tmp_path / "bad.emb"
        path.write_text("EMB 2\nu1 1.0 2.0\nu2 1.0\n")
        with pytest.raises(DataFormatError, match="bad.emb:3"):
            fileio.read_embeddings(path)

    def test_whitespace_id_rejected_on_write(self, tmp_path):
        with pytest.raises(ValueError):
            fileio.write_embeddings(tmp_path / "x.emb", [Embedding("a b", np.ones(2))])

    @pytest.mark.parametrize("utt_id", ["", "a\tb", "a\nb", "a\u00a0b", "a\u2003b", " a"])
    def test_any_whitespace_or_empty_id_rejected(self, tmp_path, utt_id):
        with pytest.raises(ValueError, match="whitespace-free"):
            fileio.write_embeddings(tmp_path / "x.emb", [Embedding(utt_id, np.ones(2))])

    def test_text_is_header_then_per_value_repr(self, tmp_path, rng):
        vecs = [rng.normal(size=5) * 10.0 ** rng.integers(-300, 300) for _ in range(8)]
        vecs.append(np.array([-0.0, 0.0, 5e-324, 1e16, 0.1]))
        embs = [Embedding(f"u{i}", v) for i, v in enumerate(vecs)]
        path = tmp_path / "x.emb"
        fileio.write_embeddings(path, embs)
        expected = "EMB 5\n" + "".join(
            e.utt_id + "".join(" " + repr(float(v)) for v in e.vec) + "\n" for e in embs
        )
        assert path.read_bytes() == expected.encode("utf-8")

    def test_non_numeric_value_reports_line(self, tmp_path):
        path = tmp_path / "bad.emb"
        path.write_text("EMB 2\nu1 1.0 2.0\nu2 1.0 x\n")
        with pytest.raises(DataFormatError, match="bad.emb:3: non-numeric"):
            fileio.read_embeddings(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_vector_rejected_on_read(self, tmp_path, bad):
        path = tmp_path / "bad.emb"
        path.write_text(f"EMB 2\nu1 1.0 {bad}\n")
        with pytest.raises(ValueError, match="non-finite"):
            fileio.read_embeddings(path)


class TestMetaRoundTrip:
    def test_round_trip_with_optional_fields(self, tmp_path):
        metas = [
            UttMeta("u1", "s1", "ph00", Language.L1, "hello there friend"),
            UttMeta("u2", "s1", None, Language.L2, None),
            UttMeta("u3", "s2", "ph01", Language.L1, "x"),
        ]
        path = tmp_path / "m.meta"
        fileio.write_metas(path, metas)
        assert fileio.read_metas(path) == metas

    def test_transcript_keeps_internal_spaces(self, tmp_path):
        metas = [UttMeta("u1", "s1", "p", Language.L1, "a b c d")]
        path = tmp_path / "m.meta"
        fileio.write_metas(path, metas)
        assert fileio.read_metas(path)[0].transcript == "a b c d"

    def test_unknown_language_reports_line(self, tmp_path):
        path = tmp_path / "m.meta"
        path.write_text("META\nu1 s1 - L9 -\n")
        with pytest.raises(DataFormatError, match="m.meta:2"):
            fileio.read_metas(path)


class TestProtocolFiles:
    def test_trials_keys_enroll_round_trip(self, tmp_path):
        trials = [Trial("t1", "m1", "u1", "ph00"), Trial("t2", "m1", "u2", None)]
        keys = [TrialKey("t1", TrialLabel.TC), TrialKey("t2", TrialLabel.NONTARGET)]
        enroll = {"m1": ("u3", "u4"), "m2": ("u5",)}
        fileio.write_trials(tmp_path / "t.txt", trials)
        fileio.write_keys(tmp_path / "k.txt", keys)
        fileio.write_enroll_map(tmp_path / "e.txt", enroll)
        assert fileio.read_trials(tmp_path / "t.txt") == trials
        assert fileio.read_keys(tmp_path / "k.txt") == keys
        assert fileio.read_enroll_map(tmp_path / "e.txt") == enroll

    def test_key_tokens(self, tmp_path):
        path = tmp_path / "k.txt"
        path.write_text("t1 TGT\nt2 NTG\nt3 TW\n")
        labels = [k.label for k in fileio.read_keys(path)]
        assert labels == [TrialLabel.TARGET, TrialLabel.NONTARGET, TrialLabel.TW]

    def test_scores_round_trip_and_duplicate_detection(self, tmp_path, rng):
        scores = {f"t{i}": float(v) for i, v in enumerate(rng.normal(size=30))}
        path = tmp_path / "s.txt"
        fileio.write_scores(path, scores)
        assert fileio.read_scores(path) == scores
        path.write_text("t1 0.5\nt1 0.7\n")
        with pytest.raises(DataFormatError, match="duplicate"):
            fileio.read_scores(path)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_score_is_never_written(self, tmp_path, bad):
        path = tmp_path / "s.txt"
        with pytest.raises(NumericalError, match="non-finite"):
            fileio.write_scores(path, {"t0": 0.5, "t1": bad})
        assert not path.exists()


class TestInventory:
    def test_round_trip(self, tmp_path):
        inv = PhraseInventory((
            PhraseEntry("ph00", "salamaleikum", Language.L1),
            PhraseEntry("ph01", "good morning", Language.L2),
        ))
        path = tmp_path / "inv.txt"
        fileio.write_inventory(path, inv)
        back = fileio.read_inventory(path)
        assert back.entries == inv.entries


class TestModelContainers:
    def test_plda_round_trip(self, tmp_path, rng):
        a = rng.normal(size=(3, 3))
        model = PldaModel(mu=rng.normal(size=3), sigma_b=a @ a.T, sigma_w=np.eye(3) * 0.37)
        path = tmp_path / "plda.txt"
        fileio.write_plda(path, model)
        back = fileio.read_plda(path)
        np.testing.assert_array_equal(back.mu, model.mu)
        np.testing.assert_array_equal(back.sigma_b, model.sigma_b)
        np.testing.assert_array_equal(back.sigma_w, model.sigma_w)

    def test_nplda_round_trip(self, tmp_path, rng):
        g = rng.normal(size=(2, 2))
        params = NpldaParams(rng.normal(size=(2, 2)), g + g.T, rng.normal(size=2), -1.25)
        path = tmp_path / "nplda.txt"
        fileio.write_nplda(path, params)
        back = fileio.read_nplda(path)
        np.testing.assert_array_equal(back.lam, params.lam)
        np.testing.assert_array_equal(back.gamma, params.gamma)
        np.testing.assert_array_equal(back.c, params.c)
        assert back.k == params.k

    def test_checkpoint_round_trip(self, tmp_path):
        net = Extractor.init(4, 6, 3, seed=9)
        path = tmp_path / "ckpt.txt"
        fileio.write_checkpoint(path, net, strategy="PCT", seed=17)
        back, strategy, seed = fileio.read_checkpoint(path)
        assert strategy == "PCT" and seed == 17
        for name in ("w1", "b1", "w2", "b2"):
            np.testing.assert_array_equal(getattr(back, name), getattr(net, name))

    def test_lang_classifier_round_trip(self, tmp_path, rng):
        clf = LangClassifier(weights=rng.normal(size=(2, 5)), bias=rng.normal(size=2))
        path = tmp_path / "clf.txt"
        fileio.write_lang_classifier(path, clf)
        back = fileio.read_lang_classifier(path)
        np.testing.assert_array_equal(back.weights, clf.weights)
        np.testing.assert_array_equal(back.bias, clf.bias)

    def test_kind_mismatch(self, tmp_path):
        net = Extractor.init(2, 2, 2, seed=0)
        path = tmp_path / "ckpt.txt"
        fileio.write_checkpoint(path, net, strategy="AAM_ONLY", seed=0)
        with pytest.raises(DataFormatError, match="expected a PLDA file"):
            fileio.read_plda(path)

    def test_container_text_is_per_value_repr(self, tmp_path, rng):
        mat = rng.normal(size=(3, 4)) * 10.0 ** rng.integers(-20, 20, size=(3, 4))
        path = tmp_path / "c.txt"
        fileio.write_container(path, "KIND", mats={"m": mat}, scalars={"k": 0.1},
                               strings={"s": "v"})
        rows = ["".join(" " + repr(float(v)) for v in row)[1:] for row in mat]
        expected = "\n".join(["KIND", "STR s v", "MAT m 3 4", *rows, "SCALARS", "k 0.1"])
        assert path.read_text() == expected + "\n"
        _, _, mats, _ = fileio.read_container(path, "KIND")
        np.testing.assert_array_equal(mats["m"], mat)

    def test_non_numeric_matrix_value_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("PLDA\nMAT mu 1 2\n1.0 y\nSCALARS\n")
        with pytest.raises(DataFormatError, match="bad.txt:3: non-numeric value in matrix mu"):
            fileio.read_container(path, "PLDA")

    def test_truncated_matrix_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("PLDA\nMAT mu 1 2\n")
        with pytest.raises(DataFormatError):
            fileio.read_container(path, "PLDA")
