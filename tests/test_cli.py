import hashlib
from pathlib import Path

import numpy as np
import pytest

from oracles import as_norm_literal, nplda_training_pairs_literal
from spkver import backend, fileio, metrics, norm, nplda, pipeline, synthgen
from spkver.backend import cosine_score
from spkver.cli import main
from spkver.config import load_config
from spkver.core import NumericalError

BASE = [
    "epochs=8",
    "n_speakers=24",
    "n_dev_trials=100",
    "n_eval_trials=160",
    "n_top=20",
]


def _args(workdir, *extra):
    out = []
    for item in BASE + [f"workdir={workdir}"] + list(extra):
        out += ["--set", item]
    return out


def _digests(workdir):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(workdir).iterdir())
    }


@pytest.fixture(scope="module")
def e2e_dir(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("run")
    assert main(["e2e"] + _args(workdir)) == 0
    return workdir


class TestSubcommands:
    def test_e2e_writes_expected_files(self, e2e_dir):
        names = {p.name for p in Path(e2e_dir).iterdir()}
        for expected in (
            "feats_train.emb", "meta_eval.meta", "inventory.txt",
            "trials_eval.txt", "keys_dev.txt", "enroll_eval.txt",
            "ckpt.txt", "emb_eval.emb",
            "scores_cosine_eval.txt", "scores_plda_dev.txt",
            "scores_cosine_norm_eval.txt", "scores_cosine_norm_filt_eval.txt",
            "scores_fused_eval.txt", "fusion_weights.txt",
            "metrics.txt", "manifest.txt",
        ):
            assert expected in names, expected

    def test_metrics_report_format(self, e2e_dir, capsys):
        assert main(["eval"] + _args(e2e_dir)) == 0
        out = capsys.readouterr().out
        assert "fused eer=" in out and "min_dcf=" in out

    def test_stage_rerun_is_byte_identical(self, e2e_dir):
        before = _digests(e2e_dir)
        assert main(["score"] + _args(e2e_dir)) == 0
        assert main(["norm"] + _args(e2e_dir)) == 0
        assert main(["fuse"] + _args(e2e_dir)) == 0
        after = _digests(e2e_dir)
        assert {k: v for k, v in after.items() if k in before} == before

    def test_manifest_records_rng_and_digests(self, e2e_dir):
        text = (Path(e2e_dir) / "manifest.txt").read_text()
        assert text.startswith("MANIFEST\nrng=numpy-pcg64\n")
        assert "sha256 metrics.txt" in text
        assert "workdir=" not in text and "workers=" not in text

    def test_seed_changes_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["e2e"] + _args(a) + ["--seed", "1"]) == 0
        assert main(["e2e"] + _args(b) + ["--seed", "2"]) == 0
        sa = (a / "scores_plda_eval.txt").read_bytes()
        sb = (b / "scores_plda_eval.txt").read_bytes()
        assert sa != sb


class TestConfigHandling:
    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        code = main(["gen", "--set", f"workdir={tmp_path}", "--set", "bogus=1"])
        assert code == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_bad_value_is_usage_error(self, tmp_path):
        assert main(["gen", "--set", f"workdir={tmp_path}", "--set", "epochs=soon"]) == 2

    def test_config_file_plus_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nn_speakers = 24\nepochs=8\nn_top=20\n"
                       f"workdir={tmp_path / 'w'}\n")
        assert main(["gen", "--config", str(cfg), "--set", "n_phrases=3"]) == 0
        inv = (tmp_path / "w" / "inventory.txt").read_text()
        assert inv.count("\n") == 4  # INV header + 3 phrases

    def test_missing_config_file(self):
        assert main(["gen", "--config", "/nonexistent/x.cfg"]) == 2

    def test_task_validation(self, tmp_path):
        assert main(["gen", "--set", f"workdir={tmp_path}", "--set", "task=XX"]) == 2

    @pytest.mark.parametrize("setting, message", [
        ("n_top=1", "n_top must be >= 2"),
        ("strategy=BOGUS", "'BOGUS' is not a valid Strategy"),
        ("workers=2", "unknown config key"),
    ])
    def test_bad_setting_fails_before_gen(self, tmp_path, capsys, setting, message):
        workdir = tmp_path / "w"
        assert main(["gen", "--set", f"workdir={workdir}", "--set", setting]) == 2
        assert message in capsys.readouterr().err
        assert not workdir.exists()

    def test_grid_step_not_dividing_one_fails_before_any_stage(self, tmp_path, capsys):
        workdir = tmp_path / "w"
        assert main(["e2e"] + _args(workdir, "grid_step=0.3")) == 2
        assert "grid_step must evenly divide 1" in capsys.readouterr().err
        assert not workdir.exists()

    @pytest.mark.parametrize("setting, message", [
        ("epochs=-1", "epochs must be >= 0"),
        ("lr_initial=0", "learning rates must be positive"),
        ("lr_final=-0.001", "learning rates must be positive"),
        ("multitask_weight=-1", "loss weights must be >= 0"),
        ("contrastive_weight=-0.5", "loss weights must be >= 0"),
        ("pct_speakers_per_batch=1", "PCT batches need >= 2 speakers"),
    ])
    def test_bad_training_setting_fails_before_any_stage(self, tmp_path, capsys, setting,
                                                         message):
        workdir = tmp_path / "w"
        assert main(["e2e"] + _args(workdir, setting)) == 2
        assert message in capsys.readouterr().err
        assert not workdir.exists()

    @pytest.mark.parametrize("settings, message", [
        (["proportions=0.5,0.5"], "TD proportions must have 4 entries"),
        (["task=TI", "proportions=0.25,0.25,0.25,0.25"], "TI proportions must have 2 entries"),
        (["proportions=0.5,-0.1,0.5,0.1"], "non-negative"),
        (["proportions=0,0,0,0"], "sum > 0"),
        (["task=TI", "backends=cosine,nplda"], "the nplda backend needs phrase labels"),
    ])
    def test_bad_trial_setting_fails_before_any_stage(self, tmp_path, capsys, settings,
                                                      message):
        workdir = tmp_path / "w"
        assert main(["e2e"] + _args(workdir, *settings)) == 2
        assert message in capsys.readouterr().err
        assert not workdir.exists()


class TestStageInputs:
    def _meta_reads(self, monkeypatch):
        names = []
        read = fileio.read_metas

        def recording(path):
            names.append(Path(path).name)
            return read(path)

        monkeypatch.setattr(fileio, "read_metas", recording)
        return names

    def test_score_reads_no_metadata(self, e2e_dir, monkeypatch):
        cfg = load_config(overrides=BASE + [f"workdir={e2e_dir}"])
        names = self._meta_reads(monkeypatch)
        pipeline._trial_vectors(cfg, "dev")
        assert names == []

    @pytest.mark.parametrize("use_lid, split_metas", [("true", []),
                                                       ("false", ["meta_dev.meta",
                                                                  "meta_eval.meta"])])
    def test_norm_reads_split_metadata_only_without_lid(self, e2e_dir, tmp_path, monkeypatch,
                                                         use_lid, split_metas):
        import shutil

        workdir = tmp_path / "w"
        shutil.copytree(e2e_dir, workdir)
        cfg = load_config(overrides=BASE + [f"workdir={workdir}", f"use_lid={use_lid}"])
        names = self._meta_reads(monkeypatch)
        pipeline.cmd_norm(cfg)
        assert names == ["meta_train.meta"] + split_metas

    def test_filter_classifies_only_tested_utterances(self, e2e_dir, tmp_path, monkeypatch):
        import shutil

        workdir = tmp_path / "w"
        shutil.copytree(e2e_dir, workdir)
        cfg = load_config(overrides=BASE + [f"workdir={workdir}"])
        calls = []
        classify = metrics.classify_phrase

        def counting(transcript, inventory):
            calls.append(transcript)
            return classify(transcript, inventory)

        monkeypatch.setattr(metrics, "classify_phrase", counting)
        before = _digests(workdir)
        pipeline.cmd_filter(cfg)
        tested = n_utts = 0
        for split in ("dev", "eval"):
            trials = fileio.read_trials(workdir / f"trials_{split}.txt")
            tested += len({t.test_utt_id for t in trials})
            n_utts += len(fileio.read_metas(workdir / f"meta_{split}.meta"))
        assert len(calls) == tested < n_utts
        assert _digests(workdir) == before


class TestErrorExitCodes:
    def test_malformed_input_is_data_error(self, tmp_path, capsys):
        workdir = tmp_path / "w"
        assert main(["gen"] + _args(workdir)) == 0
        (workdir / "feats_train.emb").write_text("EMB 2\nu1 0.5\n")
        code = main(["train"] + _args(workdir))
        assert code == 3
        assert "feats_train.emb:2" in capsys.readouterr().err

    def test_fusion_trial_mismatch_is_data_error(self, e2e_dir, tmp_path, capsys):
        import shutil

        workdir = tmp_path / "w"
        shutil.copytree(e2e_dir, workdir)
        path = workdir / "scores_plda_filt_dev.txt"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[1:]) + "\n")
        code = main(["fuse"] + _args(workdir))
        assert code == 3
        assert "trial-id mismatch" in capsys.readouterr().err

    def test_numerical_failure_maps_to_exit_4(self, monkeypatch, capsys):
        def boom(cfg):
            raise NumericalError("zero variance among top cohort scores")

        monkeypatch.setitem(pipeline.__dict__, "cmd_norm", boom)
        monkeypatch.setitem(__import__("spkver.cli", fromlist=["x"])._COMMANDS, "norm", boom)
        assert main(["norm"]) == 4
        assert "zero variance" in capsys.readouterr().err


class TestWorkdirInvariance:
    def test_outputs_identical_across_workdirs(self, e2e_dir, tmp_path):
        other = tmp_path / "elsewhere"
        assert main(["e2e"] + _args(other)) == 0
        assert _digests(other) == _digests(e2e_dir)


class TestNormAgainstLiteral:
    @pytest.mark.parametrize("split", ["dev", "eval"])
    def test_norm_scores_match_trial_at_a_time_oracle(self, e2e_dir, split):
        cfg = load_config(overrides=BASE + [f"workdir={e2e_dir}"])
        train_emb, train_meta = pipeline._load_split(cfg, "train", extracted=True)
        cohort = norm.build_cohort(train_emb, train_meta)
        n_top = norm.effective_n_top(cfg.n_top, cohort, language_dependent=True)
        classifier = fileio.read_lang_classifier(Path(e2e_dir) / "lang_clf.txt")
        trials, enroll, test = pipeline._trial_vectors(cfg, split)
        raw = fileio.read_scores(Path(e2e_dir) / f"scores_cosine_{split}.txt")
        langs = [norm.predict_language(classifier, v)[0] for v in test]
        expected = as_norm_literal([raw[t.trial_id] for t in trials], enroll, test, cohort,
                                   cosine_score, n_top, langs)
        got = fileio.read_scores(Path(e2e_dir) / f"scores_cosine_norm_{split}.txt")
        np.testing.assert_allclose([got[t.trial_id] for t in trials], expected,
                                   rtol=1e-12, atol=0)


class TestBackendTraining:
    @pytest.mark.parametrize("backends, global_calls", [
        ("cosine,nplda", 0),
        ("cosine,plda,nplda", 1),
    ])
    def test_global_plda_trained_only_for_the_plda_backend(
        self, e2e_dir, monkeypatch, backends, global_calls
    ):
        cfg = load_config(overrides=BASE + [f"workdir={e2e_dir}", f"backends={backends}"])
        n_train = len(fileio.read_embeddings(Path(e2e_dir) / "emb_train.emb"))
        rows_per_call = []
        train = backend.plda_em_train

        def counting(x, *args, **kwargs):
            rows_per_call.append(len(x))
            return train(x, *args, **kwargs)

        monkeypatch.setattr(backend, "plda_em_train", counting)
        scorers = pipeline._train_backend_scorers(cfg)
        assert sorted(scorers) == sorted(backends.split(","))
        # one call per phrase of the NPLDA bank, plus the global model on every row
        assert rows_per_call.count(n_train) == global_calls
        assert len(rows_per_call) == cfg.n_phrases + global_calls

    def test_nplda_bank_trains_on_the_per_trial_selection(self, e2e_dir, monkeypatch):
        cfg = load_config(overrides=BASE + [f"workdir={e2e_dir}", "backends=cosine,nplda"])
        embeddings, metas = pipeline._load_split(cfg, "train", extracted=True)
        protocols, seen = [], {}
        gen_trials, train_nplda = synthgen.gen_trials, nplda.train_nplda

        def recording_gen(*args, **kwargs):
            protocols.append(gen_trials(*args, **kwargs))
            return protocols[-1]

        def recording_train(init, enroll, test, labels, claimed, spoken, config):
            seen[claimed[0]] = (enroll, test, list(labels), list(claimed), list(spoken))
            return train_nplda(init, enroll, test, labels, claimed, spoken, config)

        monkeypatch.setattr(synthgen, "gen_trials", recording_gen)
        monkeypatch.setattr(nplda, "train_nplda", recording_train)
        bank = pipeline._train_nplda_bank(cfg, embeddings, metas)
        expected = nplda_training_pairs_literal(protocols[0], embeddings, metas, list(bank))
        assert expected and list(seen) == list(expected)
        for phrase, (enroll, test, labels, claimed, spoken) in expected.items():
            np.testing.assert_array_equal(seen[phrase][0], enroll)
            np.testing.assert_array_equal(seen[phrase][1], test)
            assert seen[phrase][2:] == (labels, claimed, spoken)
