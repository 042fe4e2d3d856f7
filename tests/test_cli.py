import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import as_norm_literal, nplda_training_pairs_literal
import spkver
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
            "feats_train.npz", "meta_eval.meta", "inventory.txt",
            "trials_eval.txt", "keys_dev.txt", "enroll_eval.txt",
            "ckpt.npz", "emb_eval.npz",
            "scores_cosine_eval.txt", "scores_plda_dev.txt",
            "scores_cosine_norm_eval.txt", "scores_cosine_norm_filt_eval.txt",
            "scores_fused_eval.txt", "fusion_weights.txt",
            "metrics.txt", "manifest.txt",
        ):
            assert expected in names, expected
        assert "lang_clf.npz" not in names  # the classifier is trained and used within norm

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

    def test_non_utf8_config_file_is_a_config_error(self, tmp_path, capsys):
        # it exited 3 as a data error that named no file
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"epochs=8\n# caf\xe9\n")
        assert main(["gen", "--config", str(cfg), "--set", f"workdir={tmp_path / 'w'}"]) == 2
        assert f"config error: cannot read config {cfg}" in capsys.readouterr().err
        assert not (tmp_path / "w").exists()

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

    @pytest.mark.parametrize("setting, message", [
        ("n_enroll=8", "task=TD needs n_enroll < n_utts_per_cell, got 8 and 8"),
        ("n_dev_trials=0", "n_dev_trials must be >= 1, got 0"),
        ("n_eval_trials=-1", "n_eval_trials must be >= 1, got -1"),
        ("n_enroll=0", "n_enroll must be >= 1, got 0"),
    ])
    def test_bad_protocol_size_fails_before_any_stage(self, tmp_path, capsys, setting, message):
        workdir = tmp_path / "w"
        assert main(["e2e", "--set", f"workdir={workdir}", "--set", setting]) == 2
        assert message in capsys.readouterr().err
        assert not workdir.exists()

    def test_ti_enrollment_may_use_a_whole_cell(self):
        # TI enrolls on a speaker's L1 utterances across all phrases, so
        # n_enroll may reach n_utts_per_cell (the ti-plda-norm benchmark does)
        cfg = load_config(overrides=["task=TI", "n_utts_per_cell=3", "n_enroll=3",
                                     "norm_backend=plda", "language_dependent=false"])
        assert cfg.n_enroll == cfg.n_utts_per_cell == 3

    def test_ti_enrollment_that_cannot_work_fails_before_any_stage(self, tmp_path, capsys):
        # no speaker has n_enroll utterances plus one to test; this used to
        # exit 3 from gen after writing four files
        workdir = tmp_path / "w"
        assert main(["e2e"] + _args(workdir, "task=TI", "n_phrases=1", "n_utts_per_cell=2",
                                    "n_speakers=12")) == 2
        assert ("task=TI needs n_enroll < n_phrases * n_utts_per_cell, got 3 and 2"
                in capsys.readouterr().err)
        assert not workdir.exists()

    def test_infeasible_protocol_draw_writes_no_file(self, tmp_path, capsys):
        # with 4 utterances per speaker, too few dev speakers draw 3 L1
        # utterances to enroll; gen used to write train and dev features first
        workdir = tmp_path / "w"
        assert main(["gen"] + _args(workdir, "task=TI", "n_phrases=2", "n_utts_per_cell=2",
                                    "n_speakers=12")) == 3
        assert "infeasible request" in capsys.readouterr().err
        assert not workdir.exists() or not any(workdir.iterdir())

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

    @pytest.mark.parametrize("setting, message", [
        ("n_phrases=0", "counts must be positive"),
        ("dim=1", "dim must be >= 2"),
        ("noise_sigma=-1", "strengths and noise sigma must be >= 0"),
        ("transcript_error_rate=2", "transcript_error_rate must lie in [0, 1]"),
        ("p_target=0", "p_target must lie in (0, 1)"),
        ("c_miss=0", "costs must be positive"),
        ("nplda_lr=0", "learning rate must be positive"),
        ("hidden_dim=0", "hidden_dim must be positive, got 0"),
        ("emb_dim=0", "emb_dim must be positive, got 0"),
        ("lid_lr=-1", "lid_lr must be positive, got -1.0"),
        ("lid_epochs=-1", "lid_epochs must be >= 0, got -1"),
        ("plda_iters=-1", "plda_iters must be >= 0, got -1"),
    ])
    def test_bad_model_setting_fails_before_any_stage(self, tmp_path, capsys, setting,
                                                      message):
        # these used to exit 3 or 4 from a stage, some after writing files, or to run
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
        classify = metrics.classify_phrases

        def counting(transcripts, inventory):
            calls.append(list(transcripts))
            return classify(transcripts, inventory)

        monkeypatch.setattr(metrics, "classify_phrases", counting)
        before = _digests(workdir)
        pipeline.cmd_filter(cfg)
        tested_texts, n_utts = set(), 0
        for split in ("dev", "eval"):
            trials = fileio.read_trials(workdir / f"trials_{split}.txt")
            metas = fileio.read_metas(workdir / f"meta_{split}.meta")
            text_of = {u: t or "" for u, t in zip(metas.utt_ids, metas.transcripts)}
            tested_texts |= {text_of[u] for u in trials.test_ids}
            n_utts += len(metas.utt_ids)
        # one batch, one text per distinct transcript of a tested utterance, across splits
        assert len(calls) == 1
        assert sorted(calls[0]) == sorted(tested_texts)
        assert len(calls[0]) < n_utts
        assert _digests(workdir) == before


class TestErrorExitCodes:
    def test_malformed_input_is_data_error(self, tmp_path, capsys):
        workdir = tmp_path / "w"
        assert main(["gen"] + _args(workdir)) == 0
        path = workdir / "feats_train.npz"
        path.write_bytes(path.read_bytes()[:-100])
        capsys.readouterr()
        code = main(["train"] + _args(workdir))
        assert code == 3
        assert f"data error: {path}: not a readable .npz archive" in capsys.readouterr().err

    def test_features_out_of_step_with_metadata_is_data_error(self, tmp_path, capsys):
        workdir = tmp_path / "w"
        assert main(["gen"] + _args(workdir)) == 0
        path = workdir / "feats_train.npz"
        ids, x = fileio.read_matrix(path)
        fileio.write_matrix(path, ids[::-1], x[::-1])
        capsys.readouterr()
        assert main(["train"] + _args(workdir)) == 3
        assert f"{path}: ids differ from those of meta_train.meta" in capsys.readouterr().err

    def test_phrase_missing_from_inventory_is_data_error(self, tmp_path, capsys):
        workdir = tmp_path / "w"
        assert main(["gen"] + _args(workdir)) == 0
        path = workdir / "inventory.txt"
        lines = path.read_text().splitlines()
        path.write_text("".join(f"{line}\n" for line in lines[:-1]))
        phrase = lines[-1].split(" ")[0]
        metas = fileio.read_metas(workdir / "meta_train.meta")
        utt = metas.utt_ids[metas.phrases.index(phrase)]
        capsys.readouterr()
        assert main(["train"] + _args(workdir, "strategy=PMT")) == 3
        err = capsys.readouterr().err
        assert f"data error: utterance {utt!r} has phrase {phrase!r}" in err

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

    @pytest.mark.parametrize("stage, name", [
        ("eval", "scores_plda_filt_eval.txt"),
        ("eval", "scores_fused_eval.txt"),
        ("eval", "keys_eval.txt"),
        ("fuse", "scores_cosine_norm_filt_eval.txt"),
        ("fuse", "scores_plda_filt_dev.txt"),
        ("filter", "scores_plda_dev.txt"),
        ("norm", "scores_cosine_eval.txt"),
    ])
    def test_truncated_file_is_data_error(self, e2e_dir, tmp_path, capsys, stage, name):
        # the stage reported metrics over, or wrote scores of, the remaining trials
        import shutil

        workdir = tmp_path / "w"
        shutil.copytree(e2e_dir, workdir)
        path = workdir / name
        lines = path.read_text().splitlines()
        path.write_text("".join(f"{line}\n" for line in lines[:-1]))
        last = lines[-1].split(" ")[0]
        split = "dev" if "dev" in name else "eval"
        capsys.readouterr()
        assert main([stage] + _args(workdir)) == 3
        err = capsys.readouterr().err
        assert (f"data error: {path}:{len(lines)}: trial-id mismatch with trials_{split}.txt: "
                f"the end of the file where it has {last!r}") in err

    def test_reordered_score_file_is_data_error(self, e2e_dir, tmp_path, capsys):
        import shutil

        workdir = tmp_path / "w"
        shutil.copytree(e2e_dir, workdir)
        path = workdir / "scores_plda_filt_eval.txt"
        lines = path.read_text().splitlines()
        path.write_text("".join(f"{line}\n" for line in [lines[1], lines[0]] + lines[2:]))
        first, second = (line.split(" ")[0] for line in lines[:2])
        capsys.readouterr()
        assert main(["eval"] + _args(workdir)) == 3
        assert (f"{path}:1: trial-id mismatch with trials_eval.txt: {second!r} where it has "
                f"{first!r}") in capsys.readouterr().err

    def test_missing_score_file_is_data_error(self, e2e_dir, tmp_path, capsys):
        # eval used to skip a final system without a score file
        import shutil

        workdir = tmp_path / "w"
        shutil.copytree(e2e_dir, workdir)
        path = workdir / "scores_plda_filt_eval.txt"
        path.unlink()
        capsys.readouterr()
        assert main(["eval"] + _args(workdir)) == 3
        assert f"data error: {path}: " in capsys.readouterr().err

    def test_tested_utterance_without_metadata_is_data_error(self, e2e_dir, tmp_path, capsys):
        import shutil

        workdir = tmp_path / "w"
        shutil.copytree(e2e_dir, workdir)
        utt = fileio.read_trials(workdir / "trials_eval.txt").test_ids[0]
        path = workdir / "meta_eval.meta"
        lines = path.read_text().splitlines()
        path.write_text("".join(f"{line}\n" for line in lines if line.split(" ")[0] != utt))
        capsys.readouterr()
        assert main(["filter"] + _args(workdir)) == 3
        assert (f"data error: {path}: no transcript for test utterance {utt!r}"
                in capsys.readouterr().err)

    def test_trial_without_claimed_phrase_is_data_error(self, e2e_dir, tmp_path, capsys):
        import shutil

        workdir = tmp_path / "w"
        shutil.copytree(e2e_dir, workdir)
        path = workdir / "trials_dev.txt"
        lines = path.read_text().splitlines()
        fields = lines[1].split(" ")
        path.write_text("".join(f"{line}\n" for line in
                                [lines[0], " ".join(fields[:3] + ["-"])] + lines[2:]))
        capsys.readouterr()
        assert main(["filter"] + _args(workdir)) == 3
        assert (f"data error: {path}: trial {fields[0]} has no claimed phrase"
                in capsys.readouterr().err)

    def test_trial_model_missing_from_enroll_map_is_data_error(self, e2e_dir, tmp_path,
                                                                capsys):
        import shutil

        workdir = tmp_path / "w"
        shutil.copytree(e2e_dir, workdir)
        model_id = fileio.read_trials(workdir / "trials_dev.txt").model_ids[0]
        path = workdir / "enroll_dev.txt"
        lines = path.read_text().splitlines()
        path.write_text("".join(f"{line}\n" for line in lines
                                if line.split(" ")[0] != model_id))
        capsys.readouterr()
        assert main(["score"] + _args(workdir)) == 3
        err = capsys.readouterr().err
        assert f"data error: {path}: no enrollment for model {model_id!r}" in err

    @pytest.mark.parametrize("claimed", ["ph99", "-"])
    def test_claimed_phrase_without_nplda_model_is_data_error(self, e2e_dir, tmp_path, capsys,
                                                              claimed):
        # the trials file is at fault, not the config: this used to exit 2
        import shutil

        workdir = tmp_path / "w"
        shutil.copytree(e2e_dir, workdir)
        path = workdir / "trials_eval.txt"
        lines = path.read_text().splitlines()
        fields = lines[1].split(" ")
        path.write_text("".join(f"{line}\n" for line in
                                [lines[0], " ".join(fields[:3] + [claimed])] + lines[2:]))
        capsys.readouterr()
        assert main(["score"] + _args(workdir, "backends=cosine,nplda")) == 3
        phrase = None if claimed == "-" else claimed
        assert (f"data error: {path}: trial {fields[0]} claims phrase {phrase!r}, "
                "which has no NPLDA model") in capsys.readouterr().err

    @pytest.mark.parametrize("name, field, message", [
        ("trials_eval.txt", 2, "no embedding for test utterance 'no_such_utt'"),
        ("enroll_eval.txt", 1, "no embedding for utterance 'no_such_utt' enrolling"),
    ])
    def test_unknown_utterance_is_data_error(self, e2e_dir, tmp_path, capsys, name, field,
                                             message):
        import shutil

        workdir = tmp_path / "w"
        shutil.copytree(e2e_dir, workdir)
        path = workdir / name
        lines = path.read_text().splitlines()
        fields = lines[0].split(" ")
        fields[field] = "no_such_utt"
        path.write_text("\n".join([" ".join(fields)] + lines[1:]) + "\n")
        capsys.readouterr()
        assert main(["score"] + _args(workdir)) == 3
        err = capsys.readouterr().err
        assert f"data error: {workdir / 'emb_eval.npz'}: {message}" in err

    def test_duplicate_trial_id_is_data_error(self, e2e_dir, tmp_path, capsys):
        # score used to accept it, and norm then blamed scores_cosine_dev.txt:2
        import shutil

        workdir = tmp_path / "w"
        shutil.copytree(e2e_dir, workdir)
        path = workdir / "trials_dev.txt"
        lines = path.read_text().splitlines()
        first = lines[0].split(" ")[0]
        lines[1] = " ".join([first] + lines[1].split(" ")[1:])
        path.write_text("".join(f"{line}\n" for line in lines))
        capsys.readouterr()
        assert main(["score"] + _args(workdir)) == 3
        assert (f"data error: {path}:2: duplicate trial_id {first}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("stage, extra", [("filter", []), ("norm", ["use_lid=false"])])
    def test_repeated_utterance_in_metadata_is_data_error(self, e2e_dir, tmp_path, capsys,
                                                          stage, extra):
        # both stages used to exit 0, taking the last line's transcript or language
        import shutil

        workdir = tmp_path / "w"
        shutil.copytree(e2e_dir, workdir)
        path = workdir / "meta_eval.meta"
        lines = path.read_text().splitlines()
        utt, spk, phrase, lang, _ = lines[1].split(" ", 4)
        lines.append(f"{utt} {spk} {phrase} {lang} another transcript")
        path.write_text("".join(f"{line}\n" for line in lines))
        capsys.readouterr()
        assert main([stage] + _args(workdir, *extra)) == 3
        assert (f"data error: {path}:{len(lines)}: duplicate utt_id {utt}"
                in capsys.readouterr().err)

    def test_norm_test_utterance_without_metadata_is_data_error(self, e2e_dir, tmp_path,
                                                                capsys):
        # language-dependent norm without LID used to fail with a bare KeyError
        import shutil

        workdir = tmp_path / "w"
        shutil.copytree(e2e_dir, workdir)
        utt = fileio.read_trials(workdir / "trials_dev.txt").test_ids[0]
        path = workdir / "meta_dev.meta"
        lines = path.read_text().splitlines()
        path.write_text("".join(f"{line}\n" for line in lines if line.split(" ")[0] != utt))
        capsys.readouterr()
        assert main(["norm"] + _args(workdir, "use_lid=false")) == 3
        assert (f"data error: {path}: no language for test utterance {utt!r}"
                in capsys.readouterr().err)

    def test_phrase_spoken_by_one_speaker_is_data_error(self, e2e_dir, tmp_path, capsys):
        # the phrase's PLDA cannot be trained; this used to exit 2 as a config error
        import shutil

        workdir = tmp_path / "w"
        shutil.copytree(e2e_dir, workdir)
        path = workdir / "meta_train.meta"
        metas = fileio.read_metas(path)
        phrase = metas.phrases[0]
        lines = path.read_text().splitlines()
        for i, spoken in enumerate(metas.phrases, start=1):
            if spoken == phrase:
                fields = lines[i].split(" ", 2)
                lines[i] = " ".join([fields[0], metas.speakers[0], fields[2]])
        path.write_text("".join(f"{line}\n" for line in lines))
        capsys.readouterr()
        assert main(["score"] + _args(workdir, "backends=cosine,nplda")) == 3
        assert (f"data error: {path}: phrase {phrase!r}: PLDA training needs at least 2 speakers"
                in capsys.readouterr().err)

    def test_phrase_plda_numerical_failure_names_the_phrase(self, e2e_dir, tmp_path,
                                                             monkeypatch, capsys):
        import shutil

        workdir = tmp_path / "w"
        shutil.copytree(e2e_dir, workdir)
        phrase = fileio.read_metas(workdir / "meta_train.meta").phrases[0]

        def singular(model):
            raise NumericalError("non-invertible PLDA covariances")

        monkeypatch.setattr(backend.PldaScorer, "from_model", singular)
        capsys.readouterr()
        assert main(["score"] + _args(workdir, "backends=cosine,nplda")) == 4
        assert (f"numerical failure: PLDA of phrase {phrase!r}: non-invertible"
                in capsys.readouterr().err)

    def test_numerical_failure_maps_to_exit_4(self, monkeypatch, capsys):
        def boom(cfg):
            raise NumericalError("zero variance among top cohort scores")

        monkeypatch.setitem(pipeline.__dict__, "cmd_norm", boom)
        monkeypatch.setitem(__import__("spkver.cli", fromlist=["x"])._COMMANDS, "norm", boom)
        assert main(["norm"]) == 4
        assert "zero variance" in capsys.readouterr().err


# sha256 of every text file `gen` writes, from PCG64 draws alone (no printed
# floats), for the default config at seed 601, as the per-row dataclass code
# (one object per trial, utterance and phrase) wrote them
_GEN_DIGESTS = {
    "TD": {
        "trials_dev.txt": "a75622b897776203b2796d5a369df54032cf997cd21c9c49ebcb03b0af8e2867",
        "trials_eval.txt": "59ec72052c6e337c4e47c4b6b582c84713e849856efd3d77a05b668023b3d244",
        "keys_dev.txt": "b5f40db21dfe47ae29edb9170d551891fb500c09c46f0218b73d33904aba5d99",
        "keys_eval.txt": "d1370a0ec77067e5956972a71d1b2573248a6b0ee93f88b8e47ddbdd0c6c25ac",
        "enroll_dev.txt": "b19358de16954f5c3f94facfd5ac368b4d87eed08c2c1ac49defce21166b1b82",
        "enroll_eval.txt": "946e845a2ad027096d7716129a4c5482fa026a6fe98bd79ec3de8015c447c5f5",
    },
    "TI": {
        "trials_dev.txt": "84e438be1ebe85f08142f87e7116db1a7c114d5e3a06f8d762565743f0bb1e7e",
        "trials_eval.txt": "4e8958d4945ff06f2bf75f70d50d184f24d14386dab85d240c0d266d24a181c1",
        "keys_dev.txt": "f50830d0be7495a57d7ad037f75748e0574a92d5d48835d03183d9f07b7caead",
        "keys_eval.txt": "287fa249191d65dcea6896b8223d3c3599f7d4dec5e760b395eda5a5f382a84a",
        "enroll_dev.txt": "8588f2757531112ed71c34b53d2c3a766faf9f9bcae3d89eba4e2d5fcc43020f",
        "enroll_eval.txt": "595c142942ca97574c098345a30e04cd942d100fc1114c923c564ffddda1c519",
    },
}
# the corpus and its split do not depend on the task
_CORPUS_DIGESTS = {
    "meta_train.meta": "16b22d8e5a5e7f0913535dbc099eecd41738753baffd8578a4a28846fd5cbc49",
    "meta_dev.meta": "09b94b4630a835d3fac3dadf69a4e8846b39fcc4cd9708581c60c3f0410a4dd5",
    "meta_eval.meta": "03a913b1ced5b3e39485edf0955d2a2e431a3fda6a2f35bb380b2a424e174c36",
    "inventory.txt": "c40fa9b00992fb7c0ca5f3a0810256f63a942015e256d407e9a7810b55695597",
}


class TestGenBytes:
    @pytest.mark.parametrize("task", ["TD", "TI"])
    def test_protocol_files_keep_their_bytes(self, tmp_path, task):
        assert main(["gen", "--set", f"workdir={tmp_path}", "--set", f"task={task}",
                     "--seed", "601"]) == 0
        expected = {**_GEN_DIGESTS[task], **_CORPUS_DIGESTS}
        digests = {name: d for name, d in _digests(tmp_path).items() if name.endswith(
            (".txt", ".meta"))}
        assert digests == expected


class TestWorkdirInvariance:
    def test_outputs_identical_across_workdirs(self, e2e_dir, tmp_path):
        other = tmp_path / "elsewhere"
        assert main(["e2e"] + _args(other)) == 0
        assert _digests(other) == _digests(e2e_dir)


class TestNormAgainstLiteral:
    @pytest.mark.parametrize("split", ["dev", "eval"])
    def test_norm_scores_match_trial_at_a_time_oracle(self, e2e_dir, split):
        cfg = load_config(overrides=BASE + [f"workdir={e2e_dir}"])
        train_x, train_meta = pipeline._load_split(cfg, "train", extracted=True)
        cohort = norm.build_cohort(train_x, train_meta)
        n_top = norm.effective_n_top(cfg.n_top, cohort, language_dependent=True)
        # training is deterministic, so this is the classifier norm used
        classifier = norm.train_language_id(train_x, train_meta.languages,
                                            epochs=cfg.lid_epochs, lr=cfg.lid_lr)
        trials, enroll, test = pipeline._trial_vectors(cfg, split)
        raw_ids, raw = fileio.read_scores(Path(e2e_dir) / f"scores_cosine_{split}.txt")
        langs = [norm.predict_language(classifier, v[None])[0][0] for v in test]
        expected = as_norm_literal(raw, enroll, test, cohort, cosine_score, n_top, langs)
        got_ids, got = fileio.read_scores(Path(e2e_dir) / f"scores_cosine_norm_{split}.txt")
        assert tuple(raw_ids) == tuple(got_ids) == trials.ids
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)


class TestBackendTraining:
    @pytest.mark.parametrize("backends, global_calls", [
        ("cosine,nplda", 0),
        ("cosine,plda,nplda", 1),
    ])
    def test_global_plda_trained_only_for_the_plda_backend(
        self, e2e_dir, monkeypatch, backends, global_calls
    ):
        cfg = load_config(overrides=BASE + [f"workdir={e2e_dir}", f"backends={backends}"])
        n_train = len(fileio.read_matrix(Path(e2e_dir) / "emb_train.npz")[0])
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

    def test_plda_scores_a_split_in_one_scorer_call(self, e2e_dir, monkeypatch):
        # bench/child.py traces PLDA scoring by these two names, and a
        # PLDA-only workload must make no nplda_score call
        cfg = load_config(overrides=BASE + [f"workdir={e2e_dir}", "backends=cosine,plda"])
        scorers = pipeline._train_backend_scorers(cfg)
        trials, enroll, test = pipeline._trial_vectors(cfg, "eval")
        calls = {"PldaScorer.score": 0, "nplda_score": 0}
        plda_score, nplda_score = backend.PldaScorer.score, nplda.nplda_score

        def counting_plda(self, e, t):
            calls["PldaScorer.score"] += 1
            return plda_score(self, e, t)

        def counting_nplda(*args, **kwargs):
            calls["nplda_score"] += 1
            return nplda_score(*args, **kwargs)

        monkeypatch.setattr(backend.PldaScorer, "score", counting_plda)
        monkeypatch.setattr(nplda, "nplda_score", counting_nplda)
        path = Path(e2e_dir) / "trials_eval.txt"
        assert scorers["plda"](path, trials, enroll, test).shape == (len(trials.ids),)
        assert calls == {"PldaScorer.score": 1, "nplda_score": 0}

    def test_nplda_bank_trains_on_the_per_trial_selection(self, e2e_dir, monkeypatch):
        cfg = load_config(overrides=BASE + [f"workdir={e2e_dir}", "backends=cosine,nplda"])
        x, metas = pipeline._load_split(cfg, "train", extracted=True)
        protocols, seen, inits = [], {}, {}
        gen_trials, train_nplda = synthgen.gen_trials, nplda.train_nplda

        def recording_gen(*args, **kwargs):
            protocols.append(gen_trials(*args, **kwargs))
            return protocols[-1]

        def recording_train(init, enroll, test, labels, claimed, spoken, config):
            inits[claimed[0]] = init
            seen[claimed[0]] = (enroll, test, list(labels), list(claimed), list(spoken))
            return train_nplda(init, enroll, test, labels, claimed, spoken, config)

        monkeypatch.setattr(synthgen, "gen_trials", recording_gen)
        monkeypatch.setattr(nplda, "train_nplda", recording_train)
        bank = pipeline._train_nplda_bank(cfg, x, metas)
        expected = nplda_training_pairs_literal(protocols[0], metas.utt_ids, x, metas, list(bank))
        assert expected and list(seen) == list(expected)
        for phrase, (enroll, test, labels, claimed, spoken) in expected.items():
            np.testing.assert_array_equal(seen[phrase][0], enroll)
            np.testing.assert_array_equal(seen[phrase][1], test)
            assert seen[phrase][2:] == (labels, claimed, spoken)
        # every train phrase, in first-appearance order, starts from the PLDA
        # of its own rows; a phrase without training pairs keeps that init
        phrases = list(dict.fromkeys(metas.phrases))
        assert list(bank) == phrases
        for phrase in phrases:
            rows = [i for i, p in enumerate(metas.phrases) if p == phrase]
            model, _ = backend.plda_em_train(x[rows], [metas.speakers[i] for i in rows],
                                             iters=cfg.plda_iters)
            want = backend.PldaScorer.from_model(model)
            init = inits.get(phrase, bank[phrase])
            for name in ("lam", "gamma", "c"):
                np.testing.assert_array_equal(getattr(init, name), getattr(want, name))
            assert init.k == want.k


_MASKED_IMPORT_PROBE = """
import sys
import spkver.cli
before = "numpy.ma" in sys.modules
code = spkver.cli.main(sys.argv[1:])
print(code, before, "numpy.ma" in sys.modules)
"""


def _subprocess_env(**changes):
    """os.environ with spkver's source directory on PYTHONPATH, updated by
    `changes`; a None value removes the variable."""
    env = dict(os.environ)
    src = str(Path(spkver.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for name, value in changes.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return env


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


class TestImports:
    def test_e2e_imports_no_masked_arrays(self, tmp_path):
        # numpy >= 2.3 imports numpy.ma inside np.unique without return_* flags;
        # where `import numpy` already loads it (numpy 1.x), nothing can change
        env = _subprocess_env()
        settings = ["epochs=2", "n_speakers=12", "n_dev_trials=40", "n_eval_trials=40",
                    "n_top=5", "lid_epochs=5", "backends=cosine,plda,nplda",
                    f"workdir={tmp_path / 'w'}"]
        argv = ["e2e"] + [arg for item in settings for arg in ("--set", item)]
        out = subprocess.run([sys.executable, "-c", _MASKED_IMPORT_PROBE] + argv, env=env,
                             capture_output=True, text=True, check=True).stdout
        code, before, after = out.splitlines()[-1].split(" ")
        assert code == "0"
        assert after == before


class TestBlasThreads:
    @pytest.mark.parametrize("given, expected", [(None, "1"), ("3", "3")])
    def test_import_sets_one_thread_unless_set(self, given, expected):
        env = _subprocess_env(OPENBLAS_NUM_THREADS=given)
        probe = "import os, spkver; print(os.environ['OPENBLAS_NUM_THREADS'])"
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.split() == [expected]

    @pytest.mark.skipif(_usable_cpus() < 2,
                        reason="one usable CPU: OpenBLAS runs one thread either way")
    def test_outputs_identical_across_blas_thread_counts(self, tmp_path):
        # at these model sizes OpenBLAS splits its sums across threads, and the
        # checkpoint, embeddings and scores used to differ between 1 and 2 threads
        settings = ["dim=64", "hidden_dim=128", "emb_dim=48", "n_speakers=100",
                    "n_utts_per_cell=3", "task=TI", "epochs=20", "n_dev_trials=20",
                    "n_eval_trials=50"]
        digests = []
        for threads in (None, "1"):
            workdir = tmp_path / f"threads-{threads}"
            argv = ["e2e", "--seed", "11"] + [
                arg for item in settings + [f"workdir={workdir}"] for arg in ("--set", item)]
            subprocess.run([sys.executable, "-m", "spkver.cli"] + argv,
                           env=_subprocess_env(OPENBLAS_NUM_THREADS=threads),
                           capture_output=True, check=True)
            digests.append(_digests(workdir))
        assert digests[0] == digests[1]
