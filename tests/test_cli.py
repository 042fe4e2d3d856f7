import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import as_norm_literal, cosine_score_broadcast, nplda_training_pairs_literal
import spkver
from spkver import backend, fileio, metrics, norm, nplda, pipeline, synthgen
from spkver.cli import main
from spkver.config import dump_config, load_config
from spkver.core import NumericalError, TrialLabel

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


class TestHelp:
    def test_help_lists_every_command_with_its_summary(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        listed = capsys.readouterr().out.split("\ncommands:\n", 1)[1].splitlines()
        assert len(listed) == 9
        for line, name in zip(listed, pipeline.STAGES + ("e2e",)):
            summary = getattr(pipeline, f"cmd_{name}").__doc__.strip().split("\n")[0]
            assert line == f"  {name:<8} {summary}"

    @pytest.mark.parametrize("argv", [[], ["bogus"], ["--seed", "1"], ["gen", "train"]])
    def test_unknown_or_missing_command_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage: spkver" in capsys.readouterr().err


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

    def test_file_then_set_then_seed(self, tmp_path):
        # a later value wins: --set over the file, the seed option over both
        path = tmp_path / "run.cfg"
        path.write_text("n_speakers = 24\nuse_lid = no\nseed = 5\nbackends = cosine,plda,nplda\n")
        cfg = load_config(str(path), ["n_speakers=20", "proportions=0.4,0.1,0.4,0.1"], 7)
        assert dump_config(cfg) == [
            "aam_margin=0.2", "aam_scale=32.0", "backends=cosine,plda,nplda", "c_fa=1.0",
            "c_miss=10.0", "contrastive_weight=1.0", "dev_fraction=0.2", "dim=16", "emb_dim=12",
            "epochs=40", "filter_floor=-1000.0", "grid_step=0.1", "hidden_dim=24",
            "language_dependent=True", "language_shift=0.0", "lid_epochs=200", "lid_lr=0.5",
            "lr_final=0.0001", "lr_initial=0.05", "multitask_weight=1.0", "n_dev_trials=300",
            "n_enroll=3", "n_eval_trials=600", "n_phrases=4", "n_speakers=20", "n_top=200",
            "n_utts_per_cell=8", "noise_sigma=0.4", "norm_backend=cosine", "nplda_alpha=10.0",
            "nplda_epochs=5", "nplda_lr=5e-05", "p_target=0.01", "pct_speakers_per_batch=8",
            "phrase_strength=1.0", "plda_iters=15", "proportions=0.4,0.1,0.4,0.1", "seed=7",
            "strategy=AAM_ONLY", "task=TD", "train_fraction=0.5", "transcript_error_rate=0.0",
            "use_lid=False"]

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
        # an empty workdir used to be the current directory: gen wrote its files there
        ("workdir=", "workdir must not be empty"),
        ("workdir= ", "workdir must not be empty"),
    ])
    def test_bad_setting_fails_before_gen(self, tmp_path, monkeypatch, capsys, setting, message):
        monkeypatch.chdir(tmp_path)
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

    def test_split_of_too_few_speakers_fails_before_any_stage(self, tmp_path, capsys):
        # 10 % of 8 speakers rounds to 1; gen used to train on 2 instead and exit 0
        workdir = tmp_path / "w"
        assert main(["gen", "--set", f"workdir={workdir}", "--set", "n_speakers=8",
                     "--set", "train_fraction=0.1"]) == 2
        assert ("n_speakers=8 splits into (1, 2, 5) train/dev/eval speakers; each split "
                "needs >= 2" in capsys.readouterr().err)
        assert not workdir.exists()

    def test_ti_enrollment_may_use_a_whole_cell(self):
        # TI enrolls on a speaker's L1 utterances across all phrases, so
        # n_enroll may reach n_utts_per_cell (the ti-plda-norm benchmark does)
        cfg = load_config(overrides=["task=TI", "n_utts_per_cell=3", "n_enroll=3",
                                     "norm_backend=plda", "language_dependent=false"])
        assert cfg.n_enroll == cfg.n_utts_per_cell == 3

    def test_one_phrase_td_without_wrong_phrase_trials_is_valid(self):
        cfg = load_config(overrides=["n_phrases=1", "proportions=1,0,1,0"])
        assert cfg.n_phrases == 1 and cfg.proportions == (1.0, 0.0, 1.0, 0.0)

    def test_an_empty_list_value_is_the_empty_tuple(self):
        # only an empty item is an error; an empty value keeps the task default
        assert load_config(overrides=["task=TI", "proportions="]).proportions == ()

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
        ("lr_initial=0", "lr_initial must be positive, got 0.0"),
        ("lr_final=-0.001", "lr_final must be positive, got -0.001"),
        ("multitask_weight=-1", "multitask_weight must be >= 0, got -1.0"),
        ("contrastive_weight=-0.5", "contrastive_weight must be >= 0, got -0.5"),
        ("pct_speakers_per_batch=1", "pct_speakers_per_batch must be >= 2, got 1"),
        ("aam_scale=0", "aam_scale must be positive, got 0.0"),
        ("aam_margin=2", "aam_margin must lie in [0, pi/2), got 2.0"),
        ("aam_margin=-0.1", "aam_margin must lie in [0, pi/2), got -0.1"),
        ("lr_initial=nan", "bad value for lr_initial: 'nan'"),
        ("contrastive_weight=inf", "bad value for contrastive_weight: 'inf'"),
    ])
    def test_bad_training_setting_fails_before_any_stage(self, tmp_path, capsys, setting,
                                                         message):
        workdir = tmp_path / "w"
        assert main(["e2e"] + _args(workdir, setting)) == 2
        assert message in capsys.readouterr().err
        assert not workdir.exists()

    @pytest.mark.parametrize("setting, message", [
        ("n_phrases=0", "n_phrases must be >= 1, got 0"),
        ("n_speakers=0", "n_speakers must be >= 1, got 0"),
        ("dim=1", "dim must be >= 2"),
        ("noise_sigma=-1", "noise_sigma must be >= 0, got -1.0"),
        ("phrase_strength=-1", "phrase_strength must be >= 0, got -1.0"),
        ("language_shift=-1", "language_shift must be >= 0, got -1.0"),
        ("transcript_error_rate=2", "transcript_error_rate must lie in [0, 1]"),
        ("p_target=0", "p_target must lie in (0, 1)"),
        ("c_miss=0", "costs must be positive"),
        ("nplda_lr=0", "nplda_lr must be positive, got 0.0"),
        # these two used to name other keys, epochs and alpha
        ("nplda_epochs=-1", "nplda_epochs must be >= 0, got -1"),
        ("nplda_alpha=0", "nplda_alpha must be positive, got 0.0"),
        ("hidden_dim=0", "hidden_dim must be positive, got 0"),
        ("emb_dim=0", "emb_dim must be positive, got 0"),
        ("lid_lr=-1", "lid_lr must be positive, got -1.0"),
        ("lid_epochs=-1", "lid_epochs must be >= 0, got -1"),
        ("plda_iters=-1", "plda_iters must be >= 0, got -1"),
        ("noise_sigma=nan", "bad value for noise_sigma: 'nan'"),
        ("nplda_lr=nan", "bad value for nplda_lr: 'nan'"),
        ("filter_floor=nan", "bad value for filter_floor: 'nan'"),
        ("filter_floor=-inf", "bad value for filter_floor: '-inf'"),
        ("p_target=nan", "bad value for p_target: 'nan'"),
        # each PLDA score file used to be written twice, and fusion to weigh it twice
        ("backends=cosine,plda,plda", "backend 'plda' is listed more than once"),
        # an empty list item used to be dropped: this ran cosine alone
        ("backends=cosine,", "bad value for backends: 'cosine,'"),
        # these used to exit 3 from gen, and 1 with a traceback after gen wrote its files
        ("seed=-1", "seed must lie in [0, 2**63), got -1"),
        ("seed=9223372036854775808", "seed must lie in [0, 2**63), got 9223372036854775808"),
    ])
    def test_bad_model_setting_fails_before_any_stage(self, tmp_path, capsys, setting,
                                                      message):
        # these used to exit 3 or 4 from a stage, some after writing files, or to run
        workdir = tmp_path / "w"
        assert main(["e2e"] + _args(workdir, setting)) == 2
        assert message in capsys.readouterr().err
        assert not workdir.exists()

    def test_negative_seed_option_fails_before_any_stage(self, tmp_path, capsys):
        # SeedSequence used to reject it in gen, as a data error (exit 3)
        workdir = tmp_path / "w"
        assert main(["e2e"] + _args(workdir) + ["--seed", "-1"]) == 2
        assert "seed must lie in [0, 2**63), got -1" in capsys.readouterr().err
        assert not workdir.exists()

    @pytest.mark.parametrize("settings, message", [
        (["proportions=0.5,0.5"], "TD proportions must have 4 entries"),
        (["task=TI", "proportions=0.25,0.25,0.25,0.25"], "TI proportions must have 2 entries"),
        (["proportions=0.5,-0.1,0.5,0.1"], "non-negative"),
        (["proportions=0,0,0,0"], "sum > 0"),
        (["task=TI", "backends=cosine,nplda"], "the nplda backend needs phrase labels"),
        (["proportions=0.5,nan,0.5,0.1"], "bad value for proportions: '0.5,nan,0.5,0.1'"),
        (["proportions=0.5,0.1,inf,0.1"], "bad value for proportions: '0.5,0.1,inf,0.1'"),
        (["n_phrases=1"], "task=TD with TW or IW trials needs n_phrases >= 2, got 1"),
        (["n_phrases=1", "proportions=1,0,1,1"],
         "task=TD with TW or IW trials needs n_phrases >= 2, got 1"),
        (["task=TI", "strategy=PCT", "n_utts_per_cell=1"],
         "strategy=PCT needs n_utts_per_cell >= 2, got 1"),
        # a split without both kinds of trial used to run every stage, then
        # exit 3 from eval
        (["proportions=0,0,0,1"],
         "n_dev_trials=100 at proportions 0.0,0.0,0.0,1.0 gives no target trial"),
        (["proportions=1,0,0,0"],
         "n_dev_trials=100 at proportions 1.0,0.0,0.0,0.0 gives no nontarget trial"),
        (["task=TI", "proportions=1,0"],
         "n_dev_trials=100 at proportions 1.0,0.0 gives no nontarget trial"),
        (["n_dev_trials=1"],
         "n_dev_trials=1 at proportions 0.25,0.25,0.25,0.25 gives no nontarget trial"),
        (["n_eval_trials=1"],
         "n_eval_trials=1 at proportions 0.25,0.25,0.25,0.25 gives no nontarget trial"),
        # an empty list item used to be dropped: this ran at (0.5, 0.5)
        (["task=TI", "proportions=0.5,,0.5"], "bad value for proportions: '0.5,,0.5'"),
    ])
    def test_bad_trial_setting_fails_before_any_stage(self, tmp_path, capsys, settings,
                                                      message):
        workdir = tmp_path / "w"
        assert main(["e2e"] + _args(workdir, *settings)) == 2
        assert message in capsys.readouterr().err
        assert not workdir.exists()


# settings on top of BASE, and the metadata files the score and norm stages
# read under them: score needs train labels only to train PLDA, and norm reads
# a trial split's languages only when no LID predicts them
_SPLIT_METAS = ["meta_dev.meta", "meta_eval.meta"]
STAGE_CONFIGS = {
    "td": ([], ["meta_train.meta"], ["meta_train.meta"]),
    "td-pct-nplda": (["backends=cosine,plda,nplda", "strategy=PCT"],
                     ["meta_train.meta"], ["meta_train.meta"]),
    "td-plda-norm-no-lid": (["use_lid=false", "norm_backend=plda"],
                            ["meta_train.meta"], ["meta_train.meta"] + _SPLIT_METAS),
    "td-cosine-language-free": (["backends=cosine", "language_dependent=false"],
                                [], ["meta_train.meta"]),
    "ti-no-lid": (["task=TI", "use_lid=false"],
                  ["meta_train.meta"], ["meta_train.meta"] + _SPLIT_METAS),
    "ti-plda-norm-language-free": (["task=TI", "norm_backend=plda", "language_dependent=false"],
                                   ["meta_train.meta"], ["meta_train.meta"]),
}


def _record_files(monkeypatch):
    """Log the file name of each outermost call of every public fileio
    reader and writer; returns the (reads, writes) logs."""
    reads, writes, depth = [], [], [0]

    def logged(fn, log):
        def call(path, *args, **kwargs):
            if depth[0] == 0:
                log.append(Path(path).name)
            depth[0] += 1
            try:
                return fn(path, *args, **kwargs)
            finally:
                depth[0] -= 1

        return call

    for name in dir(fileio):
        if name.startswith(("read_", "write_")):
            log = writes if name.startswith("write_") else reads
            monkeypatch.setattr(fileio, name, logged(getattr(fileio, name), log))
    return reads, writes


def _manifest_stages(workdir):
    """The `stage` lines of a workdir's manifest as (stage, reads, writes)."""
    lines = (Path(workdir) / "manifest.txt").read_text().splitlines()
    return [(name, [] if reads == "-" else reads.split(","),
             [] if writes == "-" else writes.split(","))
            for _, name, _, reads, _, writes in (line.split(" ") for line in lines
                                                 if line.startswith("stage "))]


def _run_stage(cfg, stage):
    """pipeline.run_stage with each path as its name in the workdir."""
    return tuple([str(Path(path).relative_to(cfg.workdir)) for path in paths]
                 for paths in pipeline.run_stage(cfg, stage))


class TestStageInputs:
    @pytest.mark.parametrize("config", STAGE_CONFIGS)
    def test_each_stage_reads_and_writes_its_declared_files(self, tmp_path, monkeypatch,
                                                            config):
        # the session's record of each stage agrees with a log of every
        # public fileio reader and writer call it made
        settings, score_metas, norm_metas = STAGE_CONFIGS[config]
        pinned = {"score": score_metas, "norm": norm_metas}
        cfg = load_config(overrides=BASE + [f"workdir={tmp_path}"] + settings)
        reads, writes = _record_files(monkeypatch)
        for stage in pipeline.STAGES:
            if stage == "filter" and cfg.task != "TD":
                continue
            reads.clear()
            writes.clear()
            recorded = _run_stage(cfg, stage)
            assert recorded == (list(dict.fromkeys(reads)), writes), stage
            if stage in pinned:
                assert {n for n in reads if n.endswith(".meta")} == set(pinned[stage]), stage

    def test_nplda_score_reads_no_inventory(self, tmp_path):
        # the NPLDA training pairs count the train labels' phrases, not the inventory's
        workdir = tmp_path / "w"
        assert main(["e2e"] + _args(workdir, "backends=cosine,plda,nplda")) == 0
        score_reads = {stage: reads for stage, reads, _ in _manifest_stages(workdir)}["score"]
        assert "meta_train.meta" in score_reads and "inventory.txt" not in score_reads

    @pytest.mark.parametrize("config", STAGE_CONFIGS)
    def test_stages_chain_and_the_manifest_records_them(self, tmp_path, capsys, config):
        workdir = tmp_path / "w"
        settings = STAGE_CONFIGS[config][0]
        assert main(["e2e"] + _args(workdir, *settings)) == 0
        table = _manifest_stages(workdir)
        task = load_config(overrides=BASE + settings).task
        assert [stage for stage, _, _ in table] == [
            stage for stage in pipeline.STAGES if stage != "filter" or task == "TD"]
        assert table[0][1] == [] and all(reads and writes for _, reads, writes in table[1:])
        written = [name for _, _, outputs in table for name in outputs]
        assert len(written) == len(set(written))  # one stage writes each file
        for k, (stage, inputs, _) in enumerate(table):
            assert set(inputs) <= {name for _, _, outputs in table[:k] for name in outputs}, stage
        assert [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("wrote ")] == [f"wrote {workdir / name}"
                                                  for name in written + ["manifest.txt"]]
        assert sorted(p.name for p in workdir.iterdir()) == sorted(written + ["manifest.txt"])

        lines = (workdir / "manifest.txt").read_text().splitlines()
        tail = [line.split(" ") for line in lines if line.startswith(("stage ", "sha256 "))]
        assert [fields[0] for fields in tail] == ["stage"] * len(table) + ["sha256"] * len(written)
        assert [fields[1] for fields in tail[len(table):]] == sorted(written)
        assert {name: sha for _, name, sha in tail[len(table):]} == {
            name: sha for name, sha in _digests(workdir).items() if name != "manifest.txt"}

    @pytest.mark.parametrize("config", STAGE_CONFIGS)
    def test_norm_scores_each_anchor_row_once(self, tmp_path, monkeypatch, config):
        # trials share enroll models and test utterances; each shared row
        # used to be scored against the cohort once per trial
        cfg = load_config(overrides=BASE + [f"workdir={tmp_path}"] + STAGE_CONFIGS[config][0])
        for stage in pipeline.STAGES[:pipeline.STAGES.index("norm")]:
            pipeline.run_stage(cfg, stage)
        splits = []  # per split: its tables, rows and languages, and its cohort_stats calls
        cohort_stats, as_norm = norm.cohort_stats, norm.language_dependent_as_norm

        def logged_stats(anchors, cohort, scorer, n_top, language_filter=None):
            splits[-1][1].append((np.array(anchors), language_filter))
            return cohort_stats(anchors, cohort, scorer, n_top, language_filter)

        def logged_norm(raw, enroll, test, enroll_rows, test_rows, cohort, scorer, n_top,
                        test_languages):
            splits.append(((enroll, test, enroll_rows, test_rows, test_languages), []))
            return as_norm(raw, enroll, test, enroll_rows, test_rows, cohort, scorer, n_top,
                           test_languages)

        monkeypatch.setattr(norm, "cohort_stats", logged_stats)
        monkeypatch.setattr(norm, "language_dependent_as_norm", logged_norm)
        pipeline.run_stage(cfg, "norm")
        assert len(splits) == len(pipeline.TRIAL_SPLITS)
        for (enroll, test, enroll_rows, test_rows, languages), calls in splits:
            langs = np.broadcast_to(np.asarray(languages, dtype=object), len(enroll_rows))
            groups = list(dict.fromkeys(langs))
            # one call per enroll-side language group, then one for the test side
            assert [lang for _, lang in calls] == groups + [None]
            # each call scores the table rows its trials use, each once, in row order
            wanted = [enroll[sorted(set(enroll_rows[langs == lang]))] for lang in groups]
            wanted.append(test[sorted(set(test_rows))])
            for (anchors, _), rows in zip(calls, wanted):
                assert anchors.tobytes() == rows.tobytes()
            # the split's trials share rows, so fewer rows were scored than they hold
            assert sum(len(anchors) for anchors, _ in calls) < 2 * len(enroll_rows)

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
    def test_failed_write_is_data_error(self, tmp_path, capsys):
        # the OSError of a write was not caught: a traceback and exit 1
        blocker = tmp_path / "file"
        blocker.write_bytes(b"")
        workdir = blocker / "w"
        assert main(["gen"] + _args(workdir)) == 3
        assert f"data error: {workdir / 'feats_train.npz'}: " in capsys.readouterr().err

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

    @pytest.mark.parametrize("split, stages", [
        ("dev", ("score", "norm", "filter", "fuse")), ("eval", ("score", "norm", "filter", "eval")),
    ])
    def test_empty_trial_list_is_data_error(self, e2e_dir, tmp_path, capsys, split, stages):
        # score, norm and filter wrote empty score files, and fuse failed naming no file
        workdir = tmp_path / "w"
        shutil.copytree(e2e_dir, workdir)
        for name in (f"trials_{split}.txt", f"keys_{split}.txt"):
            (workdir / name).write_bytes(b"")
        for stage in stages:
            capsys.readouterr()
            assert main([stage] + _args(workdir)) == 3
            assert (f"data error: {workdir / f'trials_{split}.txt'}: no trials"
                    in capsys.readouterr().err)

    def test_keys_of_one_class_are_data_error(self, e2e_dir, tmp_path, capsys):
        # the first trials of a TD list are all target-correct
        workdir = tmp_path / "w"
        shutil.copytree(e2e_dir, workdir)
        for name in ("trials_dev.txt", "keys_dev.txt"):
            path = workdir / name
            path.write_text("".join(path.read_text().splitlines(keepends=True)[:5]))
        assert set(fileio.read_keys(workdir / "keys_dev.txt")[1]) == {TrialLabel.TC}
        for stage in ("score", "norm", "filter"):  # none of them reads the keys
            assert main([stage] + _args(workdir)) == 0
        capsys.readouterr()
        assert main(["fuse"] + _args(workdir)) == 3
        assert (f"data error: {workdir / 'keys_dev.txt'}: no nontarget trial"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("epochs, rate, stage, message", [
        # train exited 3 with "data error: non-finite embeddings", naming no file
        (2, "1e308", "train", "training diverged in epoch 1: non-finite loss or weight"),
        # train exited 0 and wrote inf weights; extract exited 3 on ckpt.npz
        (1, "1e308", "train", "training diverged in epoch 1: non-finite loss or weight"),
        # extract exited 3 naming emb_train.npz, which it never wrote
        (1, "1e300", "extract", "extractor produced a non-finite embedding"),
    ], ids=["two-epochs", "one-epoch", "finite-weights"])
    def test_diverged_extractor_is_numerical_failure(self, tmp_path, capsys, epochs, rate,
                                                     stage, message):
        args = ["--set", f"workdir={tmp_path}", "--seed", "0", "--set", f"epochs={epochs}",
                "--set", f"lr_initial={rate}", "--set", f"lr_final={rate}"]
        assert main(["gen"] + args) == 0
        with np.errstate(over="ignore", invalid="ignore"):  # the overflow under test
            assert main(["train"] + args) == (4 if stage == "train" else 0)
            if stage == "extract":
                assert main(["extract"] + args) == 4
        assert f"numerical failure: {message}" in capsys.readouterr().err
        unwritten = "ckpt.npz" if stage == "train" else "emb_train.npz"
        assert not (tmp_path / unwritten).exists()

    def test_zero_norm_centroid_exits_4(self, e2e_dir, tmp_path, capsys):
        workdir = tmp_path / "w"
        shutil.copytree(e2e_dir, workdir)
        model, utts = next(iter(fileio.read_enroll_map(workdir / "enroll_dev.txt").items()))
        ids, x = fileio.read_matrix(workdir / "emb_dev.npz")
        rows, x = [ids.index(utt) for utt in utts], x.copy()
        x[rows] = 0.0
        x[rows[0]], x[rows[1]] = 0.1, -0.1  # the rows cancel
        fileio.write_matrix(workdir / "emb_dev.npz", ids, x)
        capsys.readouterr()
        assert main(["score"] + _args(workdir)) == 4
        assert (f"numerical failure: zero-norm centroid for model {model}"
                in capsys.readouterr().err)

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
        # the NPLDA training-pair draw would ask for an impostor utterance of
        # the phrase and find none; this used to exit 2 as a config error, and
        # then exit 3 only when the draw (seeded by --seed) picked such a
        # trial: at seed 2 it did not, and the phrase kept the PLDA form
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
        for seed in (0, 2):
            capsys.readouterr()
            assert main(["score", "--seed", str(seed)]
                        + _args(workdir, "backends=cosine,nplda")) == 3
            assert (f"data error: {path}: NPLDA training pairs: infeasible request: only one "
                    f"speaker has more than n_enroll=3 utterances of phrase {phrase!r}"
                    in capsys.readouterr().err)

    def test_plda_numerical_failure_under_nplda_exits_4(self, e2e_dir, tmp_path,
                                                         monkeypatch, capsys):
        # NPLDA fine-tunes the one PLDA form, so its failure stops the nplda backend too
        import shutil

        workdir = tmp_path / "w"
        shutil.copytree(e2e_dir, workdir)

        def singular(model):
            raise NumericalError("non-invertible PLDA covariances")

        monkeypatch.setattr(backend.PldaScorer, "from_model", singular)
        capsys.readouterr()
        assert main(["score"] + _args(workdir, "backends=cosine,nplda")) == 4
        assert ("numerical failure: non-invertible PLDA covariances"
                in capsys.readouterr().err)

    def test_numerical_failure_maps_to_exit_4(self, monkeypatch, capsys):
        def boom(cfg):
            raise NumericalError("zero variance among top cohort scores")

        monkeypatch.setitem(pipeline.__dict__, "cmd_norm", boom)
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


# the reader of each text file a stage writes with a row writer; the others
# (fusion_weights.txt, metrics.txt, manifest.txt) are write_lines output
_READERS = {"meta": fileio.read_metas, "inventory": fileio.read_inventory,
            "enroll": fileio.read_enroll_map, "trials": fileio.read_trials,
            "keys": fileio.read_keys, "scores": fileio.read_scores}


def _read_text_files(workdir):
    """Every row-format file of a workdir, read by its reader; scores as (ids, bytes)."""
    out = {}
    for path in sorted(Path(workdir).iterdir()):
        read = _READERS.get(path.name.split("_")[0].split(".")[0])
        if read is not None:
            value = read(path)
            out[path.name] = (value[0], value[1].tobytes()) if read is fileio.read_scores \
                else value
    return out


class TestKeptColumnsInE2e:
    """`e2e` runs its stages in one fileio session; the stages run one by one
    each run in their own. Both give the same bytes, reads and records."""

    @pytest.mark.parametrize("config", STAGE_CONFIGS)
    def test_e2e_writes_what_the_stages_run_alone_write(self, tmp_path, config):
        # each stage run alone records what the e2e manifest's stage line names
        settings = STAGE_CONFIGS[config][0]
        assert main(["e2e"] + _args(tmp_path / "e2e", *settings)) == 0
        cfg = load_config(overrides=BASE + [f"workdir={tmp_path / 'stages'}"] + settings)
        for stage, reads, writes in _manifest_stages(tmp_path / "e2e"):
            assert _run_stage(cfg, stage) == (reads, writes), stage
            assert fileio._session.get() is None
        e2e = _digests(tmp_path / "e2e")
        del e2e["manifest.txt"]
        assert _digests(tmp_path / "stages") == e2e

    @pytest.mark.parametrize("config", STAGE_CONFIGS)
    def test_e2e_parses_no_file(self, tmp_path, config):
        # every text file and .npz a run reads was written earlier in the same session
        cfg = load_config(overrides=BASE + [f"workdir={tmp_path}"] + STAGE_CONFIGS[config][0])
        with mock.patch.object(fileio, "_read_lines", side_effect=AssertionError("parsed")), \
                mock.patch.object(np, "load", side_effect=AssertionError("parsed")):
            pipeline.cmd_e2e(cfg)
        assert fileio._session.get() is None

    @pytest.mark.parametrize("config", STAGE_CONFIGS)
    def test_kept_reads_equal_parsed_reads(self, tmp_path, config):
        cfg = load_config(overrides=BASE + [f"workdir={tmp_path}"] + STAGE_CONFIGS[config][0])
        with fileio.session():  # cmd_e2e's session joins this one
            pipeline.cmd_e2e(cfg)
            with mock.patch.object(fileio, "_read_lines", side_effect=AssertionError("parsed")):
                kept = _read_text_files(tmp_path)
        assert kept == _read_text_files(tmp_path)
        texts = {p.name for p in tmp_path.iterdir() if p.suffix in (".txt", ".meta")}
        assert sorted(texts - set(kept)) == ["fusion_weights.txt", "manifest.txt", "metrics.txt"]


    def test_extract_forgets_the_features_and_the_checkpoint(self, tmp_path):
        # no stage after extract reads them, so e2e keeps only the embeddings' arrays
        cfg = load_config(overrides=BASE + [f"workdir={tmp_path}"])
        with fileio.session():  # cmd_e2e's session joins this one
            pipeline.cmd_e2e(cfg)
            kept = {Path(path).name for path, fmt in fileio._session.get().kept if fmt == "npz"}
        assert kept == {"emb_train.npz", "emb_dev.npz", "emb_eval.npz"}


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
        trials, models, x, model_rows, test_rows = pipeline._trial_tables(cfg, split)
        enroll, test = models[model_rows], x[test_rows]
        raw_ids, raw = fileio.read_scores(Path(e2e_dir) / f"scores_cosine_{split}.txt")
        langs = [norm.predict_language(classifier, v[None])[0][0] for v in test]
        expected = as_norm_literal(raw, enroll, test, cohort, cosine_score_broadcast, n_top, langs)
        got_ids, got = fileio.read_scores(Path(e2e_dir) / f"scores_cosine_norm_{split}.txt")
        assert tuple(raw_ids) == tuple(got_ids) == trials.ids
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)


class TestBackendTraining:
    @staticmethod
    def _copy(e2e_dir, tmp_path):
        import shutil

        workdir = tmp_path / "w"
        shutil.copytree(e2e_dir, workdir)
        return workdir

    @pytest.mark.parametrize("backends, calls", [
        ("cosine", 0),
        ("cosine,plda", 1),
        ("cosine,nplda", 1),
        ("cosine,plda,nplda", 1),
    ])
    def test_plda_em_runs_at_most_once(
        self, e2e_dir, tmp_path, monkeypatch, backends, calls
    ):
        workdir = self._copy(e2e_dir, tmp_path)
        cfg = load_config(overrides=BASE + [f"workdir={workdir}", f"backends={backends}"])
        n_train = len(fileio.read_matrix(workdir / "emb_train.npz")[0])
        rows_per_call = []
        train = backend.plda_em_train

        def counting(x, *args, **kwargs):
            rows_per_call.append(len(x))
            return train(x, *args, **kwargs)

        monkeypatch.setattr(backend, "plda_em_train", counting)
        assert _run_stage(cfg, "score")[1] == [f"scores_{name}_{split}.txt"
                                               for split in ("dev", "eval")
                                               for name in backends.split(",")]
        assert rows_per_call == [n_train] * calls

    def test_plda_scores_a_split_in_one_scorer_call(self, e2e_dir, tmp_path, monkeypatch):
        # bench/child.py traces PLDA scoring by these two names, and a
        # PLDA-only workload must make no nplda_score call; cosine takes the
        # same (tables, rows) as PLDA, so no stage gathers trial-aligned rows
        workdir = self._copy(e2e_dir, tmp_path)
        cfg = load_config(overrides=BASE + [f"workdir={workdir}", "backends=cosine,plda"])
        calls = {"PldaScorer.score": 0, "nplda_score": 0}
        plda_score, nplda_score = backend.PldaScorer.score, nplda.nplda_score
        cosine_score, cosine_args = backend.cosine_score, []

        def recording_cosine(*args):
            cosine_args.append(args)
            return cosine_score(*args)

        def counting_plda(self, *args):
            calls["PldaScorer.score"] += 1
            return plda_score(self, *args)

        def counting_nplda(*args, **kwargs):
            calls["nplda_score"] += 1
            return nplda_score(*args, **kwargs)

        monkeypatch.setattr(backend.PldaScorer, "score", counting_plda)
        monkeypatch.setattr(nplda, "nplda_score", counting_nplda)
        monkeypatch.setattr(backend, "cosine_score", recording_cosine)
        pipeline.cmd_score(cfg)
        assert calls == {"PldaScorer.score": 2, "nplda_score": 0}  # dev and eval
        assert len(cosine_args) == len(pipeline.TRIAL_SPLITS)
        for split, args in zip(pipeline.TRIAL_SPLITS, cosine_args):
            _, enroll, test, model_rows, test_rows = pipeline._trial_tables(cfg, split)
            assert len(args) == 4  # the (M, D) centroids, the (U, D) embeddings, the rows
            for got, want in zip(args, (enroll, test, model_rows, test_rows)):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_untrained_bank_is_the_plda_form(self, e2e_dir, tmp_path, monkeypatch):
        # with no NPLDA epochs every phrase's form is the PLDA backend's form
        # (a phrase without training pairs keeps that very object), so NPLDA
        # and PLDA score each split alike, bit for bit: a trial's score
        # depends on its two table rows only, not on the other trials that
        # claim its phrase
        workdir = self._copy(e2e_dir, tmp_path)
        cfg = load_config(overrides=BASE + [f"workdir={workdir}", "nplda_epochs=0",
                                            "backends=cosine,plda,nplda"])
        forms, banks = [], []
        from_model, train_bank = backend.PldaScorer.from_model, pipeline._train_nplda_bank

        def recording_form(model):
            forms.append(from_model(model))
            return forms[-1]

        def recording_bank(*args):
            banks.append(train_bank(*args))
            return banks[-1]

        monkeypatch.setattr(backend.PldaScorer, "from_model", recording_form)
        monkeypatch.setattr(pipeline, "_train_nplda_bank", recording_bank)
        pipeline.cmd_score(cfg)
        assert len(forms) == len(banks) == 1
        phrases = list(dict.fromkeys(fileio.read_metas(workdir / "meta_train.meta").phrases))
        assert list(banks[0]) == phrases
        for form in banks[0].values():
            for name in ("lam", "gamma", "c"):
                np.testing.assert_array_equal(getattr(form, name), getattr(forms[0], name))
            assert form.k == forms[0].k
        for split in ("dev", "eval"):
            plda_ids, plda_scores = fileio.read_scores(workdir / f"scores_plda_{split}.txt")
            nplda_ids, nplda_scores = fileio.read_scores(workdir / f"scores_nplda_{split}.txt")
            assert plda_ids == nplda_ids
            np.testing.assert_array_equal(nplda_scores, plda_scores)

    def test_nplda_bank_trains_on_the_per_trial_selection(self, e2e_dir, monkeypatch):
        cfg = load_config(overrides=BASE + [f"workdir={e2e_dir}", "backends=cosine,nplda"])
        x, metas = pipeline._load_split(cfg, "train", extracted=True)
        model, _ = backend.plda_em_train(x, metas.speakers, iters=cfg.plda_iters)
        form = backend.PldaScorer.from_model(model)
        protocols, seen, inits = [], {}, {}
        gen_trials, train_nplda = synthgen.gen_trials, nplda.train_nplda

        def recording_gen(*args, **kwargs):
            protocols.append(gen_trials(*args, **kwargs))
            return protocols[-1]

        def recording_train(init, enroll, test, enroll_rows, test_rows, labels, claimed, spoken,
                            config):
            inits[claimed[0]] = init
            seen[claimed[0]] = (enroll[enroll_rows], test[test_rows], list(labels),
                                list(claimed), list(spoken))
            return train_nplda(init, enroll, test, enroll_rows, test_rows, labels, claimed,
                               spoken, config)

        monkeypatch.setattr(synthgen, "gen_trials", recording_gen)
        monkeypatch.setattr(nplda, "train_nplda", recording_train)
        bank = pipeline._train_nplda_bank(cfg, x, metas, form)
        expected = nplda_training_pairs_literal(protocols[0], metas.utt_ids, x, metas, list(bank))
        assert expected and list(seen) == list(expected)
        for phrase, (enroll, test, labels, claimed, spoken) in expected.items():
            np.testing.assert_array_equal(seen[phrase][0], enroll)
            np.testing.assert_array_equal(seen[phrase][1], test)
            assert seen[phrase][2:] == (labels, claimed, spoken)
        # every train phrase, in first-appearance order, starts from the one
        # PLDA form; a phrase without training pairs keeps that form
        phrases = list(dict.fromkeys(metas.phrases))
        assert list(bank) == phrases
        assert all(init is form for init in inits.values())
        assert all(bank[phrase] is form for phrase in phrases if phrase not in inits)


def _rescore(workdir):
    """Rerun every stage from `score` through `eval` on a copied e2e workdir."""
    cfg = load_config(overrides=BASE + [f"workdir={workdir}", "backends=cosine,plda,nplda"])
    for stage in (pipeline.cmd_score, pipeline.cmd_norm, pipeline.cmd_filter,
                  pipeline.cmd_fuse, pipeline.cmd_eval):
        stage(cfg)


def _outputs(workdir):
    """(name, split) -> (ids, values) of every score file in a workdir, and
    the bytes of its metrics.txt and fusion_weights.txt."""
    scores = {(p.name.rsplit("_", 1)[0], p.stem.rsplit("_", 1)[1]): fileio.read_scores(p)
              for p in sorted(Path(workdir).glob("scores_*.txt"))}
    return scores, [(Path(workdir) / name).read_bytes()
                    for name in ("metrics.txt", "fusion_weights.txt")]


class TestMetamorphic:
    """Properties that hold end to end, whatever the data: the trial order
    and the names of trials, models and utterances do not matter."""

    @pytest.fixture(scope="class")
    def reference(self, e2e_dir, tmp_path_factory):
        workdir = tmp_path_factory.mktemp("reference")
        shutil.copytree(e2e_dir, workdir, dirs_exist_ok=True)
        _rescore(workdir)
        return _outputs(workdir), workdir

    @staticmethod
    def _rerun(workdir, edit):
        """`_outputs` of a copy of `workdir` that `edit` changed, rerun from
        score through eval."""
        with tempfile.TemporaryDirectory() as tmp:
            copy = Path(tmp) / "w"
            shutil.copytree(workdir, copy)
            edit(copy)
            _rescore(copy)
            return _outputs(copy)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_trial_order_permutes_scores_and_keeps_metrics(self, reference, seed):
        (expected, reports), workdir = reference
        rng = np.random.default_rng(seed)
        order = {}

        def permute(workdir):
            for split in ("dev", "eval"):
                trials = fileio.read_trials(workdir / f"trials_{split}.txt")
                ids, labels = fileio.read_keys(workdir / f"keys_{split}.txt")
                order[split] = perm = rng.permutation(len(ids))
                fileio.write_trials(workdir / f"trials_{split}.txt",
                                    type(trials)(*([c[i] for i in perm] for c in trials)))
                fileio.write_keys(workdir / f"keys_{split}.txt",
                                  [ids[i] for i in perm], [labels[i] for i in perm])

        got, got_reports = self._rerun(workdir, permute)
        assert got.keys() == expected.keys() and got_reports == reports
        for (name, split), (ids, values) in expected.items():
            perm = order[split]
            assert got[name, split][0] == tuple(ids[i] for i in perm), name
            np.testing.assert_array_equal(got[name, split][1], values[perm], err_msg=name)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_renamed_ids_keep_every_score(self, reference, seed):
        (expected, reports), workdir = reference
        rng = np.random.default_rng(seed)
        new = {}

        def rename(workdir):
            splits = ("dev", "eval")
            trials = {s: fileio.read_trials(workdir / f"trials_{s}.txt") for s in splits}
            enroll = {s: fileio.read_enroll_map(workdir / f"enroll_{s}.txt") for s in splits}
            metas = {s: fileio.read_metas(workdir / f"meta_{s}.meta") for s in splits}
            old = sorted({i for s in splits for i in trials[s].ids + metas[s].utt_ids}
                         | {m for s in splits for m in enroll[s]})
            new.update(zip(old, (f"id{n:06d}" for n in rng.permutation(len(old)))))
            for s in splits:
                t = trials[s]
                fileio.write_trials(workdir / f"trials_{s}.txt", type(t)(
                    *([new[i] for i in c] for c in (t.ids, t.model_ids, t.test_ids)), t.claimed))
                ids, labels = fileio.read_keys(workdir / f"keys_{s}.txt")
                fileio.write_keys(workdir / f"keys_{s}.txt", [new[i] for i in ids], labels)
                fileio.write_enroll_map(workdir / f"enroll_{s}.txt", {
                    new[m]: [new[u] for u in utts] for m, utts in enroll[s].items()})
                fileio.write_metas(workdir / f"meta_{s}.meta", metas[s]._replace(
                    utt_ids=tuple(new[u] for u in metas[s].utt_ids)))
                for kind in ("feats", "emb"):
                    path = workdir / f"{kind}_{s}.npz"
                    ids, x = fileio.read_matrix(path)
                    fileio.write_matrix(path, [new[u] for u in ids], x)

        got, got_reports = self._rerun(workdir, rename)
        assert got.keys() == expected.keys() and got_reports == reports
        for key, (ids, values) in expected.items():
            assert got[key][0] == tuple(new[i] for i in ids), key
            np.testing.assert_array_equal(got[key][1], values, err_msg=str(key))


# runs one e2e per argv (JSON lists) after `import spkver.cli`, and prints the
# exit codes and the modules first imported during the runs; argparse's first
# parse imports gettext's locale, so one parse comes before the snapshot
_IMPORT_PROBE = """
import json, sys
import spkver.cli
runs = [json.loads(arg) for arg in sys.argv[1:]]
spkver.cli.build_parser().parse_args(runs[0])
before = set(sys.modules)
codes = [spkver.cli.main(argv) for argv in runs]
print(json.dumps([codes, sorted(set(sys.modules) - before)]))
"""

# numpy.random, which numpy >= 2 imports on first use, and what it pulls in;
# and the zip filename codec of np.load
_LAZY_IMPORTS_ALLOWED = ("numpy.random", "secrets", "hmac", "base64", "cython_runtime",
                         "_cython_", "encodings.cp437")


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
    def test_e2e_imports_only_allowed_modules(self, tmp_path):
        # a stage's first call into numpy may import a module: np.unique without
        # return_* flags imports numpy.ma on numpy >= 2.3 (9 ms and 1.2 MiB in the
        # stage that first calls it); where `import numpy` already loads a module
        # (numpy.random and numpy.ma on numpy 1.x), it is not imported in the run
        settings = ["epochs=2", "n_speakers=12", "n_dev_trials=40", "n_eval_trials=40",
                    "n_top=5", "lid_epochs=5"]
        runs = []
        for task, extra in (("TD", ["backends=cosine,plda,nplda"]), ("TI", [])):
            items = settings + extra + [f"task={task}", f"workdir={tmp_path / task}"]
            runs.append(["e2e"] + [arg for item in items for arg in ("--set", item)])
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE] + list(map(json.dumps, runs)),
                             env=_subprocess_env(), capture_output=True, text=True,
                             check=True).stdout
        codes, imported = json.loads(out.splitlines()[-1])
        assert codes == [0, 0]
        assert (tmp_path / "TD" / "scores_plda_filt_eval.txt").is_file()  # the filter ran
        assert [name for name in imported if not name.startswith(_LAZY_IMPORTS_ALLOWED)] == []

    def test_start_up_imports_no_dataclasses(self):
        # the dataclass decorator generates and compiles methods at import
        probe = ("import sys, spkver.cli; spkver.cli.build_parser().parse_args(['e2e']); "
                 "print('dataclasses' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", probe], env=_subprocess_env(),
                             capture_output=True, text=True, check=True).stdout
        assert out.split() == ["False"]


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
