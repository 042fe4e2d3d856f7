"""Tests of the benchmark itself, on tiny configs.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import child  # noqa: E402
import run  # noqa: E402

TINY = run.Workload(
    why="tiny",
    overrides=("strategy=PCT", "epochs=2", "backends=cosine,plda,nplda", "lid_epochs=5"),
    n_dev_trials=100,
    n_eval_trials=100,
    zero_calls=frozenset(),
)


def test_self_time_excludes_direct_children_only():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9]
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    assert run.self_times(parent, start, end).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_tracer_nests_spans_and_counts_outermost_io_once(tmp_path):
    tracer = child.Tracer()
    path = tmp_path / "f.txt"
    path.write_text("12345")
    inner_read = tracer.wrap_io("fileio.read", lambda p: p.read_text())
    outer_read = tracer.wrap_io("fileio.read", lambda p: inner_read(p))
    leaf = tracer.wrap("leaf", lambda: None)

    def body():
        leaf()
        outer_read(path)

    tracer.wrap("stage", body)()
    names = [tracer.names[i] for i in tracer.name]
    assert names == ["stage", "leaf", "fileio.read"]
    assert list(tracer.parent) == [-1, 0, 0]
    assert tracer.io_bytes["fileio.read"] == 5
    self_s = run.self_times(np.asarray(tracer.parent), np.asarray(tracer.start),
                            np.asarray(tracer.end))
    assert self_s.min() >= 0.0
    assert self_s.sum() == pytest.approx(tracer.end[0] - tracer.start[0])


def test_traced_tiny_run_reports_every_per_layer_metric(tmp_path):
    rep = run.run_once(ROOT, tmp_path / "rep", TINY, seed=3, trace=True, timeout=120)
    assert rep["problems"] == []
    missing = [n for n, _ in run.PER_LAYER if n != "trace_overhead_s" and n not in rep]
    assert missing == []
    assert rep["extractor.ge2e_loss.calls"] > 0 and rep["nplda.nplda_score.calls"] > 0
    assert run.check_repeats([rep, dict(rep)], TINY) == []
    skips_nplda = dataclasses.replace(TINY, zero_calls=frozenset({"nplda.nplda_score"}))
    assert run.check_repeats([rep], skips_nplda) == [
        "nplda.nplda_score.calls is %d, expected 0" % rep["nplda.nplda_score.calls"]
    ]
    changed = dict(rep, **{"backend.cosine_score.calls": rep["backend.cosine_score.calls"] + 1})
    assert run.check_repeats([rep, changed], TINY) == [
        "traced counts differ between traced repetitions"
    ]


def test_corrupted_score_file_fails_the_output_check(tmp_path, capsys):
    from spkver import cli

    workdir = tmp_path / "work"
    assert cli.main(TINY.args(5, workdir)) == 0
    capsys.readouterr()
    problems, metrics = run.check_outputs(workdir)
    assert problems == [] and "fused" in metrics

    scores = workdir / "scores_cosine_dev.txt"
    lines = scores.read_text().splitlines()
    lines[0] = lines[0].split(" ")[0] + " nan"
    scores.write_text("\n".join(lines) + "\n")
    problems, _ = run.check_outputs(workdir)
    assert "scores_cosine_dev.txt holds a non-finite or malformed score" in problems

    scores.write_text("\n".join(lines[1:]) + "\n")
    problems, _ = run.check_outputs(workdir)
    assert "scores_cosine_dev.txt does not hold exactly one score per trial" in problems


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in run.WORKLOADS.items()
    }


def test_e2e_and_cpu_add_up_each_parts_best_repetition():
    def rep(seed, gen_s, rest_s):
        figures = {"seed": seed, "problems": [], "setup_s": 0.25, "peak_rss_mb": 40.0,
                   "eval_eer": 0.1, "eval_min_dcf": 0.5}
        for part in (*run.STAGES, "other"):
            figures[f"pipeline.{part}_s"] = gen_s if part == "gen" else rest_s
            figures[f"pipeline.{part}_cpu_s"] = 2 * figures[f"pipeline.{part}_s"]
        return figures

    # gen is fastest in the first repetition, every other part in the second
    metrics = run.summarize([rep(1, 1.0, 3.0), rep(2, 2.0, 0.5)], TINY, trace=False)
    assert metrics["e2e_s"]["value"] == pytest.approx(1.0 + 8 * 0.5)
    assert metrics["cpu_s"]["value"] == pytest.approx(2 * (1.0 + 8 * 0.5))
    assert metrics["trials_per_s"]["value"] == pytest.approx(200 / 5.0)
