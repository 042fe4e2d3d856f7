"""What the benchmark in `bench/` needs of the package.

`bench/child.py` wraps module attributes by name and `bench/run.py` passes
config keys by name, so a rename in `spkver` would otherwise surface only
when the benchmark runs.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from spkver import backend, norm, pipeline
from spkver.cli import build_parser
from spkver.config import load_config

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    """bench/<name>.py as a module of its own, without touching sys.path."""
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_name_exists():
    child = _load("child")
    for mod_name, attrs in child.TRACED.items():
        module = importlib.import_module(f"spkver.{mod_name}")
        for attr in attrs:
            assert callable(getattr(module, attr, None)), f"spkver.{mod_name}.{attr}"
    assert callable(backend.PldaScorer.score)


def test_cohort_stats_takes_the_counted_parameters():
    # the tracer's anchor counter forwards these five, by position
    assert list(inspect.signature(norm.cohort_stats).parameters) == [
        "anchors", "cohort", "scorer", "n_top", "language_filter"]


@pytest.mark.parametrize("workload", sorted(_load("run").WORKLOADS))
def test_workload_settings_pass_load_config(tmp_path, workload):
    args = build_parser().parse_args(_load("run").WORKLOADS[workload].args(1, tmp_path / "w"))
    cfg = load_config(args.config, args.overrides, args.seed)
    assert cfg.workdir == str(tmp_path / "w") and cfg.seed == 1


@pytest.mark.parametrize("workload", sorted(_load("run").WORKLOADS))
def test_traced_run_calls_what_the_workload_declares(tmp_path, workload):
    # a traced run at the workload's own settings: a traced function it
    # should call but does not (or one it should skip but calls) fails here
    run = _load("run")
    spec = run.WORKLOADS[workload]
    rep = run.run_once(BENCH.parent, tmp_path / "rep", spec, seed=1, trace=True, timeout=170.0)
    assert rep["problems"] == []
    assert run.check_repeats([rep], spec) == []


def test_child_stages_are_the_td_table():
    # child.py wraps pipeline.cmd_<stage> for each name in STAGES; a TD e2e runs them all
    assert _load("child").STAGES == pipeline.STAGES


def test_e2e_looks_each_stage_up_when_it_runs(tmp_path, monkeypatch):
    # child.py replaces pipeline.cmd_<stage> with a timed wrapper; an e2e that
    # held the stage functions themselves would leave those spans empty
    cfg = load_config(overrides=[f"workdir={tmp_path}"])
    calls = []
    for stage in pipeline.STAGES:
        monkeypatch.setattr(pipeline, f"cmd_{stage}", lambda cfg, stage=stage: calls.append(stage))
    pipeline.cmd_e2e(cfg)
    assert calls == list(pipeline.STAGES)
