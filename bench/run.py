"""Benchmark of `spkver e2e` on named workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Run from the repository root. Each repetition starts one fresh child process
(`child.py`) in a fresh workdir under `.bench_runs/`; one child runs at a time.
The run keeps starting repetitions while the next one is likely to end within
`--seconds`, and at least until every required repetition is done, then
reports one figure per metric.

--trace 0  Repetitions cycle through QUALITY_SEEDS sub-seeds derived from
           --seed. Prints the end-to-end metrics: e2e and CPU time are sums of
           each pipeline stage's best time over all repetitions, set-up time
           and memory medians, quality the mean over the sub-seeds.
--trace 1  Repetitions alternate traced and untraced runs of one sub-seed.
           Prints the per-layer metrics: times are medians over the traced
           repetitions, counts must repeat exactly between them.

Every repetition's outputs are checked (see `check_outputs`); a repetition
that fails the check counts as failed. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. README.md
beside this file explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
STAGES = ("gen", "train", "extract", "score", "norm", "filter", "fuse", "eval")
QUALITY_SEEDS = 16
RUN_LIMIT_S = 170.0  # a run must end within 180 s

COMMON = ("dim=64", "hidden_dim=128", "emb_dim=48", "noise_sigma=1.0", "language_shift=1.0")


@dataclass(frozen=True)
class Workload:
    why: str
    overrides: tuple
    n_dev_trials: int
    n_eval_trials: int
    zero_calls: frozenset  # traced functions this workload never calls

    def args(self, seed: int, workdir: Path) -> list:
        sets = COMMON + self.overrides + (
            f"n_dev_trials={self.n_dev_trials}",
            f"n_eval_trials={self.n_eval_trials}",
            f"workdir={workdir}",
        )
        return ["e2e", *(a for kv in sets for a in ("--set", kv)), "--seed", str(seed)]


WORKLOADS = {
    "td-pct-fusion": Workload(
        why="TD, PCT training (GE2E over 20-speaker batches), NPLDA, 3-system fusion grid; small cohort",
        overrides=(
            "n_speakers=40", "n_utts_per_cell=4", "transcript_error_rate=0.1",
            "strategy=PCT", "pct_speakers_per_batch=20", "epochs=4", "plda_iters=8",
            "lid_epochs=100", "backends=cosine,plda,nplda", "grid_step=0.05",
        ),
        n_dev_trials=150,
        n_eval_trials=700,
        zero_calls=frozenset(),
    ),
    "ti-plda-norm": Workload(
        why="TI, AS-norm of PLDA scores over the whole 100-entry cohort, no LID, no phrase filter",
        overrides=("n_speakers=100", "n_utts_per_cell=3", "task=TI", "epochs=20", "plda_iters=8",
                   "norm_backend=plda", "language_dependent=false"),
        n_dev_trials=100,
        n_eval_trials=700,
        zero_calls=frozenset({
            "extractor.ge2e_loss", "nplda.train_nplda", "nplda.nplda_score",
            "norm.predict_language", "norm.train_language_id", "metrics.apply_phrase_filter",
        }),
    ),
}

END_TO_END = (
    ("e2e_s", "s"),
    ("trials_per_s", "1/s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("eval_eer", "fraction"),
    ("eval_min_dcf", "cost"),
)

# Traced function -> the per-layer figures reported for it.
LAYER_FIGURES = {
    "norm.cohort_stats": ("calls", "self_s", "distinct_anchor_frac"),
    "norm.predict_language": ("calls", "self_s"),
    "norm.train_language_id": ("self_s",),
    "norm.as_norm": ("calls",),
    "backend.cosine_score": ("calls", "self_s"),
    "backend.plda_em_train": ("calls", "self_s"),
    "backend.PldaScorer.score": ("calls", "self_s"),
    "nplda.train_nplda": ("calls", "self_s"),
    "nplda.nplda_score": ("calls", "self_s"),
    "extractor.train": ("self_s",),
    "extractor.ge2e_loss": ("calls", "self_s"),
    "extractor.aam_loss": ("calls", "self_s"),
    "extractor.extract_embeddings": ("calls", "self_s"),
    "metrics.tune_weights": ("self_s",),
    "metrics.fuse": ("calls", "self_s"),
    "metrics.min_dcf": ("calls", "self_s"),
    "metrics.eer": ("calls", "self_s"),
    "metrics.levenshtein": ("calls", "self_s"),
    "metrics.apply_phrase_filter": ("self_s",),
    "synthgen.gen_corpus": ("calls", "self_s"),
    "synthgen.gen_trials": ("calls", "self_s"),
    "fileio.read": ("calls", "self_s", "bytes"),
    "fileio.write": ("calls", "self_s", "bytes"),
}
FIGURE_UNITS = {"calls": "count", "self_s": "s", "distinct_anchor_frac": "fraction", "bytes": "bytes"}

PER_LAYER = (
    *((f"pipeline.{stage}_s", "s") for stage in STAGES),
    ("pipeline.other_s", "s"),
    *((f"{fn}.{fig}", FIGURE_UNITS[fig]) for fn, figs in LAYER_FIGURES.items() for fig in figs),
    ("trace_overhead_s", "s"),
)


# ---------------------------------------------------------------------------
# spans


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct child spans.

    Spans come from one thread, so children nest inside their parent and
    never overlap each other.
    """
    dur = end - start
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    return dur - covered


def span_figures(spans, record: dict) -> dict:
    """Stage times and, for traced runs, calls/self time per traced name.

    Every wrapped name is in `names` from the start, so a function that was
    never called reports 0 calls rather than going missing.
    """
    names = [str(n) for n in spans["names"]]
    name, parent, start, end = spans["name"], spans["parent"], spans["start"], spans["end"]
    calls = np.bincount(name, minlength=len(names))
    self_s = np.bincount(name, weights=self_times(parent, start, end), minlength=len(names))
    duration = np.bincount(name, weights=end - start, minlength=len(names))
    gen_start = float(start[name == names.index("pipeline.gen")][0])
    out = {"gen_start": gen_start, "e2e_s": record["end"] - gen_start}
    for i, n in enumerate(names):
        if n.startswith("pipeline."):
            out[f"{n}_s"] = float(duration[i])
            out[f"{n}_cpu_s"] = record["stage_cpu"][n]
        else:
            out[f"{n}.calls"] = int(calls[i])
            out[f"{n}.self_s"] = float(self_s[i])
    out["pipeline.other_s"] = out["e2e_s"] - sum(out[f"pipeline.{s}_s"] for s in STAGES)
    if "norm.cohort_stats.calls" in out:
        n_calls = out["norm.cohort_stats.calls"]
        out["norm.cohort_stats.distinct_anchor_frac"] = (
            record["distinct_anchors"] / n_calls if n_calls else 0.0
        )
        for io, n_bytes in record["io_bytes"].items():
            out[f"{io}.bytes"] = n_bytes
    return out


# ---------------------------------------------------------------------------
# output check


def _lines(path: Path) -> list:
    return path.read_text(encoding="utf-8").splitlines() if path.is_file() else []


def check_outputs(workdir: Path) -> tuple:
    """Check one e2e workdir independently of spkver's own readers.

    Returns (problems, metrics) where metrics maps system -> (eer, min_dcf)
    from metrics.txt. The run passes when problems is empty.
    """
    problems = []
    manifest = [line.split(" ") for line in _lines(workdir / "manifest.txt")]
    if not manifest:
        problems.append("manifest.txt missing or empty")
    for fields in manifest:
        if fields[0] != "sha256":
            continue
        path = workdir / fields[1] if len(fields) == 3 else None
        if path is None or not path.is_file():
            problems.append(f"manifest line {' '.join(fields)!r} names no file")
        elif hashlib.sha256(path.read_bytes()).hexdigest() != fields[2]:
            problems.append(f"{path.name} does not match its manifest digest")

    for split in ("dev", "eval"):
        trial_ids = sorted(line.split(" ", 1)[0] for line in _lines(workdir / f"trials_{split}.txt"))
        if not trial_ids:
            problems.append(f"trials_{split}.txt missing or empty")
        for path in sorted(workdir.glob(f"scores_*_{split}.txt")):
            rows = [line.split(" ") for line in _lines(path)]
            if sorted(row[0] for row in rows) != trial_ids:
                problems.append(f"{path.name} does not hold exactly one score per trial")
            try:
                finite = all(len(row) == 2 and math.isfinite(float(row[1])) for row in rows)
            except ValueError:
                finite = False
            if not finite:
                problems.append(f"{path.name} holds a non-finite or malformed score")

    metrics = {}
    for line in _lines(workdir / "metrics.txt"):
        fields = line.split(" ")
        try:
            if len(fields) != 3 or not fields[1].startswith("eer=") \
                    or not fields[2].startswith("min_dcf="):
                raise ValueError(line)
            metrics[fields[0]] = (float(fields[1][4:]), float(fields[2][8:]))
        except ValueError:
            problems.append(f"metrics.txt line does not parse: {line!r}")
    if "fused" not in metrics:
        problems.append("metrics.txt has no fused line")
    return problems, metrics


# ---------------------------------------------------------------------------
# one repetition


def run_once(root: Path, rep_dir: Path, workload: Workload, seed: int, trace: bool,
             timeout: float) -> dict:
    """Run one e2e in a fresh child process; return its figures and check result."""
    shutil.rmtree(rep_dir, ignore_errors=True)
    rep_dir.mkdir(parents=True)
    workdir = rep_dir / "work"
    out = rep_dir / "child"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    cmd = [sys.executable, str(HERE / "child.py"), str(out), "1" if trace else "0", "--",
           *workload.args(seed, workdir)]
    rep = {"seed": seed, "trace": trace, "problems": []}
    with open(rep_dir / "stdout.txt", "wb") as so, open(rep_dir / "stderr.txt", "wb") as se:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=so, stderr=se, cwd=root, env=env)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    rep["cpu_s"] = usage.ru_utime + usage.ru_stime
    rep["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    if proc.returncode != 0:
        tail = (rep_dir / "stderr.txt").read_text(errors="replace").strip().splitlines()[-3:]
        rep["problems"].append(f"exit code {proc.returncode}: {' | '.join(tail)}")
        return rep
    record = json.loads(Path(f"{out}.json").read_text(encoding="utf-8"))
    with np.load(f"{out}.npz") as spans:
        rep.update(span_figures(spans, record))
    rep["setup_s"] = rep["gen_start"] - spawned
    rep["pipeline.other_cpu_s"] = rep["cpu_s"] - sum(rep[f"pipeline.{s}_cpu_s"] for s in STAGES)
    rep["env"] = {k: record[k] for k in ("numpy", "blas", "blas_threads")}
    problems, metrics = check_outputs(workdir)
    rep["problems"] += problems
    if "fused" in metrics:
        rep["eval_eer"], rep["eval_min_dcf"] = metrics["fused"]
    shutil.rmtree(rep_dir, ignore_errors=True)
    return rep


# ---------------------------------------------------------------------------
# a whole run


def sub_seeds(seed: int, n: int) -> list:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def run_reps(root: Path, workload: Workload, seed: int, seconds: float, trace: bool) -> list:
    """Repeat e2e while the next repetition is likely to end within `seconds`,
    and at least until the required repetitions ran.

    Untraced: sub-seed i % QUALITY_SEEDS, the first QUALITY_SEEDS required.
    Traced: traced, untraced, traced, ... on one sub-seed, the first three
    required.
    """
    seeds = sub_seeds(seed, QUALITY_SEEDS)
    required = 3 if trace else QUALITY_SEEDS
    base = root / ".bench_runs" / f"{os.getpid()}"
    reps = []
    took = []  # wall time of each repetition, output check included
    began = time.monotonic()
    while True:
        elapsed = time.monotonic() - began
        i = len(reps)
        if i >= required and (elapsed + statistics.median(took) > seconds
                              or elapsed + 1.5 * max(took) > RUN_LIMIT_S):
            break
        traced = trace and i % 2 == 0
        rep_seed = seeds[0] if trace else seeds[i % QUALITY_SEEDS]
        rep = run_once(root, base / f"rep{i}", workload, rep_seed, traced,
                       timeout=max(1.0, RUN_LIMIT_S - elapsed))
        took.append(time.monotonic() - began - elapsed)
        reps.append(rep)
        if rep["problems"] and i < required:
            break  # a required repetition failed; more would not make the run valid
    shutil.rmtree(base, ignore_errors=True)
    return reps


def check_repeats(reps: list, workload: Workload) -> list:
    """Quality must be identical across repetitions of one sub-seed; traced
    counts must repeat exactly and be zero exactly where the workload skips
    the function."""
    problems = []
    by_seed = {}
    for rep in reps:
        if not rep["problems"]:
            by_seed.setdefault(rep["seed"], set()).add((rep["eval_eer"], rep["eval_min_dcf"]))
    problems += [f"sub-seed {s}: EER/minDCF differ between repetitions"
                 for s, values in by_seed.items() if len(values) > 1]
    traced = [r for r in reps if r["trace"] and not r["problems"]]
    counts = [{k: v for k, v in r.items() if k.endswith((".calls", ".bytes", "_frac"))}
              for r in traced]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("traced counts differ between traced repetitions")
    for name in (counts[0] if counts else {}):
        if not name.endswith(".calls"):
            continue
        fn = name.removesuffix(".calls")
        expect_zero = fn in workload.zero_calls
        if (counts[0][name] == 0) != expect_zero:
            problems.append(f"{name} is {counts[0][name]}, expected "
                            f"{'0' if expect_zero else 'nonzero'}")
    return problems


def summarize(reps: list, workload: Workload, trace: bool) -> dict:
    ok = [r for r in reps if not r["problems"]]
    if not ok:
        return {}
    if not trace:
        # The host's speed drifts while a run lasts and contention only ever
        # adds time, so each part's best time over the repetitions is its
        # least disturbed one. e2e_s and cpu_s add up those bests of the eight
        # stages and the rest (for CPU: set-up and exit too).
        parts = (*STAGES, "other")
        e2e = sum(min(r[f"pipeline.{s}_s"] for r in ok) for s in parts)
        quality = {r["seed"]: (r["eval_eer"], r["eval_min_dcf"]) for r in ok}
        values = {
            "e2e_s": e2e,
            "trials_per_s": (workload.n_dev_trials + workload.n_eval_trials) / e2e,
            "setup_s": statistics.median(r["setup_s"] for r in ok),
            "cpu_s": sum(min(r[f"pipeline.{s}_cpu_s"] for r in ok) for s in parts),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
            "eval_eer": statistics.fmean(q[0] for q in quality.values()),
            "eval_min_dcf": statistics.fmean(q[1] for q in quality.values()),
        }
        units = dict(END_TO_END)
    else:
        traced = [r for r in ok if r["trace"]]
        plain = [r for r in ok if not r["trace"]]
        if not traced or not plain:
            return {}
        values = {name: statistics.median(r[name] for r in traced) for name, _ in PER_LAYER
                  if name != "trace_overhead_s"}
        values["trace_overhead_s"] = (statistics.median(r["e2e_s"] for r in traced)
                                      - statistics.median(r["e2e_s"] for r in plain))
        units = dict(PER_LAYER)
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def environment(root: Path, seed: int, reps: list) -> dict:
    """What the result depends on besides the workload."""
    git_sha = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        git_sha = proc.stdout.strip() or None
    sources = sorted((root / "src" / "spkver").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.read_bytes())
    child_env = next((r["env"] for r in reps if "env" in r), {})
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "src_spkver_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sources),
        "python": platform.python_version(),
        **child_env,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="append this run's full record (JSON line)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "spkver" / "cli.py").is_file():
        print("error: run from the repository root (src/spkver not found)", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    reps = run_reps(root, workload, args.seed, args.seconds, trace)
    repeat_problems = check_repeats(reps, workload)
    result = {
        "correct": not repeat_problems and all(not r["problems"] for r in reps),
        "attempted": len(reps),
        "failed": sum(1 for r in reps if r["problems"]),
        "metrics": summarize(reps, workload, trace),
    }
    env = environment(root, args.seed, reps)

    print(f"# {args.workload} trace={args.trace} " + json.dumps(env))
    for i, rep in enumerate(reps):
        status = "; ".join(rep["problems"]) or "ok"
        figures = " ".join(f"{k}={rep[k]:.4g}" for k in ("setup_s", "e2e_s", "cpu_s") if k in rep)
        print(f"# rep {i} seed={rep['seed']} trace={int(rep['trace'])} {figures} {status}")
    if not trace:
        for name in ("e2e_s", "cpu_s"):
            ok = [r[name] for r in reps if not r["problems"]]
            if ok:
                print(f"# {name} of one repetition: best {min(ok):.4f} s, "
                      f"median {statistics.median(ok):.4f} s, {len(ok)} repetitions")
        for stage in (*STAGES, "other"):
            ok = [r[f"pipeline.{stage}_s"] for r in reps if not r["problems"]]
            if ok:
                print(f"# pipeline.{stage}_s median {statistics.median(ok):.4f} s, best {min(ok):.4f} s")
    for problem in repeat_problems:
        print(f"# problem: {problem}")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload, "trace": args.trace,
                                 "seconds": args.seconds, "env": env, "result": result,
                                 "reps": reps}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
