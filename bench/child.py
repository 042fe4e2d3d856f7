"""Run one `spkver e2e` in this process and record where its time went.

    python3 bench/child.py OUT TRACE -- <spkver e2e arguments>

`run.py` starts one such process per measured run, with `src` on
PYTHONPATH. It wraps module attributes that the pipeline looks up at call
time, so the program itself is unchanged:

- always the eight `pipeline.cmd_*` stages (eight spans per run, each with
  the process CPU time it used);
- with TRACE=1 also the per-layer functions in TRACED, the PLDA pair scorer
  and every public `fileio` reader/writer.

Spans (name, start, end, parent span) are kept in flat in-memory arrays and
written to OUT.npz when the run ends; OUT.json holds the exit code, the end
time and the counters that are not spans. All times are `time.monotonic()`,
which is one system-wide clock, so `run.py` can relate them to the moment it
started this process.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from array import array

STAGES = ("gen", "train", "extract", "score", "norm", "filter", "fuse", "eval")

TRACED = {
    "backend": ("cosine_score", "plda_em_train"),
    "nplda": ("train_nplda", "nplda_score"),
    "norm": ("cohort_stats", "predict_language", "train_language_id", "as_norm"),
    "extractor": ("train", "ge2e_loss", "aam_loss", "extract_embeddings"),
    "metrics": ("tune_weights", "fuse", "min_dcf", "eer", "levenshtein", "apply_phrase_filter"),
    "synthgen": ("gen_corpus", "gen_trials"),
}


class Tracer:
    """Records one span per wrapped call into flat arrays."""

    def __init__(self):
        self.names: list = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self._io_names: set = set()
        self.io_bytes = {"fileio.read": 0, "fileio.write": 0}
        self.anchors: set = set()
        self.stage_cpu: dict = {}

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn):
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(self._open[-1])
            self.end.append(0.0)
            self._open.append(i)
            self.start.append(time.monotonic())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = time.monotonic()
                self._open.pop()

        return traced

    def wrap_stage(self, name: str, fn):
        """A span that also adds the process CPU time of the call, all
        threads included, to stage_cpu[name]."""
        self.stage_cpu[name] = 0.0
        traced = self.wrap(name, fn)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            cpu = time.process_time()
            try:
                return traced(*args, **kwargs)
            finally:
                self.stage_cpu[name] += time.process_time() - cpu

        return timed

    def wrap_io(self, name: str, fn):
        """Span only the outermost fileio call; add the file's size to its bytes.

        Readers call other public readers (read_checkpoint -> read_container);
        the inner call is part of the outer one, not a second read.
        """
        self._io_names.add(self._name_id(name))
        traced = self.wrap(name, fn)

        @functools.wraps(fn)
        def outermost(path, *args, **kwargs):
            top = self._open[-1]
            if top >= 0 and self.name[top] in self._io_names:
                return fn(path, *args, **kwargs)
            result = traced(path, *args, **kwargs)
            self.io_bytes[name] += os.path.getsize(path)
            return result

        return outermost

    def count_anchors(self, fn):
        """Record each distinct (anchor bytes, language filter) cohort_stats sees."""

        @functools.wraps(fn)
        def counted(anchor, cohort, scorer, n_top, language_filter=None):
            self.anchors.add((anchor.tobytes(), language_filter))
            return fn(anchor, cohort, scorer, n_top, language_filter)

        return counted


def install(tracer: Tracer, trace: bool) -> None:
    from spkver import backend, fileio, norm, pipeline

    for stage in STAGES:
        attr = f"cmd_{stage}"
        setattr(pipeline, attr, tracer.wrap_stage(f"pipeline.{stage}", getattr(pipeline, attr)))
    if not trace:
        return
    for mod_name, attrs in TRACED.items():
        module = importlib.import_module(f"spkver.{mod_name}")
        for attr in attrs:
            setattr(module, attr, tracer.wrap(f"{mod_name}.{attr}", getattr(module, attr)))
    norm.cohort_stats = tracer.count_anchors(norm.cohort_stats)
    backend.PldaScorer.score = tracer.wrap("backend.PldaScorer.score", backend.PldaScorer.score)
    for attr in dir(fileio):
        if attr == "sha256_of" or attr.startswith("read_"):
            setattr(fileio, attr, tracer.wrap_io("fileio.read", getattr(fileio, attr)))
        elif attr.startswith("write_"):
            setattr(fileio, attr, tracer.wrap_io("fileio.write", getattr(fileio, attr)))


def blas_info() -> dict:
    """OpenBLAS version and the thread count numpy's copy of it will use."""
    import ctypes
    import glob

    import numpy

    info = {"numpy": numpy.__version__, "blas": None, "blas_threads": None}
    try:
        info["blas"] = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        pass
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libs, "*openblas*")):
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(dll, symbol, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                info["blas_threads"] = getter()
                return info
    return info


def main(argv) -> int:
    out, trace, sep, spkver_args = argv[0], argv[1] == "1", argv[2], argv[3:]
    if sep != "--":
        raise SystemExit("usage: child.py OUT TRACE -- <spkver arguments>")
    from spkver import cli

    tracer = Tracer()
    install(tracer, trace)
    rc = cli.main(spkver_args)
    end = time.monotonic()

    import numpy as np

    np.savez(
        out + ".npz",
        names=np.asarray(tracer.names),
        name=np.frombuffer(tracer.name, dtype=np.int32),
        parent=np.frombuffer(tracer.parent, dtype=np.int32),
        start=np.frombuffer(tracer.start, dtype=np.float64),
        end=np.frombuffer(tracer.end, dtype=np.float64),
    )
    record = {
        "rc": rc,
        "end": end,
        "distinct_anchors": len(tracer.anchors),
        "stage_cpu": tracer.stage_cpu,
        "io_bytes": tracer.io_bytes,
        **blas_info(),
    }
    with open(out + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
