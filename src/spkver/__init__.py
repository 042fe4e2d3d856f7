"""Desk-scale speaker-verification toolkit over synthetic latent-factor corpora.

Modules by role: core (domain types), synthgen (corpus generator),
extractor (embedding network and training objectives), backend (cosine,
two-covariance PLDA and its quadratic pair-score form), nplda (training
that form discriminatively), norm (adaptive score normalization and
language id), metrics (EER / minDCF / filtering / fusion), fileio (.npz
arrays and text formats), pipeline + cli (orchestration).

Importing `spkver` before numpy, as the `spkver` script and `python -m
spkver.cli` do, runs numpy's OpenBLAS on one thread unless
OPENBLAS_NUM_THREADS is set.
"""

import os

# A second OpenBLAS thread gains no time on spkver's few-hundred-row matrices
# and spins after each call (about twice the CPU of every stage on 2 cores);
# the thread count also changes the bits of the checkpoint and the scores.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
