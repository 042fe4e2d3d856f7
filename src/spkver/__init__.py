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

from .backend import PldaModel, PldaScorer, cosine_score, plda_em_train, quadratic_score
from .core import (
    Language,
    Metas,
    NumericalError,
    PhraseInventory,
    TrialLabel,
    Trials,
    build_enroll_model,
    validate_protocol,
)
from .extractor import (
    AamHead,
    Extractor,
    Ge2eParams,
    Strategy,
    TrainConfig,
    aam_loss,
    forward,
    ge2e_loss,
    heads_loss,
    pct_loss,
    train,
)
from .metrics import (
    DcfParams,
    FusionWeights,
    apply_phrase_filter,
    classify_phrases,
    eer,
    fuse,
    levenshtein,
    min_dcf,
    min_dcf_details,
    tune_weights,
)
from .norm import (
    Cohort,
    LangClassifier,
    NormStats,
    as_norm,
    build_cohort,
    cohort_stats,
    language_dependent_as_norm,
    predict_language,
    train_language_id,
)
from .nplda import NpldaTrainConfig, nplda_score, soft_detcost, train_nplda
from .synthgen import GenConfig, SynthCorpus, Task, gen_corpus, gen_transcript, gen_trials

__version__ = "0.1.0"
