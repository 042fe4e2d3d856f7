"""Desk-scale speaker-verification toolkit over synthetic latent-factor corpora.

Modules by role: core (domain types), synthgen (corpus generator),
extractor (embedding network and training objectives), backend (cosine and
two-covariance PLDA), nplda (discriminative pair scorer), norm (adaptive
score normalization and language id), metrics (EER / minDCF / filtering /
fusion), fileio (text formats), pipeline + cli (orchestration).
"""

from .backend import PldaModel, PldaScorer, cosine_score, plda_em_train, train_phrase_plda_bank
from .core import (
    Embedding,
    EnrollModel,
    Language,
    NumericalError,
    PhraseEntry,
    PhraseInventory,
    Trial,
    TrialKey,
    TrialLabel,
    UttMeta,
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
    pct_loss,
    pmt_loss,
    product_label,
    spk_plus_phrase_loss,
    train,
)
from .metrics import (
    DcfParams,
    FusionWeights,
    apply_phrase_filter,
    classify_phrase,
    eer,
    fuse,
    levenshtein,
    min_dcf,
    min_dcf_details,
    tune_weights,
)
from .norm import (
    Cohort,
    CohortEntry,
    LangClassifier,
    NormStats,
    as_norm,
    build_cohort,
    cohort_stats,
    language_dependent_as_norm,
    predict_language,
    train_language_id,
)
from .nplda import (
    NpldaParams,
    NpldaTrainConfig,
    init_from_plda,
    nplda_score,
    soft_detcost,
    train_nplda,
)
from .synthgen import GenConfig, SynthCorpus, Task, gen_corpus, gen_transcript, gen_trials

__version__ = "0.1.0"
