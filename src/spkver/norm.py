"""Adaptive symmetric score normalization and the embedding-space language
identifier that supplies test-utterance language labels.

The normalized score is

    (s - mu_t) / sigma_t + (s - mu_e) / sigma_e

with each (mu, sigma) taken over the anchor's top-N cohort scores. The
language-dependent variant restricts the enroll-side cohort to the test
utterance's language; the test-side cohort is never language-filtered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from .core import Embedding, Language, NumericalError, UttMeta

# A broadcasting pair scorer: (..., D) with (..., D) -> (...) scores.
Scorer = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class CohortEntry:
    utt_id: str
    vec: np.ndarray
    language: Language


@dataclass(frozen=True)
class Cohort:
    entries: tuple

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        if not entries:
            raise ValueError("cohort must be non-empty")
        dims = {e.vec.shape[0] for e in entries}
        if len(dims) != 1:
            raise ValueError("cohort embeddings must share one dimension")
        object.__setattr__(self, "entries", entries)

    def __len__(self) -> int:
        return len(self.entries)

    def filtered(self, language: Optional[Language]):
        if language is None:
            return self.entries
        return tuple(e for e in self.entries if e.language is language)


@dataclass(frozen=True)
class NormStats:
    """Top-N cohort statistics: floats for one anchor, arrays for a batch."""

    mu: object
    sigma: object
    n_top: int


def build_cohort(embeddings: Sequence[Embedding], metas: Sequence[UttMeta]) -> Cohort:
    """One averaged embedding per (speaker, language) pair.

    Averaging per language keeps each entry's language tag well defined,
    which the language-dependent filter needs.
    """
    meta_of = {m.utt_id: m for m in metas}
    groups: Dict[tuple, list] = {}
    for emb in embeddings:
        meta = meta_of.get(emb.utt_id)
        if meta is None:
            raise ValueError(f"no metadata for cohort utterance {emb.utt_id}")
        groups.setdefault((meta.speaker_id, meta.language), []).append(emb.vec)
    entries = [
        CohortEntry(
            utt_id=f"{spk}:{lang.value}",
            vec=np.mean(vecs, axis=0),
            language=lang,
        )
        for (spk, lang), vecs in groups.items()
    ]
    return Cohort(tuple(entries))


def cohort_stats(
    anchors: np.ndarray,
    cohort: Cohort,
    scorer: Scorer,
    n_top: int,
    language_filter: Optional[Language] = None,
) -> NormStats:
    """Mean / population standard deviation of each anchor's top-N cohort scores.

    `anchors` is one vector (D,) or a batch (..., D); the (anchors x cohort)
    scores come from one broadcasting scorer call.
    """
    if n_top < 2:
        raise ValueError("n_top must be >= 2")
    entries = cohort.filtered(language_filter)
    if len(entries) < n_top:
        raise ValueError(
            f"cohort has {len(entries)} usable entries after filtering, need {n_top}"
        )
    anchors = np.asarray(anchors, dtype=np.float64)
    cohort_vecs = np.stack([e.vec for e in entries])
    scores = np.asarray(scorer(anchors[..., None, :], cohort_vecs), dtype=np.float64)
    top = np.sort(scores, axis=-1)[..., -n_top:]
    mu = top.mean(axis=-1)
    sigma = top.std(axis=-1)  # population divisor
    if not np.all(sigma > 0.0):
        raise NumericalError(f"zero variance among top cohort scores (mu={mu[~(sigma > 0.0)]})")
    if anchors.ndim == 1:
        return NormStats(mu=float(mu), sigma=float(sigma), n_top=n_top)
    return NormStats(mu=mu, sigma=sigma, n_top=n_top)


def as_norm(raw_score, enroll_stats: NormStats, test_stats: NormStats):
    """Elementwise over raw scores and stats of matching shapes."""
    if not (np.all(enroll_stats.sigma > 0.0) and np.all(test_stats.sigma > 0.0)):
        raise NumericalError("normalization stats need positive sigma")
    return (raw_score - test_stats.mu) / test_stats.sigma + (
        raw_score - enroll_stats.mu
    ) / enroll_stats.sigma


def language_dependent_as_norm(
    raw_scores,
    enroll_vecs: np.ndarray,
    test_vecs: np.ndarray,
    cohort: Cohort,
    scorer: Scorer,
    n_top: int,
    test_languages,
):
    """AS-Norm of row-aligned trials, each with its enroll-side cohort
    restricted to its test language.

    `test_languages` is one Language (or None: no restriction) for every
    trial, or one per trial; the enroll-side statistics take one
    cohort_stats call per language present.
    """
    enroll_vecs = np.asarray(enroll_vecs, dtype=np.float64)
    langs = np.broadcast_to(np.asarray(test_languages, dtype=object), enroll_vecs.shape[:-1])
    mu, sigma = np.empty(langs.shape), np.empty(langs.shape)
    for lang in dict.fromkeys(langs.flat):
        rows = langs == lang
        stats = cohort_stats(enroll_vecs[rows], cohort, scorer, n_top, language_filter=lang)
        mu[rows], sigma[rows] = stats.mu, stats.sigma
    test_stats = cohort_stats(test_vecs, cohort, scorer, n_top, language_filter=None)
    normed = as_norm(raw_scores, NormStats(mu, sigma, n_top), test_stats)
    return float(normed) if np.ndim(normed) == 0 else normed


def effective_n_top(n_top: int, cohort: Cohort, language_dependent: bool) -> int:
    """Cap a configured cohort depth at what the cohort can support."""
    limit = len(cohort)
    if language_dependent:
        for lang in Language:
            subset = len(cohort.filtered(lang))
            if subset:
                limit = min(limit, subset)
    if limit < 2:
        raise ValueError(f"cohort has {limit} usable entries in a language, need 2")
    return min(n_top, limit)


# ---------------------------------------------------------------------------
# language identification on embeddings


@dataclass
class LangClassifier:
    """Multinomial logistic model over embedding space."""

    weights: np.ndarray  # (n_languages, D)
    bias: np.ndarray  # (n_languages,)
    languages: tuple = (Language.L1, Language.L2)

    @property
    def dim(self) -> int:
        return int(self.weights.shape[1])


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=-1, keepdims=True)


def train_language_id(
    embeddings: np.ndarray,
    language_labels: Sequence[Language],
    epochs: int = 200,
    lr: float = 0.5,
) -> LangClassifier:
    """Gradient-descent logistic regression from embeddings to languages.

    Parameters start at zero, so the epochs=0 classifier predicts uniform
    posteriors; training is deterministic with no randomness at all.
    """
    x = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    languages = (Language.L1, Language.L2)
    idx = {lang: i for i, lang in enumerate(languages)}
    y = np.asarray([idx[l] for l in language_labels])
    if len(set(y.tolist())) < 2:
        raise ValueError("language-id training needs both languages")
    n, d = x.shape

    w = np.zeros((len(languages), d))
    b = np.zeros(len(languages))
    onehot = np.zeros((n, len(languages)))
    onehot[np.arange(n), y] = 1.0
    for _ in range(epochs):
        probs = _softmax(x @ w.T + b)
        delta = (probs - onehot) / n
        w -= lr * (delta.T @ x)
        b -= lr * delta.sum(axis=0)
    return LangClassifier(weights=w, bias=b, languages=languages)


def predict_language(classifier: LangClassifier, embeddings: np.ndarray):
    """Argmax language plus the softmax posterior; ties go to the
    lower-indexed language.

    One embedding (D,) gives (Language, posterior); a batch (N, D) gives
    (list of N Languages, (N, n_languages) posteriors).
    """
    x = np.asarray(embeddings, dtype=np.float64)
    if x.shape[-1] != classifier.dim:
        raise ValueError("embedding dimension does not match the classifier")
    posterior = _softmax(x @ classifier.weights.T + classifier.bias)
    picks = np.argmax(posterior, axis=-1)
    if picks.ndim == 0:
        return classifier.languages[int(picks)], posterior
    return [classifier.languages[i] for i in picks], posterior
