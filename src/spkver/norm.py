"""Adaptive symmetric score normalization and the embedding-space language
identifier that supplies test-utterance language labels.

The normalized score is

    (s - mu_t) / sigma_t + (s - mu_e) / sigma_e

with each (mu, sigma) taken over the anchor's top-N cohort scores. The
language-dependent variant restricts the enroll-side cohort to the test
utterance's language; the test-side cohort is never language-filtered.
The anchors are rows of the enroll-model and test-utterance tables, and
an anchor's statistics depend only on the anchor (and the filter), so each
table row that a trial uses is scored against the cohort once, however
many trials share it. The cohort is scored as back-ends score trials
(`Scorer`): each (anchor, entry) pair of the two tables' rows is a trial.
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Optional, Sequence

import numpy as np

from .core import Language, Metas, NumericalError

# A back-end's table scorer, as `backend.cosine_score`: (e, t, e_rows, t_rows) -> scores.
Scorer = Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]


class Cohort(NamedTuple):
    """The AS-norm cohort: row i of the (M, D) float64 array x is an entry
    in language languages[i] (an object array of Language)."""

    x: np.ndarray
    languages: np.ndarray


class NormStats(NamedTuple):
    """Top-N cohort statistics, one entry per anchor."""

    mu: object
    sigma: object


def build_cohort(x: np.ndarray, metas: Metas) -> Cohort:
    """One averaged row of x per (speaker, language) pair, in first-appearance
    order. `metas` are the label columns row-aligned to x: row i of x is
    utterance metas.utt_ids[i], spoken by metas.speakers[i] in metas.languages[i].

    Averaging per language keeps each entry's language tag well defined,
    which the language-dependent filter needs. No rows raise ValueError.
    """
    groups: Dict[tuple, list] = {}
    for row, key in enumerate(zip(metas.speakers, metas.languages)):
        groups.setdefault(key, []).append(row)
    if not groups:
        raise ValueError("cohort must be non-empty")
    return Cohort(
        x=np.stack([x[rows].mean(axis=0) for rows in groups.values()]),
        languages=np.array([lang for _, lang in groups], dtype=object),
    )


def cohort_stats(
    anchors: np.ndarray,
    cohort: Cohort,
    scorer: Scorer,
    n_top: int,
    language_filter: Optional[Language] = None,
) -> NormStats:
    """Mean / population standard deviation of each anchor's top-N cohort scores.

    `anchors` is an (A, D) table, and the statistics are (A,) arrays. One
    scorer call pairs every anchor row with every row of the (C, D) table of
    the entries in `language_filter` (None: all of them).
    """
    if n_top < 2:
        raise ValueError("n_top must be >= 2")
    x = cohort.x if language_filter is None else cohort.x[cohort.languages == language_filter]
    if len(x) < n_top:
        raise ValueError(f"cohort has {len(x)} usable entries after filtering, need {n_top}")
    anchors = np.asarray(anchors, dtype=np.float64)
    grid = np.ix_(np.arange(len(anchors)), np.arange(len(x)))
    scores = np.asarray(scorer(anchors, x, *grid), dtype=np.float64)
    top = np.sort(scores, axis=1)[:, -n_top:]
    mu = top.mean(axis=1)
    sigma = top.std(axis=1)  # population divisor
    if not np.all(sigma > 0.0):
        raise NumericalError(f"zero variance among top cohort scores (mu={mu[~(sigma > 0.0)]})")
    return NormStats(mu=mu, sigma=sigma)


def as_norm(raw_score, enroll_stats: NormStats, test_stats: NormStats):
    """Elementwise over raw scores and stats of matching shapes."""
    if not (np.all(enroll_stats.sigma > 0.0) and np.all(test_stats.sigma > 0.0)):
        raise NumericalError("normalization stats need positive sigma")
    return (raw_score - test_stats.mu) / test_stats.sigma + (
        raw_score - enroll_stats.mu
    ) / enroll_stats.sigma


def language_dependent_as_norm(
    raw_scores,
    enroll: np.ndarray,
    test: np.ndarray,
    enroll_rows: np.ndarray,
    test_rows: np.ndarray,
    cohort: Cohort,
    scorer: Scorer,
    n_top: int,
    test_languages,
) -> np.ndarray:
    """AS-Norm of the (N,) raw scores of trials (enroll[enroll_rows[n]],
    test[test_rows[n]]), rows ((N,) int arrays) of the (M, D) enroll and
    (U, D) test tables, each with its enroll-side cohort in its test language.

    `test_languages` is one Language (or None: no restriction) for every
    trial, or one per trial. The enroll-side statistics take one
    cohort_stats call per language present, the test-side ones a single
    call; each gets every table row its trials use once, in row order,
    and its (mu, sigma) are gathered back onto the trials that use the row.
    """
    def stats(table, rows, language_filter):
        used, row_of = np.unique(rows, return_inverse=True)
        anchor = cohort_stats(table[used], cohort, scorer, n_top, language_filter)
        return anchor.mu[row_of], anchor.sigma[row_of]

    langs = np.broadcast_to(np.asarray(test_languages, dtype=object), np.shape(enroll_rows))
    mu, sigma = np.empty(langs.shape), np.empty(langs.shape)
    for lang in dict.fromkeys(langs.flat):
        trials = langs == lang
        mu[trials], sigma[trials] = stats(enroll, enroll_rows[trials], lang)
    test_mu, test_sigma = stats(test, test_rows, None)
    return as_norm(raw_scores, NormStats(mu, sigma), NormStats(test_mu, test_sigma))


def effective_n_top(n_top: int, cohort: Cohort, language_dependent: bool) -> int:
    """Cap a configured cohort depth at what the cohort can support."""
    limit = len(cohort.x)
    if language_dependent:
        for lang in Language:
            subset = int(np.count_nonzero(cohort.languages == lang))
            if subset:
                limit = min(limit, subset)
    if limit < 2:
        raise ValueError(f"cohort has {limit} usable entries in a language, need 2")
    return min(n_top, limit)


# ---------------------------------------------------------------------------
# language identification on embeddings


_LANGUAGES = (Language.L1, Language.L2)  # the classes, in index order


class LangClassifier(NamedTuple):
    """Multinomial logistic model over embedding space."""

    weights: np.ndarray  # (n_languages, D)
    bias: np.ndarray  # (n_languages,)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=-1, keepdims=True)


def train_language_id(
    embeddings: np.ndarray,
    language_labels: Sequence[Language],
    epochs: int,
    lr: float,
) -> LangClassifier:
    """Gradient-descent logistic regression from embeddings to languages.

    Parameters start at zero, so the epochs=0 classifier predicts uniform
    posteriors; training is deterministic with no randomness at all.
    """
    x = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    idx = {lang: i for i, lang in enumerate(_LANGUAGES)}
    y = np.asarray([idx[l] for l in language_labels])
    if len(set(y.tolist())) < 2:
        raise ValueError("language-id training needs both languages")
    n, d = x.shape

    w = np.zeros((len(_LANGUAGES), d))
    b = np.zeros(len(_LANGUAGES))
    onehot = np.zeros((n, len(_LANGUAGES)))
    onehot[np.arange(n), y] = 1.0
    for _ in range(epochs):
        probs = _softmax(x @ w.T + b)
        delta = (probs - onehot) / n
        w -= lr * (delta.T @ x)
        b -= lr * delta.sum(axis=0)
    return LangClassifier(weights=w, bias=b)


def predict_language(classifier: LangClassifier, embeddings: np.ndarray):
    """The argmax languages (a list of N) and the (N, n_languages) softmax
    posteriors of an (N, D) batch of embeddings; ties go to the
    lower-indexed language."""
    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != classifier.weights.shape[1]:
        raise ValueError(f"embeddings of shape {x.shape} do not match the classifier's "
                         f"dimension {classifier.weights.shape[1]}")
    posterior = _softmax(x @ classifier.weights.T + classifier.bias)
    return [_LANGUAGES[i] for i in np.argmax(posterior, axis=1)], posterior
