"""Generative scoring: cosine similarity and two-covariance PLDA.

The PLDA model is x = mu + y + eps with speaker factor y ~ N(0, Sigma_b)
and residual eps ~ N(0, Sigma_w). Training is EM on (Sigma_b, Sigma_w)
with mu fixed at the grand mean; the verification score is the closed-form
log-likelihood ratio of same-speaker vs different-speaker hypotheses,
evaluated through the stacked joint Gaussian of the pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .core import NumericalError

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True, eq=False)
class PldaModel:
    mu: np.ndarray  # (D,)
    sigma_b: np.ndarray  # (D, D), symmetric PSD
    sigma_w: np.ndarray  # (D, D), symmetric PD

    def __post_init__(self) -> None:
        for name in ("mu", "sigma_b", "sigma_w"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} has non-finite entries")
            object.__setattr__(self, name, arr)
        if self.sigma_b.shape != self.sigma_w.shape or self.mu.shape[0] != self.sigma_b.shape[0]:
            raise ValueError("inconsistent model shapes")
        for name in ("sigma_b", "sigma_w"):
            arr = getattr(self, name)
            if not np.allclose(arr, arr.T, atol=1e-10):
                raise ValueError(f"{name} must be symmetric")

    @property
    def dim(self) -> int:
        return int(self.mu.shape[0])


@dataclass(frozen=True)
class PhrasePldaBank:
    """One independently trained PLDA model per phrase."""

    models: dict  # phrase_id -> PldaModel


def cosine_score(e: np.ndarray, t: np.ndarray):
    """Inner product over the product of norms, in [-1, 1].

    A broadcasting pair scorer: `e` and `t` of shapes (..., D) broadcast to
    scores of shape (...); two 1-D vectors give a float.
    """
    e = np.asarray(e, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if e.shape[-1] != t.shape[-1]:
        raise ValueError(f"dimension mismatch: {e.shape} vs {t.shape}")
    ne = np.sqrt(np.einsum("...d,...d->...", e, e))
    nt = np.sqrt(np.einsum("...d,...d->...", t, t))
    if not (np.all(ne > 0.0) and np.all(nt > 0.0)):
        raise NumericalError("cosine of a zero vector is undefined")
    scores = np.einsum("...d,...d->...", e, t) / (ne * nt)
    return float(scores) if scores.ndim == 0 else scores


def _logdet_and_chol(mat: np.ndarray) -> Tuple[float, np.ndarray]:
    try:
        chol = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"covariance not positive definite: {exc}") from exc
    return 2.0 * float(np.sum(np.log(np.diag(chol)))), chol

def _chol_quad(chol: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x^T M^{-1} x for M = chol @ chol.T, batched over rows of x."""
    z = np.linalg.solve(chol, x.T)
    return np.sum(z * z, axis=0)


def _marginal_loglik(xc: np.ndarray, sums: np.ndarray, counts: np.ndarray,
                     sigma_b: np.ndarray, sigma_w: np.ndarray) -> float:
    """Observed-data log-likelihood of the two-covariance model.

    `xc` holds the (N, D) rows minus mu, `sums` the (S, D) per-speaker sums
    of those rows and `counts` the (S,) utterance counts. Per speaker with
    n utterances and first-order sum f the joint covariance is
    I_n (x) Sigma_w + 1_n 1_n^T (x) Sigma_b. Its log-determinant is
    (n - 1) log|Sigma_w| + log|Sigma_w + n Sigma_b|, and its quadratic form
    is sum_i x_i^T Sigma_w^{-1} x_i minus the coupling term
    f^T (Sigma_w + n Sigma_b)^{-1} Sigma_b Sigma_w^{-1} f. Only n and f
    depend on the speaker, so the determinant and the coupling solve are
    done once per distinct utterance count, without the stacked matrix.
    """
    n, d = xc.shape
    ldet_w, chol_w = _logdet_and_chol(sigma_w)
    total = n * d * LOG_2PI + (n - counts.size) * ldet_w + float(np.sum(_chol_quad(chol_w, xc)))
    rhs = sigma_b @ np.linalg.inv(sigma_w) @ sums.T
    for cnt in np.unique(counts):
        members = counts == cnt
        joint = sigma_w + cnt * sigma_b
        ldet_m, _ = _logdet_and_chol(joint)
        coup = float(np.sum(sums[members].T * np.linalg.solve(joint, rhs[:, members])))
        total += np.count_nonzero(members) * ldet_m - coup
    return -0.5 * total


def plda_em_train(
    embeddings: np.ndarray,
    speaker_labels: Sequence,
    iters: int = 20,
    ridge: Optional[float] = None,
) -> Tuple[PldaModel, list]:
    """EM for the two-covariance model; returns (model, log-likelihood trace).

    The trace holds the observed-data log-likelihood of the initial model
    and of the model after each iteration; EM guarantees it never decreases
    (up to the small ridge added for conditioning; default 1e-6*trace/D).
    A speaker's posterior depends on its data only through its utterance
    count and first-order sum, so each iteration inverts one posterior
    covariance per distinct count.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(speaker_labels)
    if x.ndim != 2 or x.shape[0] != labels.shape[0]:
        raise ValueError("embeddings must be (N, D) with one label per row")
    _, index, counts = np.unique(labels, return_inverse=True, return_counts=True)
    if counts.size < 2:
        raise ValueError("PLDA training needs at least 2 speakers")
    if not np.any(counts >= 2):
        raise ValueError("PLDA training needs a speaker with >= 2 utterances")
    n, d = x.shape

    mu = x.mean(axis=0)
    xc = x - mu
    sums = np.zeros((counts.size, d))
    np.add.at(sums, index, xc)
    total_cov = (xc.T @ xc) / n
    if float(np.trace(total_cov)) < 1e-12 * d:
        raise NumericalError("degenerate data: zero total scatter")

    def _ridge_for(cov: np.ndarray) -> float:
        if ridge is not None:
            return float(ridge)
        return 1e-6 * float(np.trace(cov)) / d

    sigma_b = 0.5 * total_cov
    sigma_w = 0.5 * total_cov
    trace = [_marginal_loglik(xc, sums, counts, sigma_b, sigma_w)]

    for _ in range(iters):
        b_inv = np.linalg.inv(sigma_b)
        w_inv = np.linalg.inv(sigma_w)
        proj = sums @ w_inv.T  # row s: Sigma_w^{-1} f_s
        means = np.empty_like(sums)
        cov_b = np.zeros((d, d))  # sum over speakers of the posterior covariance
        cov_w = np.zeros((d, d))  # the same, weighted by utterance count
        for cnt in np.unique(counts):
            members = counts == cnt
            n_spk = np.count_nonzero(members)
            post_cov = np.linalg.inv(b_inv + cnt * w_inv)
            means[members] = proj[members] @ post_cov.T
            cov_b += n_spk * post_cov
            cov_w += (n_spk * cnt) * post_cov
        resid = xc - means[index]
        sigma_b = (cov_b + means.T @ means) / counts.size
        sigma_w = (cov_w + resid.T @ resid) / n
        sigma_b = 0.5 * (sigma_b + sigma_b.T) + _ridge_for(sigma_b) * np.eye(d)
        sigma_w = 0.5 * (sigma_w + sigma_w.T) + _ridge_for(sigma_w) * np.eye(d)
        trace.append(_marginal_loglik(xc, sums, counts, sigma_b, sigma_w))

    return PldaModel(mu=mu, sigma_b=sigma_b, sigma_w=sigma_w), trace


class PldaScorer:
    """Log-likelihood-ratio scorer with the pair factorizations precomputed.

    Same-speaker hypothesis: the stacked pair [e; t] is jointly Gaussian
    with covariance [[T, B], [B, T]], T = Sigma_b + Sigma_w. Different
    speakers: two independent N(mu, T) draws.
    """

    def __init__(self, model: PldaModel):
        self.model = model
        t_cov = model.sigma_b + model.sigma_w
        joint = np.block([[t_cov, model.sigma_b], [model.sigma_b, t_cov]])
        self._ldet_t, self._chol_t = _logdet_and_chol(t_cov)
        self._ldet_j, self._chol_j = _logdet_and_chol(joint)
        self._d = model.dim

    def score(self, e: np.ndarray, t: np.ndarray):
        """Broadcasting pair scorer: (..., D) with (..., D) -> (...); two
        1-D vectors give a float."""
        e = np.asarray(e, dtype=np.float64)
        t = np.asarray(t, dtype=np.float64)
        if e.shape[-1] != self._d or t.shape[-1] != self._d:
            raise ValueError("dimension mismatch with PLDA model")
        e, t = np.broadcast_arrays(e, t)
        shape = e.shape[:-1]
        e = e.reshape(-1, self._d) - self.model.mu
        t = t.reshape(-1, self._d) - self.model.mu
        stacked = np.concatenate([e, t], axis=1)
        log_same = -0.5 * (2 * self._d * LOG_2PI + self._ldet_j + _chol_quad(self._chol_j, stacked))
        log_diff = -0.5 * (
            2 * self._d * LOG_2PI
            + 2 * self._ldet_t
            + _chol_quad(self._chol_t, e)
            + _chol_quad(self._chol_t, t)
        )
        scores = (log_same - log_diff).reshape(shape)
        return float(scores) if scores.ndim == 0 else scores


def plda_llr_score(model: PldaModel, e: np.ndarray, t: np.ndarray) -> float:
    """log p(e,t | same speaker) - log p(e,t | different speakers)."""
    return PldaScorer(model).score(e, t)


def train_phrase_plda_bank(
    embeddings: np.ndarray,
    speaker_labels: Sequence,
    phrase_labels: Sequence,
    iters: int = 20,
) -> Tuple[PhrasePldaBank, dict]:
    """Train one PLDA model per phrase on that phrase's subset.

    Phrases with insufficient data are reported in the returned failure map
    (phrase_id -> reason) instead of aborting the bank.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    spk = np.asarray(speaker_labels)
    phr = np.asarray(phrase_labels)
    models: Dict[str, PldaModel] = {}
    failures: Dict[str, str] = {}
    for phrase in dict.fromkeys(phr.tolist()):
        mask = phr == phrase
        try:
            model, _ = plda_em_train(x[mask], spk[mask], iters=iters)
            models[phrase] = model
        except (ValueError, NumericalError) as exc:
            failures[phrase] = str(exc)
    return PhrasePldaBank(models=models), failures
