"""Generative scoring: cosine similarity and two-covariance PLDA.

The PLDA model is x = mu + y + eps with speaker factor y ~ N(0, Sigma_b)
and residual eps ~ N(0, Sigma_w). Training is EM on (Sigma_b, Sigma_w)
with mu fixed at the grand mean; the verification score is the closed-form
log-likelihood ratio of same-speaker vs different-speaker hypotheses,
expanded once per model into a quadratic form in the pair
(`PldaScorer.from_model`). `PldaScorer` is that form, (L, G, c, k), for
PLDA and NPLDA alike: NPLDA fine-tunes the one generative form per phrase,
and `PldaScorer.score` evaluates either on trials that are pairs of table rows.

EM works on sufficient statistics (Sizov, Lee & Kinnunen, S+SSPR 2014):
the within-speaker scatter S_w = sum_i (x_i - xbar_s)(x_i - xbar_s)^T and,
per distinct utterance count n, the number of speakers m_n and the scatter
F_n = sum_{s: n_s = n} f_s f_s^T of their sums f_s. The likelihood splits
into within-speaker deviations ~ N(0, Sigma_w) and speaker means
~ N(0, Sigma_b + Sigma_w / n), so after one pass over the rows each
iteration factors Sigma_w and one J_n = Sigma_w + n Sigma_b per count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Tuple

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
            _check_symmetric(name, getattr(self, name))


def _check_symmetric(name: str, mat: np.ndarray) -> None:
    """ValueError unless the finite matrix `mat` is within 1e-10 of its
    transpose. An exactly symmetric one, as EM and NPLDA build them, is
    accepted by one exact compare, without `np.allclose`."""
    if not (mat == mat.T).all() and not np.allclose(mat, mat.T, rtol=0, atol=1e-10):
        raise ValueError(f"{name} must be symmetric")


def cosine_score(e: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Inner product over the product of norms, in [-1, 1].

    A broadcasting pair scorer: `e` and `t` of shapes (..., D) broadcast to
    scores of shape (...).
    """
    e = np.asarray(e, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if e.shape[-1] != t.shape[-1]:
        raise ValueError(f"dimension mismatch: {e.shape} vs {t.shape}")
    ne = np.sqrt(np.einsum("...d,...d->...", e, e))
    nt = np.sqrt(np.einsum("...d,...d->...", t, t))
    if not (np.all(ne > 0.0) and np.all(nt > 0.0)):
        raise NumericalError("cosine of a zero vector is undefined")
    return np.einsum("...d,...d->...", e, t) / (ne * nt)


def _logdet(mat: np.ndarray) -> float:
    try:
        chol = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"covariance not positive definite: {exc}") from exc
    return 2.0 * float(np.sum(np.log(np.diag(chol))))


class _PldaStats(NamedTuple):
    """What the two-covariance likelihood and EM need of the centred rows.
    Entry 0 is the within-speaker term, entry k >= 1 the speakers with the
    k-th distinct utterance count n; entry k's covariance is
    Sigma_w + counts[k] Sigma_b, i.e. Sigma_w, then J_n."""

    n_rows: int  # N
    counts: np.ndarray  # (K + 1,) 0, then the distinct counts n, ascending
    weights: np.ndarray  # (K + 1,) N - S, then m_n, the speakers with count n
    scatter: np.ndarray  # (K + 1, D, D) S_w, then F_n / n


def _sufficient_stats(xc: np.ndarray, index: np.ndarray, counts: np.ndarray) -> _PldaStats:
    """The statistics of the rows `xc` (already minus mu) of speakers
    `index`, with `counts` rows per speaker, in one pass."""
    sums = np.zeros((counts.size, xc.shape[1]))
    np.add.at(sums, index, xc)
    resid = xc - (sums / counts[:, None])[index]
    # with return_counts, np.unique does not import numpy.ma (numpy >= 2.3)
    distinct, n_spk = np.unique(counts, return_counts=True)
    scatter = [resid.T @ resid]
    for cnt in distinct:
        f = sums[counts == cnt]
        scatter.append((f.T @ f) / cnt)
    return _PldaStats(
        n_rows=xc.shape[0],
        counts=np.concatenate(([0.0], distinct)),
        weights=np.concatenate(([xc.shape[0] - counts.size], n_spk)),
        scatter=np.stack(scatter),
    )


def _marginal_loglik(stats: _PldaStats, sigma_b: np.ndarray,
                     sigma_w: np.ndarray) -> Tuple[float, np.ndarray]:
    """Observed-data log-likelihood of the two-covariance model, and the
    (K, D, D) inverses of J_n = Sigma_w + n Sigma_b, one per distinct count.

    A speaker's n rows split into within-speaker deviations x_i - xbar,
    distributed as N(0, Sigma_w) on n - 1 degrees of freedom, and its mean
    xbar ~ N(0, Sigma_b + Sigma_w / n) = N(0, J_n / n). Summed over the S
    speakers and N rows:

        -1/2 [N D log 2pi + (N - S) log|Sigma_w| + sum_n m_n log|J_n|
              + tr(Sigma_w^{-1} S_w) + sum_n tr(J_n^{-1} F_n) / n]

    with the statistics of `_sufficient_stats`: the within-speaker scatter
    S_w = sum_i (x_i - xbar_s)(x_i - xbar_s)^T and, per distinct count n,
    the m_n speakers with n utterances and F_n = sum_{s: n_s = n} f_s f_s^T
    over their sums f_s.

    One Cholesky factor each of Sigma_w and the J_n gives the determinants
    and the inverses; EM reuses the inverses for its next E-step.
    """
    covs = sigma_w + np.multiply.outer(stats.counts, sigma_b)
    try:
        chol = np.linalg.cholesky(covs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"covariance not positive definite: {exc}") from exc
    logdets = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
    chol_inv = np.linalg.inv(chol)
    inv = np.swapaxes(chol_inv, 1, 2) @ chol_inv
    total = (stats.n_rows * sigma_w.shape[0] * LOG_2PI + float(stats.weights @ logdets)
             + float(np.sum(inv * stats.scatter)))
    return -0.5 * total, inv[1:]


def plda_em_train(
    embeddings: np.ndarray,
    speaker_labels: Sequence,
    iters: int,
    ridge: Optional[float] = None,
) -> Tuple[PldaModel, list]:
    """`iters` (the plda_iters key) EM iterations for the two-covariance
    model; returns (model, log-likelihood trace).

    The trace holds the observed-data log-likelihood of the initial model
    and of the model after each iteration; EM guarantees it never decreases
    (up to the small ridge added for conditioning; default 1e-6*trace/D).

    The rows are read once, into the within-speaker scatter S_w and, per
    distinct utterance count n, the number of speakers m_n and the scatter
    F_n of their sums (`_sufficient_stats`); every iteration then works on
    D x D matrices only. With J_n = Sigma_w + n Sigma_b, a speaker with n
    utterances has posterior covariance P_n = Sigma_b J_n^{-1} Sigma_w, and
    the posterior means of those speakers contribute Q_n = J_n^{-1} F_n J_n^{-1}:

        Sigma_b <- (sum_n m_n P_n + Sigma_b (sum_n Q_n) Sigma_b) / S
        Sigma_w <- (sum_n n m_n P_n + S_w + Sigma_w (sum_n Q_n / n) Sigma_w) / N

    The likelihood splits into within-speaker deviations ~ N(0, Sigma_w) and
    speaker means ~ N(0, Sigma_b + Sigma_w / n) (`_marginal_loglik`), so the
    factorization of each J_n that scores a model for the trace also serves
    the next E-step.
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
    stats = _sufficient_stats(xc, index, counts)
    distinct, n_spk = stats.counts[1:], stats.weights[1:]
    total_cov = (xc.T @ xc) / n
    if float(np.trace(total_cov)) < 1e-12 * d:
        raise NumericalError("degenerate data: zero total scatter")

    eye = np.eye(d)

    def _ridge_for(cov: np.ndarray) -> float:
        if ridge is not None:
            return float(ridge)
        return 1e-6 * float(np.trace(cov)) / d

    sigma_b = 0.5 * total_cov
    sigma_w = 0.5 * total_cov
    loglik, j_inv = _marginal_loglik(stats, sigma_b, sigma_w)
    trace = [loglik]
    f_scatter = stats.scatter[1:] * distinct[:, None, None]  # F_n
    # rows: the weights of sum_n m_n P_n and sum_n n m_n P_n over the J_n^{-1},
    # then of sum_n Q_n and sum_n Q_n / n over the Q_n
    p_weights = np.stack([n_spk, n_spk * distinct])
    q_weights = np.stack([np.ones_like(distinct), 1.0 / distinct])

    for _ in range(iters):
        p_b, p_w = np.einsum("ak,kij->aij", p_weights, j_inv)
        q_b, q_w = np.einsum("ak,kij->aij", q_weights, j_inv @ f_scatter @ j_inv)
        new_b = sigma_b @ (p_b @ sigma_w + q_b @ sigma_b) / counts.size
        new_w = (sigma_b @ p_w @ sigma_w + stats.scatter[0] + sigma_w @ q_w @ sigma_w) / n
        sigma_b = 0.5 * (new_b + new_b.T) + _ridge_for(new_b) * eye
        sigma_w = 0.5 * (new_w + new_w.T) + _ridge_for(new_w) * eye
        loglik, j_inv = _marginal_loglik(stats, sigma_b, sigma_w)
        trace.append(loglik)

    return PldaModel(mu=mu, sigma_b=sigma_b, sigma_w=sigma_w), trace


@dataclass(frozen=True, eq=False)
class PldaScorer:
    """A pair score as the quadratic form (L, G, c, k) of `score`: the
    generative PLDA log-likelihood ratio (`from_model`) and every NPLDA form
    trained from it. The form stores L symmetrized, so its score is
    symmetric in the pair; G must be symmetric already.
    """

    lam: np.ndarray  # (D, D) cross term, stored symmetrized
    gamma: np.ndarray  # (D, D) self term, symmetric
    c: np.ndarray  # (D,)
    k: float

    def __post_init__(self) -> None:
        lam, gamma, c = (np.asarray(a, dtype=np.float64) for a in (self.lam, self.gamma, self.c))
        k = float(self.k)
        if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(gamma))
                and np.all(np.isfinite(c)) and np.isfinite(k)):
            raise ValueError("non-finite quadratic-form parameters")
        _check_symmetric("gamma", gamma)
        object.__setattr__(self, "lam", 0.5 * (lam + lam.T))
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "k", k)

    @classmethod
    def from_model(cls, model: PldaModel) -> PldaScorer:
        """The PLDA log-likelihood ratio as a quadratic form, exactly.

        Same speaker: the centred pair [e; t] is jointly Gaussian with
        covariance [[T, B], [B, T]], T = Sigma_b + Sigma_w, B = Sigma_b;
        different speakers: two independent N(mu, T) draws. With the Schur
        complement S = T - B T^{-1} B the ratio is the form with
        L = S^{-1} B T^{-1}, G = (T^{-1} - S^{-1}) / 2, c = -(L + 2G) mu and
        k = (logdet T - logdet S) / 2 - mu^T c.
        """
        b = model.sigma_b
        t_cov = b + model.sigma_w
        try:
            t_inv = np.linalg.inv(t_cov)
            schur = t_cov - b @ t_inv @ b
            s_inv = np.linalg.inv(schur)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"non-invertible PLDA covariances: {exc}") from exc
        lam = s_inv @ b @ t_inv
        lam = 0.5 * (lam + lam.T)
        gamma = 0.5 * (t_inv - s_inv)
        gamma = 0.5 * (gamma + gamma.T)
        c = -(lam + 2.0 * gamma) @ model.mu
        k = 0.5 * (_logdet(t_cov) - _logdet(schur)) - float(model.mu @ c)
        return cls(lam, gamma, c, k)

    def score(self, e: np.ndarray, t: np.ndarray, e_rows, t_rows) -> np.ndarray:
        """s(e, t) = e^T L t + e^T G e + t^T G t + c^T (e + t) + k of each trial
        (e[e_rows[n]], t[t_rows[n]]) of the tables e (M, D) and t (U, D). Each
        table is projected once, to x L and x^T G x + c^T x per row, and each
        trial combines its two rows by a row-local product sum, so its score
        does not depend on the other trials in the call."""
        e = np.asarray(e, dtype=np.float64)
        t = np.asarray(t, dtype=np.float64)
        dim = self.c.shape[0]
        if e.ndim != 2 or t.ndim != 2 or e.shape[1] != dim or t.shape[1] != dim:
            raise ValueError(f"dimension mismatch: tables {e.shape} and {t.shape} vs (M, {dim})")

        def terms(x):  # x^T G x + c^T x of each row of a table
            return np.einsum("nd,nd->n", x @ self.gamma, x) + x @ self.c

        cross = np.einsum("nd,nd->n", (e @ self.lam)[e_rows], t[t_rows])
        return cross + terms(e)[e_rows] + terms(t)[t_rows] + self.k
