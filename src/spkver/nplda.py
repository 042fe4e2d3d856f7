"""Discriminative quadratic pair scorer initialized from generative PLDA.

Score form for a pair (e, t):

    s(e, t) = e^T L t + e^T G e + t^T G t + c^T (e + t) + k

with L symmetric, so the score is symmetric in its arguments. The
generative two-covariance log-likelihood ratio is exactly this form
(`backend.PldaScorer.from_model`); NPLDA starts from it, trains it and
returns it as the same type, `backend.PldaScorer`, whose `score` evaluates
it. Training is plain full-batch gradient descent on a differentiable
detection-cost surrogate over same-phrase pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from .backend import PldaScorer
from .metrics import DcfParams, min_dcf_details


@dataclass(frozen=True)
class NpldaTrainConfig:
    learning_rate: float = 5e-5
    epochs: int = 5
    alpha: float = 10.0  # sigmoid sharpness of the soft detection cost
    dcf: DcfParams = field(default_factory=DcfParams)

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")


def nplda_score(form: PldaScorer, e: np.ndarray, t: np.ndarray) -> np.ndarray:
    """`form.score(e, t)`: the NPLDA scores under their own name, which the
    benchmark's tracer times separately from the PLDA backend's."""
    return form.score(e, t)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def soft_detcost(
    scores: np.ndarray,
    labels: np.ndarray,
    theta: float,
    alpha: float,
    cost_params: DcfParams = DcfParams(),
) -> Tuple[float, np.ndarray, float]:
    """Differentiable normalized detection cost.

    P_miss and P_fa are replaced by sigmoid-smoothed counts with sharpness
    alpha around the threshold theta. Returns (loss, d_loss/d_scores,
    d_loss/d_theta); the gradients are exact.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    n_tar = int(labels.sum())
    n_non = int((~labels).sum())
    if n_tar == 0 or n_non == 0:
        raise ValueError("soft_detcost needs both target and nontarget scores")
    w_miss = cost_params.c_miss * cost_params.p_target
    w_fa = cost_params.c_fa * (1.0 - cost_params.p_target)
    denom = min(w_miss, w_fa)

    z_miss = alpha * (theta - scores[labels])
    z_fa = alpha * (scores[~labels] - theta)
    sig_miss = _sigmoid(z_miss)
    sig_fa = _sigmoid(z_fa)
    loss = (w_miss * float(sig_miss.mean()) + w_fa * float(sig_fa.mean())) / denom

    d_scores = np.zeros_like(scores)
    d_scores[labels] = -w_miss * alpha * sig_miss * (1.0 - sig_miss) / (n_tar * denom)
    d_scores[~labels] = w_fa * alpha * sig_fa * (1.0 - sig_fa) / (n_non * denom)
    d_theta = (
        w_miss * alpha * float((sig_miss * (1.0 - sig_miss)).mean())
        - w_fa * alpha * float((sig_fa * (1.0 - sig_fa)).mean())
    ) / denom
    return loss, d_scores, d_theta


@dataclass(frozen=True)
class NpldaTrainResult:
    params: PldaScorer
    theta: float
    loss_trace: tuple  # soft cost before training and after each epoch


def train_nplda(
    form: PldaScorer,
    enroll_vecs: np.ndarray,
    test_vecs: np.ndarray,
    labels: Sequence[bool],
    enroll_phrases: Sequence,
    test_phrases: Sequence,
    config: NpldaTrainConfig = NpldaTrainConfig(),
) -> NpldaTrainResult:
    """Full-batch gradient descent on the soft detection cost, from `form`
    to the trained form in the result's `params`.

    Every training pair must be same-phrase; a violating pair aborts before
    any update. theta is learned jointly, starting from the threshold that
    minimizes the generative minDCF on the initial scores.
    """
    e = np.atleast_2d(np.asarray(enroll_vecs, dtype=np.float64))
    t = np.atleast_2d(np.asarray(test_vecs, dtype=np.float64))
    lab = np.asarray(labels, dtype=bool)
    for i, (pe, pt) in enumerate(zip(enroll_phrases, test_phrases)):
        if pe != pt:
            raise ValueError(f"same-phrase constraint violated by training pair {i}")
    if lab.all() or not lab.any():
        raise ValueError("training pairs must include both classes")

    lam, gamma, c, k = form.lam.copy(), form.gamma.copy(), form.c.copy(), form.k

    def score_now() -> np.ndarray:
        return nplda_score(PldaScorer(lam, gamma, c, k), e, t)

    scores = score_now()
    _, theta = min_dcf_details(scores, lab, config.dcf)
    if not np.isfinite(theta):
        theta = float(np.median(scores))

    # each scoring yields the trace entry and the next epoch's gradients
    loss, d_scores, d_theta = soft_detcost(scores, lab, theta, config.alpha, config.dcf)
    trace = [loss]
    lr = config.learning_rate
    for _ in range(config.epochs):
        # d score / d params, accumulated over the batch
        de = d_scores[:, None] * e
        dt = d_scores[:, None] * t
        d_lam = 0.5 * (de.T @ t + dt.T @ e)
        d_gamma = de.T @ e + dt.T @ t
        d_gamma = 0.5 * (d_gamma + d_gamma.T)
        d_c = (de + dt).sum(axis=0)
        d_k = float(d_scores.sum())
        lam -= lr * d_lam
        gamma -= lr * d_gamma
        c -= lr * d_c
        k -= lr * d_k
        theta -= lr * d_theta
        loss, d_scores, d_theta = soft_detcost(score_now(), lab, theta, config.alpha, config.dcf)
        trace.append(loss)

    return NpldaTrainResult(
        params=PldaScorer(lam=lam, gamma=gamma, c=c, k=k),
        theta=theta,
        loss_trace=tuple(trace),
    )
