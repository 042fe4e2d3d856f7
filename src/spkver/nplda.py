"""Discriminative quadratic pair scorer initialized from generative PLDA.

Score form for a pair (e, t):

    s(e, t) = e^T L t + e^T G e + t^T G t + c^T (e + t) + k

with L symmetric, so the score is symmetric in its arguments. The
generative two-covariance log-likelihood ratio is exactly this form
(`backend.PldaScorer.from_model`). NPLDA starts from the PLDA trained on
all the data (Ramoji, Krishnan & Ganapathy, Odyssey 2020), fine-tunes it
once per phrase and returns each result as a `backend.PldaScorer`. Training
is full-batch gradient descent on a differentiable detection-cost surrogate
over same-phrase pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence, Tuple

import numpy as np

from .backend import PldaScorer
from .metrics import DcfParams, min_dcf_details

if TYPE_CHECKING:
    from .config import PipelineConfig


def nplda_score(form: PldaScorer, e: np.ndarray, t: np.ndarray, e_rows, t_rows) -> np.ndarray:
    """`form.score(e, t, e_rows, t_rows)`: the NPLDA scores under their own
    name, which the benchmark's tracer times separately from the PLDA backend's."""
    return form.score(e, t, e_rows, t_rows)


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
    w_miss, w_fa, denom = cost_params.cost_weights()

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
    enroll: np.ndarray,
    test: np.ndarray,
    enroll_rows: np.ndarray,
    test_rows: np.ndarray,
    labels: Sequence[bool],
    enroll_phrases: Sequence,
    test_phrases: Sequence,
    cfg: PipelineConfig,
) -> NpldaTrainResult:
    """Full-batch gradient descent on the soft detection cost, from `form`
    to the trained form in the result's `params`: cfg.nplda_epochs steps of
    size cfg.nplda_lr, sigmoid sharpness cfg.nplda_alpha, at the operating
    point cfg.dcf_params(). Training pair n is (enroll[enroll_rows[n]],
    test[test_rows[n]]), rows of the enroll and test tables.

    Every training pair must be same-phrase; a violating pair aborts before
    any update. theta is learned jointly, starting from the threshold that
    minimizes the generative minDCF on the initial scores.
    """
    lab = np.asarray(labels, dtype=bool)
    for i, (pe, pt) in enumerate(zip(enroll_phrases, test_phrases)):
        if pe != pt:
            raise ValueError(f"same-phrase constraint violated by training pair {i}")
    if lab.all() or not lab.any():
        raise ValueError("training pairs must include both classes")
    # only the table rows the pairs use: each epoch projects both tables
    e_used, e_rows = np.unique(enroll_rows, return_inverse=True)
    t_used, t_rows = np.unique(test_rows, return_inverse=True)
    e, t = enroll[e_used], test[t_used]

    lam, gamma, c, k = form.lam.copy(), form.gamma.copy(), form.c.copy(), form.k

    def score_now() -> np.ndarray:
        return nplda_score(PldaScorer(lam, gamma, c, k), e, t, e_rows, t_rows)

    dcf = cfg.dcf_params()
    scores = score_now()
    _, theta = min_dcf_details(scores, lab, dcf)
    if not np.isfinite(theta):
        theta = float(np.median(scores))

    # each scoring yields the trace entry and the next epoch's gradients
    loss, d_scores, d_theta = soft_detcost(scores, lab, theta, cfg.nplda_alpha, dcf)
    trace = [loss]
    lr = cfg.nplda_lr
    for _ in range(cfg.nplda_epochs):
        # d score / d params, summed over the pairs per table row: a row
        # weighted by its pairs' d_scores, and the cross term by their test rows
        w_e = np.bincount(e_rows, d_scores, minlength=len(e))
        w_t = np.bincount(t_rows, d_scores, minlength=len(t))
        paired = np.zeros_like(e)
        np.add.at(paired, e_rows, d_scores[:, None] * t[t_rows])
        d_lam = e.T @ paired
        d_lam = 0.5 * (d_lam + d_lam.T)
        d_gamma = (w_e[:, None] * e).T @ e + (w_t[:, None] * t).T @ t
        d_gamma = 0.5 * (d_gamma + d_gamma.T)
        lam -= lr * d_lam
        gamma -= lr * d_gamma
        c -= lr * (w_e @ e + w_t @ t)
        k -= lr * float(d_scores.sum())
        theta -= lr * d_theta
        loss, d_scores, d_theta = soft_detcost(score_now(), lab, theta, cfg.nplda_alpha, dcf)
        trace.append(loss)

    return NpldaTrainResult(
        params=PldaScorer(lam=lam, gamma=gamma, c=c, k=k),
        theta=theta,
        loss_trace=tuple(trace),
    )
