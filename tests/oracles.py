"""Independent reference implementations used as test oracles.

These are deliberately written in the most literal way possible (explicit
loops, recursion, exhaustive sweeps) and stay independent of the library
code paths they are used to check.
"""

from __future__ import annotations

import copy
import itertools
import math
from functools import lru_cache
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from spkver.core import NumericalError
from spkver.extractor import (
    AamHead,
    Ge2eParams,
    TrainResult,
    aam_loss,
    ge2e_loss,
    lr_schedule,
)
from spkver.core import Language, Metas, PhraseInventory, TrialLabel, Trials
from spkver.metrics import DcfParams, FusionWeights, eer, grid_divisions, min_dcf_details
from spkver.backend import PldaScorer
from spkver.nplda import soft_detcost
from spkver.norm import NormStats, as_norm, cohort_stats
from spkver.synthgen import SynthCorpus, TrialProtocol, _gen_reference_texts, gen_transcript


class UttMeta(NamedTuple):
    """One utterance's labels: the row form of `Metas`, which the oracles
    that walk utterances one at a time iterate."""

    utt_id: str
    speaker_id: str
    phrase_id: Optional[str]
    language: Language
    transcript: Optional[str] = None


def meta_rows(metas: Metas) -> list:
    """The rows of `Metas` columns, one UttMeta per utterance."""
    return [UttMeta(*row) for row in zip(*metas)]


def sweep_points(tgt, non):
    """(threshold, miss, fa) at every candidate under accept-if >= threshold."""
    cands = [-math.inf] + sorted(set(list(tgt) + list(non))) + [math.inf]
    points = []
    for th in cands:
        miss = sum(1 for s in tgt if s < th) / len(tgt)
        fa = sum(1 for s in non if s >= th) / len(non)
        points.append((th, miss, fa))
    return points


def eer_bruteforce(tgt, non) -> float:
    points = sweep_points(tgt, non)
    for i in range(len(points)):
        _, miss, fa = points[i]
        if miss >= fa:
            if miss == fa:
                return miss
            _, m0, f0 = points[i - 1]
            t = (f0 - m0) / ((f0 - m0) - (fa - miss))
            return m0 + t * (miss - m0)
    raise AssertionError("no crossing found")


def min_dcf_bruteforce(tgt, non, p_target=0.01, c_miss=10.0, c_fa=1.0) -> float:
    w_miss = c_miss * p_target
    w_fa = c_fa * (1.0 - p_target)
    best = math.inf
    for _, miss, fa in sweep_points(tgt, non):
        cost = (w_miss * miss + w_fa * fa) / min(w_miss, w_fa)
        best = min(best, cost)
    return best


def levenshtein_recursive(a: str, b: str) -> int:
    @lru_cache(maxsize=None)
    def dist(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            dist(i - 1, j) + 1,
            dist(i, j - 1) + 1,
            dist(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
        )

    return dist(len(a), len(b))


def levenshtein_loop(a: str, b: str) -> int:
    """Two-row Wagner-Fischer DP, one character pair at a time: the form
    that the batched `metrics._edit_distances` replaced."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def classify_phrase_literal(transcript: str, inventory) -> str:
    """Phrase whose reference text minimizes edit distance to the transcript,
    one inventory entry at a time; ties go to the first entry."""
    if not inventory.phrase_ids:
        raise ValueError("empty phrase inventory")
    best_id, best_dist = None, None
    for phrase_id, text in zip(inventory.phrase_ids, inventory.texts):
        dist = levenshtein_loop(transcript, text)
        if best_dist is None or dist < best_dist:
            best_id, best_dist = phrase_id, dist
    return best_id


# ---------------------------------------------------------------------------
# scores as {trial_id: score} dicts, keys as {trial_id: TrialLabel}: the
# per-trial forms that the row-aligned array metrics replaced


def split_scores_literal(scores: Mapping[str, float], keys: Mapping[str, TrialLabel]):
    """Split a score dict into (target, nontarget) arrays, in dict order."""
    tgt, non = [], []
    for trial_id, score in scores.items():
        if trial_id not in keys:
            raise ValueError(f"scored trial {trial_id} has no key")
        if not np.isfinite(score):
            raise ValueError(f"non-finite score for trial {trial_id}")
        (tgt if keys[trial_id].is_target else non).append(float(score))
    return np.asarray(tgt, dtype=np.float64), np.asarray(non, dtype=np.float64)


def _targets_first(scores, keys):
    tgt, non = split_scores_literal(scores, keys)
    return np.concatenate([tgt, non]), np.arange(tgt.size + non.size) < tgt.size


def eer_dict(scores, keys) -> float:
    """EER of a score dict, its targets ahead of its nontargets."""
    return eer(*_targets_first(scores, keys))


def min_dcf_dict(scores, keys, params: DcfParams):
    """(minDCF, threshold) of a score dict, its targets ahead of its nontargets."""
    return min_dcf_details(*_targets_first(scores, keys), params)


def aligned_literal(score_sets: Sequence[Mapping[str, float]]):
    """The first set's trial ids, and every set's scores in that order as a
    (systems, N) matrix; ValueError unless all sets hold the same trials."""
    ids = list(score_sets[0])
    id_set = set(ids)
    if any(set(s) != id_set for s in score_sets[1:]):
        raise ValueError("trial-id mismatch between fused score sets")
    return ids, np.asarray([[s[t] for t in ids] for s in score_sets], dtype=np.float64)


def fuse_dict(score_sets, weights: FusionWeights) -> dict:
    """Per-trial weighted sum, added up left to right over the systems."""
    if len(score_sets) != len(weights):
        raise ValueError("one weight per score set required")
    ids, _ = aligned_literal(score_sets)
    out = {}
    for trial_id in ids:
        total = 0.0
        for w, s in zip(weights.weights, score_sets):
            total += w * s[trial_id]
        out[trial_id] = total
    return out


def apply_phrase_filter_dict(scores, trials, classified_phrase, floor: float) -> dict:
    """Floor the score of every trial whose classified test phrase mismatches
    the claimed phrase, one trial at a time."""
    by_id = {t: (u, c) for t, u, c in zip(trials.ids, trials.test_ids, trials.claimed)}
    out = {}
    for trial_id, score in scores.items():
        if trial_id not in by_id:
            raise ValueError(f"scored trial {trial_id} not in trial list")
        test_id, claimed = by_id[trial_id]
        if claimed is None:
            raise ValueError(f"trial {trial_id} has no claimed phrase")
        if test_id not in classified_phrase:
            raise ValueError(f"no phrase classification for utterance {test_id}")
        if classified_phrase[test_id] != claimed:
            out[trial_id] = float(floor)
        else:
            out[trial_id] = float(score)
    return out


def check_gradients(fn, arrays: dict, analytic: dict, step: float = 1e-5,
                    rtol: float = 1e-4) -> None:
    """Central finite differences of the scalar fn(arrays) vs analytic grads.

    fn receives the (mutated) dict and returns a scalar. Every entry of
    every array named in `analytic` is perturbed; comparison is relative
    with a small absolute floor for near-zero components.
    """
    for name, grad in analytic.items():
        base = np.array(arrays[name], dtype=np.float64, copy=True)
        grad = np.asarray(grad, dtype=np.float64)
        flat_grad = np.atleast_1d(grad).ravel()
        work = base.copy()
        flat = work.reshape(-1) if work.ndim else work.reshape(1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + step
            arrays[name] = work if work.ndim else float(work)
            f_plus = fn(arrays)
            flat[idx] = orig - step
            arrays[name] = work if work.ndim else float(work)
            f_minus = fn(arrays)
            flat[idx] = orig
            fd = (f_plus - f_minus) / (2.0 * step)
            an = float(flat_grad[idx])
            denom = max(abs(fd), abs(an), 1e-3)
            assert abs(fd - an) <= rtol * denom, (
                f"gradient mismatch for {name}[{idx}]: fd={fd} analytic={an}"
            )
        arrays[name] = base if base.ndim else float(base)


def auc_by_sorting(pos, neg) -> float:
    """Probability a random positive outranks a random negative (ties 0.5)."""
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def cohort_stats_literal(anchor, cohort, scorer, n_top, language_filter=None):
    """Per-anchor AS-norm statistics, one scalar scorer call per cohort entry.

    The trial-at-a-time form that batched `norm.cohort_stats` replaced.
    Returns (mu, sigma): mean and population standard deviation of the
    anchor's top-N cohort scores.
    """
    if n_top < 2:
        raise ValueError("n_top must be >= 2")
    rows = [vec for vec, lang in zip(cohort.x, cohort.languages)
            if language_filter is None or lang is language_filter]
    if len(rows) < n_top:
        raise ValueError(
            f"cohort has {len(rows)} usable entries after filtering, need {n_top}"
        )
    scores = np.asarray([float(scorer(anchor, vec)) for vec in rows], dtype=np.float64)
    top = np.sort(scores)[-n_top:]
    mu = float(top.mean())
    sigma = float(top.std())
    if sigma == 0.0:
        raise ArithmeticError(f"zero variance among top cohort scores (mu={mu})")
    return mu, sigma


def as_norm_literal(raw_scores, enroll_vecs, test_vecs, cohort, scorer, n_top,
                    test_languages=None):
    """AS-norm one trial at a time; with test_languages, each trial's
    enroll-side cohort is restricted to its test language."""
    out = []
    for i, (raw, e, t) in enumerate(zip(raw_scores, enroll_vecs, test_vecs)):
        lang = None if test_languages is None else test_languages[i]
        mu_e, sigma_e = cohort_stats_literal(e, cohort, scorer, n_top, lang)
        mu_t, sigma_t = cohort_stats_literal(t, cohort, scorer, n_top, None)
        out.append((raw - mu_t) / sigma_t + (raw - mu_e) / sigma_e)
    return out


def language_dependent_as_norm_per_trial(raw_scores, enroll_vecs, test_vecs, cohort, scorer,
                                        n_top, test_languages):
    """`norm.language_dependent_as_norm` with every trial's anchor rows in
    its cohort_stats calls, repeats included: one call per test language on
    the enroll side, one on the test side, each over all rows of its trials."""
    enroll_vecs = np.asarray(enroll_vecs, dtype=np.float64)
    langs = np.broadcast_to(np.asarray(test_languages, dtype=object), enroll_vecs.shape[:-1])
    mu, sigma = np.empty(langs.shape), np.empty(langs.shape)
    for lang in dict.fromkeys(langs.flat):
        rows = langs == lang
        stats = cohort_stats(enroll_vecs[rows], cohort, scorer, n_top, language_filter=lang)
        mu[rows], sigma[rows] = stats.mu, stats.sigma
    test_stats = cohort_stats(test_vecs, cohort, scorer, n_top, language_filter=None)
    return as_norm(raw_scores, NormStats(mu, sigma), test_stats)


def _plda_logdet_chol(mat):
    chol = np.linalg.cholesky(mat)
    return 2.0 * float(np.sum(np.log(np.diag(chol)))), chol


def _plda_chol_quad(chol, x):
    z = np.linalg.solve(chol, x.T)
    return np.sum(z * z, axis=0)


def plda_llr_joint_literal(model, e, t):
    """Two-covariance PLDA log-likelihood ratio through the stacked pair.

    The form that the quadratic expansion of `backend.PldaScorer.from_model`
    replaced. Same speaker: [e; t] - [mu; mu] ~ N(0, [[T, B], [B, T]]) with
    B = Sigma_b, T = Sigma_b + Sigma_w, scored with a Cholesky factor of the
    2D x 2D joint covariance; different speakers: two independent N(mu, T)
    draws.
    Takes (N, D) rows and returns (N,) scores.
    """
    e = np.atleast_2d(np.asarray(e, dtype=np.float64)) - model.mu
    t = np.atleast_2d(np.asarray(t, dtype=np.float64)) - model.mu
    d = model.mu.shape[0]
    t_cov = model.sigma_b + model.sigma_w
    joint = np.block([[t_cov, model.sigma_b], [model.sigma_b, t_cov]])
    ldet_t, chol_t = _plda_logdet_chol(t_cov)
    ldet_j, chol_j = _plda_logdet_chol(joint)
    log_2pi = math.log(2.0 * math.pi)
    stacked = np.concatenate([e, t], axis=1)
    log_same = -0.5 * (2 * d * log_2pi + ldet_j + _plda_chol_quad(chol_j, stacked))
    log_diff = -0.5 * (2 * d * log_2pi + 2 * ldet_t
                       + _plda_chol_quad(chol_t, e) + _plda_chol_quad(chol_t, t))
    return log_same - log_diff


def plda_marginal_loglik_literal(x, labels, sigma_b, sigma_w, mu):
    """Two-covariance PLDA marginal log-likelihood, one speaker at a time.

    The per-speaker form that the count-grouped `backend._marginal_loglik`
    replaced: per speaker, a Cholesky factorisation of Sigma_w + n Sigma_b
    and a solve for the coupling term.
    """
    d = x.shape[1]
    xc = x - mu
    ldet_w, chol_w = _plda_logdet_chol(sigma_w)
    w_inv = np.linalg.inv(sigma_w)
    total = 0.0
    for spk in np.unique(labels):
        rows = xc[labels == spk]
        n = rows.shape[0]
        f = rows.sum(axis=0)
        ldet_m, chol_m = _plda_logdet_chol(sigma_w + n * sigma_b)
        quad = float(np.sum(_plda_chol_quad(chol_w, rows)))
        # coupling term: f^T (Sigma_w + n Sigma_b)^{-1} Sigma_b Sigma_w^{-1} f
        coup = float(f @ np.linalg.solve(sigma_w + n * sigma_b, sigma_b @ w_inv @ f))
        total += -0.5 * (n * d * math.log(2.0 * math.pi) + (n - 1) * ldet_w + ldet_m
                         + quad - coup)
    return total


def plda_em_literal(embeddings, speaker_labels, iters=20, ridge=None):
    """Two-covariance PLDA EM with one posterior inverse per speaker.

    The per-speaker form that the count-grouped `backend.plda_em_train`
    replaced, without its input checks. Returns ((mu, sigma_b, sigma_w),
    log-likelihood trace).
    """
    x = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(speaker_labels)
    uniq, counts = np.unique(labels, return_counts=True)
    n, d = x.shape

    mu = x.mean(axis=0)
    xc = x - mu
    total_cov = (xc.T @ xc) / n

    def _ridge_for(cov):
        if ridge is not None:
            return float(ridge)
        return 1e-6 * float(np.trace(cov)) / d

    sigma_b = 0.5 * total_cov
    sigma_w = 0.5 * total_cov
    trace = [plda_marginal_loglik_literal(x, labels, sigma_b, sigma_w, mu)]

    groups = [(xc[labels == spk], int(cnt)) for spk, cnt in zip(uniq, counts)]
    for _ in range(iters):
        b_inv = np.linalg.inv(sigma_b)
        w_inv = np.linalg.inv(sigma_w)
        acc_b = np.zeros((d, d))
        acc_w = np.zeros((d, d))
        for rows, cnt in groups:
            post_cov = np.linalg.inv(b_inv + cnt * w_inv)
            post_mean = post_cov @ (w_inv @ rows.sum(axis=0))
            acc_b += post_cov + np.outer(post_mean, post_mean)
            resid = rows - post_mean
            acc_w += resid.T @ resid + cnt * post_cov
        sigma_b = acc_b / len(groups)
        sigma_w = acc_w / n
        sigma_b = 0.5 * (sigma_b + sigma_b.T) + _ridge_for(sigma_b) * np.eye(d)
        sigma_w = 0.5 * (sigma_w + sigma_w.T) + _ridge_for(sigma_w) * np.eye(d)
        trace.append(plda_marginal_loglik_literal(x, labels, sigma_b, sigma_w, mu))

    return (mu, sigma_b, sigma_w), trace


def log_softmax_literal(logits):
    """The row-wise log-softmax, with a fresh array for every intermediate."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def cosine_backward_literal(d_cos, cos, a, b, na, nb):
    """The gradients of sum(d_cos * cos(a_i, b_j)) on a and b, with a fresh
    array for every intermediate; cos is left as given."""
    d_cos_cos = d_cos * cos
    sum_a, sum_b = d_cos_cos.sum(axis=1), d_cos_cos.sum(axis=0)
    d_a = ((d_cos / nb[None, :]) @ b) / na[:, None] - (sum_a / na**2)[:, None] * a
    d_b = ((d_cos / na[:, None]).T @ a) / nb[:, None] - (sum_b / nb**2)[:, None] * b
    return d_a, d_b


def aam_loss_literal(embeddings, labels, head):
    """`extractor.aam_loss` with a fresh array for every intermediate:
    (loss, d_embeddings, d_weights) of the margin softmax over cosine logits,
    with the linear fallback where theta + m would exceed pi."""
    e = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    y = np.asarray(labels, dtype=int)
    n = e.shape[0]
    rows = np.arange(n)
    ne = np.linalg.norm(e, axis=1)
    nw = np.linalg.norm(head.weights, axis=1)
    cos = (e @ head.weights.T) / np.outer(ne, nw)
    cos_m, sin_m = np.cos(head.margin), np.sin(head.margin)
    tc = np.clip(cos[rows, y], -1.0, 1.0)
    sin_theta = np.sqrt(np.maximum(1.0 - tc**2, 0.0))
    easy = tc > -cos_m
    phi = np.where(easy, tc * cos_m - sin_theta * sin_m, tc - head.margin * sin_m)
    dphi = np.where(easy, cos_m + sin_m * tc / np.maximum(sin_theta, 1e-12), 1.0)
    logits = head.scale * cos
    logits[rows, y] = head.scale * phi
    logp = log_softmax_literal(logits)
    loss = float(-logp[rows, y].mean())
    d_logits = np.exp(logp)
    d_logits[rows, y] -= 1.0
    d_logits /= n
    d_cos = head.scale * d_logits
    d_cos[rows, y] *= dphi
    d_e, d_w = cosine_backward_literal(d_cos, cos, e, head.weights, ne, nw)
    return loss, d_e, d_w


def _cos_pair(a: np.ndarray, b: np.ndarray):
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise NumericalError("zero-norm vector in GE2E similarity")
    return float(a @ b) / (na * nb), na, nb


def ge2e_loss_literal(embeddings, params):
    """Contrastive loss over an (S speakers x U utterances x D) batch.

    The S x U x S loop form that whole-array `extractor.ge2e_loss` replaced;
    `params` needs only the similarity scale `w` and bias `b`.

    Similarity of utterance (s, u) to speaker k's centroid is w*cos + b,
    where the own-speaker centroid excludes utterance (s, u) itself. Each
    utterance is classified against its own speaker with softmax
    cross-entropy. Returns (loss, d_embeddings, d_w, d_b), exact gradients
    including the exclusion term.
    """
    e = np.asarray(embeddings, dtype=np.float64)
    if e.ndim != 3:
        raise ValueError("expected (S, U, D) embeddings")
    s_n, u_n, _ = e.shape
    if s_n < 2 or u_n < 2:
        raise ValueError("GE2E needs at least 2 speakers and 2 utterances each")

    sums = e.sum(axis=1)  # (S, D)
    full_cent = sums / u_n

    # forward: similarity matrix over (utterance, candidate speaker)
    cos = np.zeros((s_n, u_n, s_n))
    cents = np.zeros((s_n, u_n, s_n, e.shape[2]))
    for s in range(s_n):
        for u in range(u_n):
            for k in range(s_n):
                cent = (sums[s] - e[s, u]) / (u_n - 1) if k == s else full_cent[k]
                cents[s, u, k] = cent
                cos[s, u, k], _, _ = _cos_pair(e[s, u], cent)
    sims = params.w * cos + params.b
    flat = sims.reshape(s_n * u_n, s_n)
    logp = log_softmax_literal(flat)
    own = np.repeat(np.arange(s_n), u_n)
    loss = float(-logp[np.arange(s_n * u_n), own].mean())

    d_sims = np.exp(logp)
    d_sims[np.arange(s_n * u_n), own] -= 1.0
    d_sims = (d_sims / (s_n * u_n)).reshape(s_n, u_n, s_n)

    d_w = float((d_sims * cos).sum())
    d_b = float(d_sims.sum())
    d_cos = params.w * d_sims

    d_e = np.zeros_like(e)
    for s in range(s_n):
        for u in range(u_n):
            a = e[s, u]
            na = float(np.linalg.norm(a))
            for k in range(s_n):
                g = d_cos[s, u, k]
                if g == 0.0:
                    continue
                cent = cents[s, u, k]
                nc = float(np.linalg.norm(cent))
                if na == 0.0 or nc == 0.0:
                    raise NumericalError("zero-norm vector in GE2E similarity")
                cos_v = cos[s, u, k]
                d_e[s, u] += g * (cent / (na * nc) - cos_v * a / na**2)
                d_cent = g * (a / (na * nc) - cos_v * cent / nc**2)
                if k == s:
                    for v in range(u_n):
                        if v != u:
                            d_e[s, v] += d_cent / (u_n - 1)
                else:
                    d_e[k] += d_cent / u_n
    return loss, d_e, d_w, d_b


def _simplex_grid(n_systems: int, grid_step: float):
    """All weight vectors on the simplex grid, lexicographically ascending."""
    n = grid_divisions(grid_step)
    for parts in itertools.product(range(n + 1), repeat=n_systems):
        if sum(parts) == n:
            yield tuple(p / n for p in parts)


def tune_weights_literal(dev_sets, dev_keys, params: DcfParams, grid_step: float):
    """Exhaustive simplex-grid search for the dev-minDCF-minimizing weights.

    The one-weight-vector-at-a-time form that the one-sweep
    `metrics.tune_weights` replaced: it fuses, scores minDCF and scores EER
    once per grid point through the dict forms `fuse_dict`, `min_dcf_dict`
    and `eer_dict`.

    Ties break on (a) lower dev EER, then (b) the lexicographically smallest
    weight vector. The simplex corners are always in the grid, so the result
    never underperforms the best single system on the dev set.
    """
    if not dev_sets:
        raise ValueError("tune_weights needs at least one system")
    if len(dev_sets) == 1:
        return FusionWeights((1.0,))
    best = None
    for raw in _simplex_grid(len(dev_sets), grid_step):
        w = FusionWeights(raw)
        fused = fuse_dict(dev_sets, w)
        cost = min_dcf_dict(fused, dev_keys, params)[0]
        err = eer_dict(fused, dev_keys)
        if best is None or (cost, err) < (best[0], best[1]):
            best = (cost, err, w)
    return best[2]


def nplda_training_pairs_literal(protocol, ids, x, metas, phrases):
    """The pairs each phrase's NPLDA training sees, selected trial by trial.

    Returns phrase -> (enroll, test, labels, claimed phrases, spoken phrases)
    for every phrase with at least 4 same-phrase trials of both classes; the
    other phrases keep their generative init and are absent.
    """
    vec_of = dict(zip(ids, x))
    meta_of = {m.utt_id: m for m in meta_rows(metas)}
    label_of = dict(zip(protocol.trials.ids, protocol.labels))
    centroid_of = {}
    for mid, utts in protocol.enroll_map.items():
        mean = np.mean([vec_of[u] for u in utts], axis=0)
        centroid_of[mid] = mean / np.linalg.norm(mean)
    trials = list(zip(*protocol.trials))  # (trial id, model id, test id, claimed phrase)
    out = {}
    for phrase in phrases:
        rows = [
            (t, m, u, c) for t, m, u, c in trials
            if c == phrase and meta_of[u].phrase_id == phrase
        ]
        labels = [label_of[t].is_target for t, _, _, _ in rows]
        if len(rows) < 4 or all(labels) or not any(labels):
            continue
        out[phrase] = (
            np.stack([centroid_of[m] for _, m, _, _ in rows]),
            np.stack([vec_of[u] for _, _, u, _ in rows]),
            labels,
            [c for _, _, _, c in rows],
            [meta_of[u].phrase_id for _, _, u, _ in rows],
        )
    return out


def cosine_score_broadcast(e, t):
    """Inner product over the product of norms, as `backend.cosine_score`
    computed it before it took tables and rows: a broadcasting pair scorer,
    `e` and `t` of shapes (..., D) broadcast to scores of shape (...)."""
    e = np.asarray(e, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if e.shape[-1] != t.shape[-1]:
        raise ValueError(f"dimension mismatch: {e.shape} vs {t.shape}")
    ne = np.sqrt(np.einsum("...d,...d->...", e, e))
    nt = np.sqrt(np.einsum("...d,...d->...", t, t))
    if not (np.all(ne > 0.0) and np.all(nt > 0.0)):
        raise NumericalError("cosine of a zero vector is undefined")
    return np.einsum("...d,...d->...", e, t) / (ne * nt)


def plda_score_broadcast(form, e, t):
    """s(e, t) = e^T L t + e^T G e + t^T G t + c^T (e + t) + k under the
    form (L, G, c, k) of a `PldaScorer`, as its `score` computed it before
    it took tables and rows: a broadcasting pair scorer, `e` and `t` of
    shapes (..., D) broadcast to scores of shape (...)."""
    e = np.asarray(e, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    cross = np.sum((e @ form.lam) * t, axis=-1)
    self_e = np.sum((e @ form.gamma) * e, axis=-1)
    self_t = np.sum((t @ form.gamma) * t, axis=-1)
    return cross + self_e + self_t + (e + t) @ form.c + form.k


def train_nplda_literal(params, enroll_vecs, test_vecs, labels, cfg):
    """NPLDA gradient descent that scores the batch twice per epoch.

    The form that `nplda.train_nplda` replaced, without its input checks,
    on row-aligned (N, D) enroll and test vectors: each epoch rescores the
    batch for its gradients, then again after the update for the trace, and
    sums the gradients over the pairs. Returns (trained form, theta, loss
    trace).
    """
    e = np.atleast_2d(np.asarray(enroll_vecs, dtype=np.float64))
    t = np.atleast_2d(np.asarray(test_vecs, dtype=np.float64))
    lab = np.asarray(labels, dtype=bool)
    lam, gamma, c, k = params.lam.copy(), params.gamma.copy(), params.c.copy(), params.k

    def score_now():
        return plda_score_broadcast(PldaScorer(lam, gamma, c, k), e, t)

    dcf = cfg.dcf_params()
    scores = score_now()
    _, theta = min_dcf_details(np.concatenate([scores[lab], scores[~lab]]),
                               np.arange(lab.size) < lab.sum(), dcf)
    if not np.isfinite(theta):
        theta = float(np.median(scores))
    loss0, _, _ = soft_detcost(scores, lab, theta, cfg.nplda_alpha, dcf)
    trace = [loss0]
    lr = cfg.nplda_lr
    for _ in range(cfg.nplda_epochs):
        scores = score_now()
        _, d_scores, d_theta = soft_detcost(scores, lab, theta, cfg.nplda_alpha, dcf)
        de = d_scores[:, None] * e
        dt = d_scores[:, None] * t
        d_lam = 0.5 * (de.T @ t + dt.T @ e)
        d_gamma = de.T @ e + dt.T @ t
        d_gamma = 0.5 * (d_gamma + d_gamma.T)
        lam -= lr * d_lam
        gamma -= lr * d_gamma
        c -= lr * (de + dt).sum(axis=0)
        k -= lr * float(d_scores.sum())
        theta -= lr * d_theta
        loss, _, _ = soft_detcost(score_now(), lab, theta, cfg.nplda_alpha, dcf)
        trace.append(loss)
    return PldaScorer(lam, gamma, c, k), theta, tuple(trace)


# The per-strategy losses and the PCT epoch loop that `heads_loss` and
# `train`'s one step body replaced, kept as they were.


def spk_plus_phrase_loss(
    embeddings: np.ndarray,
    spk_labels: Sequence[int],
    phrase_labels: Optional[Sequence[int]],
    spk_head: AamHead,
    phrase_head: AamHead,
    multitask_weight: float = 1.0,
):
    """Joint speaker + phrase classification: L_spk + weight * L_phrase."""
    if phrase_labels is None:
        raise ValueError("speaker+phrase training requires phrase labels")
    l_spk, de_spk, dw_spk = aam_loss(embeddings, spk_labels, spk_head)
    l_phr, de_phr, dw_phr = aam_loss(embeddings, phrase_labels, phrase_head)
    loss = l_spk + multitask_weight * l_phr
    d_e = de_spk + multitask_weight * de_phr
    return loss, d_e, dw_spk, multitask_weight * dw_phr


def product_label(spk_index: int, phrase_index: int, n_phrases: int) -> int:
    """Combined class index for the speaker x phrase label space."""
    if n_phrases < 1:
        raise ValueError("n_phrases must be positive")
    if spk_index < 0:
        raise ValueError("speaker index out of range")
    if not 0 <= phrase_index < n_phrases:
        raise ValueError("phrase index out of range")
    return spk_index * n_phrases + phrase_index


def pmt_loss(
    embeddings: np.ndarray,
    spk_labels: Sequence[int],
    phrase_labels: Sequence,
    heads: Mapping,
):
    """Route each utterance through the speaker head of its phrase.

    The loss is the mean over the whole batch; gradients flow only to each
    utterance's own head. Returns (loss, d_embeddings, {phrase: d_weights}).
    """
    e = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    y = np.asarray(spk_labels, dtype=int)
    phr = list(phrase_labels)
    for p in phr:
        if p not in heads:
            raise ValueError(f"no classification head for phrase {p!r}")
    n = e.shape[0]
    loss = 0.0
    d_e = np.zeros_like(e)
    d_heads = {}
    for p in dict.fromkeys(phr):
        idx = np.asarray([i for i, q in enumerate(phr) if q == p], dtype=int)
        part, de_p, dw_p = aam_loss(e[idx], y[idx], heads[p])
        weight = idx.size / n
        loss += weight * part
        d_e[idx] += weight * de_p
        d_heads[p] = weight * dw_p
    return loss, d_e, d_heads


def pct_loss_literal(
    embeddings: np.ndarray,
    spk_labels: Sequence,
    phrase_labels: Sequence,
    spk_head: AamHead,
    ge2e_params: Ge2eParams,
    contrastive_weight: float = 1.0,
):
    """Margin softmax plus weighted GE2E over one same-phrase batch.

    The batch must hold exactly two utterances for each of >= 2 speakers and
    a single phrase; violations raise before anything is computed. Speaker
    labels index the margin-softmax head. Returns
    (loss, d_embeddings, d_head_weights, d_ge2e_w, d_ge2e_b).
    """
    e = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    phr = list(phrase_labels)
    if len(set(phr)) != 1:
        raise ValueError("same-phrase constraint violated")
    spk = list(spk_labels)
    order = list(dict.fromkeys(spk))
    positions = {s: [i for i, q in enumerate(spk) if q == s] for s in order}
    if any(len(p) != 2 for p in positions.values()):
        raise ValueError("PCT batches need exactly two utterances per speaker")
    if len(order) < 2:
        raise ValueError("PCT batches need at least two speakers")

    loss_a, d_e, d_head = aam_loss(e, spk, spk_head)
    if contrastive_weight == 0.0:
        return loss_a, d_e, d_head, 0.0, 0.0

    grouped = np.asarray([positions[s] for s in order])  # (S, 2) batch rows
    loss_g, d_g, d_w = ge2e_loss(e[grouped], ge2e_params)
    d_b = ge2e_loss_literal(e[grouped], ge2e_params)[3]  # ge2e_loss computes none
    d_e[grouped] += contrastive_weight * d_g
    loss = loss_a + contrastive_weight * loss_g
    return loss, d_e, d_head, contrastive_weight * d_w, contrastive_weight * d_b


def _pct_groups_literal(speakers, phr_labels, n_phrases):
    """For each phrase, the rows of every speaker with >= 2 utterances of it,
    in speaker-id order."""
    by_phrase = [{} for _ in range(n_phrases)]
    for i, spk in enumerate(speakers):
        by_phrase[phr_labels[i]].setdefault(spk, []).append(i)
    return [[rows for _, rows in sorted(spk_rows.items()) if len(rows) >= 2]
            for spk_rows in by_phrase]


def _sample_pct_batch_literal(rng, groups, speakers_per_batch):
    """Indices of a same-phrase batch with two utterances per speaker, drawn
    from one phrase's `_pct_groups_literal` entry."""
    count = min(speakers_per_batch, len(groups))
    chosen = rng.permutation(len(groups))[:count]
    batch = []
    for ci in sorted(int(c) for c in chosen):
        utts = groups[ci]
        pick = rng.permutation(len(utts))[:2]
        batch.extend(utts[int(p)] for p in pick)
    return batch


def forward_cache_literal(extractor, x: np.ndarray) -> dict:
    """The network's forward pass with a fresh array for every intermediate."""
    z1 = x @ extractor.w1.T + extractor.b1
    h = np.maximum(z1, 0.0)
    raw = h @ extractor.w2.T + extractor.b2
    norms = np.linalg.norm(raw, axis=1)
    unit = raw / np.where(norms == 0.0, 1.0, norms)[:, None]
    return {"x": x, "z1": z1, "h": h, "raw": raw, "norms": norms, "unit": unit}


def backward_to_params_literal(extractor, cache: dict, d_unit: np.ndarray):
    """Backprop of `forward_cache_literal`, with the ReLU mask taken from z1."""
    norms, unit = cache["norms"], cache["unit"]
    if np.any(norms == 0.0):
        raise NumericalError("cannot backprop through a zero-norm embedding")
    proj = np.sum(d_unit * unit, axis=1, keepdims=True)
    d_raw = (d_unit - proj * unit) / norms[:, None]
    d_w2 = d_raw.T @ cache["h"]
    d_b2 = d_raw.sum(axis=0)
    d_h = d_raw @ extractor.w2
    d_z1 = d_h * (cache["z1"] > 0.0)
    d_w1 = d_z1.T @ cache["x"]
    d_b1 = d_z1.sum(axis=0)
    return d_w1, d_b1, d_w2, d_b2


def train_pct_literal(extractor, features, metas, inventory, cfg, seed: int) -> TrainResult:
    """`train` with strategy=PCT as its own epoch loop: one `pct_loss_literal`
    step per phrase that has >= 2 speakers with >= 2 utterances of it."""
    net = extractor.copy()
    feats = np.asarray(features, dtype=np.float64)
    speaker_ids = tuple(sorted(set(metas.speakers)))
    spk_index = {s: i for i, s in enumerate(speaker_ids)}
    spk_labels = np.asarray([spk_index[s] for s in metas.speakers])
    phrase_ids = inventory.phrase_ids
    phr_index = {p: i for i, p in enumerate(phrase_ids)}
    phr_labels = np.asarray([phr_index[p] for p in metas.phrases])

    rng = np.random.default_rng(seed)
    heads = {"spk": AamHead.init(len(speaker_ids), net.emb_dim, int(rng.integers(2**63)),
                                 cfg.aam_scale, cfg.aam_margin)}
    ge2e = Ge2eParams()
    pct_groups = _pct_groups_literal(metas.speakers, phr_labels, len(phrase_ids))

    def apply_net_grads(cache, d_unit, lr) -> None:
        d_w1, d_b1, d_w2, d_b2 = backward_to_params_literal(net, cache, d_unit)
        net.w1 -= lr * d_w1
        net.b1 -= lr * d_b1
        net.w2 -= lr * d_w2
        net.b2 -= lr * d_b2

    trace = []
    for epoch in range(cfg.epochs):
        lr = lr_schedule(cfg, epoch)
        losses = []
        for p, groups in zip(phrase_ids, pct_groups):
            if len(groups) < 2:
                continue
            batch = _sample_pct_batch_literal(rng, groups, cfg.pct_speakers_per_batch)
            cache = forward_cache_literal(net, feats[batch])
            loss, d_e, d_head, d_w, d_b = pct_loss_literal(
                cache["unit"], spk_labels[batch], [p] * len(batch),
                heads["spk"], ge2e, cfg.contrastive_weight,
            )
            apply_net_grads(cache, d_e, lr)
            heads["spk"].weights -= lr * d_head
            heads["spk"].renormalize()
            ge2e.w = max(ge2e.w - lr * d_w, 1e-6)
            ge2e.b -= lr * d_b
            losses.append(loss)
        if not losses:
            raise ValueError("no phrase yields a valid PCT batch")
        trace.append(float(np.mean(losses)))
    return TrainResult(net, heads, copy.copy(ge2e), tuple(trace))


# ---------------------------------------------------------------------------
# trial generation, one pool scan per trial


def _choice_literal(rng, items):
    return items[int(rng.integers(len(items)))]


def gen_td_literal(metas, counts, n_enroll, rng) -> TrialProtocol:
    """`synthgen._gen_td` as it was before it built each model's pools once:
    every trial rescans every cell for its label's test pool."""
    # Enrollment cells: first n_enroll utterances of each (speaker, phrase)
    # cell enroll; the rest are that cell's test pool.
    cells: dict = {}
    test_pool: dict = {}
    for m in meta_rows(metas):
        cells.setdefault((m.speaker_id, m.phrase_id), []).append(m.utt_id)
    enroll_map = {}
    models = []
    for (spk, phr), utts in cells.items():
        if len(utts) < n_enroll + 1:
            continue
        model_id = f"m_{spk}_{phr}"
        enroll_map[model_id] = tuple(utts[:n_enroll])
        test_pool[(spk, phr)] = utts[n_enroll:]
        models.append((model_id, spk, phr))
    if not models:
        raise ValueError("no (speaker, phrase) cell has enough utterances to enroll")
    if counts[TrialLabel.TW] + counts[TrialLabel.IW] > 0 and len(set(metas.phrases)) < 2:
        raise ValueError("TW/IW trials need at least 2 phrases")

    trials, labels = [], []
    idx = 0
    for label, count in counts.items():
        for _ in range(count):
            model_id, spk, phr = _choice_literal(rng, models)
            if label is TrialLabel.TC:
                pool = test_pool.get((spk, phr), [])
            elif label is TrialLabel.TW:
                pool = [u for (s, p), us in test_pool.items() if s == spk and p != phr for u in us]
            elif label is TrialLabel.IC:
                pool = [u for (s, p), us in test_pool.items() if s != spk and p == phr for u in us]
            else:
                pool = [u for (s, p), us in test_pool.items() if s != spk and p != phr for u in us]
            if not pool:
                raise ValueError(f"infeasible request: no test utterances for label {label.value}")
            test_utt = _choice_literal(rng, pool)
            trial_id = f"t{idx:06d}"
            idx += 1
            trials.append((trial_id, model_id, test_utt, phr))
            labels.append(label)
    return _protocol_literal(trials, labels, enroll_map)


def gen_ti_literal(metas, counts, n_enroll, rng) -> TrialProtocol:
    """`synthgen._gen_ti` as it was before it built each speaker's list of
    other speakers once: every nontarget trial rebuilds it."""
    # Enroll each speaker on its first n_enroll L1 utterances; every other
    # utterance (any language) is eligible as test material.
    by_spk: dict = {}
    for m in meta_rows(metas):
        by_spk.setdefault(m.speaker_id, []).append(m)
    enroll_map = {}
    test_pool: dict = {}
    for spk, ms in by_spk.items():
        l1 = [m.utt_id for m in ms if m.language is Language.L1]
        if len(l1) < n_enroll:
            continue
        enrolled = l1[:n_enroll]
        rest = [m.utt_id for m in ms if m.utt_id not in set(enrolled)]
        if not rest:
            continue
        enroll_map[f"m_{spk}"] = tuple(enrolled)
        test_pool[spk] = rest
    eligible = sorted(test_pool)
    if len(eligible) < 2:
        raise ValueError(
            "infeasible request: need >=2 speakers with enough L1 utterances to enroll"
        )

    trials, labels = [], []
    idx = 0
    for label, count in counts.items():
        for _ in range(count):
            spk = _choice_literal(rng, eligible)
            if label is TrialLabel.TARGET:
                test_utt = _choice_literal(rng, test_pool[spk])
            else:
                other = _choice_literal(rng, [s for s in eligible if s != spk])
                test_utt = _choice_literal(rng, test_pool[other])
            trial_id = f"t{idx:06d}"
            idx += 1
            trials.append((trial_id, f"m_{spk}", test_utt, None))
            labels.append(label)
    return _protocol_literal(trials, labels, enroll_map)


def _protocol_literal(trials, labels, enroll_map) -> TrialProtocol:
    """The protocol of a list of (trial id, model id, test id, claimed phrase)
    rows, one column at a time."""
    columns = [tuple(row[k] for row in trials) for k in range(4)]
    return TrialProtocol(Trials(*columns), tuple(labels), enroll_map)


# ---------------------------------------------------------------------------
# corpus generation and enrollment centroids, one utterance or model at a time


def gen_corpus_literal(cfg, seed: int) -> SynthCorpus:
    """`synthgen.gen_corpus` as it was before its loop kept only the draws:
    each utterance's vector, norm, transcript and labels are built in the
    loop, right after its draws."""
    rng = np.random.default_rng(seed)
    spk_factors = rng.standard_normal((cfg.n_speakers, cfg.dim))
    phr_factors = rng.standard_normal((cfg.n_phrases, cfg.dim))
    d_lang = rng.standard_normal(cfg.dim)
    d_lang = d_lang / np.linalg.norm(d_lang)
    texts = _gen_reference_texts(rng, cfg.n_phrases)

    n_l1 = (cfg.n_phrases + 1) // 2
    inventory = PhraseInventory(
        phrase_ids=tuple(f"ph{p:02d}" for p in range(cfg.n_phrases)),
        languages=tuple(Language.L1 if p < n_l1 else Language.L2
                        for p in range(cfg.n_phrases)),
        texts=tuple(texts),
    )

    ids, speakers, phrases, languages, transcripts = [], [], [], [], []
    x = np.empty((cfg.n_speakers * cfg.n_phrases * cfg.n_utts_per_cell, cfg.dim))
    for s in range(cfg.n_speakers):
        spk_id = f"spk{s:03d}"
        for p in range(cfg.n_phrases):
            for j in range(cfg.n_utts_per_cell):
                utt_id = f"{spk_id}_ph{p:02d}_u{j:02d}"
                lang = Language.L2 if rng.random() < 0.5 else Language.L1
                vec = spk_factors[s] + cfg.phrase_strength * phr_factors[p]
                if lang is Language.L2:
                    vec = vec + cfg.language_shift * d_lang
                vec = vec + cfg.noise_sigma * rng.standard_normal(cfg.dim)
                norm = float(np.linalg.norm(vec))
                if norm < 1e-12:
                    raise NumericalError(f"degenerate zero-norm utterance {utt_id}")
                transcript = gen_transcript(
                    texts[p],
                    cfg.transcript_error_rate,
                    seed=int(rng.integers(2**63)),
                )
                x[len(ids)] = vec / norm
                ids.append(utt_id)
                speakers.append(spk_id)
                phrases.append(inventory.phrase_ids[p])
                languages.append(lang)
                transcripts.append(transcript)
    metas = Metas(tuple(ids), tuple(speakers), tuple(phrases), tuple(languages),
                  tuple(transcripts))
    return SynthCorpus(x=x, metas=metas, inventory=inventory)


def build_enroll_model_literal(model_id: str, rows: np.ndarray) -> np.ndarray:
    """The unit-norm mean of a model's (n, D) enrollment rows: its centroid,
    as `core.build_enroll_model` computed it for one model at a time."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise ValueError(f"model {model_id}: expected (n, D) enrollment rows, got {rows.shape}")
    mean = rows.mean(axis=0)
    norm = float(np.linalg.norm(mean))
    if norm < 1e-12:
        raise NumericalError(f"zero-norm centroid for model {model_id}")
    return mean / norm


def centroids_literal(x: np.ndarray, enroll_rows: Mapping[str, Sequence[int]]) -> np.ndarray:
    """One centroid per model of `enroll_rows` (model id -> its rows of x), in
    its order, each from `build_enroll_model_literal`, as `pipeline._trial_rows`
    stacked them before it took one block mean per enrollment count."""
    return np.stack([build_enroll_model_literal(model_id, x[list(rows)])
                     for model_id, rows in enroll_rows.items()])
