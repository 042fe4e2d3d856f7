"""Independent reference implementations used as test oracles.

These are deliberately written in the most literal way possible (explicit
loops, recursion, exhaustive sweeps) and stay independent of the library
code paths they are used to check.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from spkver.core import NumericalError, build_enroll_model
from spkver.metrics import DcfParams, FusionWeights, eer, fuse, grid_divisions, min_dcf


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
    entries = [e for e in cohort.entries
               if language_filter is None or e.language is language_filter]
    if len(entries) < n_top:
        raise ValueError(
            f"cohort has {len(entries)} usable entries after filtering, need {n_top}"
        )
    scores = np.asarray([float(scorer(anchor, e.vec)) for e in entries], dtype=np.float64)
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


def _plda_logdet_chol(mat):
    chol = np.linalg.cholesky(mat)
    return 2.0 * float(np.sum(np.log(np.diag(chol)))), chol


def _plda_chol_quad(chol, x):
    z = np.linalg.solve(chol, x.T)
    return np.sum(z * z, axis=0)


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


def _log_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


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
    logp = _log_softmax(flat)
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


def tune_weights_literal(dev_sets, dev_keys, params=DcfParams(), grid_step=0.1):
    """Exhaustive simplex-grid search for the dev-minDCF-minimizing weights.

    The one-weight-vector-at-a-time form that the one-sweep
    `metrics.tune_weights` replaced: it fuses, scores minDCF and scores EER
    once per grid point through the library's one-system functions.

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
        fused = fuse(dev_sets, w)
        cost = min_dcf(fused, dev_keys, params)
        err = eer(fused, dev_keys)
        if best is None or (cost, err) < (best[0], best[1]):
            best = (cost, err, w)
    return best[2]


def nplda_training_pairs_literal(protocol, embeddings, metas, phrases):
    """The pairs each phrase's NPLDA training sees, selected trial by trial.

    Returns phrase -> (enroll, test, labels, claimed phrases, spoken phrases)
    for every phrase with at least 4 same-phrase trials of both classes; the
    other phrases keep their generative init and are absent.
    """
    emb_of = {e.utt_id: e for e in embeddings}
    meta_of = {m.utt_id: m for m in metas}
    label_of = {k.trial_id: k.label for k in protocol.keys}
    models = {
        mid: build_enroll_model(mid, [emb_of[u] for u in utts])
        for mid, utts in protocol.enroll_map.items()
    }
    out = {}
    for phrase in phrases:
        rows = [
            t for t in protocol.trials
            if t.claimed_phrase_id == phrase and meta_of[t.test_utt_id].phrase_id == phrase
        ]
        labels = [label_of[t.trial_id].is_target for t in rows]
        if len(rows) < 4 or all(labels) or not any(labels):
            continue
        out[phrase] = (
            np.stack([models[t.model_id].centroid for t in rows]),
            np.stack([emb_of[t.test_utt_id].vec for t in rows]),
            labels,
            [t.claimed_phrase_id for t in rows],
            [meta_of[t.test_utt_id].phrase_id for t in rows],
        )
    return out
