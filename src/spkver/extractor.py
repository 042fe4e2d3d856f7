"""Embedding network and its training objectives.

The network is intentionally small (input F -> hidden H with ReLU ->
embedding D, linear), so every objective below ships with exact,
hand-derived gradients that finite differences can certify:

  * angular-margin softmax (AAM) over cosine logits (scale s, additive
    margin m),
  * generalized end-to-end contrastive loss (GE2E) with own-centroid
    exclusion.

Every strategy trains through `heads_loss`: a weighted sum of AAM terms
(head, rows, labels, weight) over a batch of rows, with speaker index s,
phrase index p (inventory order) and P phrases. The first four take one
step per epoch over all N training rows:

  * AAM_ONLY:         (spk, all, s, 1)
  * SPK_PLUS_PHRASE:  (spk, all, s, 1) + (phrase, all, p, multitask_weight)
  * SPK_TIMES_PHRASE: (product, all, s*P + p, 1)
  * PMT:              one (p, rows_p, s[rows_p], |rows_p|/N) per phrase, in
                      the order in which phrases first appear in the metas.

PCT (phrase-aware contrastive training) takes one step per epoch for each
phrase with >= 2 speakers that have >= 2 utterances of it. The step's batch
holds two of those utterances for each of up to pct_speakers_per_batch such
speakers, and its objective is

  * PCT:              (spk, all, s[batch], 1)
                      + contrastive_weight * GE2E over the batch as
                      (speakers, 2, D); the term is skipped at weight 0.

All losses accept arbitrary (not necessarily unit-norm) inputs because they
normalize inside the cosine; gradients include those normalization terms.
"""

from __future__ import annotations

import copy
from enum import Enum
from typing import TYPE_CHECKING, Dict, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .core import Metas, NumericalError, PhraseInventory

if TYPE_CHECKING:
    from .config import PipelineConfig


class Strategy(Enum):
    AAM_ONLY = "AAM_ONLY"
    SPK_PLUS_PHRASE = "SPK_PLUS_PHRASE"
    SPK_TIMES_PHRASE = "SPK_TIMES_PHRASE"
    PMT = "PMT"
    PCT = "PCT"


PHRASE_STRATEGIES = (
    Strategy.SPK_PLUS_PHRASE,
    Strategy.SPK_TIMES_PHRASE,
    Strategy.PMT,
    Strategy.PCT,
)


class Extractor:
    """Two-layer feed-forward embedding network: w1 (H, F), b1 (H,), w2 (D, H)
    and b2 (D,)."""

    __slots__ = ("w1", "b1", "w2", "b2")

    def __init__(self, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray, b2: np.ndarray) -> None:
        self.w1, self.b1, self.w2, self.b2 = w1, b1, w2, b2

    @classmethod
    def init(cls, in_dim: int, hidden_dim: int, emb_dim: int, seed: int = 0) -> "Extractor":
        rng = np.random.default_rng(seed)
        return cls(
            w1=rng.standard_normal((hidden_dim, in_dim)) / np.sqrt(in_dim),
            b1=np.zeros(hidden_dim),
            w2=rng.standard_normal((emb_dim, hidden_dim)) / np.sqrt(hidden_dim),
            b2=np.zeros(emb_dim),
        )

    @property
    def in_dim(self) -> int:
        return int(self.w1.shape[1])

    @property
    def emb_dim(self) -> int:
        return int(self.w2.shape[0])

    def copy(self) -> "Extractor":
        return Extractor(self.w1.copy(), self.b1.copy(), self.w2.copy(), self.b2.copy())


def _forward_cache(extractor: Extractor, x: np.ndarray) -> dict:
    # in place, so each (N, H) and (N, D) array is allocated once per step
    h = x @ extractor.w1.T
    h += extractor.b1
    np.maximum(h, 0.0, out=h)
    unit = h @ extractor.w2.T
    unit += extractor.b2
    norms = np.linalg.norm(unit, axis=1)
    unit /= np.where(norms == 0.0, 1.0, norms)[:, None]
    return {"x": x, "h": h, "norms": norms, "unit": unit}


def extract_embeddings(extractor: Extractor, features: np.ndarray) -> np.ndarray:
    """The unit embeddings of an (N, F) feature batch. Other shapes raise
    ValueError, and a zero-norm or non-finite raw embedding NumericalError."""
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[1] != extractor.in_dim:
        raise ValueError(f"features must be (N, {extractor.in_dim}), got shape {feats.shape}")
    cache = _forward_cache(extractor, feats)
    if np.any(cache["norms"] == 0.0):
        raise NumericalError("extractor produced a zero-norm embedding")
    if not np.isfinite(cache["norms"]).all():
        raise NumericalError("extractor produced a non-finite embedding")
    return cache["unit"]


def _backward_to_params(extractor: Extractor, cache: dict, d_unit: np.ndarray):
    """Backprop d_unit into the network's parameters; d_h overwrites cache["h"]."""
    h, norms, unit = cache["h"], cache["norms"], cache["unit"]
    if np.any(norms == 0.0):
        raise NumericalError("cannot backprop through a zero-norm embedding")
    d_raw = d_unit * unit  # one (N, D) buffer for every step of d_raw
    proj = np.sum(d_raw, axis=1, keepdims=True)
    np.multiply(proj, unit, out=d_raw)
    np.subtract(d_unit, d_raw, out=d_raw)
    d_raw /= norms[:, None]
    d_w2 = d_raw.T @ h
    d_b2 = d_raw.sum(axis=0)
    mask = h > 0.0  # the ReLU's mask: h > 0 exactly where its input is
    d_h = np.matmul(d_raw, extractor.w2, out=h)
    d_h *= mask
    d_w1 = d_h.T @ cache["x"]
    d_b1 = d_h.sum(axis=0)
    return d_w1, d_b1, d_w2, d_b2


# ---------------------------------------------------------------------------
# cosine plumbing shared by the losses


def _cosine_matrix(a: np.ndarray, b: np.ndarray):
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    if np.any(na == 0.0) or np.any(nb == 0.0):
        raise NumericalError("zero-norm vector in cosine computation")
    cos = a @ b.T
    cos /= np.outer(na, nb)
    return cos, na, nb


def _cosine_backward(d_cos, cos, a, b, na, nb):
    # d cos(a_i, b_j) / d a_i = b_j/(|a_i||b_j|) - cos_ij a_i/|a_i|^2, and
    # symmetrically for b_j; both accumulated over the full (i, j) grid.
    # the caller's cos is dead after d_cos * cos: it holds that product, then both quotients
    np.multiply(d_cos, cos, out=cos)
    sum_a, sum_b = cos.sum(axis=1), cos.sum(axis=0)
    d_a = np.divide(d_cos, nb[None, :], out=cos) @ b
    d_a /= na[:, None]
    d_a -= (sum_a / na**2)[:, None] * a
    d_b = np.divide(d_cos, na[:, None], out=cos).T @ a
    d_b /= nb[:, None]
    d_b -= (sum_b / nb**2)[:, None] * b
    return d_a, d_b


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """The row-wise log-softmax, in place: returns `logits` itself."""
    logits -= logits.max(axis=1, keepdims=True)
    logits -= np.log(np.exp(logits).sum(axis=1, keepdims=True))
    return logits


# ---------------------------------------------------------------------------
# angular-margin softmax


class AamHead:
    """Cosine classifier head: unit-norm class rows (C, D), scale s and
    margin m (in training, the config's aam_scale and aam_margin)."""

    __slots__ = ("weights", "scale", "margin")

    def __init__(self, weights: np.ndarray, scale: float, margin: float) -> None:
        self.weights = np.asarray(weights, dtype=np.float64)
        self.scale, self.margin = scale, margin

    @classmethod
    def init(cls, n_classes: int, dim: int, seed: int, scale: float, margin: float) -> "AamHead":
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((n_classes, dim))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        return cls(weights=w, scale=scale, margin=margin)

    @property
    def n_classes(self) -> int:
        return int(self.weights.shape[0])

    def renormalize(self) -> None:
        norms = np.linalg.norm(self.weights, axis=1, keepdims=True)
        if np.any(norms == 0.0):
            raise NumericalError("zero-norm class weight")
        self.weights /= norms


def aam_loss(embeddings: np.ndarray, labels: Sequence[int], head: AamHead):
    """Margin softmax over cosine logits.

    The true-class logit s*cos(theta) is replaced by s*cos(theta + m); when
    theta + m would exceed pi (where angle addition stops being monotone)
    the standard linear fallback cos(theta) - m*sin(m) is used instead.
    Returns (loss, d_embeddings, d_weights), both gradients exact.
    """
    e = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    y = np.asarray(labels, dtype=int)
    if not np.all(np.isfinite(e)):
        raise ValueError("non-finite embeddings")
    if y.shape[0] != e.shape[0]:
        raise ValueError("one label per embedding required")
    if np.any(y < 0) or np.any(y >= head.n_classes):
        raise ValueError("label out of range")
    n = e.shape[0]
    rows = np.arange(n)

    cos, ne, nw = _cosine_matrix(e, head.weights)
    cos_m, sin_m = np.cos(head.margin), np.sin(head.margin)
    tc = np.clip(cos[rows, y], -1.0, 1.0)
    sin_theta = np.sqrt(np.maximum(1.0 - tc**2, 0.0))
    easy = tc > -cos_m  # theta + m < pi
    phi = np.where(easy, tc * cos_m - sin_theta * sin_m, tc - head.margin * sin_m)
    dphi = np.where(easy, cos_m + sin_m * tc / np.maximum(sin_theta, 1e-12), 1.0)

    logits = head.scale * cos
    logits[rows, y] = head.scale * phi
    logp = _log_softmax(logits)
    loss = float(-logp[rows, y].mean())

    d_logits = np.exp(logp, out=logp)
    d_logits[rows, y] -= 1.0
    d_logits /= n
    d_cos = np.multiply(d_logits, head.scale, out=d_logits)
    d_cos[rows, y] *= dphi
    d_e, d_w = _cosine_backward(d_cos, cos, e, head.weights, ne, nw)
    return loss, d_e, d_w


ALL_ROWS = slice(None)  # a heads_loss term that scores every row


def heads_loss(unit: np.ndarray, terms: Sequence, heads: Mapping[str, AamHead]):
    """Weighted sum of margin-softmax terms over one batch of embeddings.

    Each term is (head, rows, labels, weight) and adds
    weight * aam_loss(unit[rows], labels, heads[head]); `rows` is ALL_ROWS or
    an index array. Returns (loss, d_unit, {head: d_weights}).

    Each term's gradients are scaled in place, which is exact at weight 1,
    and a first term over ALL_ROWS lends its d_unit as the accumulator, so
    a single-term objective allocates nothing beyond aam_loss itself.
    """
    loss = 0.0
    d_unit = None
    d_heads: Dict[str, np.ndarray] = {}
    for head, rows, labels, weight in terms:
        part, d_e, d_w = aam_loss(unit[rows], labels, heads[head])
        loss += weight * part
        d_e *= weight
        d_w *= weight
        if d_unit is None and rows is ALL_ROWS:
            d_unit = d_e
        else:
            if d_unit is None:
                d_unit = np.zeros_like(unit)
            d_unit[rows] += d_e
        d_heads[head] = d_heads[head] + d_w if head in d_heads else d_w
    return loss, d_unit, d_heads


# ---------------------------------------------------------------------------
# generalized end-to-end contrastive loss


class Ge2eParams:
    """Similarity scale w (trained, kept positive) and bias b, not trained:
    a bias shared by every similarity cancels in the softmax. Unless given,
    they start at Wan et al.'s w = 10 and b = -5."""

    __slots__ = ("w", "b")

    def __init__(self, w: Optional[float] = None, b: Optional[float] = None) -> None:
        self.w = 10.0 if w is None else w
        self.b = -5.0 if b is None else b
        if self.w <= 0:
            raise ValueError("similarity scale w must be positive")


def ge2e_loss(embeddings: np.ndarray, params: Ge2eParams):
    """Contrastive loss over an (S speakers x U utterances x D) batch.

    Similarity of utterance (s, u) to speaker k's centroid is w*cos + b,
    where the own-speaker centroid excludes utterance (s, u) itself. Each
    utterance is classified against its own speaker with softmax
    cross-entropy. Returns (loss, d_embeddings, d_w), exact gradients
    including the exclusion term; b gets none (see `Ge2eParams`).

    Works on whole arrays: the own centroid of (s, u) is (sum_s - e_su) /
    (U - 1) (Wan et al., "Generalized end-to-end loss for speaker
    verification", ICASSP 2018), so one product gives the similarities to
    the full centroids and one row-wise dot the own-centroid diagonal.
    """
    e = np.asarray(embeddings, dtype=np.float64)
    if e.ndim != 3:
        raise ValueError("expected (S, U, D) embeddings")
    s_n, u_n, _ = e.shape
    if s_n < 2 or u_n < 2:
        raise ValueError("GE2E needs at least 2 speakers and 2 utterances each")

    sums = e.sum(axis=1)  # (S, D)
    full = sums / u_n  # (S, D) centroid of every speaker
    own = (sums[:, None] - e) / (u_n - 1)  # (S, U, D) centroid without utterance (s, u)
    n_e = np.linalg.norm(e, axis=2)
    n_full = np.linalg.norm(full, axis=1)
    n_own = np.linalg.norm(own, axis=2)
    if not (n_e.all() and n_full.all() and n_own.all()):
        raise NumericalError("zero-norm vector in GE2E similarity")

    # forward: cos[s, u, k] against speaker k's full centroid, except the
    # own centroid on the diagonal k == s
    spk = np.arange(s_n)
    cos = (e @ full.T) / (n_e[:, :, None] * n_full)
    cos_own = np.einsum("sud,sud->su", e, own) / (n_e * n_own)
    cos[spk, :, spk] = cos_own
    sims = params.w * cos + params.b
    flat = sims.reshape(s_n * u_n, s_n)
    logp = _log_softmax(flat)
    rows = np.arange(s_n * u_n)
    label = np.repeat(spk, u_n)
    loss = float(-logp[rows, label].mean())

    d_sims = np.exp(logp)
    d_sims[rows, label] -= 1.0
    d_sims = (d_sims / (s_n * u_n)).reshape(s_n, u_n, s_n)

    d_w = float((d_sims * cos).sum())
    d_cos = params.w * d_sims

    # backward, with d cos(a, c) / da = c / (|a| |c|) - cos a / |a|^2 and the
    # same with a and c swapped for the centroid side
    g_own = d_cos[spk, :, spk]  # (S, U)
    g_full = d_cos.copy()
    g_full[spk, :, spk] = 0.0
    # utterance side, over every candidate centroid
    d_e = (g_full / (n_e[:, :, None] * n_full)) @ full
    d_e += (g_own / (n_e * n_own))[:, :, None] * own
    d_e -= ((d_cos * cos).sum(axis=2) / n_e**2)[:, :, None] * e
    # full-centroid side: speaker k's centroid is the mean of its U utterances
    g_rows = g_full.reshape(s_n * u_n, s_n)
    d_full = ((g_rows / n_e.reshape(-1, 1)).T @ e.reshape(s_n * u_n, -1)) / n_full[:, None]
    d_full -= ((g_rows * cos.reshape(s_n * u_n, s_n)).sum(axis=0) / n_full**2)[:, None] * full
    d_e += d_full[:, None] / u_n
    # own-centroid side: the own centroid of (s, u) averages the other U - 1
    d_own = g_own[:, :, None] * (
        e / (n_e * n_own)[:, :, None] - (cos_own / n_own**2)[:, :, None] * own
    )
    d_e += (d_own.sum(axis=1, keepdims=True) - d_own) / (u_n - 1)
    return loss, d_e, d_w


# ---------------------------------------------------------------------------
# training loop


class TrainResult(NamedTuple):
    extractor: Extractor
    heads: Dict[str, AamHead]
    ge2e: Optional[Ge2eParams]
    loss_trace: tuple


def lr_schedule(cfg: PipelineConfig, epoch: int) -> float:
    """Exponential decay from cfg.lr_initial to cfg.lr_final over cfg.epochs."""
    if cfg.epochs <= 1:
        return cfg.lr_initial
    frac = epoch / (cfg.epochs - 1)
    return cfg.lr_initial * (cfg.lr_final / cfg.lr_initial) ** frac


def train(
    extractor: Extractor,
    features: np.ndarray,
    metas: Metas,
    inventory: PhraseInventory,
    cfg: PipelineConfig,
    seed: int,
) -> TrainResult:
    """Fine-tune the network with the objective of cfg.strategy.

    `features` is an (N, F) array whose row i is utterance metas.utt_ids[i]; the
    inventory fixes the phrase order of the phrase-aware objectives. Plain
    gradient descent for cfg.epochs under `lr_schedule`, with the heads'
    aam_scale and aam_margin and the objective's weights read from `cfg`;
    deterministic given `seed`. Head rows are re-normalized to unit norm
    after every update. A non-finite embedding, epoch loss or network weight
    raises NumericalError naming the epoch. Returns fresh objects; the inputs
    are not mutated.
    """
    net = extractor.copy()
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] != len(metas.utt_ids):
        raise ValueError("features must be (N, F) with one row per meta")
    if feats.shape[1] != net.in_dim:
        raise ValueError("corpus feature dim does not match the network")

    speaker_ids = tuple(sorted(set(metas.speakers)))
    spk_index = {s: i for i, s in enumerate(speaker_ids)}
    spk_labels = np.asarray([spk_index[s] for s in metas.speakers])

    strategy = Strategy(cfg.strategy)
    phrase_ids = inventory.phrase_ids
    phr_index = {p: i for i, p in enumerate(phrase_ids)}
    phr_labels = None
    if strategy in PHRASE_STRATEGIES:
        if any(p is None for p in metas.phrases):
            raise ValueError(f"strategy {strategy.value} requires phrase labels")
        for utt, p in zip(metas.utt_ids, metas.phrases):
            if p not in phr_index:
                raise ValueError(f"utterance {utt!r} has phrase {p!r}, "
                                 "which the phrase inventory lacks")
        phr_labels = np.asarray([phr_index[p] for p in metas.phrases])

    rng = np.random.default_rng(seed)
    n_spk = len(speaker_ids)

    def new_head(n_classes: int) -> AamHead:
        return AamHead.init(n_classes, net.emb_dim, int(rng.integers(2**63)),
                            cfg.aam_scale, cfg.aam_margin)

    # heads are seeded in this order: spk, phrase, product, per-phrase
    heads: Dict[str, AamHead] = {}
    terms = []  # the heads_loss objective over all rows; PCT applies it per batch
    if strategy in (Strategy.AAM_ONLY, Strategy.SPK_PLUS_PHRASE, Strategy.PCT):
        heads["spk"] = new_head(n_spk)
        terms.append(("spk", ALL_ROWS, spk_labels, 1.0))
    if strategy is Strategy.SPK_PLUS_PHRASE:
        heads["phrase"] = new_head(len(phrase_ids))
        terms.append(("phrase", ALL_ROWS, phr_labels, cfg.multitask_weight))
    if strategy is Strategy.SPK_TIMES_PHRASE:
        heads["product"] = new_head(n_spk * len(phrase_ids))
        terms.append(("product", ALL_ROWS, spk_labels * len(phrase_ids) + phr_labels, 1.0))
    if strategy is Strategy.PMT:
        for p in phrase_ids:
            heads[p] = new_head(n_spk)
        for k in dict.fromkeys(phr_labels.tolist()):  # first-appearance order
            rows = np.flatnonzero(phr_labels == k)
            terms.append((phrase_ids[k], rows, spk_labels[rows], rows.size / len(feats)))
    ge2e = pct_groups = None
    mu = cfg.contrastive_weight
    if strategy is Strategy.PCT:
        ge2e = Ge2eParams()
        pct_groups = _pct_groups(metas.speakers, phr_labels, len(phrase_ids))
        if not pct_groups:
            raise ValueError("no phrase yields a valid PCT batch")

    trace = []
    for epoch in range(cfg.epochs):
        lr = lr_schedule(cfg, epoch)
        if pct_groups is None:
            steps = [(ALL_ROWS, terms)]
        else:
            batches = [_sample_pct_batch(rng, groups, cfg.pct_speakers_per_batch)
                       for groups in pct_groups]
            steps = [(batch, [("spk", ALL_ROWS, spk_labels[batch], 1.0)]) for batch in batches]
        losses = []
        for rows, step_terms in steps:
            cache = _forward_cache(net, feats[rows])
            if not np.isfinite(cache["norms"]).all():
                raise NumericalError(f"training diverged in epoch {epoch + 1}: non-finite embedding")
            unit = cache["unit"]
            loss, d_unit, d_heads = heads_loss(unit, step_terms, heads)
            if ge2e is not None and mu != 0.0:
                # a PCT batch holds each speaker's two rows next to each other
                loss_g, d_g, d_w = ge2e_loss(unit.reshape(-1, 2, unit.shape[1]), ge2e)
                loss += mu * loss_g
                d_unit += mu * d_g.reshape(unit.shape)
                ge2e.w = max(ge2e.w - lr * (mu * d_w), 1e-6)
            d_w1, d_b1, d_w2, d_b2 = _backward_to_params(net, cache, d_unit)
            net.w1 -= lr * d_w1
            net.b1 -= lr * d_b1
            net.w2 -= lr * d_w2
            net.b2 -= lr * d_b2
            for name, d_head in d_heads.items():
                heads[name].weights -= lr * d_head
                heads[name].renormalize()
            losses.append(loss)
        trace.append(float(np.mean(losses)))
        weights = (net.w1, net.b1, net.w2, net.b2)
        if not (np.isfinite(trace[-1]) and all(np.isfinite(w).all() for w in weights)):
            raise NumericalError(f"training diverged in epoch {epoch + 1}: non-finite loss or weight")

    return TrainResult(
        extractor=net,
        heads=heads,
        ge2e=copy.copy(ge2e) if ge2e is not None else None,
        loss_trace=tuple(trace),
    )


def _pct_groups(speakers, phr_labels, n_phrases):
    """For each phrase with >= 2 speakers that have >= 2 utterances of it, in
    inventory order, the rows of each such speaker, in speaker-id order."""
    by_phrase = [{} for _ in range(n_phrases)]
    for i, spk in enumerate(speakers):
        by_phrase[phr_labels[i]].setdefault(spk, []).append(i)
    groups = ([rows for _, rows in sorted(spk_rows.items()) if len(rows) >= 2]
              for spk_rows in by_phrase)
    return [g for g in groups if len(g) >= 2]


def _sample_pct_batch(rng, groups, speakers_per_batch):
    """Indices of a same-phrase batch drawn from one phrase's `_pct_groups`
    entry: two utterances per speaker, each speaker's pair adjacent, speakers
    in group order."""
    count = min(speakers_per_batch, len(groups))
    chosen = rng.permutation(len(groups))[:count]
    batch = []
    for ci in sorted(int(c) for c in chosen):
        utts = groups[ci]
        pick = rng.permutation(len(utts))[:2]
        batch.extend(utts[int(p)] for p in pick)
    return batch
