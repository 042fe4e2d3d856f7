"""Embedding network and its training objectives.

The network is intentionally small (input F -> hidden H with ReLU ->
embedding D, linear), so every objective below ships with exact,
hand-derived gradients that finite differences can certify:

  * angular-margin softmax over cosine logits (scale s, additive margin m),
  * speaker + phrase multi-task variant,
  * speaker x phrase product-label variant,
  * per-phrase multi-head routing (one speaker classifier per phrase),
  * generalized end-to-end contrastive loss with own-centroid exclusion,
  * the contrastive combination (margin softmax + GE2E) over same-phrase
    batches with exactly two utterances per speaker.

All losses accept arbitrary (not necessarily unit-norm) inputs because they
normalize inside the cosine; gradients include those normalization terms.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from .core import NumericalError, PhraseInventory, UttMeta


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


@dataclass
class Extractor:
    """Two-layer feed-forward embedding network."""

    w1: np.ndarray  # (H, F)
    b1: np.ndarray  # (H,)
    w2: np.ndarray  # (D, H)
    b2: np.ndarray  # (D,)

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
    z1 = x @ extractor.w1.T + extractor.b1
    h = np.maximum(z1, 0.0)
    raw = h @ extractor.w2.T + extractor.b2
    norms = np.linalg.norm(raw, axis=1)
    unit = raw / np.where(norms == 0.0, 1.0, norms)[:, None]
    return {"x": x, "z1": z1, "h": h, "raw": raw, "norms": norms, "unit": unit}


def forward(extractor: Extractor, features: np.ndarray):
    """Run the network; returns (raw, unit-normalized) embeddings.

    The unit output is None when any raw embedding has zero norm, which
    flags a degenerate network rather than raising.
    """
    feats = np.asarray(features, dtype=np.float64)
    single = feats.ndim == 1
    feats2 = np.atleast_2d(feats)
    if feats2.shape[1] != extractor.in_dim:
        raise ValueError(f"feature dim {feats2.shape[1]} != network input {extractor.in_dim}")
    cache = _forward_cache(extractor, feats2)
    raw, unit = cache["raw"], cache["unit"]
    if np.any(cache["norms"] == 0.0):
        unit = None
    if single:
        return raw[0], (None if unit is None else unit[0])
    return raw, unit


def extract_embeddings(extractor: Extractor, features: np.ndarray) -> np.ndarray:
    """Batch forward returning unit embeddings; degenerate rows raise."""
    raw, unit = forward(extractor, np.atleast_2d(np.asarray(features, dtype=np.float64)))
    if unit is None:
        raise NumericalError("extractor produced a zero-norm embedding")
    return unit


def _backward_to_params(extractor: Extractor, cache: dict, d_unit: np.ndarray):
    """Backprop a gradient on the unit embeddings into network parameters."""
    raw, norms, unit = cache["raw"], cache["norms"], cache["unit"]
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


# ---------------------------------------------------------------------------
# cosine plumbing shared by the losses


def _cosine_matrix(a: np.ndarray, b: np.ndarray):
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    if np.any(na == 0.0) or np.any(nb == 0.0):
        raise NumericalError("zero-norm vector in cosine computation")
    cos = (a @ b.T) / np.outer(na, nb)
    return cos, na, nb


def _cosine_backward(d_cos, cos, a, b, na, nb):
    # d cos(a_i, b_j) / d a_i = b_j/(|a_i||b_j|) - cos_ij a_i/|a_i|^2, and
    # symmetrically for b_j; both accumulated over the full (i, j) grid.
    d_a = ((d_cos / nb[None, :]) @ b) / na[:, None] \
        - ((d_cos * cos).sum(axis=1) / na**2)[:, None] * a
    d_b = ((d_cos / na[:, None]).T @ a) / nb[:, None] \
        - ((d_cos * cos).sum(axis=0) / nb**2)[:, None] * b
    return d_a, d_b


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


# ---------------------------------------------------------------------------
# angular-margin softmax


@dataclass
class AamHead:
    """Cosine classifier head: unit-norm class rows, scale s, margin m."""

    weights: np.ndarray  # (C, D)
    scale: float = 32.0
    margin: float = 0.2

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if not 0.0 <= self.margin < np.pi / 2:
            raise ValueError("margin must lie in [0, pi/2)")

    @classmethod
    def init(cls, n_classes: int, dim: int, seed: int = 0,
             scale: float = 32.0, margin: float = 0.2) -> "AamHead":
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

    def copy(self) -> "AamHead":
        return AamHead(self.weights.copy(), self.scale, self.margin)


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

    d_logits = np.exp(logp)
    d_logits[rows, y] -= 1.0
    d_logits /= n
    d_cos = head.scale * d_logits
    d_cos[rows, y] *= dphi
    d_e, d_w = _cosine_backward(d_cos, cos, e, head.weights, ne, nw)
    return loss, d_e, d_w


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


# ---------------------------------------------------------------------------
# generalized end-to-end contrastive loss


@dataclass
class Ge2eParams:
    """Learnable similarity scale/bias; w stays strictly positive."""

    w: float = 10.0
    b: float = -5.0

    def __post_init__(self) -> None:
        if self.w <= 0:
            raise ValueError("similarity scale w must be positive")


def ge2e_loss(embeddings: np.ndarray, params: Ge2eParams):
    """Contrastive loss over an (S speakers x U utterances x D) batch.

    Similarity of utterance (s, u) to speaker k's centroid is w*cos + b,
    where the own-speaker centroid excludes utterance (s, u) itself. Each
    utterance is classified against its own speaker with softmax
    cross-entropy. Returns (loss, d_embeddings, d_w, d_b), exact gradients
    including the exclusion term.

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
    d_b = float(d_sims.sum())
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
    return loss, d_e, d_w, d_b


def pct_loss(
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
    loss_g, d_g, d_w, d_b = ge2e_loss(e[grouped], ge2e_params)
    d_e[grouped] += contrastive_weight * d_g
    loss = loss_a + contrastive_weight * loss_g
    return loss, d_e, d_head, contrastive_weight * d_w, contrastive_weight * d_b


# ---------------------------------------------------------------------------
# training loop


@dataclass(frozen=True)
class TrainConfig:
    strategy: Strategy = Strategy.AAM_ONLY
    epochs: int = 50
    lr_initial: float = 0.1
    lr_final: float = 1e-5
    multitask_weight: float = 1.0
    contrastive_weight: float = 1.0
    pct_speakers_per_batch: int = 8
    aam_scale: float = 32.0
    aam_margin: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.lr_initial <= 0 or self.lr_final <= 0:
            raise ValueError("learning rates must be positive")
        if self.multitask_weight < 0 or self.contrastive_weight < 0:
            raise ValueError("loss weights must be >= 0")
        if self.pct_speakers_per_batch < 2:
            raise ValueError("PCT batches need >= 2 speakers")


@dataclass
class TrainResult:
    extractor: Extractor
    heads: Dict[str, AamHead]
    ge2e: Optional[Ge2eParams]
    loss_trace: tuple


def lr_schedule(config: TrainConfig, epoch: int) -> float:
    """Exponential decay from lr_initial to lr_final across the run."""
    if config.epochs <= 1:
        return config.lr_initial
    frac = epoch / (config.epochs - 1)
    return config.lr_initial * (config.lr_final / config.lr_initial) ** frac


def train(
    extractor: Extractor,
    features: np.ndarray,
    metas: Sequence[UttMeta],
    inventory: PhraseInventory,
    config: TrainConfig,
) -> TrainResult:
    """Fine-tune the network with the configured objective.

    `features` is an (N, F) array with one row per entry of `metas`; the
    inventory fixes the phrase order of the phrase-aware objectives. Plain
    gradient descent under the exponential learning-rate schedule;
    deterministic given the seed. Head rows are re-normalized to unit norm
    after every update. Returns fresh objects; the inputs are not mutated.
    """
    net = extractor.copy()
    feats = np.asarray(features, dtype=np.float64)
    metas = list(metas)
    if feats.ndim != 2 or feats.shape[0] != len(metas):
        raise ValueError("features must be (N, F) with one row per meta")
    if feats.shape[1] != net.in_dim:
        raise ValueError("corpus feature dim does not match the network")

    speaker_ids = tuple(sorted({m.speaker_id for m in metas}))
    spk_index = {s: i for i, s in enumerate(speaker_ids)}
    spk_labels = np.asarray([spk_index[m.speaker_id] for m in metas])

    needs_phrases = config.strategy in PHRASE_STRATEGIES
    if needs_phrases and any(m.phrase_id is None for m in metas):
        raise ValueError(f"strategy {config.strategy.value} requires phrase labels")
    phrase_ids = inventory.phrase_ids
    phr_index = {p: i for i, p in enumerate(phrase_ids)}
    phr_labels = (
        np.asarray([phr_index[m.phrase_id] for m in metas]) if needs_phrases else None
    )

    rng = np.random.default_rng(config.seed)
    emb_dim = net.emb_dim
    n_spk = len(speaker_ids)

    def head_seed() -> int:
        return int(rng.integers(2**63))

    heads: Dict[str, AamHead] = {}
    ge2e: Optional[Ge2eParams] = None
    if config.strategy in (Strategy.AAM_ONLY, Strategy.SPK_PLUS_PHRASE, Strategy.PCT):
        heads["spk"] = AamHead.init(n_spk, emb_dim, head_seed(),
                                    config.aam_scale, config.aam_margin)
    if config.strategy is Strategy.SPK_PLUS_PHRASE:
        heads["phrase"] = AamHead.init(len(phrase_ids), emb_dim, head_seed(),
                                       config.aam_scale, config.aam_margin)
    if config.strategy is Strategy.SPK_TIMES_PHRASE:
        heads["product"] = AamHead.init(n_spk * len(phrase_ids), emb_dim, head_seed(),
                                        config.aam_scale, config.aam_margin)
    if config.strategy is Strategy.PMT:
        for p in phrase_ids:
            heads[p] = AamHead.init(n_spk, emb_dim, head_seed(),
                                    config.aam_scale, config.aam_margin)
    if config.strategy is Strategy.PCT:
        ge2e = Ge2eParams()

    def apply_net_grads(cache, d_unit, lr) -> None:
        d_w1, d_b1, d_w2, d_b2 = _backward_to_params(net, cache, d_unit)
        net.w1 -= lr * d_w1
        net.b1 -= lr * d_b1
        net.w2 -= lr * d_w2
        net.b2 -= lr * d_b2

    trace = []
    for epoch in range(config.epochs):
        lr = lr_schedule(config, epoch)
        if config.strategy is Strategy.PCT:
            losses = []
            for p in phrase_ids:
                batch = _sample_pct_batch(rng, metas, phr_index[p], phr_labels,
                                          config.pct_speakers_per_batch)
                if batch is None:
                    continue
                cache = _forward_cache(net, feats[batch])
                loss, d_e, d_head, d_w, d_b = pct_loss(
                    cache["unit"], spk_labels[batch], [p] * len(batch),
                    heads["spk"], ge2e, config.contrastive_weight,
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
            continue

        cache = _forward_cache(net, feats)
        unit = cache["unit"]
        if config.strategy is Strategy.AAM_ONLY:
            loss, d_e, d_w = aam_loss(unit, spk_labels, heads["spk"])
            head_updates = {"spk": d_w}
        elif config.strategy is Strategy.SPK_PLUS_PHRASE:
            loss, d_e, d_ws, d_wp = spk_plus_phrase_loss(
                unit, spk_labels, phr_labels, heads["spk"], heads["phrase"],
                config.multitask_weight,
            )
            head_updates = {"spk": d_ws, "phrase": d_wp}
        elif config.strategy is Strategy.SPK_TIMES_PHRASE:
            combined = np.asarray([
                product_label(int(s), int(p), len(phrase_ids))
                for s, p in zip(spk_labels, phr_labels)
            ])
            loss, d_e, d_w = aam_loss(unit, combined, heads["product"])
            head_updates = {"product": d_w}
        else:  # PMT
            phr_names = [phrase_ids[i] for i in phr_labels]
            loss, d_e, d_heads = pmt_loss(unit, spk_labels, phr_names, heads)
            head_updates = d_heads
        apply_net_grads(cache, d_e, lr)
        for name, d_w in head_updates.items():
            heads[name].weights -= lr * d_w
            heads[name].renormalize()
        trace.append(float(loss))

    return TrainResult(
        extractor=net,
        heads=heads,
        ge2e=copy.copy(ge2e) if ge2e is not None else None,
        loss_trace=tuple(trace),
    )


def _sample_pct_batch(rng, metas, phrase_idx, phr_labels, speakers_per_batch):
    """Indices of a same-phrase batch with two utterances per speaker."""
    in_phrase: Dict[str, list] = {}
    for i, m in enumerate(metas):
        if phr_labels[i] == phrase_idx:
            in_phrase.setdefault(m.speaker_id, []).append(i)
    eligible = sorted(s for s, utts in in_phrase.items() if len(utts) >= 2)
    if len(eligible) < 2:
        return None
    count = min(speakers_per_batch, len(eligible))
    chosen = rng.permutation(len(eligible))[:count]
    batch = []
    for ci in sorted(int(c) for c in chosen):
        utts = in_phrase[eligible[ci]]
        pick = rng.permutation(len(utts))[:2]
        batch.extend(utts[int(p)] for p in pick)
    return batch
