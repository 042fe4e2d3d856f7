"""Detection metrics, phrase classification / trial filtering, and score fusion.

Scores travel as (trial ids, values): a float64 vector row-aligned to a
split's trial list, one entry per trial in trial-list order. The trials'
keys are a boolean target mask over the same rows, several systems' scores
a (systems, N) matrix, and the phrase filter's verdict a mismatch mask.
Target pooling: TC and TARGET count as targets; TW, IC, IW and NONTARGET
are one pooled nontarget class.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import PhraseInventory


@dataclass(frozen=True)
class DcfParams:
    """Operating point of the normalized detection cost function."""

    p_target: float
    c_miss: float
    c_fa: float

    def __post_init__(self) -> None:
        if not 0.0 < self.p_target < 1.0:
            raise ValueError("p_target must lie in (0, 1)")
        if self.c_miss <= 0 or self.c_fa <= 0:
            raise ValueError("costs must be positive")

    def cost_weights(self) -> tuple:
        """(w_miss, w_fa, min(w_miss, w_fa)): the weights of P_miss and P_fa
        and the cost of the better trivial system, which normalizes them."""
        w_miss = self.c_miss * self.p_target
        w_fa = self.c_fa * (1.0 - self.p_target)
        return w_miss, w_fa, min(w_miss, w_fa)


@dataclass(frozen=True)
class FusionWeights:
    """Per-system non-negative weights summing to one."""

    weights: tuple

    def __post_init__(self) -> None:
        w = tuple(float(x) for x in self.weights)
        if not w:
            raise ValueError("at least one weight required")
        if any(x < 0.0 for x in w):
            raise ValueError("weights must be non-negative")
        if abs(sum(w) - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {sum(w)!r}")
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return len(self.weights)


def _operating_points(scores: np.ndarray, is_target: np.ndarray):
    """Miss / false-alarm curves of each row of (G, N) scores under an
    accept-if-score>=threshold sweep, from one stable sort per row.

    A row's thresholds run from -inf through each of its scores, in ascending
    order, to +inf, so each (G, N + 2) curve starts at (miss=0, fa=1) and ends
    at (miss=1, fa=0). Tied scores share the operating point of their run's
    first position: the scores below the threshold are those before it.
    """
    n_rows, n = scores.shape
    n_tgt = int(np.count_nonzero(is_target))
    n_non = n - n_tgt
    if n_tgt == 0 or n_non == 0:
        raise ValueError("detection metrics need at least one target and one nontarget")
    order = np.argsort(scores, axis=1, kind="stable")
    ranked = np.take_along_axis(scores, order, axis=1)
    labels = is_target[order]
    tgt_before = np.cumsum(labels, axis=1) - labels
    run_start = np.ones((n_rows, n), dtype=bool)
    run_start[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    start = np.maximum.accumulate(np.where(run_start, np.arange(n), 0), axis=1)
    tgt_below = np.take_along_axis(tgt_before, start, axis=1)
    thr = _framed(ranked, -np.inf, np.inf)
    miss = _framed(tgt_below / n_tgt, 0.0, 1.0)
    fa = _framed((n_non - (start - tgt_below)) / n_non, 1.0, 0.0)
    return thr, miss, fa


def _framed(rows: np.ndarray, first: float, last: float) -> np.ndarray:
    """(G, N + 2) copy of (G, N) rows with `first` prepended and `last`
    appended to each row."""
    out = np.empty((rows.shape[0], rows.shape[1] + 2))
    out[:, 0], out[:, 1:-1], out[:, -1] = first, rows, last
    return out


def _eer_rows(miss: np.ndarray, fa: np.ndarray) -> np.ndarray:
    """EER of each row's curve, interpolated linearly where miss - fa
    turns non-negative."""
    diff = miss - fa
    rows = np.arange(diff.shape[0])
    k = np.argmax(diff >= 0.0, axis=1)  # >= 1, since every curve starts at diff -1
    x0, y0 = fa[rows, k - 1], miss[rows, k - 1]
    x1, y1 = fa[rows, k], miss[rows, k]
    # the ROC segment between points k-1 and k against miss == fa
    t = (x0 - y0) / ((x0 - y0) - (x1 - y1))
    return np.where(diff[rows, k] == 0.0, y1, y0 + t * (y1 - y0))


def _min_dcf_rows(thr: np.ndarray, miss: np.ndarray, fa: np.ndarray, params: DcfParams):
    """Each row's minimum normalized cost and the first threshold attaining it."""
    w_miss, w_fa, norm = params.cost_weights()
    costs = (w_miss * miss + w_fa * fa) / norm
    rows = np.arange(costs.shape[0])
    k = np.argmin(costs, axis=1)
    return costs[rows, k], thr[rows, k]


def _checked(scores, is_target, ndim: int = 1):
    """scores as an ndim-D float64 array of one column per trial and
    is_target as a boolean mask over the trials; ValueError on a shape
    mismatch or a non-finite score."""
    scores = np.asarray(scores, dtype=np.float64)
    is_target = np.asarray(is_target, dtype=bool)
    if scores.ndim != ndim or is_target.ndim != 1 or scores.shape[-1:] != is_target.shape:
        raise ValueError(
            f"expected {ndim}-D scores with one column per target flag, "
            f"got {scores.shape} scores for {is_target.shape} target flags")
    bad = ~np.isfinite(scores)
    if bad.any():
        raise ValueError(f"non-finite score at {np.argwhere(bad)[0].tolist()}")
    return scores, is_target


def eer(scores: np.ndarray, is_target: np.ndarray) -> float:
    """Equal error rate with linear interpolation between operating points."""
    scores, is_target = _checked(scores, is_target)
    _, miss, fa = _operating_points(scores[None], is_target)
    return float(_eer_rows(miss, fa)[0])


def min_dcf_details(scores: np.ndarray, is_target: np.ndarray, params: DcfParams):
    """Normalized minimum detection cost and the threshold attaining it.

    Threshold candidates are the observed scores plus the +/-inf endpoints;
    the cost is piecewise constant between scores, so this is exhaustive.
    """
    scores, is_target = _checked(scores, is_target)
    cost, thr = _min_dcf_rows(*_operating_points(scores[None], is_target), params)
    return float(cost[0]), float(thr[0])


def min_dcf(scores: np.ndarray, is_target: np.ndarray, params: DcfParams) -> float:
    return min_dcf_details(scores, is_target, params)[0]


def _codes(texts: Sequence[str]) -> np.ndarray:
    """(len(texts), L) code points of the texts, each row padded past its
    text's end; what the padding holds never matters to `_edit_distances`."""
    return np.asarray(texts, dtype=str).view(np.int32).reshape(len(texts), -1)


def _edit_distances(texts: Sequence[str], refs: Sequence[str]) -> np.ndarray:
    """(len(texts), len(refs)) unit-cost insert/delete/substitute distances
    of every (text, reference) pair, in one Wagner-Fischer DP for all pairs.

    Step i turns row i - 1 of every pair's table D into row i. Deletions
    and substitutions come from row i - 1: tmp[j] = min(D[i-1, j] + 1,
    D[i-1, j-1] + (text[i-1] != ref[j-1])), tmp[0] = i. Insertions then
    chain along the row, D[i, j] = min over k <= j of tmp[k] + j - k, which
    is np.minimum.accumulate(tmp - j) + j. The rows are kept shifted, as
    D[i, j] - j, so that running minimum is the whole insertion step. The
    arithmetic is integer, so every distance is exact. A pair's distance is
    D[len(text), len(ref)]: later rows and columns only pad.
    """
    n_refs = len(refs)
    text_len = np.fromiter(map(len, texts), dtype=np.intp, count=len(texts))
    ref_len = np.fromiter(map(len, refs), dtype=np.intp, count=n_refs)
    out = np.empty((len(texts), n_refs), dtype=np.int64)
    if out.size == 0:
        return out
    a, b = _codes(texts), _codes(refs)
    ref_rows = np.arange(n_refs)
    shifted = np.zeros((len(texts), n_refs, b.shape[1] + 1), dtype=np.int64)  # row 0: D - j = 0
    out[text_len == 0] = ref_len
    ends = set(text_len.tolist())
    for i in range(1, max(ends) + 1):
        match = a[:, i - 1, None, None] == b  # (texts, refs, ref positions)
        np.minimum(shifted[..., 1:] + 1, shifted[..., :-1] - match, out=shifted[..., 1:])
        shifted[..., 0] = i
        np.minimum.accumulate(shifted, axis=-1, out=shifted)
        if i in ends:
            rows = text_len == i
            out[rows] = shifted[rows][:, ref_rows, ref_len] + ref_len
    return out


def levenshtein(a: str, b: str) -> int:
    """Minimum unit-cost insert/delete/substitute edits between two strings."""
    return int(_edit_distances([a], [b])[0, 0])


def classify_phrases(transcripts: Sequence[str], inventory: PhraseInventory) -> list:
    """Each transcript's phrase: the inventory entry whose reference text is
    the fewest edits away, ties going to the first such entry."""
    if not inventory.phrase_ids:
        raise ValueError("empty phrase inventory")
    dist = _edit_distances(transcripts, inventory.texts)
    return [inventory.phrase_ids[k] for k in np.argmin(dist, axis=1).tolist()]


def apply_phrase_filter(scores: np.ndarray, mismatch: np.ndarray, floor: float):
    """`floor` where a trial's classified test phrase mismatches its claimed
    phrase (`mismatch`, one flag per trial), the score itself elsewhere."""
    scores = np.asarray(scores, dtype=np.float64)
    mismatch = np.asarray(mismatch, dtype=bool)
    if scores.ndim != 1 or mismatch.shape != scores.shape:
        raise ValueError(f"{scores.shape} scores for {mismatch.shape} mismatch flags")
    return np.where(mismatch, float(floor), scores)


def fuse(scores: np.ndarray, weights: FusionWeights) -> np.ndarray:
    """Per-trial weighted sum of the rows of (systems, N) scores."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or len(scores) != len(weights):
        raise ValueError(f"one weight per system required: {len(weights)} for {scores.shape}")
    return _weighted_sums(np.asarray([weights.weights]), scores)[0]


def _weighted_sums(weights: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """(G, N) fused scores for (G, systems) weights: one elementwise
    multiply-add per system, in system order, so each row adds up exactly
    as a left-to-right sum over the systems would."""
    fused = np.zeros((weights.shape[0], scores.shape[1]))
    for j, system in enumerate(scores):
        fused += weights[:, j, None] * system
    return fused


def grid_divisions(grid_step: float) -> int:
    """The n with n * grid_step == 1; ValueError unless grid_step divides 1."""
    n = round(1.0 / grid_step) if grid_step > 0 else 0
    if n < 1 or abs(n * grid_step - 1.0) > 1e-9:
        raise ValueError(f"grid_step must evenly divide 1, got {grid_step!r}")
    return n


def _simplex_grid(n_systems: int, n: int) -> np.ndarray:
    """(G, n_systems) weight vectors with entries i / n summing to one,
    lexicographically ascending: the compositions of n into n_systems parts,
    from the bar positions of a stars-and-bars arrangement in ascending order."""
    slots = n + n_systems - 1
    bars = np.asarray(list(itertools.combinations(range(slots), n_systems - 1)))
    edges = np.pad(bars, ((0, 0), (1, 1)), constant_values=(-1, slots))
    return (np.diff(edges, axis=1) - 1) / n


# Grid rows swept at once hold at most about this many fused scores (at
# least one row). A block makes about a dozen (rows, N) temporaries of 8
# bytes per score, so at 8,192 scores they take about 0.9 MiB, near a core's
# L2 cache, whatever the grid size: 54 rows of 150 dev trials, or 2 rows of
# 3,000 (the 231-point grid of 3 systems at grid_step 0.05 in 5 or 116
# blocks). Larger blocks are no faster and raise the peak: 1.7 MiB at
# 1 << 14, and 2.8 MiB for 150 trials' whole grid in one block.
_SWEEP_SCORES = 1 << 13


def tune_weights(
    dev_scores: np.ndarray,
    is_target: np.ndarray,
    params: DcfParams,
    grid_step: float,
) -> FusionWeights:
    """Exhaustive simplex-grid search for the dev-minDCF-minimizing weights.

    Ties break on (a) lower dev EER, then (b) the lexicographically smallest
    weight vector. The simplex corners are always in the grid, so the result
    never underperforms the best single system on the dev set.

    `dev_scores` holds one row per system and one column per dev trial, and
    `is_target` flags the target columns. Each grid point's fused dev scores
    are one row of a (G, N) matrix, added up as `fuse` adds them; one sorted
    sweep per row gives its minDCF and EER.
    """
    scores, is_target = _checked(dev_scores, is_target, ndim=2)
    if len(scores) == 0:
        raise ValueError("tune_weights needs at least one system")
    grid = _simplex_grid(len(scores), grid_divisions(grid_step))

    costs = np.empty(len(grid))
    errs = np.empty(len(grid))
    step = max(1, _SWEEP_SCORES // max(scores.shape[1], 1))
    for lo in range(0, len(grid), step):
        thr, miss, fa = _operating_points(_weighted_sums(grid[lo : lo + step], scores), is_target)
        costs[lo : lo + step] = _min_dcf_rows(thr, miss, fa, params)[0]
        errs[lo : lo + step] = _eer_rows(miss, fa)
    tied = np.flatnonzero(costs == costs.min())
    return FusionWeights(tuple(grid[tied[np.argmin(errs[tied])]]))
