"""Detection metrics, phrase classification / trial filtering, and score fusion.

A ScoreSet is an insertion-ordered dict mapping trial_id -> float score.
Target pooling: TC and TARGET count as targets; TW, IC, IW and NONTARGET
are one pooled nontarget class.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Mapping, Sequence

import numpy as np

from .core import PhraseInventory, Trial, TrialLabel

ScoreSet = Dict[str, float]


@dataclass(frozen=True)
class DcfParams:
    """Operating point of the normalized detection cost function."""

    p_target: float = 0.01
    c_miss: float = 10.0
    c_fa: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.p_target < 1.0:
            raise ValueError("p_target must lie in (0, 1)")
        if self.c_miss <= 0 or self.c_fa <= 0:
            raise ValueError("costs must be positive")


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


def _split_scores(scores: ScoreSet, keys: Mapping[str, TrialLabel]):
    """Split a score set into (target, nontarget) arrays, in score-set order."""
    tgt, non = [], []
    for trial_id, score in scores.items():
        if trial_id not in keys:
            raise ValueError(f"scored trial {trial_id} has no key")
        if not np.isfinite(score):
            raise ValueError(f"non-finite score for trial {trial_id}")
        (tgt if keys[trial_id].is_target else non).append(float(score))
    return np.asarray(tgt, dtype=np.float64), np.asarray(non, dtype=np.float64)


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
    ends = ((0, 0), (1, 1))
    thr = np.pad(ranked, ends, constant_values=(-np.inf, np.inf))
    miss = np.pad(tgt_below / n_tgt, ends, constant_values=(0.0, 1.0))
    fa = np.pad((n_non - (start - tgt_below)) / n_non, ends, constant_values=(1.0, 0.0))
    return thr, miss, fa


def _one_row(tgt: np.ndarray, non: np.ndarray):
    """Operating points of one system's target / nontarget scores."""
    is_target = np.arange(tgt.size + non.size) < tgt.size
    return _operating_points(np.concatenate([tgt, non])[None], is_target)


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
    w_miss = params.c_miss * params.p_target
    w_fa = params.c_fa * (1.0 - params.p_target)
    costs = (w_miss * miss + w_fa * fa) / min(w_miss, w_fa)
    rows = np.arange(costs.shape[0])
    k = np.argmin(costs, axis=1)
    return costs[rows, k], thr[rows, k]


def eer(scores: ScoreSet, keys: Mapping[str, TrialLabel]) -> float:
    """Equal error rate with linear interpolation between operating points."""
    _, miss, fa = _one_row(*_split_scores(scores, keys))
    return float(_eer_rows(miss, fa)[0])


def min_dcf_from_arrays(tgt: np.ndarray, non: np.ndarray, params: DcfParams = DcfParams()):
    """min_dcf over raw target / nontarget score arrays; returns (cost, threshold)."""
    tgt = np.asarray(tgt, dtype=np.float64)
    non = np.asarray(non, dtype=np.float64)
    cost, thr = _min_dcf_rows(*_one_row(tgt, non), params)
    return float(cost[0]), float(thr[0])


def min_dcf_details(
    scores: ScoreSet, keys: Mapping[str, TrialLabel], params: DcfParams = DcfParams()
):
    """Normalized minimum detection cost and the threshold attaining it.

    Threshold candidates are the observed scores plus the +/-inf endpoints;
    the cost is piecewise constant between scores, so this is exhaustive.
    """
    tgt, non = _split_scores(scores, keys)
    return min_dcf_from_arrays(tgt, non, params)


def min_dcf(
    scores: ScoreSet, keys: Mapping[str, TrialLabel], params: DcfParams = DcfParams()
) -> float:
    return min_dcf_details(scores, keys, params)[0]


def levenshtein(a: str, b: str) -> int:
    """Minimum unit-cost insert/delete/substitute edits between two strings."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def classify_phrase(transcript: str, inventory: PhraseInventory) -> str:
    """Phrase whose reference text minimizes edit distance to the transcript.

    Ties are broken by inventory order.
    """
    if len(inventory) == 0:
        raise ValueError("empty phrase inventory")
    best_id, best_dist = None, None
    for entry in inventory:
        dist = levenshtein(transcript, entry.text)
        if best_dist is None or dist < best_dist:
            best_id, best_dist = entry.phrase_id, dist
    return best_id


def apply_phrase_filter(
    scores: ScoreSet,
    trials: Sequence[Trial],
    classified_phrase: Mapping[str, str],
    floor: float = -1000.0,
) -> ScoreSet:
    """Floor the score of every trial whose classified test phrase mismatches
    the claimed phrase; other trials pass through unchanged."""
    by_id = {t.trial_id: t for t in trials}
    out: ScoreSet = {}
    for trial_id, score in scores.items():
        trial = by_id.get(trial_id)
        if trial is None:
            raise ValueError(f"scored trial {trial_id} not in trial list")
        if trial.claimed_phrase_id is None:
            raise ValueError(f"trial {trial_id} has no claimed phrase")
        if trial.test_utt_id not in classified_phrase:
            raise ValueError(f"no phrase classification for utterance {trial.test_utt_id}")
        if classified_phrase[trial.test_utt_id] != trial.claimed_phrase_id:
            out[trial_id] = float(floor)
        else:
            out[trial_id] = float(score)
    return out


def fuse(score_sets: Sequence[ScoreSet], weights: FusionWeights) -> ScoreSet:
    """Per-trial weighted sum of several systems' scores."""
    if len(score_sets) != len(weights):
        raise ValueError("one weight per score set required")
    if not score_sets:
        raise ValueError("nothing to fuse")
    ids, scores = _aligned(score_sets)
    return dict(zip(ids, _weighted_sums(np.asarray([weights.weights]), scores)[0].tolist()))


def _aligned(score_sets: Sequence[ScoreSet]):
    """The first set's trial ids, and every set's scores in that order as a
    (systems, N) matrix; ValueError unless all sets hold the same trials."""
    ids = list(score_sets[0])
    id_set = set(ids)
    if any(set(s) != id_set for s in score_sets[1:]):
        raise ValueError("trial-id mismatch between fused score sets")
    return ids, np.asarray([[s[t] for t in ids] for s in score_sets], dtype=np.float64)


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


# Grid rows swept at once hold at most about this many fused scores, so the
# sweep's temporaries stay near 10 MiB whatever the grid size and trial count
# (at 3,000 dev trials and 231 grid points, one block would need about 55 MiB).
_SWEEP_SCORES = 1 << 17


def tune_weights(
    dev_sets: Sequence[ScoreSet],
    dev_keys: Mapping[str, TrialLabel],
    params: DcfParams = DcfParams(),
    grid_step: float = 0.1,
) -> FusionWeights:
    """Exhaustive simplex-grid search for the dev-minDCF-minimizing weights.

    Ties break on (a) lower dev EER, then (b) the lexicographically smallest
    weight vector. The simplex corners are always in the grid, so the result
    never underperforms the best single system on the dev set.

    Each grid point's fused dev scores are one row of a (G, N) matrix, added
    up as `fuse` adds them; one sorted sweep per row gives its minDCF and EER.
    """
    if not dev_sets:
        raise ValueError("tune_weights needs at least one system")
    if len(dev_sets) == 1:
        return FusionWeights((1.0,))
    grid = _simplex_grid(len(dev_sets), grid_divisions(grid_step))
    ids, scores = _aligned(dev_sets)
    for s in dev_sets:
        _split_scores(s, dev_keys)  # every trial keyed, every score finite
    is_target = np.asarray([dev_keys[t].is_target for t in ids], dtype=bool)

    costs = np.empty(len(grid))
    errs = np.empty(len(grid))
    step = max(1, _SWEEP_SCORES // max(len(ids), 1))
    for lo in range(0, len(grid), step):
        thr, miss, fa = _operating_points(_weighted_sums(grid[lo : lo + step], scores), is_target)
        costs[lo : lo + step] = _min_dcf_rows(thr, miss, fa, params)[0]
        errs[lo : lo + step] = _eer_rows(miss, fa)
    tied = np.flatnonzero(costs == costs.min())
    return FusionWeights(tuple(grid[tied[np.argmin(errs[tied])]]))
