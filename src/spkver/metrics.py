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


def _operating_points(tgt: np.ndarray, non: np.ndarray):
    """Miss / false-alarm rates under an accept-if-score>=threshold sweep.

    Thresholds run from -inf through every observed score to +inf, so the
    returned curves start at (miss=0, fa=1) and end at (miss=1, fa=0).
    """
    thr = np.unique(np.concatenate([tgt, non]))
    tgt_sorted = np.sort(tgt)
    non_sorted = np.sort(non)
    miss = np.searchsorted(tgt_sorted, thr, side="left") / tgt.size
    fa = (non.size - np.searchsorted(non_sorted, thr, side="left")) / non.size
    miss = np.concatenate([[0.0], miss, [1.0]])
    fa = np.concatenate([[1.0], fa, [0.0]])
    thr = np.concatenate([[-np.inf], thr, [np.inf]])
    return thr, miss, fa


def eer(scores: ScoreSet, keys: Mapping[str, TrialLabel]) -> float:
    """Equal error rate with linear interpolation between operating points."""
    tgt, non = _split_scores(scores, keys)
    if tgt.size == 0 or non.size == 0:
        raise ValueError("eer needs at least one target and one nontarget")
    _, miss, fa = _operating_points(tgt, non)
    diff = miss - fa
    k = int(np.argmax(diff >= 0.0))
    if diff[k] == 0.0:
        return float(miss[k])
    # Interpolate the ROC segment between points k-1 and k against miss == fa.
    x0, y0 = fa[k - 1], miss[k - 1]
    x1, y1 = fa[k], miss[k]
    t = (x0 - y0) / ((x0 - y0) - (x1 - y1))
    return float(y0 + t * (y1 - y0))


def min_dcf_from_arrays(tgt: np.ndarray, non: np.ndarray, params: DcfParams = DcfParams()):
    """min_dcf over raw target / nontarget score arrays; returns (cost, threshold)."""
    tgt = np.asarray(tgt, dtype=np.float64)
    non = np.asarray(non, dtype=np.float64)
    if tgt.size == 0 or non.size == 0:
        raise ValueError("min_dcf needs at least one target and one nontarget")
    thr, miss, fa = _operating_points(tgt, non)
    w_miss = params.c_miss * params.p_target
    w_fa = params.c_fa * (1.0 - params.p_target)
    costs = (w_miss * miss + w_fa * fa) / min(w_miss, w_fa)
    k = int(np.argmin(costs))
    return float(costs[k]), float(thr[k])


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
    ids = list(score_sets[0])
    id_set = set(ids)
    for s in score_sets[1:]:
        if set(s) != id_set:
            raise ValueError("trial-id mismatch between fused score sets")
    return {
        tid: float(sum(w * s[tid] for w, s in zip(weights.weights, score_sets)))
        for tid in ids
    }


def grid_divisions(grid_step: float) -> int:
    """The n with n * grid_step == 1; ValueError unless grid_step divides 1."""
    n = round(1.0 / grid_step) if grid_step > 0 else 0
    if n < 1 or abs(n * grid_step - 1.0) > 1e-9:
        raise ValueError(f"grid_step must evenly divide 1, got {grid_step!r}")
    return n


def _simplex_grid(n_systems: int, grid_step: float):
    """All weight vectors on the simplex grid, lexicographically ascending."""
    n = grid_divisions(grid_step)
    for parts in itertools.product(range(n + 1), repeat=n_systems):
        if sum(parts) == n:
            yield tuple(p / n for p in parts)


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
