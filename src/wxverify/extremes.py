"""Heatwave / cold-surge event labeling, temporal-IoU matching, and
categorical scores (POD / FAR / CSI).

An event is a maximal run of at least three consecutive exceedance days
at one location: daily max strictly above tau_heat for heatwaves, daily
min strictly below tau_cold for cold surges. Predicted and observed
events match one-to-one when their day-count IoU reaches gamma
(default 0.5); matching maximizes the number of matched pairs, and
only the counts are kept. Unmatched predictions are false positives,
unmatched truths false negatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

#: Minimum run length, in days, for an exceedance run to count as an event.
MIN_EVENT_DAYS = 3


class EventKind(Enum):
    HEATWAVE = "heatwave"
    COLDSURGE = "coldsurge"


def label_event_runs(values: np.ndarray, thresholds: np.ndarray,
                     kind: EventKind, first_day: int = 1
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximal exceedance runs of length >= 3 at every location.

    ``values`` and ``thresholds`` are aligned (days x locations) arrays;
    row k describes calendar day ``first_day + k``. Comparisons are
    strict (> for heat, < for cold); NaN days never exceed and therefore
    break runs. Runs touching either series boundary count on their
    observed length. Returns ``(location, start_day, end_day)`` int
    arrays (inclusive days), ordered by location and then by start day.
    """
    v = np.asarray(values, dtype=np.float64)
    t = np.asarray(thresholds, dtype=np.float64)
    if v.shape != t.shape or v.ndim != 2:
        raise ValueError(
            "values and thresholds must be aligned (days x locations) arrays")
    with np.errstate(invalid="ignore"):
        mask = v > t if kind is EventKind.HEATWAVE else v < t
    padded = np.zeros((v.shape[0] + 2, v.shape[1]), dtype=np.int8)
    padded[1:-1] = mask
    # +1 where a run starts, -1 one row past where it ends; transposed so
    # that nonzero() walks location-major
    edges = np.diff(padded, axis=0).T
    location, start = np.nonzero(edges == 1)
    stop = np.nonzero(edges == -1)[1]
    keep = stop - start >= MIN_EVENT_DAYS
    return (location[keep], first_day + start[keep],
            first_day + stop[keep] - 1)


def match_counts(pred_runs: tuple[np.ndarray, np.ndarray, np.ndarray],
                 truth_runs: tuple[np.ndarray, np.ndarray, np.ndarray],
                 n_locations: int, gamma: float = 0.5
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-location (tp, fp, fn) int arrays over ``n_locations``.

    ``pred_runs`` and ``truth_runs`` are ``(location, start_day,
    end_day)`` arrays as :func:`label_event_runs` returns them: ordered by
    location and then by start day, and disjoint at each location. tp
    counts the pairs of a maximum one-to-one matching of same-location
    runs with day-count IoU >= gamma; fp and fn count the unmatched
    forecast and truth runs.

    Admissible pairs are accepted greedily in the order of the earlier
    of their two end days, which gives a maximum matching: runs on one
    side are disjoint, so of the runs that still have a free partner,
    the one that ends first has only one (a second would lie wholly
    before the first and end earlier still), and matching a run to its
    only partner keeps some maximum matching within reach.
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must lie in (0, 1]")
    p_loc, p_start, p_end = (np.asarray(a, dtype=np.int64) for a in pred_runs)
    t_loc, t_start, t_end = (np.asarray(a, dtype=np.int64) for a in truth_runs)
    fp = np.bincount(p_loc, minlength=n_locations)
    fn = np.bincount(t_loc, minlength=n_locations)
    # span exceeds every day difference, so location * span + day orders
    # runs by location and then by day
    span = (max(p_end.max(initial=0), t_end.max(initial=0))
            - min(p_start.min(initial=0), t_start.min(initial=0)) + 1)
    p_base, t_base = p_loc * span, t_loc * span
    # the truth runs that overlap a forecast run are contiguous: from the
    # first that ends on or after its start to the last that starts on or
    # before its end
    lo = np.searchsorted(t_base + t_end, p_base + p_start, side="left")
    hi = np.searchsorted(t_base + t_start, p_base + p_end, side="right")
    n_pairs = np.maximum(hi - lo, 0)
    # candidate pairs (pi, ti): each forecast run with truth runs lo, lo + 1,
    # ... of its range
    pi = np.repeat(np.arange(len(p_loc)), n_pairs)
    first_pair = np.cumsum(n_pairs) - n_pairs
    ti = np.arange(n_pairs.sum()) + np.repeat(lo - first_pair, n_pairs)
    end = np.minimum(p_end[pi], t_end[ti])
    inter = end - np.maximum(p_start[pi], t_start[ti]) + 1
    union = (p_end - p_start)[pi] + (t_end - t_start)[ti] + 2 - inter
    admissible = inter / union >= gamma
    order = np.argsort(end[admissible])
    taken_p, taken_t = set(), set()
    for i, j in zip(pi[admissible][order].tolist(),
                    ti[admissible][order].tolist()):
        if i not in taken_p and j not in taken_t:
            taken_p.add(i)
            taken_t.add(j)
    tp = np.bincount(p_loc[list(taken_p)], minlength=n_locations)
    return tp, fp - tp, fn - tp


@dataclass(frozen=True)
class CategoricalScores:
    """POD / FAR / CSI with None marking an undefined (0/0) score.

    Callers must surface undefined scores as "n/a", never as 0.
    """

    pod: float | None
    far: float | None
    csi: float | None


def scores_from_counts(tp: int, fp: int, fn: int) -> CategoricalScores:
    """POD / FAR / CSI from raw counts (e.g. aggregated over locations)."""
    if min(tp, fp, fn) < 0:
        raise ValueError("counts must be non-negative")
    return CategoricalScores(
        pod=tp / (tp + fn) if tp + fn else None,
        far=fp / (tp + fp) if tp + fp else None,
        csi=tp / (tp + fp + fn) if tp + fp + fn else None,
    )
