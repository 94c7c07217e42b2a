"""Heatwave / cold-surge event labeling, temporal-IoU matching, and
categorical scores (POD / FAR / CSI).

An event is a maximal run of at least three consecutive exceedance days
at one location: daily max strictly above tau_heat for heatwaves, daily
min strictly below tau_cold for cold surges. Predicted and observed
events match one-to-one when their day-count IoU reaches gamma
(default 0.5); matching maximizes the number of matched pairs, with
higher-IoU pairs preferred among maximum matchings. Unmatched
predictions are false positives, unmatched truths false negatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

#: Minimum run length, in days, for an exceedance run to count as an event.
MIN_EVENT_DAYS = 3


class EventKind(Enum):
    HEATWAVE = "heatwave"
    COLDSURGE = "coldsurge"


@dataclass(frozen=True)
class EventSegment:
    """One contiguous extreme-temperature run at one location.

    ``start_day`` and ``end_day`` are inclusive calendar indices.
    """

    location: str
    kind: EventKind
    start_day: int
    end_day: int

    def __post_init__(self):
        if self.end_day - self.start_day + 1 < MIN_EVENT_DAYS:
            raise ValueError(
                f"segment [{self.start_day}, {self.end_day}] shorter than "
                f"{MIN_EVENT_DAYS} days")

    @property
    def n_days(self) -> int:
        return self.end_day - self.start_day + 1


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


def label_events(values: np.ndarray, thresholds: np.ndarray, kind: EventKind,
                 location: str = "", first_day: int = 1) -> list[EventSegment]:
    """Event segments of one daily series; see :func:`label_event_runs`."""
    v = np.asarray(values, dtype=np.float64)
    t = np.asarray(thresholds, dtype=np.float64)
    if v.shape != t.shape or v.ndim != 1:
        raise ValueError("values and thresholds must be aligned 1-D arrays")
    _, starts, ends = label_event_runs(v[:, None], t[:, None], kind, first_day)
    return [EventSegment(location, kind, start, end)
            for start, end in zip(starts.tolist(), ends.tolist())]


def segments_by_location(runs: tuple[np.ndarray, np.ndarray, np.ndarray],
                         kind: EventKind) -> dict[int, list[EventSegment]]:
    """Group the runs of :func:`label_event_runs` into segments.

    Keys are location indices in ascending order; each segment's
    ``location`` is the index as a decimal string.
    """
    grouped: dict[int, list[EventSegment]] = {}
    for loc, start, end in zip(*(a.tolist() for a in runs)):
        grouped.setdefault(loc, []).append(
            EventSegment(str(loc), kind, start, end))
    return grouped


def temporal_iou(a: EventSegment, b: EventSegment) -> float:
    """Day-count intersection over union of two segments; 0 when disjoint."""
    if a.location != b.location:
        raise ValueError("IoU requires segments at the same location")
    if a.kind is not b.kind:
        raise ValueError("IoU requires segments of the same kind")
    inter = min(a.end_day, b.end_day) - max(a.start_day, b.start_day) + 1
    if inter <= 0:
        return 0.0
    union = a.n_days + b.n_days - inter
    return inter / union


@dataclass(frozen=True)
class MatchResult:
    """Outcome of matching predicted against observed segments."""

    tp: int
    fp: int
    fn: int
    pairs: tuple[tuple[EventSegment, EventSegment, float], ...]
    gamma: float

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn) < 0:
            raise ValueError("counts must be non-negative")
        if len(self.pairs) != self.tp:
            raise ValueError("pair list length must equal tp")
        preds = [id(p) for p, _, _ in self.pairs]
        truths = [id(t) for _, t, _ in self.pairs]
        if len(set(preds)) != len(preds) or len(set(truths)) != len(truths):
            raise ValueError("each segment may appear in at most one pair")
        if any(iou < self.gamma for _, _, iou in self.pairs):
            raise ValueError("every pair must satisfy IoU >= gamma")


def _validate_side(segments: Sequence[EventSegment], side: str):
    for prev, cur in zip(segments, segments[1:]):
        if cur.start_day <= prev.end_day:
            raise ValueError(f"{side} segments must be sorted and disjoint")
        if cur.location != prev.location or cur.kind is not prev.kind:
            raise ValueError(f"{side} segments must share location and kind")


def match_events(pred: Sequence[EventSegment], truth: Sequence[EventSegment],
                 gamma: float = 0.5) -> MatchResult:
    """One-to-one matching of predicted to observed segments.

    Admissible pairs have IoU >= gamma. The matching has maximum
    cardinality (so true-positive counts agree with an exhaustive
    search); candidate pairs are considered in descending IoU order with
    ties broken by earlier truth start, then earlier prediction start,
    which makes the result deterministic. tp + fn = len(truth) and
    tp + fp = len(pred).
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must lie in (0, 1]")
    _validate_side(pred, "predicted")
    _validate_side(truth, "truth")

    candidates = []  # (iou, pred index, truth index)
    for pi, p in enumerate(pred):
        for ti, t in enumerate(truth):
            iou = temporal_iou(p, t)
            if iou >= gamma:
                candidates.append((iou, pi, ti))
    candidates.sort(key=lambda c: (-c[0], truth[c[2]].start_day,
                                   pred[c[1]].start_day))

    adjacency: dict[int, list[int]] = {}
    for iou, pi, ti in candidates:
        adjacency.setdefault(pi, []).append(ti)

    match_of_pred: dict[int, int] = {}
    match_of_truth: dict[int, int] = {}
    for iou, pi, ti in candidates:
        if pi not in match_of_pred and ti not in match_of_truth:
            match_of_pred[pi] = ti
            match_of_truth[ti] = pi

    def augment(pi: int, visited: set[int]) -> bool:
        for ti in adjacency.get(pi, ()):
            if ti in visited:
                continue
            visited.add(ti)
            if ti not in match_of_truth or augment(match_of_truth[ti], visited):
                match_of_pred[pi] = ti
                match_of_truth[ti] = pi
                return True
        return False

    for pi in range(len(pred)):
        if pi not in match_of_pred:
            augment(pi, set())

    iou_of = {(pi, ti): iou for iou, pi, ti in candidates}
    pairs = tuple(sorted(
        ((pred[pi], truth[ti], iou_of[(pi, ti)])
         for pi, ti in match_of_pred.items()),
        key=lambda pair: pair[1].start_day))
    tp = len(pairs)
    return MatchResult(tp, len(pred) - tp, len(truth) - tp, pairs, gamma)


def match_counts(pred: Mapping[int, Sequence[EventSegment]],
                 truth: Mapping[int, Sequence[EventSegment]],
                 n_locations: int, gamma: float = 0.5
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-location (tp, fp, fn) int arrays over ``n_locations``.

    ``pred`` and ``truth`` map a location index to its segments, as
    :func:`segments_by_location` returns them. :func:`match_events` runs
    only where both sides have segments, in ascending location order;
    elsewhere tp = 0, fp = #pred and fn = #truth.
    """
    tp = np.zeros(n_locations, dtype=np.int64)
    fp = np.zeros(n_locations, dtype=np.int64)
    fn = np.zeros(n_locations, dtype=np.int64)
    for loc, segments in pred.items():
        fp[loc] = len(segments)
    for loc, segments in truth.items():
        fn[loc] = len(segments)
    for loc in sorted(pred.keys() & truth.keys()):
        m = match_events(pred[loc], truth[loc], gamma)
        tp[loc], fp[loc], fn[loc] = m.tp, m.fp, m.fn
    return tp, fp, fn


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
