"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the engine's code paths: metrics are
scalar loops with exactly-rounded accumulation (math.fsum), the spectrum
is a direct O(N^2) transform, percentiles are computed from a Python
sort, and event labeling/matching are brute-force searches. The one
exception is the per-location event loop, which calls the engine's
one-series labeling and matching to check the vectorized bookkeeping
around them.
"""

from __future__ import annotations

import cmath
import math
from datetime import date
from itertools import combinations, permutations

import numpy as np


# --- weighted-metric oracles (scalar loops, fsum accumulation) ---------------

def weighted_mean_loop(values, weights) -> float:
    n_lat, n_lon = values.shape
    total = math.fsum(weights[i] * values[i][j]
                      for i in range(n_lat) for j in range(n_lon))
    return total / (n_lat * n_lon)


def wrmse_loop(pred, truth, weights) -> float:
    n_lat, n_lon = pred.shape
    total = math.fsum(weights[i] * (pred[i][j] - truth[i][j]) ** 2
                      for i in range(n_lat) for j in range(n_lon))
    return math.sqrt(total / (n_lat * n_lon))


def bias_loop(pred, truth, weights) -> float:
    n_lat, n_lon = pred.shape
    total = math.fsum(weights[i] * (pred[i][j] - truth[i][j])
                      for i in range(n_lat) for j in range(n_lon))
    return total / (n_lat * n_lon)


def acc_loop(pred, truth, clim, weights) -> float:
    n_lat, n_lon = pred.shape
    num = math.fsum(weights[i] * (pred[i][j] - clim[i][j])
                    * (truth[i][j] - clim[i][j])
                    for i in range(n_lat) for j in range(n_lon))
    d1 = math.fsum(weights[i] * (pred[i][j] - clim[i][j]) ** 2
                   for i in range(n_lat) for j in range(n_lon))
    d2 = math.fsum(weights[i] * (truth[i][j] - clim[i][j]) ** 2
                   for i in range(n_lat) for j in range(n_lon))
    cells = n_lat * n_lon
    return (num / cells) / (math.sqrt(d1 / cells) * math.sqrt(d2 / cells))


def activity_loop(pred, clim, weights) -> float:
    n_lat, n_lon = pred.shape
    cells = n_lat * n_lon
    mean = math.fsum(weights[i] * (pred[i][j] - clim[i][j])
                     for i in range(n_lat) for j in range(n_lon)) / cells
    var = math.fsum(weights[i] * (pred[i][j] - clim[i][j] - mean) ** 2
                    for i in range(n_lat) for j in range(n_lon)) / cells
    return math.sqrt(var)


# --- spectrum oracle: direct O(N^2) DFT ---------------------------------------

def zonal_spectrum_direct(row, circumference_m: float) -> np.ndarray:
    """Direct transform per the stated formulas, one k at a time."""
    n = len(row)
    out = np.empty(n // 2 + 1)
    for k in range(n // 2 + 1):
        coeff = sum(row[j] * cmath.exp(-2j * math.pi * k * j / n)
                    for j in range(n)) / n
        s = circumference_m * abs(coeff) ** 2
        out[k] = s if k == 0 else 2.0 * s
    return out


def mean_square_loop(row) -> float:
    return math.fsum(x * x for x in row) / len(row)


# --- percentile oracle ---------------------------------------------------------

def percentile_sorted_oracle(pool, q: float) -> float:
    """Linear interpolation between closest order statistics."""
    s = sorted(float(x) for x in pool)
    n = len(s)
    h = q * (n - 1)
    lo = math.floor(h)
    g = h - lo
    if g == 0.0 or lo + 1 >= n:
        return s[min(lo, n - 1)]
    return s[lo] + g * (s[lo + 1] - s[lo])


# --- daily-extremes oracle -------------------------------------------------------

def calendar_day_oracle(when) -> int:
    """0-based day of a fixed 365-day year; Feb 29 shares Feb 28's index."""
    day = 28 if (when.month, when.day) == (2, 29) else when.day
    return (date(2001, when.month, day) - date(2001, 1, 1)).days


def daily_extremes(samples) -> tuple[np.ndarray, np.ndarray]:
    """Per-calendar-day (max, min) from a 6-hourly series of one year.

    The scalar counterpart of ``climatology.history_from_fields`` for one
    location. Returns two length-365 arrays; days with fewer than the
    four 00/06/12/18 UTC samples are absent (NaN). Feb 29 samples are
    dropped. Timestamps off the synoptic hours are rejected.
    """
    values_by_day: dict[int, list[float]] = {}
    seen = set()
    for when, value in samples:
        if when.hour % 6 or when.minute or when.second or when.microsecond:
            raise ValueError(f"sample at {when} is not 00/06/12/18 UTC aligned")
        if when in seen:
            raise ValueError(f"duplicate sample timestamp {when}")
        seen.add(when)
        if (when.month, when.day) == (2, 29):
            continue
        values_by_day.setdefault(calendar_day_oracle(when), []).append(value)
    day_max = np.full(365, np.nan)
    day_min = np.full(365, np.nan)
    for day, values in values_by_day.items():
        if len(values) == 4:
            day_max[day] = max(values)
            day_min[day] = min(values)
    return day_max, day_min


# --- event-labeling oracle ------------------------------------------------------

def label_events_bruteforce(mask) -> list[tuple[int, int]]:
    """All (start, end) windows fully exceeding, length >= 3, merged.

    Tests every window of length >= 3 for full exceedance and merges
    overlapping/adjacent accepted windows into maximal segments;
    positions are 0-based.
    """
    n = len(mask)
    accepted = []
    for start in range(n):
        for length in range(3, n - start + 1):
            if all(mask[start:start + length]):
                accepted.append((start, start + length - 1))
    merged: list[list[int]] = []
    for s, e in sorted(accepted):
        if merged and s <= merged[-1][1] + 1:
            merged[-1][1] = max(merged[-1][1], e)
        else:
            merged.append([s, e])
    return [(s, e) for s, e in merged]


# --- matching oracle -------------------------------------------------------------

def segment_iou(a: tuple[int, int], b: tuple[int, int]) -> float:
    inter = min(a[1], b[1]) - max(a[0], b[0]) + 1
    if inter <= 0:
        return 0.0
    union = (a[1] - a[0] + 1) + (b[1] - b[0] + 1) - inter
    return inter / union


def match_exhaustive(pred, truth, gamma: float) -> tuple[int, int, int]:
    """(tp, fp, fn) of the best one-to-one matching.

    Enumerates every injective assignment of predictions to truths,
    keeps those whose pairs all reach gamma, and maximizes pair count
    with ties broken by total IoU.
    """
    n_p, n_t = len(pred), len(truth)
    best_count = 0
    best_iou = -1.0
    upper = min(n_p, n_t)
    for k in range(upper, -1, -1):
        for p_subset in combinations(range(n_p), k):
            for t_perm in permutations(range(n_t), k):
                ious = [segment_iou(pred[pi], truth[ti])
                        for pi, ti in zip(p_subset, t_perm)]
                if any(v < gamma for v in ious):
                    continue
                total = sum(ious)
                if k > best_count or (k == best_count and total > best_iou):
                    best_count = k
                    best_iou = total
        if best_count == k and k > 0:
            # nothing larger is possible once a size-k matching exists
            break
    return best_count, n_p - best_count, n_t - best_count


# --- per-location event verification -------------------------------------------

def event_counts_per_location(truth_series, fc_series, thresholds, kind,
                              gamma: float) -> list[tuple[int, int, int]]:
    """(tp, fp, fn) for each column of (days x locations) daily extremes.

    The scalar reference for the vectorized extremes command: one
    label_events call per location and series, and one match_events
    call per location, whether or not either side has events.
    """
    from wxverify.extremes import label_events, match_events

    counts = []
    for loc in range(truth_series.shape[1]):
        truth = label_events(truth_series[:, loc], thresholds[:, loc], kind,
                             str(loc))
        pred = label_events(fc_series[:, loc], thresholds[:, loc], kind,
                            str(loc))
        m = match_events(pred, truth, gamma)
        counts.append((m.tp, m.fp, m.fn))
    return counts


# --- geometry ---------------------------------------------------------------------

def bilinear_plane(a: float, b: float, lat: float, lon: float) -> float:
    return a * lat + b * lon
