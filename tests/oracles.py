"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the engine's code paths: metrics are
scalar loops with exactly-rounded accumulation (math.fsum), the spectrum
is a direct O(N^2) transform, percentiles are computed from a Python
sort, event labeling/matching are brute-force searches, and station
windowing, QC and bilinear interpolation are per-element loops. The one
exception is the per-location event loop, which calls the engine's
one-series labeling and matching to check the vectorized bookkeeping
around them.
"""

from __future__ import annotations

import cmath
import math
from datetime import date, timedelta
from fractions import Fraction
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


def bilinear_point(lat_deg, lon_deg, wraps_lon: bool, values, lat: float,
                   lon: float) -> float | None:
    """Bilinear value at one (lat, lon) point by scanning for its cell;
    None when the point lies outside the grid's span.

    ``lat_deg`` runs north to south and ``lon_deg`` ascends in [0, 360).
    The fraction is measured from the southern row and the western
    column, in the engine's order of operations, so results agree
    bitwise.
    """
    lats = [float(x) for x in reversed(lat_deg)]  # ascending
    lons = [float(x) for x in lon_deg]
    n_lat, n_lon = len(lats), len(lons)
    if not lats[0] <= lat <= lats[-1]:
        return None
    if n_lat == 1:
        south = north = 0
        ty = 0.0
    else:
        k = max(j for j in range(n_lat - 1) if lats[j] <= lat)
        ty = (lat - lats[k]) / (lats[k + 1] - lats[k])
        south, north = n_lat - 1 - k, n_lat - 2 - k
    x = lon % 360.0
    if wraps_lon:
        ext = lons + [lons[0] + 360.0]
        if x < lons[0]:
            x += 360.0
        j0 = max(j for j in range(n_lon) if ext[j] <= x)
        tx = (x - ext[j0]) / (ext[j0 + 1] - ext[j0])
        j1 = (j0 + 1) % n_lon
    elif not lons[0] <= x <= lons[-1]:
        return None
    elif n_lon == 1:
        j0 = j1 = 0
        tx = 0.0
    else:
        j0 = max(j for j in range(n_lon - 1) if lons[j] <= x)
        tx = (x - lons[j0]) / (lons[j0 + 1] - lons[j0])
        j1 = j0 + 1
    v = values
    return ((1.0 - ty) * ((1.0 - tx) * float(v[south][j0]) + tx * float(v[south][j1]))
            + ty * ((1.0 - tx) * float(v[north][j0]) + tx * float(v[north][j1])))


# --- station pipeline (the scalar loops the array code replaced) ---------------

#: Flag codes of the station table: absent, raw, replaced by the reference.
ABSENT, RAW, REPLACED = 0, 1, 2


def table_from_records_loop(stations, records, times):
    """(variables, values, flags) of a station table, averaging each
    (variable, station, target time) window on its own.

    A window is the closed +-15 min around the target; its value is the
    exact rational sum of its values, rounded to a float, divided by n.
    A sum beyond the float range raises OverflowError.
    """
    half = timedelta(minutes=15)
    variables = tuple(sorted(records, key=lambda v: v.key))
    shape = (len(variables), len(times), len(stations))
    values = np.full(shape, np.nan)
    flags = np.full(shape, ABSENT, dtype=np.uint8)
    for vi, variable in enumerate(variables):
        for si, station in enumerate(stations):
            recs = records[variable].get(station.station_id, [])
            for ti, target in enumerate(times):
                window = [v for t, v in recs if abs(t - target) <= half]
                if window:
                    total = sum(map(Fraction, window), Fraction(0))
                    values[vi, ti, si] = float(total) / len(window)
                    flags[vi, ti, si] = RAW
    return variables, values, flags


def _display_units(key: str, value):
    if key in ("t2m", "d2m", "t850"):
        return value - 273.15
    if key == "msl":
        return value / 100.0
    return value


def apply_qc_loop(variables, values, flags, reference, ratios):
    """Ratio QC one observation at a time: (values, flags, counts).

    ``ratios`` maps variable -> bound in display units. RAW (or any
    non-absent, non-replaced) entries are tested; an entry whose
    display-unit ratio to its reference exceeds the bound takes the
    reference value. Non-positive references keep the observation and
    are counted. ``counts`` maps variable key -> raw / replaced / absent
    / nonpositive_reference. A non-finite reference under a tested
    entry raises ValueError, whether or not the variable has a bound.
    """
    values = values.copy()
    flags = flags.copy()
    counts = {}
    for vi, variable in enumerate(variables):
        c = {"raw": 0, "replaced": 0, "absent": 0, "nonpositive_reference": 0}
        for ti in range(values.shape[1]):
            for si in range(values.shape[2]):
                code = flags[vi, ti, si]
                if code == ABSENT:
                    c["absent"] += 1
                    continue
                if code == REPLACED:
                    c["replaced"] += 1
                    continue
                obs, ref = values[vi, ti, si], reference[vi, ti, si]
                if not math.isfinite(ref):
                    raise ValueError("reference value must be finite")
                bound = ratios.get(variable)
                ref_disp = _display_units(variable.key, ref)
                if bound is not None and ref_disp <= 0.0:
                    c["nonpositive_reference"] += 1
                elif bound is not None and \
                        _display_units(variable.key, obs) / ref_disp > bound:
                    values[vi, ti, si] = ref
                    flags[vi, ti, si] = REPLACED
                    c["replaced"] += 1
                    continue
                c["raw"] += 1
        counts[variable.key] = c
    return values, flags, counts
