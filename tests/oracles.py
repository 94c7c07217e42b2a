"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the engine's code paths: metrics are
scalar loops with exactly-rounded accumulation (math.fsum), plus the
one-field numpy metric bodies, the block kernel scoring a gathered
float64 climatology block, the field-by-field daily means and
extremes that the engine's block kernels must reproduce bit for bit, and
the whole-year mean across years and stack of daily extremes that the
streamed history reduction must reproduce (and that reduction as it ran
one history year at a time); the spectrum is a direct
O(N^2) transform, percentiles are computed from a Python sort (and
thresholds from the engine's former numpy sort per calendar day), event
labeling/matching are brute-force searches (and matching also the
engine's former per-location segment objects and bipartite search), station
windowing, QC and bilinear interpolation are per-element loops, the
station CSVs are read one row at a time, station scores pair one field
at a time, and synthetic truth, the forecasts that copy it and station
observations are made one field at a time. The exceptions are the
synthetic truth oracle,
which takes the seasonal cycle, vortices and episodes from the engine,
the station row reader, which parses times and window-averages with the
engine's functions, the per-field station scores, which interpolate
with the engine's bilinear weights, and the full-grid cyclone tracker,
which measures distances with the engine's ``haversine_km_grid`` over
the whole grid.
"""

from __future__ import annotations

import cmath
import csv
import math
from datetime import date, timedelta, timezone
from fractions import Fraction
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Sequence

import numpy as np

from wxverify.extremes import MIN_EVENT_DAYS, EventKind


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


# --- per-field numpy metric bodies (one field at a time) ---------------------
#
# The engine scored one field at a time with these bodies before it scored
# blocks of layers; each layer of a block must score exactly what they do.

def weighted_mean(values, weights) -> float:
    """<a>_w over a (n_lat, n_lon) array with per-row weights."""
    return float(np.mean(weights[:, None] * values))


def wrmse_field(pred, truth, weights) -> float:
    err = pred - truth
    return math.sqrt(weighted_mean(err * err, weights))


def bias_field(pred, truth, weights) -> float:
    return weighted_mean(pred - truth, weights)


def acc_field(pred, truth, clim, weights, floor: float = 1e-30):
    """ACC of one field; None where an anomaly norm is below ``floor``
    (the engine raises DegenerateAnomaly there)."""
    ap = pred - clim
    at = truth - clim
    d1 = weighted_mean(ap * ap, weights)
    d2 = weighted_mean(at * at, weights)
    if math.sqrt(max(d1, 0.0)) < floor or math.sqrt(max(d2, 0.0)) < floor:
        return None
    num = weighted_mean(ap * at, weights)
    return num / (math.sqrt(d1) * math.sqrt(d2))


def activity_field(pred, clim, weights) -> float:
    a = pred - clim
    m = weighted_mean(a, weights)
    centered = a - m
    return math.sqrt(weighted_mean(centered * centered, weights))


def block_scores_gathered(pred, truth, day_mean, rows, weights):
    """``(wrmse, bias, acc, activity)`` of each layer of a block, scored
    as the block kernel did before it took the held climatology days:
    the float64 climatology block ``day_mean[rows]`` gathered, the
    blocks copied to C-contiguous float64, and each weighted mean
    ``np.mean(w * x, axis=(1, 2))`` over whole blocks. No anomaly floor:
    a degenerate layer's ACC is whatever the division gives."""
    pred, truth, clim = (np.ascontiguousarray(x, np.float64)
                         for x in (pred, truth, day_mean[rows]))
    w = np.asarray(weights, dtype=np.float64)[:, None]

    def mean(x):
        return np.mean(w * x, axis=(1, 2))

    err = pred - truth
    ap, at = pred - clim, truth - clim
    acc = mean(ap * at) / (np.sqrt(mean(ap * ap)) * np.sqrt(mean(at * at)))
    centered = ap - mean(ap)[:, None, None]
    return (np.sqrt(mean(err * err)), mean(err), acc,
            np.sqrt(mean(centered * centered)))


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


def thresholds_per_location_loop(daily_max, daily_min, q_heat: float,
                                 q_cold: float, half_window: int):
    """(tau_heat, tau_cold) of :func:`build_thresholds` for a history
    with absent (NaN) samples, one (day, location) at a time.

    This is the engine's former per-location loop: each pool drops its
    NaNs and goes through :func:`percentile_sorted_oracle`. A heat pool
    smaller than the window raises InsufficientHistory with the engine's
    message, at the first (day, location) in day-then-location order.
    """
    from wxverify.errors import InsufficientHistory

    n_years, n_days, n_loc = daily_max.shape
    window_len = 2 * half_window + 1
    tau_h = np.empty((n_days, n_loc))
    tau_c = np.empty((n_days, n_loc))
    for day in range(n_days):
        win = np.arange(day - half_window, day + half_window + 1) % n_days
        for loc in range(n_loc):
            vals_max = daily_max[:, win, loc].reshape(-1)
            vals_max = vals_max[~np.isnan(vals_max)]
            if vals_max.size < window_len:
                raise InsufficientHistory(
                    f"day {day + 1}, location {loc}: pool size "
                    f"{vals_max.size} < {window_len}")
            vals_min = daily_min[:, win, loc].reshape(-1)
            vals_min = vals_min[~np.isnan(vals_min)]
            tau_h[day, loc] = percentile_sorted_oracle(vals_max, q_heat)
            tau_c[day, loc] = percentile_sorted_oracle(vals_min, q_cold)
    return tau_h, tau_c


def window_indices(day: int, half_window: int) -> np.ndarray:
    """Calendar-day indices of the moving window, wrapping the 365-day
    year."""
    return np.arange(day - half_window, day + half_window + 1) % 365


def quantile_sorted(sorted_values: np.ndarray, q: float) -> np.ndarray:
    """Linear-interpolation quantile along axis 0 of pre-sorted data."""
    n = sorted_values.shape[0]
    h = q * (n - 1)
    lo = int(math.floor(h))
    g = h - lo
    if g == 0.0 or lo + 1 >= n:
        return sorted_values[min(lo, n - 1)]
    return sorted_values[lo] + g * (sorted_values[lo + 1] - sorted_values[lo])


def quantile_sorted_columns(sorted_values: np.ndarray, counts: np.ndarray,
                            q: float) -> np.ndarray:
    """:func:`quantile_sorted` of each column's first ``counts[j]`` values.

    The same arithmetic, per column: for n = counts[j], h = q * (n - 1),
    and the result is s[lo] when g = h - lo is 0 or s[lo + 1] is past the
    column's values, else s[lo] + g * (s[lo + 1] - s[lo]).
    """
    h = q * (counts - 1)
    lo = np.floor(h).astype(np.intp)
    g = h - lo
    last = np.maximum(counts - 1, 0)
    at_lo = np.take_along_axis(sorted_values, np.minimum(lo, last)[None], 0)[0]
    at_hi = np.take_along_axis(sorted_values, np.minimum(lo + 1, last)[None],
                               0)[0]
    with np.errstate(invalid="ignore"):
        between = at_lo + g * (at_hi - at_lo)
    return np.where((g == 0.0) | (lo + 1 >= counts), at_lo, between)


def thresholds_per_day_sort(history, q_heat: float = 0.9, q_cold: float = 0.1,
                            half_window: int = 7):
    """(tau_heat, tau_cold) of :func:`build_thresholds`, one sort
    per calendar day: the engine's former kernel.

    Each day pools the window's daily extremes of every year as float64
    (NaN where absent), sorts the pool of every location at once and
    interpolates between its order statistics; a heat pool smaller than
    the window raises InsufficientHistory with the engine's message, at
    the first (day, location) in day-then-location order.
    """
    from wxverify.climatology import DAYS_PER_YEAR
    from wxverify.errors import InsufficientHistory

    daily_max = history.daily_max.astype(np.float64)
    daily_min = history.daily_min.astype(np.float64)
    window_len = 2 * half_window + 1
    n_loc = history.n_locations
    tau_h = np.empty((DAYS_PER_YEAR, n_loc))
    tau_c = np.empty((DAYS_PER_YEAR, n_loc))
    dense = not (np.any(np.isnan(daily_max)) or np.any(np.isnan(daily_min)))
    for day in range(DAYS_PER_YEAR):
        win = window_indices(day, half_window)
        pool_max = daily_max[:, win, :].reshape(-1, n_loc)
        pool_min = daily_min[:, win, :].reshape(-1, n_loc)
        if dense:
            tau_h[day] = quantile_sorted(np.sort(pool_max, axis=0), q_heat)
            tau_c[day] = quantile_sorted(np.sort(pool_min, axis=0), q_cold)
            continue
        # absent samples are NaN, which np.sort puts after every value
        n_max = np.count_nonzero(~np.isnan(pool_max), axis=0)
        short = np.flatnonzero(n_max < window_len)
        if short.size:
            loc = int(short[0])
            raise InsufficientHistory(
                f"day {day + 1}, location {loc}: pool size "
                f"{n_max[loc]} < {window_len}")
        n_min = np.count_nonzero(~np.isnan(pool_min), axis=0)
        tau_h[day] = quantile_sorted_columns(np.sort(pool_max, axis=0),
                                             n_max, q_heat)
        tau_c[day] = quantile_sorted_columns(np.sort(pool_min, axis=0),
                                             n_min, q_cold)
    return tau_h, tau_c


# --- daily-extremes oracle -------------------------------------------------------

def calendar_day_oracle(when) -> int:
    """0-based day of a fixed 365-day year; Feb 29 shares Feb 28's index."""
    day = 28 if (when.month, when.day) == (2, 29) else when.day
    return (date(2001, when.month, day) - date(2001, 1, 1)).days


def daily_extremes(samples) -> tuple[np.ndarray, np.ndarray]:
    """Per-calendar-day (max, min) from a 6-hourly series of one year.

    The scalar counterpart of :func:`history_from_fields` for one
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


def daily_extremes_loop(fields) -> tuple[np.ndarray, np.ndarray]:
    """(365, n_locations) daily max and min of 6-hourly fields, one field
    at a time: the first sample of a day starts its max and min, each
    later one takes ``np.maximum`` / ``np.minimum`` with them, in field
    order. Days with fewer than four samples come out absent (NaN); Feb 29
    is dropped. The block reduction of ``climatology`` must equal this bit
    for bit."""
    grid = fields[0].grid
    n_loc = grid.n_lat * grid.n_lon
    dmax = np.full((365, n_loc), np.nan)
    dmin = np.full((365, n_loc), np.nan)
    counts = np.zeros(365, dtype=np.intp)
    for f in fields:
        if f.grid != grid:
            raise ValueError("history fields must share one grid")
        (when,) = f.valid_times
        if (when.month, when.day) == (2, 29):
            continue
        d = calendar_day_oracle(when)
        flat = f.values.reshape(-1)
        if counts[d] == 0:
            dmax[d] = flat
            dmin[d] = flat
        else:
            np.maximum(dmax[d], flat, out=dmax[d])
            np.minimum(dmin[d], flat, out=dmin[d])
        counts[d] += 1
    incomplete = counts < 4
    dmax[incomplete] = np.nan
    dmin[incomplete] = np.nan
    return dmax, dmin


def daily_means_loop(fields) -> np.ndarray:
    """(365, n_lat, n_lon) daily means of one year of 6-hourly fields, one
    field at a time: each day's sum starts from zero and adds its samples
    in field order, then is divided by four. Every day must carry four
    samples; Feb 29 is dropped."""
    from wxverify.errors import InsufficientHistory
    grid = fields[0].grid
    acc = np.zeros((365, grid.n_lat, grid.n_lon))
    counts = np.zeros(365, dtype=np.intp)
    for f in fields:
        if f.grid != grid:
            raise ValueError("fields must share one grid")
        (when,) = f.valid_times
        if (when.month, when.day) == (2, 29):
            continue
        d = calendar_day_oracle(when)
        acc[d] += f.values[0]
        counts[d] += 1
    if np.any(counts != 4):
        short = int(np.nonzero(counts != 4)[0][0])
        raise InsufficientHistory(
            f"calendar day {short + 1} has {int(counts[short])} samples, "
            f"expected 4")
    return acc / 4


def daily_mean_climatology_stack(per_year) -> np.ndarray:
    """The mean across years of (365, ...) daily means, taken over one
    stacked copy of all years."""
    return np.mean(np.stack([np.asarray(y, dtype=np.float64)
                             for y in per_year]), axis=0)


def build_daily_mean_climatology(per_year) -> np.ndarray:
    """Arithmetic mean across years, per calendar day and location, of
    whole-year (365, ...) daily means: added in order to zeros, then
    divided once, which gives :func:`daily_mean_climatology_stack` bit for
    bit without the stack. All years must be finite and share a shape.
    The streamed reduction of ``build-climatology`` must equal this."""
    from wxverify.errors import InsufficientHistory
    if len(per_year) == 0:
        raise InsufficientHistory("no history years supplied")
    total = np.zeros(np.shape(per_year[0]))
    for year in per_year:
        year = np.asarray(year, dtype=np.float64)
        if year.shape != total.shape or year.shape[:1] != (365,):
            raise ValueError("per-year arrays must share one shape with a "
                             "leading 365-day axis")
        if not np.isfinite(year).all():
            raise ValueError("daily-mean history must be finite")
        total += year
    total /= len(per_year)
    return total


class DailyHistory:
    """Dense multi-year daily extremes on a flat location axis, in memory:
    the history a :class:`wxverify.thresholds.ThresholdBuild` reads
    through ``chunks()``, as it reads the extremes a build spilled
    (``writers.SpilledHistory``), here as one chunk of every location.

    ``daily_max`` and ``daily_min`` have shape (n_years, 365,
    n_locations); NaN marks an absent (year, day, location) entry. A
    float32 array is kept as float32 (the daily extremes of float32
    stores are exact in it); any other is converted to float64.
    """

    def __init__(self, years, daily_max, daily_min):
        def held(values):
            values = np.asarray(values)
            values = np.ascontiguousarray(
                values, np.float32 if values.dtype == np.float32
                else np.float64)
            values.setflags(write=False)
            return values
        dmax, dmin = held(daily_max), held(daily_min)
        if dmax.ndim != 3 or dmax.shape != dmin.shape:
            raise ValueError("daily_max/daily_min must share shape (years, 365, loc)")
        if dmax.shape[0] != len(years) or dmax.shape[1] != 365:
            raise ValueError("history shape disagrees with years / calendar length")
        if len(set(years)) != len(years):
            raise ValueError("history years must be distinct")
        with np.errstate(invalid="ignore"):
            if np.any(dmax < dmin):
                raise ValueError("daily_max must be >= daily_min")
        self.years = tuple(int(y) for y in years)
        self.daily_max, self.daily_min = dmax, dmin

    @property
    def n_locations(self) -> int:
        return self.daily_max.shape[2]

    @property
    def dtype(self) -> np.dtype:
        return self.daily_max.dtype

    def chunks(self):
        """Yield ``(0, daily_max, daily_min)``: the ``(n_years, 365,
        n_locations)`` daily max and min of every location."""
        yield 0, self.daily_max, self.daily_min


def build_thresholds(history, q_heat: float = 0.9, q_cold: float = 0.1,
                     half_window: int = 7):
    """The ``ThresholdField`` of every calendar day of ``history`` (a
    :class:`DailyHistory` or a ``writers.SpilledHistory``): the chunks of
    the engine's ``ThresholdBuild`` collected in memory, in float64, as
    ``build-climatology`` writes them to disk in float32."""
    from wxverify.climatology import ThresholdField
    from wxverify.thresholds import ThresholdBuild
    build = ThresholdBuild(history, q_heat, q_cold, half_window)
    tau_h = np.empty((365, history.n_locations))
    tau_c = np.empty_like(tau_h)
    for start, stop, heat, cold in build.chunks():
        tau_h[:, start:stop] = heat
        tau_c[:, start:stop] = cold
    return ThresholdField(tau_h, tau_c, history.years, half_window, q_heat,
                          q_cold)


def history_from_extremes(extremes):
    """Stack per-year (365, n_locations) (daily max, daily min) pairs,
    keyed by year, into a :class:`DailyHistory` ordered by year."""
    from wxverify.errors import InsufficientHistory
    years = sorted(extremes)
    if not years:
        raise InsufficientHistory("no history years supplied")
    return DailyHistory(tuple(years),
                        np.stack([extremes[year][0] for year in years]),
                        np.stack([extremes[year][1] for year in years]))


def reduce_history_by_year(source, variable, means: bool, extremes: bool):
    """The history reduction one year at a time, as
    ``pipeline_climatology._reduce_history`` ran before it worked a block
    of days across the years: returns the grid, the mean over the years of
    the daily means when ``means`` (one 365-day float64 total, added in year
    order and divided once by the number of years), and the daily
    extremes as a ``DailyHistory`` when ``extremes`` (None for what is
    not asked for).

    Each year is read through ``source`` (``history_days`` and
    ``history``, as on a ``FieldSource``, which reads every layer of the
    days asked for, on the grid asked for, or raises) in its blocks of
    days, in order, each on the grid of the first.
    """
    from wxverify.climatology import (DAYS_PER_YEAR,
                                      daily_extremes_from_fields,
                                      daily_means_from_fields)
    from wxverify.errors import InsufficientHistory
    years = source.manifest.history_years
    if not years:
        raise InsufficientHistory("no history years supplied")
    per_block = source.history_days(variable)
    grid = total = dmax = dmin = None
    for y, year in enumerate(years):
        for first in range(0, DAYS_PER_YEAR, per_block):
            block = source.history(variable, year, range(
                first, min(first + per_block, DAYS_PER_YEAR)), grid=grid)
            if grid is None:
                grid = block.grid
                if means:
                    total = np.zeros((DAYS_PER_YEAR, *grid.shape))
                if extremes:
                    dmax = np.empty((len(years), DAYS_PER_YEAR,
                                     grid.n_lat * grid.n_lon),
                                    dtype=block.values.dtype)
                    dmin = np.empty_like(dmax)
            if means:
                rows, day_means = daily_means_from_fields(block)
                total[rows] += day_means
            if extremes:
                rows, day_max, day_min = daily_extremes_from_fields(block)
                dmax[y, rows], dmin[y, rows] = day_max, day_min
    if means:
        total /= len(years)
    return grid, total, DailyHistory(years, dmax, dmin) if extremes else None


def history_from_fields(fields_by_year):
    """A ``DailyHistory`` of per-gridpoint daily extremes from 6-hourly
    fields, keyed by year, by :func:`daily_extremes_loop`; days with
    fewer than four samples come out absent."""
    grid = next(iter(fields_by_year.values()))[0].grid
    if any(fields[0].grid != grid for fields in fields_by_year.values()):
        raise ValueError("history fields must share one grid")
    return history_from_extremes({year: daily_extremes_loop(fields)
                                  for year, fields in fields_by_year.items()})


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

    The scalar reference for the vectorized extremes command: each
    location's series is labeled by the all-windows search, and one
    match_events call per location matches them, whether or not either
    side has events. Comparisons are strict and NaN never exceeds.
    """
    def segments(series, loc):
        mask = [v > t if kind is EventKind.HEATWAVE else v < t
                for v, t in zip(series[:, loc].tolist(),
                                thresholds[:, loc].tolist())]
        return [EventSegment(str(loc), kind, start + 1, end + 1)
                for start, end in label_events_bruteforce(mask)]

    counts = []
    for loc in range(truth_series.shape[1]):
        m = match_events(segments(fc_series, loc), segments(truth_series, loc),
                         gamma)
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


# --- cyclone tracker: the full-grid search the windowed one replaced ---------

def _argmin_with_ties(values: np.ndarray, candidates: np.ndarray) -> tuple[int, int]:
    """Row/col of the minimum among masked candidates.

    Equal minima break toward the northernmost (smallest row) then
    westernmost (smallest column) grid point.
    """
    masked = np.where(candidates, values, np.inf)
    flat = int(np.argmin(masked))  # C order: smallest row, then column
    return flat // values.shape[1], flat % values.shape[1]


def track_storm_full_grid(msl, u10, v10, seed, *, storm_id, source, config):
    """The tracker as it searched the whole grid at every step: distances
    to every node, the whole MSL layer widened and masked, and the wind
    speed of the whole layer. Takes blocks that ``track_storm`` accepts
    and a seed inside the grid."""
    from wxverify.cyclones import StormFix, StormTrack
    from wxverify.grid import haversine_km_grid
    grid, leads = msl.grid, msl.lead_hours
    fixes = []
    center = (float(seed[0]), float(seed[1]) % 360.0)
    for k in range(len(leads)):
        pressure = msl.values[k].astype(np.float64, copy=False)
        dist = haversine_km_grid(center[0], center[1], grid)
        below = (dist <= config.search_radius_km) \
            & (pressure < config.mslp_cutoff_pa)
        if not below.any():
            break  # the loss is terminal
        i, j = _argmin_with_ties(pressure, below)
        center = (float(grid.lat_deg[i]), float(grid.lon_deg[j]))
        wind_speed = np.hypot(u10.values[k], v10.values[k], dtype=np.float64)
        near_center = haversine_km_grid(center[0], center[1], grid) \
            <= config.wind_radius_km
        max_wind = float(wind_speed[near_center].max())
        fixes.append(StormFix(msl.valid_times[k], center[0], center[1],
                              float(pressure[i, j]), max_wind))
    return StormTrack(storm_id, source, msl.valid_times[0], tuple(fixes),
                      tuple(k < len(fixes) for k in range(len(leads))))


# --- station pipeline (the scalar loops the array code replaced) ---------------

#: Flag codes of the station table: absent, raw, replaced by the reference.
ABSENT, RAW, REPLACED = 0, 1, 2


def table_from_records_loop(stations, records, times):
    """(variables, values, flags) of a station table, averaging each
    (variable, station, target time) window on its own. ``records`` maps
    each variable to raw (station index, time, value) records.

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
        for si in range(len(stations)):
            for ti, target in enumerate(times):
                window = [v for s, t, v in records[variable]
                          if s == si and abs(t - target) <= half]
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


# --- synthetic truth oracle -------------------------------------------------

def boxcar_smooth_field(noise, width: int) -> np.ndarray:
    """Separable boxcar of one (n_lat, n_lon) field by ``np.roll``:
    wrapped in longitude, clamped in latitude (a row shift beyond the
    grid adds nothing)."""
    if width == 1:
        return noise
    half = width // 2
    out = np.zeros_like(noise)
    for s in range(-half, half + 1):
        out += np.roll(noise, s, axis=1)
    out /= width
    lat_acc = np.zeros_like(out)
    counts = np.zeros(noise.shape[0])
    for s in range(-half, half + 1):
        lo = max(0, -s)
        hi = min(noise.shape[0], noise.shape[0] - s)
        if lo < hi:
            lat_acc[lo:hi] += out[lo + s:hi + s]
            counts[lo:hi] += 1
    return lat_acc / counts[:, None]


def generate_fields(scenario, variable):
    """The synthetic truth stream of ``harness.generate_variable_series``
    one layer at a time, as one-layer blocks: one draw, one boxcar and one
    AR(1) step per 6-hourly field."""
    from wxverify.climatology import year_times
    from wxverify.grid import FieldBlock
    from wxverify.harness import _inject, _innovation_scale, seasonal_value
    process = scenario.processes[variable]
    var_index = scenario.variables.index(variable)
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=scenario.seed, spawn_key=(var_index,)))
    shape = scenario.grid.shape
    width = process.spatial_corr_points
    scale = _innovation_scale(width)

    def innovation():
        return boxcar_smooth_field(rng.standard_normal(shape), width) * scale

    state = process.noise_sigma * innovation()
    rho = process.ar1
    first = True
    for year in scenario.years:
        for when in year_times(year):
            if not first:
                state = rho * state + math.sqrt(1.0 - rho * rho) \
                    * process.noise_sigma * innovation()
            first = False
            values = np.full(shape, seasonal_value(process, when)) + state
            _inject(scenario, variable, when, values)
            quantized = np.asarray(values, dtype=np.float32).astype(np.float64)
            yield FieldBlock(scenario.grid, variable, (when,), (0,),
                             quantized[None])


def lagged_forecast_per_lead(source, variable, init, leads, lag, step=None):
    """``harness._lagged_forecast`` one truth layer per lead."""
    from dataclasses import replace
    from datetime import timedelta
    return [replace(source.truth_block(
        variable, [init + timedelta(hours=lead - lag)]),
        valid_times=(init + timedelta(hours=lead),), lead_hours=(lead,))
        for lead in leads]


def smoothed_forecast_per_lead(init, leads, kernel_width):
    """``harness.smoothed_forecast`` one lead at a time, on arrays: the
    float64 init layer's zonal running mean over ``min(kernel_width, 2 *
    lead / 6 + 1)`` columns (wrapping in longitude, added from shift
    -w/2 to w/2, then divided by w), or the layer itself at width 1,
    rounded to float32 as a one-layer block."""
    from datetime import timedelta
    from wxverify.grid import FieldBlock
    layer = init.values[0].astype(np.float64)
    for lead in leads:
        width = min(kernel_width, 2 * (lead // 6) + 1)
        values = layer
        if width > 1:
            values = np.zeros_like(layer)
            for s in range(-(width // 2), width // 2 + 1):
                values += np.roll(layer, s, axis=1)
            values = values / width
        yield FieldBlock(init.grid, init.variable,
                         (init.valid_times[0] + timedelta(hours=lead),),
                         (lead,), values.astype(np.float32)[None])


def write_station_csvs_per_field(scenario, source, n_stations: int) -> None:
    """``harness._write_station_csvs`` one truth field and one formatted
    line at a time."""
    from wxverify import fileio
    out_dir = source.manifest.root
    grid = scenario.grid
    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=scenario.seed, spawn_key=(10_001,)))
    flat = rng.choice(grid.n_lat * grid.n_lon, size=min(
        n_stations, grid.n_lat * grid.n_lon), replace=False)
    flat.sort()
    meta_lines = ["id,lat,lon,elev_m"]
    sites = []
    for idx in flat:
        i, j = divmod(int(idx), grid.n_lon)
        sid = f"SYN{idx:05d}"
        sites.append((sid, i, j))
        meta_lines.append(f"{sid},{float(grid.lat_deg[i])!r},"
                          f"{float(grid.lon_deg[j])!r},0.0")
    (out_dir / "stations_meta.csv").write_bytes(
        ("\n".join(meta_lines) + "\n").encode())
    obs_lines = ["station_id,iso_time,variable,value_si"]
    for variable in scenario.variables:
        if variable.derived:
            continue
        for when in source.manifest.valid_times:
            (values,) = source.truth_block(variable, [when]).values
            for sid, i, j in sites:
                obs_lines.append(
                    f"{sid},{fileio.format_time(when)},{variable.key},"
                    f"{float(values[i, j])!r}")
    (out_dir / "stations_obs.csv").write_bytes(
        ("\n".join(obs_lines) + "\n").encode())


# --- station CSV reader (the row-by-row reader the columnar one replaced) ----

#: The station CSV columns that hold text, not numbers.
STATION_TEXT_COLUMNS = ("id", "station_id", "iso_time", "variable")


def station_csv_rows(path, columns):
    """(line number, row) of every data row of a CSV whose header, with
    spaces stripped, is ``columns``. Data rows count from line 2; blank
    rows are skipped and not counted; a row with another field count
    than the header, or with a station id, time or variable of 128 UTF-8
    bytes or more, raises InvalidHeader. A UTF-8 byte-order mark before
    the header is skipped."""
    from wxverify.errors import InvalidHeader
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [c.strip() for c in header] != columns:
                raise InvalidHeader(
                    f"{path}: expected columns {','.join(columns)}")
            lineno = 1
            for row in reader:
                if not row:
                    continue
                lineno += 1
                if len(row) != len(columns):
                    raise InvalidHeader(f"{path}:{lineno}: expected "
                                        f"{len(columns)} fields, got {len(row)}")
                if any(len(field.encode()) >= 128 for name, field
                       in zip(columns, row) if name in STATION_TEXT_COLUMNS):
                    raise InvalidHeader(f"{path}:{lineno}: a field is longer "
                                        f"than 127 bytes")
                yield lineno, row
    except OSError as exc:
        raise InvalidHeader(f"cannot read {path}: {exc}") from exc


def six_hour_times(start, end):
    """All 00/06/12/18 UTC timestamps covering [start, end]."""
    start = start.astimezone(timezone.utc)
    end = end.astimezone(timezone.utc)
    first = start.replace(minute=0, second=0, microsecond=0)
    first -= timedelta(hours=first.hour % 6)
    if first < start:
        first += timedelta(hours=6)
    out = []
    t = first
    while t <= end:
        out.append(t)
        t += timedelta(hours=6)
    return out


def read_station_csvs_rows(meta_path, obs_path, times):
    """``stationio.read_station_csvs`` one CSV row at a time: each row is
    parsed and checked in turn, and the first faulty one raises. The
    window averaging is the engine's ``table_from_columns``."""
    from pathlib import Path

    from wxverify.errors import (DuplicateObservation, InvalidHeader,
                                 NonFiniteValue, UnitOutOfRange,
                                 UnknownStation)
    from wxverify.fileio import format_time, parse_time
    from wxverify.grid import VariableId
    from wxverify.stations import (Station, WindowOverflow,
                                   epoch_microseconds, table_from_columns)
    meta_path, obs_path = Path(meta_path), Path(obs_path)
    stations = []
    for lineno, row in station_csv_rows(meta_path,
                                        ["id", "lat", "lon", "elev_m"]):
        try:
            stations.append(Station(station_id=row[0].strip(),
                                    lat=float(row[1]),
                                    lon=float(row[2]) % 360.0,
                                    elevation_m=float(row[3])))
        except ValueError as exc:
            raise InvalidHeader(f"{meta_path}:{lineno}: bad row: {exc}") from exc
        for name, text in (("lat", row[1]), ("lon", row[2])):
            if not math.isfinite(float(text)):
                raise NonFiniteValue(f"{meta_path}:{lineno}: non-finite "
                                     f"{name} {text.strip()!r}")
        if abs(stations[-1].lat) > 90.0:
            raise UnitOutOfRange(f"{meta_path}:{lineno}: lat "
                                 f"{row[1].strip()!r} is outside [-90, 90] "
                                 f"degrees")
    index = {s.station_id: si for si, s in enumerate(stations)}
    if len(index) != len(stations):
        raise InvalidHeader(f"{meta_path}: duplicate station ids")

    columns = {}  # variable -> (station indexes, times in µs, values)
    seen = set()
    for lineno, row in station_csv_rows(
            obs_path, ["station_id", "iso_time", "variable", "value_si"]):
        sid = row[0].strip()
        try:
            when = parse_time(row[1])
        except InvalidHeader as exc:
            raise InvalidHeader(f"{obs_path}:{lineno}: {exc}") from exc
        try:
            variable = VariableId.from_key(row[2].strip())
            value = float(row[3])
        except ValueError as exc:
            raise InvalidHeader(f"{obs_path}:{lineno}: bad row: {exc}") from exc
        if not math.isfinite(value):
            raise NonFiniteValue(f"{obs_path}:{lineno}: non-finite value "
                                 f"{row[3].strip()!r}")
        si = index.get(sid)
        if si is None:
            raise UnknownStation(f"{obs_path}:{lineno}: station {sid!r} "
                                 f"not in {meta_path.name}")
        key = (si, epoch_microseconds(when), variable)
        if key in seen:
            raise DuplicateObservation(
                f"{obs_path}:{lineno}: duplicate observation "
                f"({sid}, {format_time(when)}, {variable.key})")
        seen.add(key)
        sites, when_us, values = columns.setdefault(variable, ([], [], []))
        sites.append(si)
        when_us.append(key[1])
        values.append(value)

    times = list(times)
    try:
        return table_from_columns(stations, columns, times)
    except WindowOverflow as exc:
        raise NonFiniteValue(
            f"{obs_path}: the mean of the records of station "
            f"{stations[exc.station_index].station_id} within 15 min of "
            f"{format_time(times[exc.time_index])} is beyond the float "
            f"range") from exc


def station_scores_per_field(fields, table, variable, clim=None):
    """``stations.station_scores`` of one lead, its forecast fields (one
    per init) and the grid climatology ``clim`` of their days
    interpolated and paired one field at a time: ``(rmse, bias, acc,
    n_pairs)``, or None when nothing pairs up."""
    from wxverify.errors import DegenerateAnomaly
    from wxverify.grid import bilinear_weights
    from wxverify.metrics import ANOMALY_NORM_FLOOR
    vi = table.variable_index(variable)
    positions = [(s.lat, s.lon) for s in table.stations]
    diffs, fc_anom, ob_anom = [], [], []
    for fc in fields:
        (when,) = fc.valid_times
        obs_row = table.values[vi, table.time_index(when)]
        present = ~np.isnan(obs_row)
        if not present.any():
            continue
        fc_row = bilinear_weights(fc.grid, positions).apply(fc.values[0])
        diffs.append(fc_row[present] - obs_row[present])
        if clim is not None:
            c = bilinear_weights(clim.grid, positions).apply(
                clim.layers([when])[0])[present]
            fc_anom.append(fc_row[present] - c)
            ob_anom.append(obs_row[present] - c)
    if not diffs:
        return None
    d = np.concatenate(diffs)
    acc = None
    if clim is not None:
        fa, oa = np.concatenate(fc_anom), np.concatenate(ob_anom)
        n1, n2 = float(np.mean(fa * fa)), float(np.mean(oa * oa))
        if math.sqrt(max(n1, 0.0)) < ANOMALY_NORM_FLOOR \
                or math.sqrt(max(n2, 0.0)) < ANOMALY_NORM_FLOOR:
            raise DegenerateAnomaly("anomaly field is (near-)constant zero")
        acc = float(np.mean(fa * oa)) / (math.sqrt(n1) * math.sqrt(n2))
    return (math.sqrt(float(np.mean(d * d))), float(np.mean(d)), acc,
            int(d.size))
