"""Per-calendar-day climatologies: daily means (for ACC) and extreme
thresholds tau_heat / tau_cold.

The calendar is a fixed 365-day cycle. Feb 29 is dropped when building
history and maps onto Feb 28 when evaluating, which keeps the moving-
window arithmetic uniform across years.

Thresholds pool daily extremes over a 15-day window (+-7 days, wrapping
across the year boundary) and all history years, then take the 90th /
10th percentile with linear interpolation between the closest order
statistics: for n sorted values and quantile q, h = q*(n-1), and the
result is s[floor(h)] + (h - floor(h)) * (s[floor(h)+1] - s[floor(h)]).
The same estimator is used everywhere, so independent oracles match it
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime
from typing import Mapping, Sequence

import numpy as np

from .errors import InsufficientHistory, NonFiniteValue
from .grid import GeoGrid, GridField, VariableId

DAYS_PER_YEAR = 365

#: Sample hours of the 6-hourly cadence.
SYNOPTIC_HOURS = (0, 6, 12, 18)

_CUM_DAYS = (0, 31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334)


def is_leap_day(when: datetime) -> bool:
    return when.month == 2 and when.day == 29


def calendar_day_index(when: datetime) -> int:
    """0-based index into the 365-day calendar; Feb 29 maps to Feb 28."""
    month, day = when.month, when.day
    if is_leap_day(when):
        day = 28
    return _CUM_DAYS[month - 1] + day - 1


@dataclass(frozen=True)
class DailyHistory:
    """Dense multi-year daily extremes on a flat location axis.

    ``daily_max`` and ``daily_min`` have shape (n_years, 365,
    n_locations); NaN marks an absent (year, day, location) entry.
    """

    years: tuple[int, ...]
    daily_max: np.ndarray
    daily_min: np.ndarray

    def __post_init__(self):
        dmax = np.ascontiguousarray(self.daily_max, dtype=np.float64)
        dmin = np.ascontiguousarray(self.daily_min, dtype=np.float64)
        if dmax.ndim != 3 or dmax.shape != dmin.shape:
            raise ValueError("daily_max/daily_min must share shape (years, 365, loc)")
        if dmax.shape[0] != len(self.years) or dmax.shape[1] != DAYS_PER_YEAR:
            raise ValueError("history shape disagrees with years / calendar length")
        if len(set(self.years)) != len(self.years):
            raise ValueError("history years must be distinct")
        with np.errstate(invalid="ignore"):
            if np.any(dmax < dmin):
                raise ValueError("daily_max must be >= daily_min")
        dmax.setflags(write=False)
        dmin.setflags(write=False)
        object.__setattr__(self, "years", tuple(int(y) for y in self.years))
        object.__setattr__(self, "daily_max", dmax)
        object.__setattr__(self, "daily_min", dmin)

    @property
    def n_locations(self) -> int:
        return self.daily_max.shape[2]


def daily_extremes_from_fields(fields: Sequence[GridField]
                               ) -> tuple[np.ndarray, np.ndarray]:
    """(365, n_locations) daily max and min of one year of 6-hourly fields.

    The location axis is the row-major flattening of the grid. Days with
    fewer than four samples come out absent (NaN); Feb 29 is dropped.
    """
    grid = fields[0].grid
    n_loc = grid.n_lat * grid.n_lon
    dmax = np.full((DAYS_PER_YEAR, n_loc), np.nan)
    dmin = np.full((DAYS_PER_YEAR, n_loc), np.nan)
    counts = np.zeros(DAYS_PER_YEAR, dtype=np.intp)
    for f in fields:
        if f.grid != grid:
            raise ValueError("history fields must share one grid")
        when = f.valid_time
        if is_leap_day(when):
            continue
        d = calendar_day_index(when)
        flat = f.values.reshape(-1)
        if counts[d] == 0:
            dmax[d] = flat
            dmin[d] = flat
        else:
            np.maximum(dmax[d], flat, out=dmax[d])
            np.minimum(dmin[d], flat, out=dmin[d])
        counts[d] += 1
    incomplete = counts < len(SYNOPTIC_HOURS)
    dmax[incomplete] = np.nan
    dmin[incomplete] = np.nan
    return dmax, dmin


def history_from_extremes(extremes: Mapping[int, tuple[np.ndarray, np.ndarray]]
                          ) -> DailyHistory:
    """Stack per-year :func:`daily_extremes_from_fields` results, keyed by
    year, into a history ordered by year."""
    years = sorted(extremes)
    if not years:
        raise InsufficientHistory("no history years supplied")
    return DailyHistory(tuple(years),
                        np.stack([extremes[year][0] for year in years]),
                        np.stack([extremes[year][1] for year in years]))


def history_from_fields(fields_by_year: Mapping[int, Sequence[GridField]]
                        ) -> DailyHistory:
    """Build per-gridpoint daily extremes from 6-hourly fields.

    The location axis is the row-major flattening of the grid. Days with
    fewer than four samples come out absent.
    """
    if not fields_by_year:
        raise InsufficientHistory("no history years supplied")
    grid = next(iter(fields_by_year.values()))[0].grid
    if any(fields[0].grid != grid for fields in fields_by_year.values()):
        raise ValueError("history fields must share one grid")
    return history_from_extremes({year: daily_extremes_from_fields(fields)
                                  for year, fields in fields_by_year.items()})


@dataclass(frozen=True)
class ThresholdField:
    """Heat / cold thresholds per (calendar day, location).

    Arrays have shape (365, n_locations); tau_heat >= tau_cold holds
    everywhere and every entry is finite.
    """

    tau_heat: np.ndarray
    tau_cold: np.ndarray
    years: tuple[int, ...]
    half_window: int
    q_heat: float
    q_cold: float

    def __post_init__(self):
        th = np.ascontiguousarray(self.tau_heat, dtype=np.float64)
        tc = np.ascontiguousarray(self.tau_cold, dtype=np.float64)
        if th.shape != tc.shape or th.ndim != 2 or th.shape[0] != DAYS_PER_YEAR:
            raise ValueError("thresholds must have shape (365, n_locations)")
        if not (np.all(np.isfinite(th)) and np.all(np.isfinite(tc))):
            raise NonFiniteValue("thresholds must be finite")
        if np.any(th < tc):
            raise ValueError("tau_heat must be >= tau_cold everywhere")
        th.setflags(write=False)
        tc.setflags(write=False)
        object.__setattr__(self, "tau_heat", th)
        object.__setattr__(self, "tau_cold", tc)
        object.__setattr__(self, "years", tuple(int(y) for y in self.years))

    @property
    def n_locations(self) -> int:
        return self.tau_heat.shape[1]


def quantile_sorted(sorted_values: np.ndarray, q: float) -> np.ndarray:
    """Linear-interpolation quantile along axis 0 of pre-sorted data."""
    n = sorted_values.shape[0]
    h = q * (n - 1)
    lo = int(math.floor(h))
    g = h - lo
    if g == 0.0 or lo + 1 >= n:
        return sorted_values[min(lo, n - 1)]
    return sorted_values[lo] + g * (sorted_values[lo + 1] - sorted_values[lo])


def window_indices(day: int, half_window: int) -> np.ndarray:
    """Calendar-day indices of the moving window, wrapping the year."""
    return np.arange(day - half_window, day + half_window + 1) % DAYS_PER_YEAR


def build_thresholds(history: DailyHistory, q_heat: float = 0.9,
                     q_cold: float = 0.1, half_window: int = 7) -> ThresholdField:
    """Percentile thresholds from pooled windowed daily extremes.

    For each (day, location) the pool is every finite daily max (heat)
    or daily min (cold) over all history years and the 15-day window
    centered on the day. Absent days shrink the pool; a pool smaller
    than the window length raises :class:`InsufficientHistory`, as does
    a history of fewer than two years.
    """
    if len(history.years) < 2:
        raise InsufficientHistory(
            f"need >= 2 history years, got {len(history.years)}")
    if not (0.0 <= q_cold <= q_heat <= 1.0):
        raise ValueError("require 0 <= q_cold <= q_heat <= 1")
    if half_window < 0:
        raise ValueError("half_window must be non-negative")
    window_len = 2 * half_window + 1
    n_loc = history.n_locations
    tau_h = np.empty((DAYS_PER_YEAR, n_loc))
    tau_c = np.empty((DAYS_PER_YEAR, n_loc))
    dense = not (np.any(np.isnan(history.daily_max))
                 or np.any(np.isnan(history.daily_min)))
    for day in range(DAYS_PER_YEAR):
        win = window_indices(day, half_window)
        pool_max = history.daily_max[:, win, :].reshape(-1, n_loc)
        pool_min = history.daily_min[:, win, :].reshape(-1, n_loc)
        if dense:
            tau_h[day] = quantile_sorted(np.sort(pool_max, axis=0), q_heat)
            tau_c[day] = quantile_sorted(np.sort(pool_min, axis=0), q_cold)
            continue
        for loc in range(n_loc):
            vals_max = pool_max[:, loc]
            vals_max = vals_max[~np.isnan(vals_max)]
            if vals_max.size < window_len:
                raise InsufficientHistory(
                    f"day {day + 1}, location {loc}: pool size "
                    f"{vals_max.size} < {window_len}")
            vals_min = pool_min[:, loc]
            vals_min = vals_min[~np.isnan(vals_min)]
            tau_h[day, loc] = quantile_sorted(np.sort(vals_max), q_heat)
            tau_c[day, loc] = quantile_sorted(np.sort(vals_min), q_cold)
    return ThresholdField(tau_h, tau_c, history.years, half_window, q_heat, q_cold)


@dataclass(frozen=True)
class DailyMeanClimatology:
    """Per-calendar-day mean fields of one variable (serves ACC)."""

    grid: GeoGrid
    variable: VariableId
    day_mean: np.ndarray
    years: tuple[int, ...]

    def __post_init__(self):
        dm = np.ascontiguousarray(self.day_mean, dtype=np.float64)
        if dm.shape != (DAYS_PER_YEAR, self.grid.n_lat, self.grid.n_lon):
            raise ValueError("day_mean must have shape (365, n_lat, n_lon)")
        if not np.all(np.isfinite(dm)):
            raise NonFiniteValue("day_mean must be finite")
        dm.setflags(write=False)
        object.__setattr__(self, "day_mean", dm)
        object.__setattr__(self, "years", tuple(int(y) for y in self.years))

    def field_for(self, valid_time: datetime) -> GridField:
        """The climatological field for the calendar day of ``valid_time``."""
        d = calendar_day_index(valid_time)
        return GridField(self.grid, self.variable, valid_time, 0, self.day_mean[d])


def build_daily_mean_climatology(per_year: Sequence[np.ndarray]) -> np.ndarray:
    """Arithmetic mean across years, per calendar day and location.

    Inputs are per-year arrays shaped (365, ...); all years must be
    finite and share a shape.
    """
    if len(per_year) == 0:
        raise InsufficientHistory("no history years supplied")
    stack = np.stack([np.asarray(y, dtype=np.float64) for y in per_year])
    if stack.shape[1] != DAYS_PER_YEAR:
        raise ValueError("per-year arrays must have a leading 365-day axis")
    if not np.all(np.isfinite(stack)):
        raise ValueError("daily-mean history must be finite")
    return np.mean(stack, axis=0)


def daily_means_from_fields(fields: Sequence[GridField]) -> np.ndarray:
    """(365, n_lat, n_lon) daily means of one year of 6-hourly fields.

    Every calendar day must carry its four synoptic samples; Feb 29 is
    dropped.
    """
    if not fields:
        raise ValueError("no fields supplied")
    grid = fields[0].grid
    acc = np.zeros((DAYS_PER_YEAR, grid.n_lat, grid.n_lon))
    counts = np.zeros(DAYS_PER_YEAR, dtype=np.intp)
    for f in fields:
        if f.grid != grid:
            raise ValueError("fields must share one grid")
        if is_leap_day(f.valid_time):
            continue
        d = calendar_day_index(f.valid_time)
        acc[d] += f.values
        counts[d] += 1
    if np.any(counts != len(SYNOPTIC_HOURS)):
        short = int(np.nonzero(counts != len(SYNOPTIC_HOURS))[0][0])
        raise InsufficientHistory(
            f"calendar day {short + 1} has {int(counts[short])} samples, "
            f"expected {len(SYNOPTIC_HOURS)}")
    return acc / len(SYNOPTIC_HOURS)
