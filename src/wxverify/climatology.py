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

import calendar
import math
from dataclasses import dataclass
from datetime import date, datetime, time, timedelta, timezone
from typing import Iterable, Sequence

import numpy as np

from .errors import InsufficientHistory, NonFiniteValue
from .grid import FieldBlock, GeoGrid, GridField, VariableId

DAYS_PER_YEAR = 365

#: Sample hours of the 6-hourly cadence.
SYNOPTIC_HOURS = (0, 6, 12, 18)

SIX_HOURS = timedelta(hours=6)

_CUM_DAYS = (0, 31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334)


def is_leap_day(when: datetime) -> bool:
    return when.month == 2 and when.day == 29


def calendar_day_index(when: datetime) -> int:
    """0-based index into the 365-day calendar; Feb 29 maps to Feb 28."""
    month, day = when.month, when.day
    if is_leap_day(when):
        day = 28
    return _CUM_DAYS[month - 1] + day - 1


def year_times(year: int) -> list[datetime]:
    """Every 6-hourly timestamp of one calendar year."""
    t = datetime(year, 1, 1, tzinfo=timezone.utc)
    end = datetime(year + 1, 1, 1, tzinfo=timezone.utc)
    out = []
    while t < end:
        out.append(t)
        t += SIX_HOURS
    return out


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


def _calendar_days(block: FieldBlock) -> tuple[slice, list[np.ndarray]]:
    """The calendar rows of a block of whole days of one year, and its days
    as ``(n_days, 4, n_lat, n_lon)`` views: those before Feb 29 and those
    after it, so Feb 29 of a leap year is left out without a copy. The
    rows are consecutive, and empty for a block of Feb 29 alone.

    ``block`` must hold every 6-hourly time of its days, in order, from
    00Z of the first, as :meth:`~wxverify.fileio.FieldSource.history`
    yields them; a block that does not raises :class:`InsufficientHistory`.
    """
    times = block.valid_times
    first = times[0]
    n_days = len(times) // len(SYNOPTIC_HOURS)
    if first.time() != time() or len(times) % len(SYNOPTIC_HOURS) \
            or times[-1].year != first.year or times != tuple(
                first + k * SIX_HOURS for k in range(len(times))):
        raise InsufficientHistory(
            f"{block.variable.key} history of {first.year}: the block from "
            f"{first.isoformat()} does not hold whole days of the year")
    days = block.values.reshape(n_days, len(SYNOPTIC_HOURS), *block.grid.shape)
    feb_29 = (date(first.year, 2, 29) - first.date()).days \
        if calendar.isleap(first.year) else -1
    parts = [days[:feb_29], days[feb_29 + 1:]] if 0 <= feb_29 < n_days \
        else [days]
    row = calendar_day_index(first) + is_leap_day(first)
    return slice(row, row + sum(len(part) for part in parts)), parts


def daily_extremes_from_fields(block: FieldBlock
                               ) -> tuple[slice, np.ndarray, np.ndarray]:
    """The calendar rows of a block of whole days of one year (see
    :func:`_calendar_days`), and their ``(n_rows, n_locations)`` daily max
    and min; Feb 29 is dropped.

    The location axis is the row-major flattening of the grid. Each day
    starts from its first synoptic hour and takes the max (min) with each
    later hour in turn, one whole-array pass per hour.
    """
    rows, parts = _calendar_days(block)
    n_rows, (n_lat, n_lon) = rows.stop - rows.start, block.grid.shape
    dmax = np.empty((n_rows, n_lat, n_lon))
    dmin = np.empty_like(dmax)
    at = 0
    for days in parts:
        hi, lo = dmax[at:at + len(days)], dmin[at:at + len(days)]
        hi[...] = lo[...] = days[:, 0]
        for hour in range(1, len(SYNOPTIC_HOURS)):
            np.maximum(hi, days[:, hour], out=hi)
            np.minimum(lo, days[:, hour], out=lo)
        at += len(days)
    return (rows, dmax.reshape(n_rows, n_lat * n_lon),
            dmin.reshape(n_rows, n_lat * n_lon))


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


def _quantile_sorted_columns(sorted_values: np.ndarray, counts: np.ndarray,
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
        # absent samples are NaN, which np.sort puts after every value
        n_max = np.count_nonzero(~np.isnan(pool_max), axis=0)
        short = np.flatnonzero(n_max < window_len)
        if short.size:
            loc = int(short[0])
            raise InsufficientHistory(
                f"day {day + 1}, location {loc}: pool size "
                f"{n_max[loc]} < {window_len}")
        n_min = np.count_nonzero(~np.isnan(pool_min), axis=0)
        tau_h[day] = _quantile_sorted_columns(np.sort(pool_max, axis=0),
                                              n_max, q_heat)
        tau_c[day] = _quantile_sorted_columns(np.sort(pool_min, axis=0),
                                              n_min, q_cold)
    return ThresholdField(tau_h, tau_c, history.years, half_window, q_heat, q_cold)


def day_span(days: Iterable[int]) -> tuple[int, int]:
    """``(first_day, n_days)`` of the shortest run of consecutive calendar
    days that holds every day in ``days``; a run may cross Dec 31 back to
    day 0. A run over every day starts at day 0.
    """
    ordered = sorted(set(days))
    if not ordered:
        raise ValueError("no calendar days given")
    # the run starts after the widest gap between neighbouring days
    gaps = [b - a for a, b in zip(ordered, ordered[1:])]
    gaps.append(ordered[0] + DAYS_PER_YEAR - ordered[-1])
    widest = max(reversed(range(len(gaps))), key=gaps.__getitem__)
    first = ordered[(widest + 1) % len(ordered)]
    return first, (ordered[widest] - first) % DAYS_PER_YEAR + 1


def day_rows(first_day: int, n_days: int, days) -> np.ndarray:
    """Row of each calendar day in a run of ``n_days`` consecutive days
    starting at ``first_day``; a day outside the run raises ValueError."""
    rows = (np.asarray(days, dtype=np.intp) - first_day) % DAYS_PER_YEAR
    outside = rows >= n_days
    if np.any(outside):
        day = int(np.asarray(days)[outside][0])
        raise ValueError(f"calendar day {day + 1} is outside the "
                         f"{n_days} days held from day {first_day + 1}")
    return rows


@dataclass(frozen=True)
class DailyMeanClimatology:
    """Per-calendar-day mean fields of one variable (serves ACC).

    ``day_mean`` holds a run of consecutive calendar days: row i is day
    ``(first_day + i) % 365``, so a run may cross Dec 31. A built or
    stored climatology holds all 365 days from day 0; a run reads only
    the days its valid times fall on (see
    :meth:`wxverify.fileio.FieldSource.climatology`).
    """

    grid: GeoGrid
    variable: VariableId
    day_mean: np.ndarray
    years: tuple[int, ...]
    first_day: int = 0

    def __post_init__(self):
        dm = np.ascontiguousarray(self.day_mean, dtype=np.float64)
        if dm.ndim != 3 or not 1 <= dm.shape[0] <= DAYS_PER_YEAR \
                or dm.shape[1:] != self.grid.shape:
            raise ValueError("day_mean must have shape (n_days, n_lat, n_lon) "
                             f"with 1 <= n_days <= {DAYS_PER_YEAR}")
        if not (isinstance(self.first_day, int)
                and 0 <= self.first_day < DAYS_PER_YEAR):
            raise ValueError(f"first_day must be a calendar day index, got "
                             f"{self.first_day!r}")
        if not np.all(np.isfinite(dm)):
            raise NonFiniteValue("day_mean must be finite")
        dm.setflags(write=False)
        object.__setattr__(self, "day_mean", dm)
        object.__setattr__(self, "years", tuple(int(y) for y in self.years))

    def layers(self, times: Sequence[datetime]) -> np.ndarray:
        """C-contiguous ``(len(times), n_lat, n_lon)`` means of the calendar
        days of ``times``."""
        return self.day_mean[day_rows(self.first_day, self.day_mean.shape[0],
                                      [calendar_day_index(t) for t in times])]

    def field_for(self, valid_time: datetime) -> GridField:
        """The climatological field for the calendar day of ``valid_time``."""
        return GridField(self.grid, self.variable, valid_time, 0,
                         self.layers([valid_time])[0])


def daily_means_from_fields(block: FieldBlock) -> tuple[slice, np.ndarray]:
    """The calendar rows of a block of whole days of one year (see
    :func:`_calendar_days`), and their ``(n_rows, n_lat, n_lon)`` daily
    means; Feb 29 is dropped.

    Each day's sum starts from zero and adds its synoptic hours in turn,
    one whole-array pass per hour, before the division by four.
    """
    rows, parts = _calendar_days(block)
    means = np.zeros((rows.stop - rows.start, *block.grid.shape))
    at = 0
    for days in parts:
        part = means[at:at + len(days)]
        for hour in range(len(SYNOPTIC_HOURS)):
            part += days[:, hour]
        at += len(days)
    means /= len(SYNOPTIC_HOURS)
    return rows, means
