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
exactly. The kernel that computes them is :mod:`wxverify.thresholds`,
which only ``build-climatology`` loads; this module holds the calendar,
the daily reductions of a history and the fields a scoring command
reads.
"""

from __future__ import annotations

import calendar
from dataclasses import dataclass
from datetime import date, datetime, time, timedelta, timezone
from typing import Iterable, Sequence

import numpy as np

from .errors import InsufficientHistory, NonFiniteValue
from .grid import (SIX_HOURS, FieldBlock, GeoGrid, GridField, VariableId,
                   all_finite)

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


def _day_start(year: int, day: int) -> datetime:
    """00Z of calendar day ``day`` (0 .. 365) of ``year``: day 365 is Jan 1
    of the next year, and in a leap year every day from Mar 1 (day 59)
    starts a day later than its index."""
    leap = calendar.isleap(year) and day >= _CUM_DAYS[2]
    return datetime(year, 1, 1, tzinfo=timezone.utc) \
        + timedelta(days=day + leap)


def year_times(year: int, days: range = range(DAYS_PER_YEAR)
               ) -> list[datetime]:
    """Every 6-hourly timestamp of the calendar days ``days`` (consecutive,
    of the 365-day calendar) of one year, by default the whole year. Feb
    29 of a leap year belongs with Feb 28, its calendar day, so the times
    of consecutive runs of days cover the year once."""
    t = _day_start(year, days.start)
    end = _day_start(year, days.stop)
    out = []
    while t < end:
        out.append(t)
        t += SIX_HOURS
    return out


def _float32_or_64(values) -> np.ndarray:
    """``values`` as a C-contiguous float32 array if they are float32,
    else as a float64 one."""
    values = np.asarray(values)
    return np.ascontiguousarray(
        values, np.float32 if values.dtype == np.float32 else np.float64)


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


def day_extremes(days: np.ndarray, dmax: np.ndarray, dmin: np.ndarray):
    """Write the max and min over axis 1, the synoptic hours, of ``days``,
    an ``(n_days, n_hours, ...)`` array, into ``dmax`` and ``dmin``: each
    day starts from its first hour and takes the max (min) with each
    later hour in turn, one whole-array pass per hour."""
    dmax[...] = dmin[...] = days[:, 0]
    for hour in range(1, days.shape[1]):
        np.maximum(dmax, days[:, hour], out=dmax)
        np.minimum(dmin, days[:, hour], out=dmin)


def daily_extremes_from_fields(block: FieldBlock
                               ) -> tuple[slice, np.ndarray, np.ndarray]:
    """The calendar rows of a block of whole days of one year (see
    :func:`_calendar_days`), and their ``(n_rows, n_locations)`` daily max
    and min (:func:`day_extremes`); Feb 29 is dropped.

    The location axis is the row-major flattening of the grid, and the
    extremes keep the dtype of the block.
    """
    rows, parts = _calendar_days(block)
    n_rows, (n_lat, n_lon) = rows.stop - rows.start, block.grid.shape
    dmax = np.empty((n_rows, n_lat, n_lon), dtype=block.values.dtype)
    dmin = np.empty_like(dmax)
    at = 0
    for days in parts:
        day_extremes(days, dmax[at:at + len(days)], dmin[at:at + len(days)])
        at += len(days)
    return (rows, dmax.reshape(n_rows, n_lat * n_lon),
            dmin.reshape(n_rows, n_lat * n_lon))


def _check_first_day(first_day, n_days: int):
    """``first_day`` must be a calendar day index, and a run of ``n_days``
    (1 .. 365) days held from it."""
    if not 1 <= n_days <= DAYS_PER_YEAR:
        raise ValueError(f"a run of 1 .. {DAYS_PER_YEAR} calendar days must "
                         f"be held, not {n_days}")
    if not (isinstance(first_day, int) and 0 <= first_day < DAYS_PER_YEAR):
        raise ValueError(f"first_day must be a calendar day index, got "
                         f"{first_day!r}")


def _check_thresholds(tau_heat: np.ndarray, tau_cold: np.ndarray):
    """Thresholds must be finite, and heat at or above cold."""
    if not (all_finite(tau_heat) and all_finite(tau_cold)):
        raise NonFiniteValue("thresholds must be finite")
    if np.any(tau_heat < tau_cold):
        raise ValueError("tau_heat must be >= tau_cold everywhere")


@dataclass(frozen=True)
class ThresholdField:
    """Heat / cold thresholds per (calendar day, location).

    Arrays have shape (n_days, n_locations) and hold a run of consecutive
    calendar days: row i is day ``(first_day + i) % 365``, as in
    :class:`DailyMeanClimatology`. A run reads only the days it scores
    from the thresholds ``build-climatology`` stored (see
    :meth:`wxverify.fileio.FieldSource.thresholds`). tau_heat >= tau_cold
    holds everywhere and every entry is finite. A float32 array
    (thresholds read from a store) is kept as float32, and any other is
    converted to float64.
    """

    tau_heat: np.ndarray
    tau_cold: np.ndarray
    years: tuple[int, ...]
    half_window: int
    q_heat: float
    q_cold: float
    first_day: int = 0

    def __post_init__(self):
        th = _float32_or_64(self.tau_heat)
        tc = _float32_or_64(self.tau_cold)
        if th.shape != tc.shape or th.ndim != 2:
            raise ValueError("thresholds must have shape (n_days, n_locations)")
        _check_first_day(self.first_day, th.shape[0])
        _check_thresholds(th, tc)
        th.setflags(write=False)
        tc.setflags(write=False)
        object.__setattr__(self, "tau_heat", th)
        object.__setattr__(self, "tau_cold", tc)
        object.__setattr__(self, "years", tuple(int(y) for y in self.years))

    @property
    def n_locations(self) -> int:
        return self.tau_heat.shape[1]

    def rows(self, days) -> np.ndarray:
        """Row of each calendar day in ``days``; a day not held raises
        ValueError (see :func:`day_rows`)."""
        return day_rows(self.first_day, self.tau_heat.shape[0], days)


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
        if dm.ndim != 3 or dm.shape[1:] != self.grid.shape:
            raise ValueError("day_mean must have shape (n_days, n_lat, n_lon)")
        _check_first_day(self.first_day, dm.shape[0])
        if not all_finite(dm):
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
