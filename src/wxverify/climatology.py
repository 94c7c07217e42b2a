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
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .errors import InsufficientHistory, NonFiniteValue
from .grid import (SIX_HOURS, FieldBlock, GeoGrid, GridField, VariableId,
                   all_finite)

if TYPE_CHECKING:
    from .fileio import SpilledHistory

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
    :func:`wxverify.fileio.read_thresholds`). tau_heat >= tau_cold holds
    everywhere and every entry is finite. A float32 array (thresholds
    read from a store) is kept as float32, and any other is converted to
    float64.
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


#: Most bytes of one array of ordered lists that :class:`ThresholdBuild`
#: holds for a chunk of locations; it holds a few such arrays at once.
LIST_CHUNK_BYTES = 2**20


def _window_days(half_window: int) -> int:
    """Length of the calendar :class:`ThresholdBuild` runs its windows
    over: from the first window's first day, wrapping the year, in whole
    blocks of ``2 * half_window + 1`` days."""
    window_len = 2 * half_window + 1
    return window_len * -(-(DAYS_PER_YEAR + window_len - 1) // window_len)


def _list_lengths(n_pool: int, q_heat: float, q_cold: float
                  ) -> tuple[int, int]:
    """How many values each window keeps for the heat and the cold
    thresholds of pools of ``n_pool`` values: the power of two at or above
    the count of largest (smallest) values a full pool's quantile needs,
    since a smaller pool needs no more of its values than a full one."""
    needed = (n_pool - math.floor(q_heat * (n_pool - 1)),
              min(math.floor(q_cold * (n_pool - 1)) + 2, n_pool))
    return tuple(1 << (n - 1).bit_length() for n in needed)


def threshold_chunk(n_years: int, itemsize: int, q_heat: float = 0.9,
                    q_cold: float = 0.1, half_window: int = 7) -> int:
    """How many locations :class:`ThresholdBuild` takes at a time from a
    history of ``n_years`` years of ``itemsize``-byte daily extremes: as
    many as keep each array of its ordered lists within
    :data:`LIST_CHUNK_BYTES`, at least one."""
    k = max(_list_lengths(n_years * (2 * half_window + 1), q_heat, q_cold))
    return max(1, LIST_CHUNK_BYTES // (k * _window_days(half_window)
                                       * itemsize))


class _Scratch:
    """The threshold kernel's temporaries, kept from one chunk of
    locations to the next: each name is the front of one buffer, grown
    when a chunk needs more of it. A build makes one, so that the arrays
    of about :data:`LIST_CHUNK_BYTES` a chunk takes are allocated once,
    not freed and faulted in again for every chunk. A name may serve
    several arrays whose lifetimes do not overlap."""

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}
        self._arange = np.arange(0)

    def arange(self, n: int) -> np.ndarray:
        """``np.arange(n)``, kept for the next call."""
        if self._arange.size < n:
            self._arange = np.arange(n)
        return self._arange[:n]

    def __call__(self, name: str, shape: tuple[int, ...], dtype
                 ) -> np.ndarray:
        """A C-contiguous array of ``shape`` and ``dtype`` over buffer
        ``name``; it holds whatever the buffer's last user left there."""
        dtype = np.dtype(dtype)
        size = math.prod(shape) * dtype.itemsize
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < size:
            buffer = self._buffers[name] = np.empty(size, np.uint8)
        return buffer[:size].view(dtype).reshape(shape)


def _sort_bitonic_runs(runs: np.ndarray, width: int, spare: np.ndarray
                       ) -> np.ndarray:
    """``runs`` with each run of ``width`` (a power of two) entries along
    axis 0 in descending order, where each run is bitonic (it rises then
    falls, or falls then rises). Batcher's bitonic merger: log2(width)
    rounds of elementwise max and min over pairs of entries, which
    alternate between ``runs`` and ``spare`` (both C-contiguous, of one
    shape); returns the one of them that holds the result."""
    n, rest = runs.shape[0], runs.shape[1:]
    half = width // 2
    while half:
        pairs = runs.reshape(n // (2 * half), 2, half, *rest)
        into = spare.reshape(pairs.shape)
        np.maximum(pairs[:, 0], pairs[:, 1], out=into[:, 0])
        np.minimum(pairs[:, 0], pairs[:, 1], out=into[:, 1])
        runs, spare = spare, runs
        half //= 2
    return runs


def _sorted_descending(values: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """``values`` sorted in descending order along axis 0, whose length is
    a power of two: sorted runs of 1, 2, 4, ... entries are merged in
    pairs, each pair the first run followed by the second reversed. The
    work alternates between ``values`` and ``spare`` (both C-contiguous,
    of one shape); returns the one of them that holds the result."""
    n, rest = values.shape[0], values.shape[1:]
    width = 1
    while width < n:
        runs = values.reshape(n // (2 * width), 2, width, *rest)
        np.concatenate([runs[:, 0], runs[:, 1, ::-1]], axis=1,
                       out=spare.reshape(n // (2 * width), 2 * width, *rest))
        joined, spare = spare, values
        values = _sort_bitonic_runs(joined, 2 * width, spare)
        spare = joined if values is spare else spare
        width *= 2
    return values


def _merge_largest(a: np.ndarray, b: np.ndarray, out: np.ndarray,
                   spare: np.ndarray) -> np.ndarray:
    """The ``k`` largest entries, descending, of two lists of ``k`` (a
    power of two) entries each sorted descending along axis 0: the
    larger of ``a[i]`` and ``b[k - 1 - i]`` are those ``k``, in a bitonic
    run. They go to ``out`` or ``spare`` (both C-contiguous, of the
    shape of ``a``), whichever is returned."""
    return _sort_bitonic_runs(np.maximum(a, b[::-1], out=out), len(a), spare)


def _largest_in_windows(values: np.ndarray, k: int, window_len: int,
                        scratch: _Scratch) -> tuple[np.ndarray, np.ndarray]:
    """The pool size and the ``k`` largest values, descending, of the
    pool of each of 365 windows of ``window_len`` consecutive days.

    ``values`` is ``(n_years, n_days, n_loc)``, where ``n_days`` is a
    multiple of ``window_len`` and at least 364 + ``window_len``; NaN
    marks an absent value, which is not counted and ranks below every
    value. ``k`` is a power of two; a pool of fewer values is padded with
    -inf. Window i holds days i .. i + window_len - 1; returns the
    ``(365, n_loc)`` pool sizes and ``(k, 365, n_loc)`` values, both in
    buffers of ``scratch``.

    The van Herk / Gil-Werman scheme: within each block of
    ``window_len`` days, the largest values of every prefix and every
    suffix of the block; a window is then the suffix of its block from
    its first day merged with the prefix of the next block to its last.
    """
    n_years, n_days, n_loc = values.shape
    present = np.isnan(values, out=scratch("present", values.shape, bool))
    np.logical_not(present, out=present)
    in_days = scratch("in_days", (n_days + 1, n_loc), np.intp)
    in_days[0] = 0
    np.sum(present, axis=0, dtype=np.intp, out=in_days[1:])
    np.cumsum(in_days[1:], axis=0, out=in_days[1:])
    counts = np.subtract(in_days[window_len:][:DAYS_PER_YEAR],
                         in_days[:DAYS_PER_YEAR],
                         out=scratch("counts", (DAYS_PER_YEAR, n_loc),
                                     np.intp))
    # each day's values over the years, descending, padded with -inf to
    # at least k entries; "lists" and "spare" are the two arrays of the
    # sort, and then of the last merge
    n_sorted = 1 << (n_years - 1).bit_length()
    shape = (max(n_sorted, k), n_days, n_loc)
    lists, spare = (scratch(name, shape, values.dtype)
                    for name in ("lists", "spare"))
    per_day, other = lists[:n_sorted], spare[:n_sorted]
    per_day.fill(-np.inf)
    np.copyto(per_day[:n_years], values, where=present)
    if _sorted_descending(per_day, other) is other:
        lists, spare = spare, lists
    lists[n_sorted:k] = -np.inf
    blocks = lists[:k].reshape(k, n_days // window_len, window_len, n_loc)
    prefix = scratch("prefix", blocks.shape, values.dtype)
    suffix = scratch("suffix", blocks.shape, values.dtype)
    day_shape = blocks[:, :, 0].shape
    out, into = (scratch(name, day_shape, values.dtype)
                 for name in ("merge", "merge_spare"))
    prefix[:, :, 0] = blocks[:, :, 0]
    suffix[:, :, -1] = blocks[:, :, -1]
    for day in range(1, window_len):
        prefix[:, :, day] = _merge_largest(prefix[:, :, day - 1],
                                           blocks[:, :, day], out, into)
    for day in range(window_len - 2, 0, -1):
        suffix[:, :, day] = _merge_largest(blocks[:, :, day],
                                           suffix[:, :, day + 1], out, into)
    # a window that starts a block is that block's whole prefix
    suffix[:, :, 0] = -np.inf
    prefix = prefix.reshape(k, n_days, n_loc)
    suffix = suffix.reshape(k, n_days, n_loc)
    last_days = prefix[:, window_len - 1:window_len - 1 + DAYS_PER_YEAR]
    shape = (k, DAYS_PER_YEAR, n_loc)
    return counts, _merge_largest(
        suffix[:, :DAYS_PER_YEAR], last_days,
        lists.reshape(-1)[:math.prod(shape)].reshape(shape),
        spare.reshape(-1)[:math.prod(shape)].reshape(shape))


def _pool_quantiles(largest: np.ndarray, counts: np.ndarray, q: float,
                    negated: bool, out: np.ndarray, scratch: _Scratch
                    ) -> np.ndarray:
    """The ``q`` quantile of each pool of ``counts`` values (see the
    module docstring), in float64, from its largest values, descending;
    when ``negated``, from the largest of its values negated (its
    smallest). For n = counts[j], h = q * (n - 1) and lo = floor(h), the
    result is s[lo] when g = h - lo is 0 or s[lo + 1] is past the pool,
    else s[lo] + g * (s[lo + 1] - s[lo]), s being the pool sorted
    ascending; the terms are computed once per pool size. The result
    goes to ``out``, a float64 array of the shape of ``counts``; the
    temporaries use the buffers the windows are done with."""
    n = np.arange(counts.max() + 1)
    h = q * (n - 1)
    lo = np.floor(h).astype(np.intp)
    g = h - lo
    exact = (g == 0.0) | (lo + 1 >= n)
    # s[lo] and s[lo + 1] of each pool, by their rank in ``largest``
    ranks = (lo, lo + 1) if negated else (n - 1 - lo, n - 2 - lo)
    k, size = len(largest), counts.size
    at = scratch("in_days", counts.shape, np.intp)
    picked = scratch("present", counts.shape, largest.dtype)
    s_lo, s_hi = (scratch(name, counts.shape, np.float64)
                  for name in ("prefix", "suffix"))
    for rank, s in zip(ranks, (s_lo, s_hi)):
        # flat index of each pool's value of that rank: rank * size + cell
        np.take(np.clip(rank, 0, k - 1) * size, counts, out=at, mode="clip")
        at += scratch.arange(size).reshape(counts.shape)
        np.take(largest.reshape(-1), at, out=picked, mode="clip")
        s[...] = picked
        if negated:
            np.negative(s, out=s)
    with np.errstate(invalid="ignore"):
        np.subtract(s_hi, s_lo, out=out)
        np.multiply(np.take(g, counts, out=s_hi, mode="clip"), out, out=out)
        np.add(s_lo, out, out=out)
    np.copyto(out, s_lo, where=np.take(exact, counts, mode="clip"))
    return out


class ThresholdBuild:
    """Percentile thresholds from pooled windowed daily extremes, computed
    a chunk of locations at a time as :meth:`chunks` is iterated.

    For each (day, location) the pool is every finite daily max (heat)
    or daily min (cold) over all history years and the 15-day window
    centered on the day. Absent days shrink the pool; a pool smaller
    than the window length raises :class:`InsufficientHistory`, as does
    a history of fewer than two years.

    No pool is sorted: a quantile needs two order statistics, s[lo] and
    s[lo + 1], which lie among the n - lo largest values of a pool of n
    (heat) or its lo + 2 smallest (cold). Those are found for every
    window exactly, by elementwise max and min (see
    :func:`_largest_in_windows`), a chunk of :func:`threshold_chunk`
    locations at a time, so the thresholds equal those of sorting each
    pool bit for bit. ``history`` is read a chunk at a time too, through
    its ``chunks()``: the daily extremes a build spilled to disk
    (:class:`wxverify.fileio.SpilledHistory`), whose chunks of the file
    the kernel cuts into its own. Every location is computed on its own,
    so the thresholds do not depend on either chunking. The thresholds
    of a chunk go to :func:`wxverify.fileio.write_thresholds` before the
    next chunk is computed, so neither end holds more than it keeps.
    """

    def __init__(self, history: SpilledHistory, q_heat: float = 0.9,
                 q_cold: float = 0.1, half_window: int = 7):
        if len(history.years) < 2:
            raise InsufficientHistory(
                f"need >= 2 history years, got {len(history.years)}")
        if not (0.0 <= q_cold <= q_heat <= 1.0):
            raise ValueError("require 0 <= q_cold <= q_heat <= 1")
        if half_window < 0:
            raise ValueError("half_window must be non-negative")
        self.history = history
        self.years = history.years
        self.q_heat = q_heat
        self.q_cold = q_cold
        self.half_window = half_window

    @property
    def n_locations(self) -> int:
        return self.history.n_locations

    def chunks(self):
        """Yield ``(start, stop, tau_heat, tau_cold)`` for each chunk of
        locations ``start .. stop`` in order: the float64 ``(365, stop -
        start)`` thresholds of its locations, in buffers that the next
        chunk reuses, so they hold only until the next is asked for.

        A pool too small raises :class:`InsufficientHistory` after the
        last chunk, for the first such (day, location) in day-then-
        location order; until then no chunk is yielded after the first
        one with a small pool, or with thresholds that are not finite or
        put heat below cold (whose error is raised after the last chunk
        when no pool was small)."""
        history, half_window = self.history, self.half_window
        window_len = 2 * half_window + 1
        # window i starts on calendar day i - half_window, so it is days
        # i .. i + window_len - 1 of this run of days
        n_days = _window_days(half_window)
        days = np.arange(-half_window, n_days - half_window) % DAYS_PER_YEAR
        k_heat, k_cold = _list_lengths(len(history.years) * window_len,
                                       self.q_heat, self.q_cold)
        step = threshold_chunk(len(history.years), history.dtype.itemsize,
                               self.q_heat, self.q_cold, half_window)
        scratch = _Scratch()
        short, failed = [], None
        # kernel chunks of step locations, cut inside each chunk of the file
        pieces = ((first + lo, file_max[..., lo:lo + step],
                   file_min[..., lo:lo + step])
                  for first, file_max, file_min in history.chunks()
                  for lo in range(0, file_max.shape[-1], step))
        for start, daily_max, daily_min in pieces:
            stop = start + daily_max.shape[-1]
            taus = []
            for extremes, q, k, negated in (
                    (daily_max, self.q_heat, k_heat, False),
                    (daily_min, self.q_cold, k_cold, True)):
                values = scratch("values", (len(history.years), n_days,
                                            stop - start), extremes.dtype)
                np.take(extremes, days, axis=1, out=values, mode="clip")
                if negated:
                    np.negative(values, out=values)
                counts, largest = _largest_in_windows(values, k, window_len,
                                                      scratch)
                if not negated and counts.min() < window_len:
                    # the first (day, location) in day-then-location order
                    day, loc = np.argwhere(counts < window_len)[0]
                    short.append((day, start + loc, counts[day, loc]))
                taus.append(_pool_quantiles(
                    largest, counts, q, negated,
                    scratch(f"tau{len(taus)}", counts.shape, np.float64),
                    scratch))
            if short or failed:
                continue
            try:
                _check_thresholds(*taus)
            except (NonFiniteValue, ValueError) as exc:
                failed = exc
                continue
            yield start, stop, *taus
        if short:
            day, loc, size = min(short)
            raise InsufficientHistory(f"day {day + 1}, location {loc}: pool "
                                      f"size {size} < {window_len}")
        if failed:
            raise failed


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
