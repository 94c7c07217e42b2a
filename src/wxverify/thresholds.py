"""The extreme-threshold kernel: percentile thresholds of every calendar
day and location from the pooled daily extremes of the history years
(:class:`ThresholdBuild`), computed a chunk of locations at a time.

The estimator is the one :mod:`wxverify.climatology` describes. Only
``build-climatology`` runs it, so only that command imports this module;
a scoring command reads the stored thresholds
(:meth:`wxverify.fileio.FieldSource.thresholds`).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .climatology import DAYS_PER_YEAR, _check_thresholds
from .errors import InsufficientHistory, NonFiniteValue

if TYPE_CHECKING:
    from .writers import SpilledHistory

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
    (:class:`wxverify.writers.SpilledHistory`), whose chunks of the file
    the kernel cuts into its own. Every location is computed on its own,
    so the thresholds do not depend on either chunking. The thresholds
    of a chunk go to :func:`wxverify.writers.write_thresholds` before the
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
