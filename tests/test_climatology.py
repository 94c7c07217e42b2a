from __future__ import annotations

import math
import tempfile
import tracemalloc
from datetime import datetime, timedelta, timezone
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import (CALENDAR_DAYS, day_source, layer_of, make_field,
                      make_grid, spilled_extremes)
from oracles import DailyHistory, build_thresholds
from wxverify import climatology, thresholds, writers
from wxverify.climatology import (DAYS_PER_YEAR, calendar_day_index,
                                  daily_extremes_from_fields,
                                  daily_means_from_fields, day_span,
                                  year_times)
from wxverify.errors import (GridMismatch, InsufficientHistory,
                             ManifestError, WxVerifyError)
from wxverify.grid import FieldBlock, VariableId
from wxverify.pipeline_climatology import _reduce_history


def six_hourly_year(year, fn):
    """[(timestamp, fn(timestamp)), ...] for all synoptic hours of a year."""
    t = datetime(year, 1, 1, tzinfo=timezone.utc)
    end = datetime(year + 1, 1, 1, tzinfo=timezone.utc)
    out = []
    while t < end:
        out.append((t, fn(t)))
        t += timedelta(hours=6)
    return out


class TestCalendarDayIndex:
    def test_first_and_last(self):
        assert calendar_day_index(datetime(2025, 1, 1, tzinfo=timezone.utc)) == 0
        assert calendar_day_index(datetime(2025, 12, 31, tzinfo=timezone.utc)) == 364

    def test_leap_day_maps_to_feb_28(self):
        feb28 = calendar_day_index(datetime(2024, 2, 28, tzinfo=timezone.utc))
        feb29 = calendar_day_index(datetime(2024, 2, 29, tzinfo=timezone.utc))
        assert feb29 == feb28 == 58

    def test_march_first_index_is_calendar_stable(self):
        # same index in leap and non-leap years
        assert calendar_day_index(datetime(2024, 3, 1, tzinfo=timezone.utc)) \
            == calendar_day_index(datetime(2025, 3, 1, tzinfo=timezone.utc)) == 59


class TestDailyExtremes:
    def test_hand_day(self):
        t0 = datetime(2025, 3, 10, tzinfo=timezone.utc)
        samples = [(t0 + timedelta(hours=6 * k), v)
                   for k, v in enumerate([280.0, 285.0, 290.0, 283.0])]
        dmax, dmin = oracles.daily_extremes(samples)
        d = calendar_day_index(t0)
        assert dmax[d] == 290.0 and dmin[d] == 280.0

    def test_constant_day(self):
        t0 = datetime(2025, 3, 10, tzinfo=timezone.utc)
        samples = [(t0 + timedelta(hours=6 * k), 300.0) for k in range(4)]
        dmax, dmin = oracles.daily_extremes(samples)
        d = calendar_day_index(t0)
        assert dmax[d] == 300.0 and dmin[d] == 300.0

    def test_incomplete_day_absent(self):
        t0 = datetime(2025, 3, 10, tzinfo=timezone.utc)
        samples = [(t0 + timedelta(hours=6 * k), 300.0) for k in range(3)]
        dmax, _ = oracles.daily_extremes(samples)
        assert np.isnan(dmax[calendar_day_index(t0)])

    def test_off_synoptic_hour_rejected(self):
        with pytest.raises(ValueError):
            oracles.daily_extremes([(datetime(2025, 3, 10, 5, tzinfo=timezone.utc), 1.0)])

    def test_sinusoid_matches_closed_form(self):
        def temp(t):
            d = calendar_day_index(t) + 1
            return (285.0 + 10.0 * math.sin(2 * math.pi * d / 365.0)
                    + 3.0 * math.sin(2 * math.pi * t.hour / 24.0 - math.pi / 2))

        dmax, dmin = oracles.daily_extremes(six_hourly_year(2025, temp))
        for day in (0, 99, 199, 364):
            base = 285.0 + 10.0 * math.sin(2 * math.pi * (day + 1) / 365.0)
            hours = np.array([0, 6, 12, 18])
            diurnal = 3.0 * np.sin(2 * np.pi * hours / 24.0 - np.pi / 2)
            assert dmax[day] == pytest.approx(base + diurnal.max(), abs=1e-9)
            assert dmin[day] == pytest.approx(base + diurnal.min(), abs=1e-9)

    def test_leap_year_day_count(self):
        samples = six_hourly_year(2024, lambda t: 1.0)
        dmax, dmin = oracles.daily_extremes(samples)
        assert not np.any(np.isnan(dmax)) and not np.any(np.isnan(dmin))

    def test_history_from_fields_matches_oracle(self, rng):
        # a leap year with some samples missing: Feb 29 is dropped and
        # incomplete days come out absent in both implementations
        grid = make_grid(2, 3)
        times = [when for when, _ in six_hourly_year(2024, lambda t: 0.0)]
        keep = rng.random(len(times)) > 0.01
        values = 285.0 + 5.0 * rng.standard_normal((len(times),) + grid.shape)
        fields = [make_field(grid, v, valid_time=t)
                  for t, v, k in zip(times, values, keep) if k]
        history = oracles.history_from_fields({2024: fields})
        flat = values.reshape(len(times), -1)
        for loc in range(flat.shape[1]):
            samples = [(t, float(flat[i, loc]))
                       for i, (t, k) in enumerate(zip(times, keep)) if k]
            dmax, dmin = oracles.daily_extremes(samples)
            assert np.array_equal(history.daily_max[0, :, loc], dmax,
                                  equal_nan=True)
            assert np.array_equal(history.daily_min[0, :, loc], dmin,
                                  equal_nan=True)
        assert np.isnan(history.daily_max[0]).any()


def year_block(grid, year, values):
    """A block of every 6-hourly layer of ``year``."""
    times = year_times(year)
    return FieldBlock(grid, VariableId.T2M, tuple(times), (0,) * len(times),
                      values)


def day_blocks(block, edges):
    """``block`` cut at the day indices ``edges`` (first and last
    included) into consecutive blocks of whole days."""
    return [FieldBlock(block.grid, block.variable,
                       block.valid_times[4 * a:4 * b],
                       block.lead_hours[4 * a:4 * b],
                       block.values[4 * a:4 * b])
            for a, b in zip(edges, edges[1:])]


class StubHistory:
    """A source whose history years are given as blocks of their layers.
    Like ``FieldSource.history``, it reads the calendar days asked for at
    the layers where the times of those days would be, in blocks of
    ``days_per_block`` days; whatever times those layers hold, so a year
    whose layers are short, shifted or out of order gives blocks that do
    not hold their days. Days past a year's last layer raise
    ``ManifestError``, as a store that does not hold them does, and a
    year on another grid than the one asked for raises ``GridMismatch``,
    as a store on it does."""

    def __init__(self, blocks_by_year, days_per_block=7):
        self.manifest = SimpleNamespace(history_years=tuple(blocks_by_year))
        self.blocks_by_year = blocks_by_year
        self.days_per_block = days_per_block

    def history_days(self, variable):
        return self.days_per_block

    def history(self, variable, year, days, grid=None):
        block = self.blocks_by_year[year]
        if grid is not None and block.grid != grid:
            raise GridMismatch(f"grid mismatch: history of {year} is on "
                               f"{block.grid}, not {grid}")
        start, stop = (len(year_times(year, range(day)))
                       for day in (days.start, days.stop))
        if stop > len(block.valid_times):
            raise ManifestError(f"no history layer of {year} on calendar "
                                f"days {days.start}..{days.stop - 1}")
        return FieldBlock(block.grid, block.variable,
                          block.valid_times[start:stop],
                          block.lead_hours[start:stop],
                          block.values[start:stop])


class GeneratedHistory:
    """A source whose float32 history layers are made as they are read,
    so that only the reduction's own memory is traced."""

    def __init__(self, years, grid, days_per_block=7):
        self.manifest = SimpleNamespace(history_years=tuple(years))
        self.grid = grid
        self.days_per_block = days_per_block

    def history_days(self, variable):
        return self.days_per_block

    def history(self, variable, year, days, grid=None):
        times = year_times(year, days)
        values = np.full((len(times), *self.grid.shape), year % 7,
                         dtype=np.float32)
        values += (np.arange(len(times)) % 13)[:, None, None]
        return FieldBlock(self.grid, variable, tuple(times),
                          (0,) * len(times), values)


def reduce_streamed(source, extremes=True):
    """``pipeline_climatology._reduce_history`` of T2M from ``source``
    into a scratch directory: its grid, the mean read back from the
    climatology it wrote and the spilled daily max and min of every
    location (None without ``extremes``)."""
    with tempfile.TemporaryDirectory() as scratch:
        clim_path = Path(scratch) / "c.rbc"
        with writers.SpilledHistory(scratch,
                                   source.manifest.history_years) as spill:
            grid = _reduce_history(source, VariableId.T2M, clim_path,
                                   spill if extremes else None)
            mean = day_source(clim_path).climatology(
                VariableId.T2M, CALENDAR_DAYS).day_mean
            spilled = spilled_extremes(spill) if extremes else None
    return grid, mean, spilled


class TestYearBlocks:
    """Daily means and extremes reduce a block of whole days in one pass
    per synoptic hour; cut anywhere at whole days, they must equal the
    field-by-field loops over the year bit for bit."""

    @given(year=st.sampled_from([2023, 2024, 2000, 2100]),
           n_lat=st.integers(1, 3), n_lon=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1), lattice=st.booleans(),
           zeros=st.sampled_from([0.0, 0.05]),
           cuts=st.sets(st.integers(1, 365), max_size=5))
    @settings(max_examples=25, deadline=None)
    def test_block_reductions_equal_the_field_loops(self, year, n_lat, n_lon,
                                                    seed, lattice, zeros,
                                                    cuts):
        # sums that round, or values on a 0.25 lattice so that days hold
        # ties; with signed zeros at times, so max and min must pick the
        # same zero
        rng = np.random.default_rng(seed)
        grid = make_grid(n_lat, n_lon)
        times = year_times(year)
        values = 285.0 + 10.0 * rng.standard_normal((len(times), n_lat, n_lon))
        if lattice:
            values = np.round(4.0 * values) / 4.0 - 285.0
        signed = rng.random(values.shape) < zeros
        values[signed] = np.where(rng.random(values.shape) < 0.5, 0.0,
                                  -0.0)[signed]
        # the year whole (no cuts), or in blocks of whole days as
        # FieldSource.history yields it
        block = year_block(grid, year, values)
        n_days = len(times) // 4
        edges = [0, *sorted(c for c in cuts if c < n_days), n_days]
        means = np.full((DAYS_PER_YEAR, n_lat, n_lon), np.nan)
        dmax = np.full((DAYS_PER_YEAR, n_lat * n_lon), np.nan)
        dmin = dmax.copy()
        row = 0
        for part in day_blocks(block, edges):
            rows, part_means = daily_means_from_fields(part)
            assert rows.start == row  # rows follow on, Feb 29 left out
            row = rows.stop
            means[rows] = part_means
            extreme_rows, dmax[rows], dmin[rows] = \
                daily_extremes_from_fields(part)
            assert extreme_rows == rows
        assert row == DAYS_PER_YEAR
        fields = [layer_of(block, i) for i in range(len(times))]
        assert means.tobytes() == oracles.daily_means_loop(fields).tobytes()
        want = oracles.daily_extremes_loop(fields)
        assert [dmax.tobytes(), dmin.tobytes()] == [a.tobytes() for a in want]

    def test_a_block_of_feb_29_alone_has_no_rows(self):
        grid = make_grid(1, 2)
        block = year_block(grid, 2024, np.ones((1464, 1, 2)))
        mar_1 = calendar_day_index(datetime(2024, 3, 1))  # day 60 of 2024
        (leap_day,) = day_blocks(block, [mar_1, mar_1 + 1])
        assert leap_day.valid_times[0] == datetime(2024, 2, 29,
                                                   tzinfo=timezone.utc)
        rows, means = daily_means_from_fields(leap_day)
        assert rows == slice(mar_1, mar_1) and means.shape == (0, 1, 2)
        rows, dmax, dmin = daily_extremes_from_fields(leap_day)
        assert rows == slice(mar_1, mar_1)
        assert dmax.shape == dmin.shape == (0, 2)

    @pytest.mark.parametrize("cut", ["six-hours", "shifted", "next-year",
                                     "gap"])
    def test_block_must_hold_whole_days_of_one_year(self, cut):
        grid = make_grid(1, 2)
        times = year_times(2025)
        if cut == "six-hours":
            times = times[:6]
        elif cut == "shifted":
            times = times[1:9]
        elif cut == "next-year":
            times = times[-4:] + year_times(2026)[:4]
        else:
            times = times[:4] + times[8:12]
        block = FieldBlock(grid, VariableId.T2M, tuple(times),
                           (0,) * len(times), np.zeros((len(times), 1, 2)))
        for reduce in (daily_means_from_fields, daily_extremes_from_fields):
            with pytest.raises(InsufficientHistory, match="history of 2025"):
                reduce(block)

    @pytest.mark.parametrize("cut", ["shifted"])
    def test_block_must_hold_the_whole_year(self, cut):
        # the streamed reduction refuses a block of days whose layers are
        # not the days' times. A store that lacks a layer of the year, the
        # only way a real history can be short, is refused by the reader
        # (``test_cli.py::TestStreamedHistory``)
        grid = make_grid(1, 2)
        times = [when + timedelta(hours=6) for when in year_times(2025)]
        block = FieldBlock(grid, VariableId.T2M, tuple(times),
                           (0,) * len(times), np.zeros((len(times), 1, 2)))
        for extremes in (False, True):
            with pytest.raises(InsufficientHistory, match="history of 2025"):
                reduce_streamed(StubHistory({2025: block}, 5), extremes)


def dense_history(rng, n_years=12, n_loc=3, loc_mean=288.0):
    dmax = loc_mean + 5.0 * rng.standard_normal((n_years, DAYS_PER_YEAR, n_loc))
    dmin = dmax - np.abs(3.0 * rng.standard_normal(dmax.shape)) - 1.0
    years = tuple(range(2013, 2013 + n_years))
    return DailyHistory(years, dmax, dmin)


class TestBuildThresholds:
    def test_degenerate_constant_pool(self):
        years = (2019, 2020)
        dmax = np.full((2, DAYS_PER_YEAR, 1), 288.0)
        history = DailyHistory(years, dmax, dmax.copy())
        tf = build_thresholds(history)
        assert np.all(tf.tau_heat == 288.0)
        assert np.all(tf.tau_cold == 288.0)

    def test_ramp_pool_closed_form(self, rng):
        # pool of 12y x 15d containing exactly {1..180}
        n_years, half = 12, 7
        window = 2 * half + 1
        dmax = np.zeros((n_years, DAYS_PER_YEAR, 1))
        day = 100
        win = oracles.window_indices(day, half)
        ramp = iter(range(1, n_years * window + 1))
        for y in range(n_years):
            for c in win:
                dmax[y, c, 0] = next(ramp)
        history = DailyHistory(tuple(range(2010, 2022)), dmax,
                               dmax - 1000.0)
        tf = build_thresholds(history, half_window=half)
        assert tf.tau_heat[day, 0] == pytest.approx(162.1, abs=1e-12)
        # cold side of the same ramp (shifted by the constant -1000)
        assert tf.tau_cold[day, 0] == pytest.approx(18.9 - 1000.0, abs=1e-12)

    def test_matches_sort_oracle_exactly(self, rng):
        history = dense_history(rng)
        tf = build_thresholds(history)
        probes = [(int(rng.integers(0, DAYS_PER_YEAR)), int(rng.integers(0, 3)))
                  for _ in range(120)]
        probes += [(0, 0), (364, 1), (3, 2), (361, 0)]  # force year wrap
        for day, loc in probes:
            win = oracles.window_indices(day, 7)
            pool_max = history.daily_max[:, win, loc].ravel()
            pool_min = history.daily_min[:, win, loc].ravel()
            assert tf.tau_heat[day, loc] == \
                oracles.percentile_sorted_oracle(pool_max, 0.9)
            assert tf.tau_cold[day, loc] == \
                oracles.percentile_sorted_oracle(pool_min, 0.1)

    def test_requires_two_years(self, rng):
        history = dense_history(rng, n_years=1)
        with pytest.raises(InsufficientHistory):
            build_thresholds(history)

    def test_small_pool_raises(self):
        years = (2019, 2020)
        dmax = np.full((2, DAYS_PER_YEAR, 1), np.nan)
        dmax[0, :, 0] = 280.0  # one year only -> pools of 15 < 30 but >= 15
        dmin = dmax - 1.0
        history = DailyHistory(years, dmax, dmin)
        tf = build_thresholds(history)  # pool of 15 is exactly the floor
        assert np.all(np.isfinite(tf.tau_heat))
        dmax2 = dmax.copy()
        dmax2[0, 5, 0] = np.nan  # punch one hole -> pool of 14 somewhere
        dmin2 = dmax2 - 1.0
        with pytest.raises(InsufficientHistory):
            build_thresholds(DailyHistory(years, dmax2, dmin2))

    def test_monotone_in_pool_values(self, rng):
        history = dense_history(rng, n_years=3, n_loc=1)
        tf = build_thresholds(history)
        bumped_max = history.daily_max.copy()
        bumped_max[1, 50, 0] += 40.0
        bumped = DailyHistory(history.years, bumped_max, history.daily_min)
        tf2 = build_thresholds(bumped)
        assert np.all(tf2.tau_heat >= tf.tau_heat)

    def test_window_wrap_consistency_under_rotation(self, rng):
        history = dense_history(rng, n_years=2, n_loc=1)
        shift = 100
        rolled = DailyHistory(history.years,
                              np.roll(history.daily_max, shift, axis=1),
                              np.roll(history.daily_min, shift, axis=1))
        tf = build_thresholds(history)
        tf_rolled = build_thresholds(rolled)
        np.testing.assert_array_equal(np.roll(tf.tau_heat, shift, axis=0),
                                      tf_rolled.tau_heat)

    def test_heat_at_least_cold(self, rng):
        tf = build_thresholds(dense_history(rng, n_years=4))
        assert np.all(tf.tau_heat >= tf.tau_cold)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_years=st.integers(2, 12),
           n_loc=st.integers(1, 7), half_window=st.integers(0, 7),
           density=st.sampled_from([0.0, 0.0005, 0.02, 0.3, 0.7]),
           holes=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 364),
                                    st.integers(0, 6)), max_size=3),
           q_heat=st.sampled_from([0.9, 1.0, 0.5, 0.37]),
           q_cold=st.sampled_from([0.1, 0.0, 0.37]),
           min_share=st.sampled_from([1.0, 0.5]),
           dtype=st.sampled_from([np.float64, np.float32]),
           chunk_bytes=st.sampled_from([None, 1, 2**14, 2**16]))
    def test_absent_samples_match_per_location_loop(
            self, seed, n_years, n_loc, half_window, density, holes, q_heat,
            q_cold, min_share, dtype, chunk_bytes):
        # values on a 0.25 K lattice, so pools hold ties, and exact in
        # float32. The daily minima are absent where the maxima are (as
        # daily_extremes_from_fields gives), or at a random share of those
        # places, so that the two pools of a (day, location) can differ in
        # size. A chunk of 1 byte holds one location, of 2**14 and 2**16
        # bytes a few, so the locations run over several chunks.
        rng = np.random.default_rng(seed)
        shape = (n_years, DAYS_PER_YEAR, n_loc)
        dmax = np.round(4.0 * (288.0 + 5.0 * rng.standard_normal(shape))) / 4
        dmin = dmax - np.round(12.0 * np.abs(rng.standard_normal(shape))) / 4
        absent = rng.random(shape) < density
        for year, day, loc in holes:
            absent[year % n_years, day, loc % n_loc] = True
        dmax[absent] = np.nan
        dmin[absent & (rng.random(shape) < min_share)] = np.nan
        history = DailyHistory(tuple(range(2001, 2001 + n_years)),
                               dmax.astype(dtype), dmin.astype(dtype))
        assert history.daily_max.dtype == history.daily_min.dtype == dtype
        q_cold = min(q_cold, q_heat)
        with pytest.MonkeyPatch.context() as patch:
            if chunk_bytes is not None:
                patch.setattr(thresholds, "LIST_CHUNK_BYTES", chunk_bytes)
            try:
                expected = oracles.thresholds_per_location_loop(
                    dmax, dmin, q_heat, q_cold, half_window)
            except InsufficientHistory as exc:
                with pytest.raises(InsufficientHistory) as raised:
                    build_thresholds(history, q_heat, q_cold, half_window)
                assert str(raised.value) == str(exc)
                return
            if np.any(expected[0] < expected[1]):
                # a cold pool larger than its heat pool can cross at
                # q_cold = q_heat
                with pytest.raises(ValueError,
                                   match="tau_heat must be >= tau_cold"):
                    build_thresholds(history, q_heat, q_cold, half_window)
                return
            tf = build_thresholds(history, q_heat, q_cold, half_window)
        assert tf.tau_heat.tobytes() == expected[0].tobytes()
        assert tf.tau_cold.tobytes() == expected[1].tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_dense_history_matches_the_per_day_sort(self, rng, dtype):
        # the coarse grid's 2,592 locations over two years: many location
        # chunks, the last one partial, against one sort per calendar day
        dmax = np.round(4.0 * (288.0 + 5.0 * rng.standard_normal(
            (2, DAYS_PER_YEAR, 2592)))) / 4
        dmin = dmax - np.round(12.0 * np.abs(rng.standard_normal(
            dmax.shape))) / 4
        history = DailyHistory((2023, 2024), dmax.astype(dtype),
                               dmin.astype(dtype))
        assert history.daily_max.dtype == dtype
        tau_heat, tau_cold = oracles.thresholds_per_day_sort(history)
        tf = build_thresholds(history)
        assert tf.tau_heat.tobytes() == tau_heat.tobytes()
        assert tf.tau_cold.tobytes() == tau_cold.tobytes()

    def test_memory_is_the_thresholds_and_a_chunk_of_locations(self, rng):
        # the two float64 (365, 2592) results and a few list arrays of a
        # chunk of locations, 1 MiB each (LIST_CHUNK_BYTES); the lists of
        # every location at once take 16 MB each, 136 MiB in all
        dmax = (288.0 + rng.standard_normal((2, DAYS_PER_YEAR, 2592))) \
            .astype(np.float32)
        history = DailyHistory((2023, 2024), dmax, dmax - np.float32(5.0))
        tau_bytes = 2 * DAYS_PER_YEAR * 2592 * 8
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            thresholds = build_thresholds(history)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert thresholds.n_locations == 2592
        assert peak - before < tau_bytes + 12 * 2**20

    def test_one_absent_sample_leaves_other_pools_dense(self, rng):
        # one kernel for dense and holed pools: 2,592 locations with one
        # absent (year, day, location) entry give the dense thresholds
        # everywhere but in the windows that hold it
        history = dense_history(rng, n_years=2, n_loc=2592)
        dmax = history.daily_max.copy()
        dmin = history.daily_min.copy()
        dmax[1, 40, 7] = dmin[1, 40, 7] = np.nan
        holed = build_thresholds(DailyHistory(history.years, dmax, dmin))
        dense = build_thresholds(history)
        touched = np.zeros((DAYS_PER_YEAR, 2592), dtype=bool)
        touched[oracles.window_indices(40, 7), 7] = True
        assert np.array_equal(holed.tau_heat[~touched], dense.tau_heat[~touched])
        assert np.array_equal(holed.tau_cold[~touched], dense.tau_cold[~touched])

    def test_pool_size_accounting(self, rng):
        # dense data: each threshold pools exactly 15 * n_years samples
        history = dense_history(rng, n_years=5, n_loc=1)
        win = oracles.window_indices(17, 7)
        assert history.daily_max[:, win, 0].size == 15 * 5


class TestDailyMeanClimatology:
    """The whole-year reference of the mean across years
    (``oracles.build_daily_mean_climatology``), and the streamed reduction
    of ``build-climatology`` against it."""

    def test_single_year_is_identity(self, rng):
        year = rng.standard_normal((DAYS_PER_YEAR, 2, 3))
        np.testing.assert_array_equal(
            oracles.build_daily_mean_climatology([year]), year)

    def test_two_year_midpoint(self, rng):
        year = rng.standard_normal((DAYS_PER_YEAR, 2, 3))
        out = oracles.build_daily_mean_climatology([year, year + 2.0])
        np.testing.assert_allclose(out, year + 1.0, rtol=0, atol=1e-12)

    def test_three_year_elementwise_oracle(self, rng):
        stack = [rng.standard_normal((DAYS_PER_YEAR, 2, 2)) for _ in range(3)]
        out = oracles.build_daily_mean_climatology(stack)
        for d in (0, 180, 364):
            for i in range(2):
                for j in range(2):
                    expected = (stack[0][d, i, j] + stack[1][d, i, j]
                                + stack[2][d, i, j]) / 3.0
                    assert out[d, i, j] == pytest.approx(expected, rel=1e-12)

    def test_empty_history_raises(self):
        with pytest.raises(InsufficientHistory):
            oracles.build_daily_mean_climatology([])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_history_raises(self, rng, bad):
        years = [rng.standard_normal((DAYS_PER_YEAR, 2, 3)) for _ in range(3)]
        years[2][100, 1, 2] = bad
        with pytest.raises(ValueError, match="must be finite"):
            oracles.build_daily_mean_climatology(years)

    def test_years_of_another_shape_raise(self, rng):
        years = [rng.standard_normal((DAYS_PER_YEAR, 2, 3)),
                 rng.standard_normal((DAYS_PER_YEAR, 1, 3))]
        with pytest.raises(ValueError, match="share one shape"):
            oracles.build_daily_mean_climatology(years)

    @given(n_years=st.integers(1, 8), shape=st.tuples(st.integers(1, 7),
                                                      st.integers(1, 11)),
           seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-3, 1.0, 1e3]),
           zeros=st.sampled_from([0.0, 0.1]))
    @settings(max_examples=60, deadline=None)
    def test_running_sum_equals_the_stacked_mean(self, n_years, shape, seed,
                                                 scale, zeros):
        # a mean over the stack of all years, bit for bit: rounding sums
        # and signed zeros included
        rng = np.random.default_rng(seed)
        years = []
        for _ in range(n_years):
            year = scale * rng.standard_normal((DAYS_PER_YEAR, *shape))
            year[rng.random(year.shape) < zeros] = 0.0
            year[rng.random(year.shape) < zeros] = -0.0
            years.append(year)
        want = oracles.daily_mean_climatology_stack(years)
        got = oracles.build_daily_mean_climatology(years)
        assert got.tobytes() == want.tobytes()


    @given(n_years=st.integers(1, 4), shape=st.tuples(st.integers(1, 3),
                                                      st.integers(1, 4)),
           seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-3, 1.0, 1e3]),
           zeros=st.sampled_from([0.0, 0.1]),
           days_per_block=st.sampled_from([1, 2, 7, 85, 366]))
    @settings(max_examples=30, deadline=None)
    def test_streamed_reduction_equals_the_whole_year_reference(
            self, n_years, shape, seed, scale, zeros, days_per_block):
        # leap and common years, each in blocks of whole days: the mean and
        # the daily extremes equal those of whole years, bit for bit
        rng = np.random.default_rng(seed)
        grid = make_grid(*shape)
        years = range(2023, 2023 + n_years)
        whole = {}
        for year in years:
            n_times = len(year_times(year))
            values = scale * rng.standard_normal((n_times, *shape))
            values[rng.random(values.shape) < zeros] = 0.0
            values[rng.random(values.shape) < zeros] = -0.0
            whole[year] = year_block(grid, year, values)
        got_grid, mean, (dmax, dmin) = reduce_streamed(
            StubHistory(whole, days_per_block))
        assert got_grid == grid
        want = oracles.build_daily_mean_climatology(
            [daily_means_from_fields(block)[1] for block in whole.values()])
        assert mean.tobytes() == want.tobytes()
        extremes = oracles.history_from_extremes(
            {year: daily_extremes_from_fields(block)[1:]
             for year, block in whole.items()})
        assert dmax.tobytes() == extremes.daily_max.tobytes()
        assert dmin.tobytes() == extremes.daily_min.tobytes()

    @given(first_year=st.sampled_from([1999, 2000, 2023, 2096, 2099]),
           n_years=st.integers(2, 12), n_lat=st.integers(1, 2),
           n_lon=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           days_per_block=st.sampled_from([2, 5, 59, 60, 365]),
           fault=st.sampled_from([None, "short", "misordered", "grid"]),
           data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_block_of_days_across_years_equals_the_year_by_year_reference(
            self, first_year, n_years, n_lat, n_lon, seed, days_per_block,
            fault, data):
        # float32 layers as stored, signed zeros included, over runs of
        # leap and common years (2100 is common); one year may be short of
        # its last layers, hold two layers swapped or lie on another grid,
        # and then both raise the same error
        rng = np.random.default_rng(seed)
        years = range(first_year, first_year + n_years)
        grid = make_grid(n_lat, n_lon)
        blocks = {}
        for year in years:
            n_times = len(year_times(year))
            values = (285.0 + 10.0 * rng.standard_normal(
                (n_times, n_lat, n_lon))).astype(np.float32)
            values[rng.random(values.shape) < 0.05] = -0.0
            blocks[year] = year_block(grid, year, values)
        if fault is not None:
            year = data.draw(st.sampled_from(years), label="faulty year")
            block = blocks[year]
            times, values = list(block.valid_times), block.values
            if fault == "short":
                cut = data.draw(st.integers(1, 8), label="layers short")
                times, values = times[:-cut], values[:-cut]
            elif fault == "misordered":
                i = data.draw(st.integers(0, len(times) - 2), label="i")
                j = data.draw(st.integers(i + 1, len(times) - 1), label="j")
                times[i], times[j] = times[j], times[i]
                values = values.copy()
                values[[i, j]] = values[[j, i]]
            else:
                grid = make_grid(n_lat, n_lon + 1)
                values = np.zeros((len(times), n_lat, n_lon + 1), np.float32)
            blocks[year] = FieldBlock(grid, VariableId.T2M, tuple(times),
                                      (0,) * len(times), values)
        source = StubHistory(blocks, days_per_block)
        try:
            want_grid, want_mean, want = oracles.reduce_history_by_year(
                source, VariableId.T2M, means=True, extremes=True)
        except WxVerifyError as exc:
            assert fault is not None
            with pytest.raises(WxVerifyError) as raised:
                reduce_streamed(source)
            assert type(raised.value) is type(exc)
            assert str(raised.value) == str(exc)
            return
        assert fault is None
        got_grid, mean, (dmax, dmin) = reduce_streamed(source)
        assert got_grid == want_grid
        assert mean.tobytes() == want_mean.tobytes()
        assert dmax.dtype == dmin.dtype == np.float32
        assert dmax.tobytes() == want.daily_max.tobytes()
        assert dmin.tobytes() == want.daily_min.tobytes()

    def test_streamed_reduction_needs_a_year(self):
        with pytest.raises(InsufficientHistory, match="no history years"):
            _reduce_history(StubHistory({}), VariableId.T2M, Path("c.rbc"))

    def test_blocks_on_another_grid_raise(self):
        # every later block is read on the first block's grid, so the
        # reader raises
        first = year_block(make_grid(1, 2), 2023, np.zeros((1460, 1, 2)))
        other = year_block(make_grid(1, 3), 2024, np.zeros((1464, 1, 3)))
        with pytest.raises(GridMismatch, match="history of 2024 is on"):
            reduce_streamed(StubHistory({2023: first, 2024: other}),
                            extremes=False)

    def test_memory_does_not_grow_with_the_years(self):
        # one block of days of one year, the float64 total of those days
        # and a block of spilled extremes, whatever the number of years
        # (0.55 MB here): the year-by-year reduction held a 365-day total
        # and a (years, 365, locations) pair of float32 extremes, and
        # peaked at 11 MB at 2 years and 51 MB at 12 on this grid
        grid = make_grid(30, 40)
        peaks = {}
        for n_years in (2, 12):
            years = range(2001, 2001 + n_years)
            with tempfile.TemporaryDirectory() as scratch:
                tracemalloc.start()
                try:
                    with writers.SpilledHistory(scratch, years) as spill:
                        _reduce_history(GeneratedHistory(years, grid),
                                        VariableId.T2M,
                                        Path(scratch) / "c.rbc", spill)
                    _, peaks[n_years] = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
        block_bytes = 4 * 7 * 30 * 40 * 4
        assert peaks[2] < 8 * block_bytes
        assert peaks[12] < peaks[2] + 2**14


class TestDaySpan:
    @given(days=st.sets(st.integers(0, DAYS_PER_YEAR - 1), min_size=1,
                        max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_shortest_run_that_holds_every_day(self, days):
        first, n_days = day_span(days)
        held = {(first + i) % DAYS_PER_YEAR for i in range(n_days)}
        assert days <= held
        # no run of consecutive days, from any start, is shorter
        shortest = min(max((d - start) % DAYS_PER_YEAR for d in days) + 1
                       for start in days)
        assert n_days == shortest
        assert first in days and (first + n_days - 1) % DAYS_PER_YEAR in days

    def test_whole_year_starts_at_day_zero(self):
        assert day_span(range(DAYS_PER_YEAR)) == (0, DAYS_PER_YEAR)

    def test_run_across_new_year(self):
        assert day_span([363, 364, 0, 1]) == (363, 4)

    def test_no_day_is_an_error(self):
        with pytest.raises(ValueError):
            day_span([])
