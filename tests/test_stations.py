from __future__ import annotations

import math
from datetime import datetime, timedelta, timezone
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import T0, make_grid, random_field
from wxverify.climatology import DailyMeanClimatology
from wxverify.errors import NoValidPairs
from wxverify.grid import VariableId, interp_to_stations
from wxverify.stations import (DEFAULT_QC_RATIOS, QcFlag, QcThresholds,
                               Station, StationInterpolator, StationTable,
                               apply_qc, qc_ratio_filter, six_hour_times,
                               station_climatology_from_grid, station_scores,
                               table_from_records, window_average)


def minutes(m):
    return T0 + timedelta(minutes=m)


class TestWindowAverage:
    def test_two_point_mean(self):
        records = [(minutes(-10), 280.0), (minutes(10), 282.0)]
        assert window_average(records, T0) == 281.0

    def test_boundary_inclusive_at_exactly_15(self):
        assert window_average([(minutes(15), 5.5)], T0) == 5.5
        assert window_average([(minutes(-15), 5.5)], T0) == 5.5

    def test_outside_window_absent(self):
        assert window_average([(minutes(20), 5.5)], T0) is None
        assert window_average([(minutes(-16), 5.5)], T0) is None

    def test_reorder_invariance(self, rng):
        records = [(minutes(int(m)), float(v)) for m, v in
                   zip(rng.integers(-14, 15, 9), rng.uniform(270, 290, 9))]
        a = window_average(records, T0)
        b = window_average(list(reversed(records)), T0)
        assert a == b

    def test_filter_then_mean_oracle(self, rng):
        records = [(minutes(int(m)), float(v)) for m, v in
                   zip(rng.integers(-40, 40, 25), rng.uniform(270, 290, 25))]
        got = window_average(records, T0)
        kept = [v for t, v in records
                if abs((t - T0).total_seconds()) <= 15 * 60]
        assert got == pytest.approx(sum(kept) / len(kept), rel=1e-15)


class TestQcRatioFilter:
    def test_paper_ratio_bounds(self):
        assert DEFAULT_QC_RATIOS[VariableId.T2M] == 6.0
        assert DEFAULT_QC_RATIOS[VariableId.D2M] == 6.0
        assert DEFAULT_QC_RATIOS[VariableId.MSL] == 9000.0
        assert DEFAULT_QC_RATIOS[VariableId.WS10] == 7.0

    def test_temperature_in_celsius_units(self):
        # 20 C obs vs 19 C ref -> ratio 1.05, kept
        out = qc_ratio_filter(293.15, 292.15, VariableId.T2M,
                              QcThresholds.default())
        assert out.flag is QcFlag.RAW and out.value == 293.15

    def test_wind_outlier_replaced(self):
        out = qc_ratio_filter(80.0, 10.0, VariableId.WS10,
                              QcThresholds.default())
        assert out.flag is QcFlag.REPLACED_BY_REFERENCE
        assert out.value == 10.0

    def test_equal_values_kept(self):
        out = qc_ratio_filter(5.0, 5.0, VariableId.WS10, QcThresholds.default())
        assert out.flag is QcFlag.RAW

    def test_nonpositive_reference_passthrough(self):
        # -5 C reference: ratio undefined, observation kept with a warning
        out = qc_ratio_filter(300.0, 268.15, VariableId.T2M,
                              QcThresholds.default())
        assert out.flag is QcFlag.RAW
        assert out.nonpositive_reference
        assert out.value == 300.0

    def test_bounds_must_exceed_one(self):
        with pytest.raises(ValueError):
            QcThresholds({VariableId.T2M: 1.0})


def small_table(values_by_var, times=None, n_stations=3):
    stations = tuple(Station(f"S{i}", 40.0 - 10.0 * i, 10.0 * i + 5.0, 100.0)
                     for i in range(n_stations))
    times = times or (T0, T0 + timedelta(hours=6))
    variables = tuple(sorted(values_by_var, key=lambda v: v.key))
    values = np.stack([values_by_var[v] for v in variables])
    flags = np.where(np.isnan(values), 0, 1).astype(np.uint8)
    return StationTable(stations, tuple(times), variables, values, flags)


class TestApplyQc:
    def test_outlier_replaced_and_counted(self):
        vals = np.array([[[5.0, 80.0, np.nan], [4.0, 6.0, 5.0]]])
        table = small_table({VariableId.WS10: vals[0]})
        ref = np.full(table.values.shape, 10.0)
        qc, rep = apply_qc(table, ref)
        assert qc.values[0, 0, 1] == 10.0
        counts = rep.counts["ws10"]
        assert counts.replaced == 1
        assert counts.absent == 1
        assert counts.raw == 4

    def test_replacement_is_bit_exact(self):
        vals = np.array([[[99.0], [98.0]]])
        table = small_table({VariableId.WS10: vals[0]}, n_stations=1)
        ref = np.full(table.values.shape, 0.1230000000000001)
        qc, _ = apply_qc(table, ref)
        assert qc.values[0, 0, 0] == 0.1230000000000001

    def test_idempotent(self, rng):
        vals = rng.uniform(0.0, 50.0, (1, 2, 3))
        vals[0, 1, 2] = np.nan
        table = small_table({VariableId.WS10: vals[0]})
        ref = np.abs(rng.uniform(1.0, 5.0, table.values.shape))
        once, rep1 = apply_qc(table, ref)
        twice, rep2 = apply_qc(once, ref)
        np.testing.assert_array_equal(once.values, twice.values)
        np.testing.assert_array_equal(once.flags, twice.flags)

    def test_lowering_bound_only_grows_replacement_set(self, rng):
        vals = rng.uniform(0.0, 60.0, (1, 2, 5))
        table = small_table({VariableId.WS10: vals[0]}, n_stations=5)
        ref = np.full(table.values.shape, 9.0)
        loose, _ = apply_qc(table, ref, QcThresholds({VariableId.WS10: 7.0}))
        tight, _ = apply_qc(table, ref, QcThresholds({VariableId.WS10: 2.0}))
        replaced_loose = loose.flags == 2
        replaced_tight = tight.flags == 2
        assert np.all(replaced_tight[replaced_loose])

    def test_variable_without_bound_untouched(self, rng):
        vals = rng.uniform(200.0, 90000.0, (1, 2, 3))
        table = small_table({VariableId.Z500: vals[0]})
        ref = np.full(table.values.shape, 1.0)
        qc, rep = apply_qc(table, ref)
        np.testing.assert_array_equal(qc.values, table.values)
        assert rep.counts["z500"].replaced == 0


class TestStationScores:
    def grid_and_table(self, rng, n_stations=5):
        grid = make_grid(6, 10)
        truth = random_field(rng, grid)
        idx = [(1, 2), (2, 5), (3, 7), (4, 1), (0, 8)][:n_stations]
        stations = tuple(
            Station(f"S{k}", float(grid.lat_deg[i]), float(grid.lon_deg[j]),
                    0.0) for k, (i, j) in enumerate(idx))
        obs = np.array([[truth.values[i, j] for i, j in idx]])
        table = StationTable(stations, (T0,), (VariableId.T2M,),
                             obs[None, :, :],
                             np.ones((1, 1, n_stations), dtype=np.uint8))
        return grid, truth, table, idx

    def test_perfect_forecast_zero_scores(self, rng):
        grid, truth, table, _ = self.grid_and_table(rng)
        scores = station_scores([truth], table, VariableId.T2M)
        assert scores.rmse == 0.0 and scores.bias == 0.0
        assert scores.n_pairs == 5

    def test_uniform_offset(self, rng):
        grid, truth, table, _ = self.grid_and_table(rng)
        pred = truth.with_values(truth.values + 1.0)
        scores = station_scores([pred], table, VariableId.T2M)
        assert scores.rmse == pytest.approx(1.0, rel=1e-12)
        assert scores.bias == pytest.approx(1.0, rel=1e-12)

    def test_matches_pairwise_loop_oracle(self, rng):
        grid, truth, table, idx = self.grid_and_table(rng)
        pred = random_field(rng, grid)
        scores = station_scores([pred], table, VariableId.T2M)
        diffs = [pred.values[i, j] - truth.values[i, j] for i, j in idx]
        rmse = math.sqrt(math.fsum(d * d for d in diffs) / len(diffs))
        bias = math.fsum(diffs) / len(diffs)
        assert scores.rmse == pytest.approx(rmse, rel=1e-12)
        assert scores.bias == pytest.approx(bias, rel=1e-12)

    def test_node_coincident_equals_restricted_grid_metric(self, rng):
        # stations on grid nodes: station RMSE == unweighted grid RMSE
        # restricted to those nodes
        grid, truth, table, idx = self.grid_and_table(rng)
        pred = random_field(rng, grid)
        scores = station_scores([pred], table, VariableId.T2M)
        rows = np.array([i for i, _ in idx])
        cols = np.array([j for _, j in idx])
        err = pred.values[rows, cols] - truth.values[rows, cols]
        assert scores.rmse == pytest.approx(
            float(np.sqrt(np.mean(err ** 2))), rel=1e-12)

    def test_absent_obs_skipped_pairwise(self, rng):
        grid, truth, table, idx = self.grid_and_table(rng)
        values = table.values.copy()
        flags = table.flags.copy()
        values[0, 0, 2] = np.nan
        flags[0, 0, 2] = 0
        table2 = StationTable(table.stations, table.times, table.variables,
                              values, flags)
        scores = station_scores([truth], table2, VariableId.T2M)
        assert scores.n_pairs == 4

    def test_acc_with_station_climatology(self, rng):
        from wxverify.stations import StationClimatology
        grid, truth, table, _ = self.grid_and_table(rng)
        day_mean = np.full((365, 5), 280.0)
        clim = StationClimatology(tuple(s.station_id for s in table.stations),
                                  day_mean)
        scores = station_scores([truth], table, VariableId.T2M, clim=clim)
        assert scores.acc == pytest.approx(1.0, abs=1e-12)
        flipped = truth.with_values(2.0 * 280.0 - truth.values)
        scores = station_scores([flipped], table, VariableId.T2M, clim=clim)
        assert scores.acc == pytest.approx(-1.0, abs=1e-12)

    def test_no_valid_pairs(self, rng):
        grid, truth, table, _ = self.grid_and_table(rng)
        values = np.full(table.values.shape, np.nan)
        flags = np.zeros(table.flags.shape, dtype=np.uint8)
        empty = StationTable(table.stations, table.times, table.variables,
                             values, flags)
        with pytest.raises(NoValidPairs):
            station_scores([truth], empty, VariableId.T2M)


class TestTableFromRecords:
    def test_aggregates_and_marks_absent(self):
        stations = (Station("A", 10.0, 20.0, 0.0),
                    Station("B", -10.0, 40.0, 0.0))
        records = {VariableId.T2M: {
            "A": [(minutes(-5), 280.0), (minutes(5), 282.0),
                  (minutes(350), 285.0)],  # 5h50m: inside the 6h window
            "B": [(minutes(20), 290.0)],  # outside both windows
        }}
        times = [T0, T0 + timedelta(hours=6)]
        table = table_from_records(stations, records, times)
        assert table.values[0, 0, 0] == 281.0
        assert table.values[0, 1, 0] == 285.0
        assert np.isnan(table.values[0, 0, 1])
        assert np.isnan(table.values[0, 1, 1])
        assert table.flags[0, 0, 0] == 1

    def test_six_hour_times_cover_span(self):
        start = datetime(2025, 7, 1, 2, 11, tzinfo=timezone.utc)
        end = datetime(2025, 7, 1, 19, 0, tzinfo=timezone.utc)
        times = six_hour_times(start, end)
        assert times[0] == datetime(2025, 7, 1, 6, tzinfo=timezone.utc)
        assert times[-1] == datetime(2025, 7, 1, 18, tzinfo=timezone.utc)


# Record offsets from a target, in microseconds: the closed window's edges,
# one microsecond either side of them, and points well inside and outside.
_EDGE_US = 15 * 60 * 10**6
RECORD_OFFSETS_US = st.one_of(
    st.sampled_from([0, -_EDGE_US, _EDGE_US, -_EDGE_US - 1, _EDGE_US + 1,
                     -_EDGE_US + 1, _EDGE_US - 1, -600 * 10**6, 600 * 10**6]),
    st.integers(-7 * 3600 * 10**6, 7 * 3600 * 10**6))
RECORD_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-310, -1e-310, 1e300, -1e300, 0.1, 283.15]),
    st.floats(allow_nan=False, allow_infinity=False, width=64))
STATION_VARIABLES = [VariableId.T2M, VariableId.MSL, VariableId.WS10,
                     VariableId.Z500]


@st.composite
def raw_records(draw):
    """Stations, 6-hourly target times and unsorted raw records, with
    several records per window, records exactly at +-15 min and
    stations without records."""
    n_stations = draw(st.integers(0, 4))
    stations = tuple(Station(f"S{i}", 0.0, 0.0, 0.0) for i in range(n_stations))
    times = [T0 + timedelta(hours=6 * k) for k in range(draw(st.integers(0, 3)))]
    variables = draw(st.lists(st.sampled_from(STATION_VARIABLES), min_size=1,
                              max_size=3, unique=True))
    records = {}
    for variable in variables:
        per_station = {}
        for station in stations + (Station("ELSEWHERE", 0.0, 0.0, 0.0),):
            anchors = st.integers(0, max(len(times) - 1, 0))
            recs = draw(st.lists(st.tuples(anchors, RECORD_OFFSETS_US,
                                           RECORD_VALUES), max_size=8))
            if recs:
                per_station[station.station_id] = [
                    (T0 + timedelta(hours=6 * k, microseconds=us), v)
                    for k, us, v in recs]
        records[variable] = per_station
    return stations, records, times


class TestWindowingOracle:
    @settings(max_examples=300, deadline=None)
    @given(raw_records())
    def test_table_matches_scalar_loop(self, case):
        stations, records, times = case
        try:
            variables, values, flags = oracles.table_from_records_loop(
                stations, records, times)
        except OverflowError:  # fsum of a window overflowed
            with pytest.raises(OverflowError):
                table_from_records(stations, records, times)
            return
        table = table_from_records(stations, records, times)
        assert table.variables == variables
        assert table.values.tobytes() == values.tobytes()
        assert table.flags.tobytes() == flags.tobytes()
        for vi, variable in enumerate(variables):
            for si, station in enumerate(stations):
                recs = records[variable].get(station.station_id, [])
                for ti, target in enumerate(times):
                    got = window_average(recs, target)
                    if flags[vi, ti, si] == oracles.ABSENT:
                        assert got is None
                    else:
                        assert np.float64(got).tobytes() == \
                            values[vi, ti, si].tobytes()

    def test_finite_sum_does_not_overflow_in_any_record_order(self):
        # math.fsum overflows on the first two of these orders, though the
        # exact sum rounds to the largest finite float
        values = [1e300, 1.797693124862316e+308, -9.983678732532492e+291]
        for order in permutations(values):
            got = window_average([(T0, v) for v in order], T0)
            assert got == 1.7976931348623157e+308 / 3

    def test_sum_beyond_float_range_raises_overflow(self):
        with pytest.raises(OverflowError):
            window_average([(T0, 1.7e308), (T0, 1.7e308)], T0)

    def test_single_negative_zero_record_reads_as_fsum_does(self):
        # math.fsum([-0.0]) is 0.0, so a one-record window of -0.0 is 0.0
        stations = (Station("A", 0.0, 0.0, 0.0),)
        table = table_from_records(stations, {VariableId.WS10: {"A": [(T0, -0.0)]}},
                                   [T0])
        assert not np.signbit(table.values[0, 0, 0])
        assert math.copysign(1.0, window_average([(T0, -0.0)], T0)) == 1.0


@st.composite
def qc_cases(draw):
    """A table, references and bounds covering every QC branch."""
    variables = tuple(sorted(draw(st.lists(st.sampled_from(STATION_VARIABLES),
                                           min_size=1, max_size=4,
                                           unique=True)),
                             key=lambda v: v.key))
    n_times = draw(st.integers(1, 3))
    n_stations = draw(st.integers(1, 4))
    shape = (len(variables), n_times, n_stations)
    # SI values around each variable's display-unit zero, so that
    # references are positive, zero or negative in display units
    centre = {VariableId.T2M: 273.15, VariableId.MSL: 0.0,
              VariableId.WS10: 0.0, VariableId.Z500: 0.0}
    spread = {VariableId.T2M: 60.0, VariableId.MSL: 2e5,
              VariableId.WS10: 80.0, VariableId.Z500: 1e5}
    values = np.empty(shape)
    reference = np.empty(shape)
    flags = np.empty(shape, dtype=np.uint8)
    for vi, variable in enumerate(variables):
        c, w = centre[variable], spread[variable]
        n = n_times * n_stations
        near = st.one_of(st.sampled_from([c, c + 1e-9, c - 1e-9]),
                         st.floats(c - w, c + w))
        values[vi] = np.reshape(draw(st.lists(near, min_size=n, max_size=n)),
                                (n_times, n_stations))
        reference[vi] = np.reshape(draw(st.lists(near, min_size=n, max_size=n)),
                                   (n_times, n_stations))
        flags[vi] = np.reshape(draw(st.lists(
            st.sampled_from([oracles.ABSENT, oracles.RAW, oracles.RAW,
                             oracles.REPLACED]), min_size=n, max_size=n)),
            (n_times, n_stations))
    values[flags == oracles.ABSENT] = np.nan
    # references are not looked at under absent or replaced entries
    hidden = draw(st.sampled_from([np.nan, np.inf, 1.0]))
    reference[flags != oracles.RAW] = hidden
    if draw(st.booleans()):  # a non-finite reference under one entry
        where = tuple(draw(st.integers(0, d - 1)) for d in shape)
        reference[where] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    bounds = draw(st.dictionaries(st.sampled_from(STATION_VARIABLES),
                                  st.sampled_from([1.5, 6.0, 7.0, 9000.0]),
                                  max_size=4))
    table = StationTable(tuple(Station(f"S{i}", 0.0, 0.0, 0.0)
                               for i in range(n_stations)),
                         tuple(T0 + timedelta(hours=6 * k)
                               for k in range(n_times)),
                         variables, values, flags)
    return table, reference, bounds


class TestQcOracle:
    @settings(max_examples=300, deadline=None)
    @given(qc_cases())
    def test_apply_qc_matches_scalar_loop(self, case):
        table, reference, bounds = case
        try:
            want = oracles.apply_qc_loop(table.variables, table.values,
                                         table.flags, reference, bounds)
        except ValueError:
            with pytest.raises(ValueError, match="reference value must be finite"):
                apply_qc(table, reference, QcThresholds(bounds))
            return
        values, flags, counts = want
        qc, report = apply_qc(table, reference, QcThresholds(bounds))
        assert qc.values.tobytes() == values.tobytes()
        assert qc.flags.tobytes() == flags.tobytes()
        assert report.as_dict() == counts

    def test_nonfinite_reference_raises_for_unbounded_variable(self):
        table = small_table({VariableId.Z500: np.array([[1.0, 2.0, 3.0],
                                                        [4.0, 5.0, 6.0]])})
        reference = np.ones(table.values.shape)
        reference[0, 1, 2] = np.nan
        with pytest.raises(ValueError):
            apply_qc(table, reference, QcThresholds({}))


class TestStationInterpolator:
    def test_climatology_gather_matches_daily_interpolation(self, rng):
        grid = make_grid(5, 8)
        stations = (Station("A", 10.0, 20.0, 0.0),
                    Station("B", -33.3, 351.0, 0.0),
                    Station("C", 60.0, 0.0, 0.0))
        day_mean = 280.0 + rng.standard_normal((365, 5, 8))
        clim = DailyMeanClimatology(grid, VariableId.T2M, day_mean, (2020,))
        got = station_climatology_from_grid(clim, StationInterpolator(stations))
        positions = [(s.lat, s.lon) for s in stations]
        want = np.stack([interp_to_stations(clim.field_for(
            T0.replace(month=1, day=1) + timedelta(days=day)), positions)
            for day in range(365)])
        assert got.station_ids == ("A", "B", "C")
        assert got.day_mean.tobytes() == want.tobytes()

    def test_weights_once_per_grid_and_own_grid_per_field(self, rng):
        stations = (Station("A", 10.0, 20.0, 0.0), Station("B", -5.0, 99.0, 0.0))
        interp = StationInterpolator(stations)
        grid = make_grid(5, 8)
        same_shape = make_grid(5, 8, lat_top=50.0, lat_bottom=-50.0)
        assert interp.weights(grid) is interp.weights(make_grid(5, 8))
        assert interp.weights(same_shape) is not interp.weights(grid)
        for g in (grid, same_shape, make_grid(7, 12), grid):
            field = random_field(rng, g)
            assert interp.at_stations(field).tobytes() == interp_to_stations(
                field, [(s.lat, s.lon) for s in stations]).tobytes()

    def test_scores_reject_interpolator_of_other_stations(self, rng):
        grid = make_grid(6, 10)
        truth = random_field(rng, grid)
        table = small_table({VariableId.T2M: np.full((1, 3), 280.0)},
                            times=(T0,))
        other = StationInterpolator(table.stations[:2])
        with pytest.raises(ValueError):
            station_scores([truth], table, VariableId.T2M, interpolator=other)
