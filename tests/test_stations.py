from __future__ import annotations

import math
import warnings
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import T0, layer_of, make_grid, random_field
from wxverify.climatology import DailyMeanClimatology, calendar_day_index
from wxverify.errors import TargetOutsideDomain
from wxverify.grid import FieldBlock, GeoGrid, VariableId, bilinear_weights
from wxverify.stations import (DEFAULT_QC_RATIOS, QcThresholds, Station,
                               StationInterpolator, StationTable, apply_qc,
                               epoch_microseconds, station_scores,
                               table_from_columns)


def minutes(m):
    return T0 + timedelta(minutes=m)


def columns(records):
    """Raw records, {variable: [(station index, time, value)]}, as the
    columns :func:`table_from_columns` takes."""
    return {variable: ([si for si, _, _ in recs],
                       [epoch_microseconds(when) for _, when, _ in recs],
                       [value for _, _, value in recs])
            for variable, recs in records.items()}


def window_mean(records, target):
    """The value :func:`table_from_columns` gives one station whose raw
    (time, value) ``records`` these are at ``target``; None when it is
    absent there."""
    table = table_from_columns(
        (Station("S", 0.0, 0.0, 0.0),),
        columns({VariableId.T2M: [(0, when, v) for when, v in records]}),
        [target])
    if table.flags[0, 0, 0] == oracles.ABSENT:
        return None
    return float(table.values[0, 0, 0])


class TestWindowAverage:
    def test_two_point_mean(self):
        records = [(minutes(-10), 280.0), (minutes(10), 282.0)]
        assert window_mean(records, T0) == 281.0

    def test_boundary_inclusive_at_exactly_15(self):
        assert window_mean([(minutes(15), 5.5)], T0) == 5.5
        assert window_mean([(minutes(-15), 5.5)], T0) == 5.5

    def test_outside_window_absent(self):
        assert window_mean([(minutes(20), 5.5)], T0) is None
        assert window_mean([(minutes(-16), 5.5)], T0) is None

    def test_reorder_invariance(self, rng):
        records = [(minutes(int(m)), float(v)) for m, v in
                   zip(rng.integers(-14, 15, 9), rng.uniform(270, 290, 9))]
        a = window_mean(records, T0)
        b = window_mean(list(reversed(records)), T0)
        assert a == b

    def test_filter_then_mean_oracle(self, rng):
        records = [(minutes(int(m)), float(v)) for m, v in
                   zip(rng.integers(-40, 40, 25), rng.uniform(270, 290, 25))]
        got = window_mean(records, T0)
        kept = [v for t, v in records
                if abs((t - T0).total_seconds()) <= 15 * 60]
        assert got == pytest.approx(sum(kept) / len(kept), rel=1e-15)


def qc_one(obs, reference, variable):
    """:func:`apply_qc` of one observation against its reference, with
    the default bounds: (value, flag code, counts of the variable)."""
    table = StationTable((Station("S", 0.0, 0.0, 0.0),), (T0,), (variable,),
                         [[[obs]]], [[[oracles.RAW]]])
    qc, report = apply_qc(table, [[[reference]]], QcThresholds.default())
    return (float(qc.values[0, 0, 0]), int(qc.flags[0, 0, 0]),
            report.counts[variable.key])


class TestQcRatioFilter:
    def test_paper_ratio_bounds(self):
        assert DEFAULT_QC_RATIOS[VariableId.T2M] == 6.0
        assert DEFAULT_QC_RATIOS[VariableId.D2M] == 6.0
        assert DEFAULT_QC_RATIOS[VariableId.MSL] == 9000.0
        assert DEFAULT_QC_RATIOS[VariableId.WS10] == 7.0

    def test_temperature_in_celsius_units(self):
        # 20 C obs vs 19 C ref -> ratio 1.05, kept
        value, flag, _ = qc_one(293.15, 292.15, VariableId.T2M)
        assert flag == oracles.RAW and value == 293.15

    def test_wind_outlier_replaced(self):
        value, flag, counts = qc_one(80.0, 10.0, VariableId.WS10)
        assert flag == oracles.REPLACED
        assert value == 10.0
        assert counts.replaced == 1

    def test_equal_values_kept(self):
        _, flag, _ = qc_one(5.0, 5.0, VariableId.WS10)
        assert flag == oracles.RAW

    def test_ratio_past_the_float_limit_is_replaced_without_a_warning(self):
        # 1.7e308 C over a 0.5 C reference overflows to inf, which exceeds
        # the bound: the observation is replaced, and nothing is printed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, flag, counts = qc_one(1.7e308, 273.65, VariableId.T2M)
        assert flag == oracles.REPLACED
        assert value == 273.65
        assert counts.replaced == 1

    def test_nonpositive_reference_passthrough(self):
        # -5 C reference: ratio undefined, observation kept with a warning
        value, flag, counts = qc_one(300.0, 268.15, VariableId.T2M)
        assert flag == oracles.RAW
        assert counts.nonpositive_reference == 1
        assert value == 300.0

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
        qc, rep = apply_qc(table, ref, QcThresholds.default())
        assert qc.values[0, 0, 1] == 10.0
        counts = rep.counts["ws10"]
        assert counts.replaced == 1
        assert counts.absent == 1
        assert counts.raw == 4

    def test_replacement_is_bit_exact(self):
        vals = np.array([[[99.0], [98.0]]])
        table = small_table({VariableId.WS10: vals[0]}, n_stations=1)
        ref = np.full(table.values.shape, 0.1230000000000001)
        qc, _ = apply_qc(table, ref, QcThresholds.default())
        assert qc.values[0, 0, 0] == 0.1230000000000001

    def test_idempotent(self, rng):
        vals = rng.uniform(0.0, 50.0, (1, 2, 3))
        vals[0, 1, 2] = np.nan
        table = small_table({VariableId.WS10: vals[0]})
        ref = np.abs(rng.uniform(1.0, 5.0, table.values.shape))
        once, rep1 = apply_qc(table, ref, QcThresholds.default())
        twice, rep2 = apply_qc(once, ref, QcThresholds.default())
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
        qc, rep = apply_qc(table, ref, QcThresholds.default())
        np.testing.assert_array_equal(qc.values, table.values)
        assert rep.counts["z500"].replaced == 0


def t2m_scores(blocks, table, clim=None):
    """``station_scores`` of T2M of forecast ``blocks``, one per init over
    one run of leads, with a grid climatology or without: the blocks and
    the climatology's days are interpolated to the table's stations as
    ``pipeline_stations.stations`` does."""
    interpolator = StationInterpolator(table.stations)
    if clim is not None:
        clim = (clim.first_day,
                interpolator.weights(clim.grid).apply(clim.day_mean))
    fc = np.stack([interpolator.weights(block.grid).apply(block.values)
                   for block in blocks])
    return station_scores(fc, [when for block in blocks
                               for when in block.valid_times],
                          table, VariableId.T2M, clim)


class TestStationScores:
    def grid_and_table(self, rng, n_stations=5):
        grid = make_grid(6, 10)
        truth = random_field(rng, grid)
        idx = [(1, 2), (2, 5), (3, 7), (4, 1), (0, 8)][:n_stations]
        stations = tuple(
            Station(f"S{k}", float(grid.lat_deg[i]), float(grid.lon_deg[j]),
                    0.0) for k, (i, j) in enumerate(idx))
        obs = np.array([[truth.values[0, i, j] for i, j in idx]])
        table = StationTable(stations, (T0,), (VariableId.T2M,),
                             obs[None, :, :],
                             np.ones((1, 1, n_stations), dtype=np.uint8))
        return grid, truth, table, idx

    def test_perfect_forecast_zero_scores(self, rng):
        grid, truth, table, _ = self.grid_and_table(rng)
        scores, = t2m_scores([truth], table)
        assert scores.rmse == 0.0 and scores.bias == 0.0
        assert scores.n_pairs == 5

    def test_uniform_offset(self, rng):
        grid, truth, table, _ = self.grid_and_table(rng)
        pred = replace(truth, values=truth.values + 1.0)
        scores, = t2m_scores([pred], table)
        assert scores.rmse == pytest.approx(1.0, rel=1e-12)
        assert scores.bias == pytest.approx(1.0, rel=1e-12)

    def test_matches_pairwise_loop_oracle(self, rng):
        grid, truth, table, idx = self.grid_and_table(rng)
        pred = random_field(rng, grid)
        scores, = t2m_scores([pred], table)
        diffs = [pred.values[0, i, j] - truth.values[0, i, j]
                 for i, j in idx]
        rmse = math.sqrt(math.fsum(d * d for d in diffs) / len(diffs))
        bias = math.fsum(diffs) / len(diffs)
        assert scores.rmse == pytest.approx(rmse, rel=1e-12)
        assert scores.bias == pytest.approx(bias, rel=1e-12)

    def test_node_coincident_equals_restricted_grid_metric(self, rng):
        # stations on grid nodes: station RMSE == unweighted grid RMSE
        # restricted to those nodes
        grid, truth, table, idx = self.grid_and_table(rng)
        pred = random_field(rng, grid)
        scores, = t2m_scores([pred], table)
        rows = np.array([i for i, _ in idx])
        cols = np.array([j for _, j in idx])
        err = pred.values[0, rows, cols] - truth.values[0, rows, cols]
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
        scores, = t2m_scores([truth], table2)
        assert scores.n_pairs == 4

    def test_acc_with_station_climatology(self, rng):
        grid, truth, table, _ = self.grid_and_table(rng)
        day_mean = np.full((365, *grid.shape), 280.0)
        clim = DailyMeanClimatology(grid, VariableId.T2M, day_mean, (2020,))
        scores, = t2m_scores([truth], table, clim)
        assert scores.acc == pytest.approx(1.0, abs=1e-12)
        flipped = replace(truth, values=2.0 * 280.0 - truth.values)
        scores, = t2m_scores([flipped], table, clim)
        assert scores.acc == pytest.approx(-1.0, abs=1e-12)

    def test_no_valid_pairs(self, rng):
        grid, truth, table, _ = self.grid_and_table(rng)
        values = np.full(table.values.shape, np.nan)
        flags = np.zeros(table.flags.shape, dtype=np.uint8)
        empty = StationTable(table.stations, table.times, table.variables,
                             values, flags)
        assert t2m_scores([truth], empty) == [None]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_inits=st.integers(1, 3),
           n_leads=st.integers(1, 4), n_stations=st.integers(1, 6),
           absent=st.sampled_from([0.0, 0.3, 1.0]),
           with_clim=st.booleans())
    def test_blocks_score_as_the_per_field_loop(self, seed, n_inits, n_leads,
                                                n_stations, absent,
                                                with_clim):
        rng = np.random.default_rng(seed)
        grid = make_grid(5, 8)
        stations = tuple(Station(f"S{k}", float(lat), float(lon), 0.0)
                         for k, (lat, lon) in enumerate(zip(
                             rng.uniform(-60.0, 60.0, n_stations),
                             rng.uniform(0.0, 360.0, n_stations))))
        times = tuple(T0 + timedelta(hours=6 * k)
                      for k in range(n_inits + n_leads))
        values = 280.0 + 5.0 * rng.standard_normal(
            (1, len(times), n_stations))
        values[rng.uniform(size=values.shape) < absent] = np.nan
        values[0, rng.integers(len(times))] = np.nan  # one all-absent time
        table = StationTable(stations, times, (VariableId.T2M,), values,
                             np.where(np.isnan(values), 0, 1))
        blocks = [FieldBlock(grid, VariableId.T2M, times[i:i + n_leads],
                             tuple(6 * j for j in range(n_leads)),
                             280.0 + 5.0 * rng.standard_normal(
                                 (n_leads,) + grid.shape))
                  for i in range(n_inits)]
        clim = None
        if with_clim:
            first_day = calendar_day_index(T0) - int(rng.integers(0, 3))
            clim = DailyMeanClimatology(
                grid, VariableId.T2M,
                280.0 + rng.standard_normal((5, *grid.shape)), (2020,),
                first_day)
        got = t2m_scores(blocks, table, clim)

        def bits(scores):
            return None if scores is None else tuple(
                v.hex() if isinstance(v, float) else v for v in scores)

        assert [bits(None if s is None else (s.rmse, s.bias, s.acc, s.n_pairs))
                for s in got] == [
            bits(oracles.station_scores_per_field(
                [layer_of(block, j) for block in blocks], table, VariableId.T2M,
                clim)) for j in range(n_leads)]
        assert (absent < 1.0) or got == [None] * n_leads


class TestTableFromRecords:
    def test_aggregates_and_marks_absent(self):
        stations = (Station("A", 10.0, 20.0, 0.0),
                    Station("B", -10.0, 40.0, 0.0))
        records = {VariableId.T2M: [
            (0, minutes(-5), 280.0), (0, minutes(5), 282.0),
            (0, minutes(350), 285.0),  # 5h50m: inside the 6h window
            (1, minutes(20), 290.0),  # outside both windows
        ]}
        times = [T0, T0 + timedelta(hours=6)]
        table = table_from_columns(stations, columns(records), times)
        assert table.values[0, 0, 0] == 281.0
        assert table.values[0, 1, 0] == 285.0
        assert np.isnan(table.values[0, 0, 1])
        assert np.isnan(table.values[0, 1, 1])
        assert table.flags[0, 0, 0] == 1

    def test_six_hour_times_cover_span(self):
        start = datetime(2025, 7, 1, 2, 11, tzinfo=timezone.utc)
        end = datetime(2025, 7, 1, 19, 0, tzinfo=timezone.utc)
        times = oracles.six_hour_times(start, end)
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
    """Stations, 6-hourly target times and unsorted raw records
    ``{variable: [(station index, time, value)]}``, with several records
    per window, records exactly at +-15 min and stations without
    records."""
    n_stations = draw(st.integers(0, 4))
    stations = tuple(Station(f"S{i}", 0.0, 0.0, 0.0) for i in range(n_stations))
    times = [T0 + timedelta(hours=6 * k) for k in range(draw(st.integers(0, 3)))]
    variables = draw(st.lists(st.sampled_from(STATION_VARIABLES), min_size=1,
                              max_size=3, unique=True))
    records = {}
    for variable in variables:
        records[variable] = []
        for si in range(n_stations):
            anchors = st.integers(0, max(len(times) - 1, 0))
            recs = draw(st.lists(st.tuples(anchors, RECORD_OFFSETS_US,
                                           RECORD_VALUES), max_size=8))
            records[variable] += [
                (si, T0 + timedelta(hours=6 * k, microseconds=us), v)
                for k, us, v in recs]
        records[variable] = draw(st.permutations(records[variable]))
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
                table_from_columns(stations, columns(records), times)
            return
        table = table_from_columns(stations, columns(records), times)
        assert table.variables == variables
        assert table.values.tobytes() == values.tobytes()
        assert table.flags.tobytes() == flags.tobytes()
        for vi, variable in enumerate(variables):
            for si in range(len(stations)):
                recs = [(when, v) for s, when, v in records[variable]
                        if s == si]
                for ti, target in enumerate(times):
                    got = window_mean(recs, target)
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
            got = window_mean([(T0, v) for v in order], T0)
            assert got == 1.7976931348623157e+308 / 3

    def test_sum_beyond_float_range_raises_overflow(self):
        with pytest.raises(OverflowError):
            window_mean([(T0, 1.7e308), (T0, 1.7e308)], T0)

    def test_single_negative_zero_record_reads_as_fsum_does(self):
        # math.fsum([-0.0]) is 0.0, so a one-record window of -0.0 is 0.0
        stations = (Station("A", 0.0, 0.0, 0.0),)
        table = table_from_columns(
            stations, columns({VariableId.WS10: [(0, T0, -0.0)]}), [T0])
        assert not np.signbit(table.values[0, 0, 0])
        assert math.copysign(1.0, window_mean([(T0, -0.0)], T0)) == 1.0


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
        # the interpolation pipeline_stations.stations makes of a
        # climatology's days
        interpolator = StationInterpolator(stations)
        got = interpolator.weights(clim.grid).apply(clim.day_mean)
        positions = [(s.lat, s.lon) for s in stations]
        weights = bilinear_weights(grid, positions)
        want = np.stack([weights.apply(clim.layers(
            [T0.replace(month=1, day=1) + timedelta(days=day)])[0])
            for day in range(365)])
        assert tuple(s.station_id for s in interpolator.stations) \
            == ("A", "B", "C")
        assert got.tobytes() == want.tobytes()

    def test_weights_once_per_grid_and_own_grid_per_field(self, rng):
        stations = (Station("A", 10.0, 20.0, 0.0), Station("B", -5.0, 99.0, 0.0))
        interp = StationInterpolator(stations)
        grid = make_grid(5, 8)
        same_shape = make_grid(5, 8, lat_top=50.0, lat_bottom=-50.0)
        assert interp.weights(grid) is interp.weights(make_grid(5, 8))
        assert interp.weights(same_shape) is not interp.weights(grid)
        for g in (grid, same_shape, make_grid(7, 12), grid):
            field = random_field(rng, g)
            got = interp.weights(field.grid).apply(field.values)
            fresh = bilinear_weights(field.grid,
                                     [(s.lat, s.lon) for s in stations])
            assert got.tobytes() == fresh.apply(field.values).tobytes()

    @pytest.mark.parametrize("meta_path, where", [
        (None, ""), ("meta.csv", "meta.csv: ")])
    def test_station_outside_a_regional_grid_is_named(self, meta_path,
                                                      where):
        # 35 N to 5 N, 120 E to 160 E: B lies east of the span, C south of
        # it; B comes first
        grid = GeoGrid.uniform(35.0, -5.0, 7, 120.0, 5.0, 9)
        stations = (Station("A", 20.0, 140.0, 0.0),
                    Station("B", 20.0, 161.5, 0.0),
                    Station("C", -1.0, 140.0, 0.0))
        interpolator = StationInterpolator(stations, meta_path)
        with pytest.raises(TargetOutsideDomain) as raised:
            interpolator.weights(grid)
        assert str(raised.value) == (
            f"{where}station B at lat 20.0, lon 161.5 is outside the grid's "
            f"span: latitude [5.0, 35.0], longitude [120.0, 160.0]")
        assert interpolator.weights(make_grid(7, 9)) is not None

