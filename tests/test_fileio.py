from __future__ import annotations

import hashlib
import io
import itertools
import json
import tempfile
import tracemalloc
import zlib
from datetime import datetime, timedelta, timezone
from unittest import mock
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from conftest import (CALENDAR_DAYS, T0, as_build,
                      assert_read_once_in_whole_days, day_source, field_block,
                      layer_of, layer_scores, make_field, make_grid,
                      one_day_a_layer, read_store, stamped)
from wxverify import (climatology, eventio, fileio, metrics, stationio,
                      thresholds, writers)
from oracles import DailyHistory, build_thresholds
from wxverify.climatology import (DAYS_PER_YEAR, DailyMeanClimatology,
                                  ThresholdField)
from wxverify.errors import (ChecksumMismatch, DuplicateObservation,
                             HeaderPayloadShapeMismatch, InsufficientHistory,
                             InvalidHeader,
                             ManifestError, NonFiniteValue, NonMonotoneTime,
                             NonUniformGrid, UnitOutOfRange, UnknownStation,
                             WxVerifyError)
from wxverify.grid import (SIX_HOURS, FieldBlock, GeoGrid, VariableId,
                          latitude_weights)
from wxverify.thresholds import ThresholdBuild, threshold_chunk


def f32_field(rng, grid, **kw):
    values = rng.standard_normal(grid.shape).astype(np.float32).astype(np.float64)
    return make_field(grid, values, **kw)


def write_grid_store(rng, grid, path):
    return writers.write_grid(f32_field(rng, grid), path)


def write_threshold_store(rng, grid, path):
    heat = 280.0 + rng.standard_normal((DAYS_PER_YEAR, grid.n_lat * grid.n_lon))
    return writers.write_thresholds(as_build(
        ThresholdField(heat, heat - 10.0, (2019, 2020), 7, 0.9, 0.1)), grid, path)


#: Valid times of the stack store's layers.
STACK_TIMES = [T0 + k * SIX_HOURS for k in range(3)]


def write_stack_store(rng, grid, path):
    return writers.write_stack(
        (f32_field(rng, grid, variable=VariableId.MSL, valid_time=when)
         for when in STACK_TIMES), path)


def write_climatology_store(rng, grid, path):
    day_mean = 280.0 + rng.standard_normal((DAYS_PER_YEAR, *grid.shape))
    return writers.write_daily_climatology(
        [DailyMeanClimatology(grid, VariableId.T2M, day_mean, (2020,))], path)


def with_whole_checksum(path) -> dict:
    """Rewrite the sidecar of the store at ``path`` as written before its
    payload was read by the layer: one CRC-32 over the whole payload
    (``checksum``) in place of ``checksums`` and ``n_layers``; returns
    the new header."""
    sidecar = path.with_name(path.name + ".json")
    header = json.loads(sidecar.read_text())
    del header["checksums"], header["n_layers"]
    header["checksum"] = zlib.crc32(path.read_bytes())
    sidecar.write_text(json.dumps(header))
    return header


class Store(NamedTuple):
    """One stored-array format: how to write a valid file, the reader,
    the payload dtype, the file's path in a manifest, the read through a
    :class:`fileio.FieldSource`, and (grid, arrays) of what was read."""

    write: Callable
    read: Callable
    dtype: str
    path_in: Callable
    read_via: Callable
    contents: Callable


STORES = {
    "grid": Store(write_grid_store, read_store, "<f4",
                  lambda m: m.truth_path(VariableId.T2M, T0),
                  lambda s: s.truth_block(VariableId.T2M, [T0]),
                  lambda block: (block.grid, list(block.values))),
    "thresholds": Store(write_threshold_store, lambda path:
                        day_source(path).thresholds(CALENDAR_DAYS),
                        "<f4", lambda m: m.thresholds_file,
                        lambda s: s.thresholds(CALENDAR_DAYS),
                        lambda r: (r[1], [r[0].tau_heat, r[0].tau_cold])),
    "climatology": Store(write_climatology_store, lambda path:
                         day_source(path).climatology(VariableId.T2M,
                                                      CALENDAR_DAYS),
                         "<f8", lambda m: m.climatology_path(VariableId.T2M),
                         lambda s: s.climatology(VariableId.T2M,
                                                 CALENDAR_DAYS),
                         lambda c: (c.grid, [c.day_mean])),
    "stack": Store(write_stack_store, read_store, "<f4",
                   lambda m: m.truth_path(VariableId.MSL, STACK_TIMES[-1]),
                   lambda s: s.truth_block(VariableId.MSL, [STACK_TIMES[-1]]),
                   lambda block: (block.grid, list(block.values))),
}


def rewrite_store(path, dtype, edit_payload, **header_changes):
    """Rewrite a store in place: ``edit_payload`` maps the payload, as a
    (layers, n_lat, n_lon) array, to new contents; the checksums follow."""
    sidecar = path.with_name(path.name + ".json")
    header = json.loads(sidecar.read_text())
    layers = np.frombuffer(path.read_bytes(), dtype=dtype).reshape(
        -1, header["n_lat"], header["n_lon"])
    edited = np.ascontiguousarray(edit_payload(layers.copy()), dtype=dtype)
    blob = edited.tobytes()
    if "checksums" in header:  # a stack: one CRC-32 per layer
        header.update(header_changes, checksums=[
            zlib.crc32(layer.tobytes()) for layer in edited])
    else:
        header.update(header_changes, checksum=zlib.crc32(blob))
    path.write_bytes(blob)
    sidecar.write_text(json.dumps(header))


#: JSON values a fuzzed sidecar key may take.
FUZZ_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-10**6, 10**6), st.floats(),
    st.text(max_size=8), st.sampled_from(["t2m", "f32le", "f64le"]),
    st.lists(st.integers(-5, 3000) | st.floats() | st.lists(st.integers()),
             max_size=3))


class TestGridRoundTrip:
    def test_bitwise_round_trip(self, rng, tmp_path):
        grid = GeoGrid.uniform(50.0, -2.5, 9, 10.0, 5.0, 12)
        field = f32_field(rng, grid, variable=VariableId.MSL, lead_hours=12)
        path = writers.write_grid(field, tmp_path / "f.rbg")
        back = read_store(path)
        assert back.grid == field.grid
        assert back.variable is field.variable
        assert back.valid_times == field.valid_times
        assert back.lead_hours == field.lead_hours
        assert np.array_equal(back.values, field.values)

    def test_canonical_serialization(self, rng, tmp_path):
        grid = make_grid(4, 8)
        field = f32_field(rng, grid)
        p1 = writers.write_grid(field, tmp_path / "a.rbg")
        back = read_store(p1)
        p2 = writers.write_grid(back, tmp_path / "b.rbg")
        assert p1.read_bytes() == p2.read_bytes()
        assert (tmp_path / "a.rbg.json").read_bytes() == \
            (tmp_path / "b.rbg.json").read_bytes()

    def test_truncated_payload(self, rng, tmp_path):
        field = f32_field(rng, make_grid(4, 8))
        path = writers.write_grid(field, tmp_path / "f.rbg")
        blob = path.read_bytes()
        path.write_bytes(blob[:-4])
        with pytest.raises(HeaderPayloadShapeMismatch):
            read_store(path)

    def test_corrupt_byte_fails_checksum(self, rng, tmp_path):
        field = f32_field(rng, make_grid(4, 8))
        path = writers.write_grid(field, tmp_path / "f.rbg")
        blob = bytearray(path.read_bytes())
        blob[7] ^= 0xFF
        path.write_bytes(bytes(blob))
        # independent CRC oracle confirms the corruption is visible
        header = json.loads((tmp_path / "f.rbg.json").read_text())
        assert zlib.crc32(bytes(blob)) != header["checksum"]
        with pytest.raises(ChecksumMismatch):
            read_store(path)

    def test_nan_payload_rejected(self, rng, tmp_path):
        field = f32_field(rng, make_grid(2, 4))
        path = writers.write_grid(field, tmp_path / "f.rbg")
        values = np.frombuffer(path.read_bytes(), dtype="<f4").copy()
        values[3] = np.nan
        blob = values.tobytes()
        header = json.loads((tmp_path / "f.rbg.json").read_text())
        header["checksum"] = zlib.crc32(blob)
        path.write_bytes(blob)
        (tmp_path / "f.rbg.json").write_text(json.dumps(header))
        with pytest.raises(NonFiniteValue):
            read_store(path)

    def test_derived_variable_not_storable(self, rng, tmp_path):
        grid = make_grid(2, 4)
        ws = make_field(grid, np.ones(grid.shape), VariableId.WS10)
        with pytest.raises(WxVerifyError):
            writers.write_grid(ws, tmp_path / "ws.rbg")

    @pytest.mark.parametrize("n_layers", [0, 2])
    def test_a_block_of_other_than_one_layer_is_not_written(self, n_layers,
                                                            tmp_path):
        grid = make_grid(2, 4)
        block = FieldBlock(grid, VariableId.T2M, tuple(times_from(T0, n_layers)),
                           (0,) * n_layers, np.zeros((n_layers, *grid.shape)))
        path = tmp_path / "f.rbg"
        with pytest.raises(WxVerifyError) as err:
            writers.write_grid(block, path)
        assert str(err.value).startswith(f"{path}: ")
        assert list(tmp_path.iterdir()) == []

    def test_non_uniform_grid_rejected(self, rng, tmp_path):
        grid = GeoGrid(np.array([10.0, 5.0, -3.0]), np.array([0.0, 120.0, 240.0]))
        field = make_field(grid, np.zeros(grid.shape))
        with pytest.raises(NonUniformGrid):
            writers.write_grid(field, tmp_path / "f.rbg")

    def test_south_to_north_file_normalized(self, rng, tmp_path):
        field = f32_field(rng, make_grid(4, 8))
        path = writers.write_grid(field, tmp_path / "f.rbg")
        header = json.loads((tmp_path / "f.rbg.json").read_text())
        # flip rows on disk and rewrite the header as a south-first file
        values = np.frombuffer(path.read_bytes(),
                               dtype="<f4").reshape(4, 8)[::-1]
        blob = np.ascontiguousarray(values).tobytes()
        header["lat_start"] = header["lat_start"] + header["lat_step"] * 3
        header["lat_step"] = -header["lat_step"]
        header["checksum"] = zlib.crc32(blob)
        path.write_bytes(blob)
        (tmp_path / "f.rbg.json").write_text(json.dumps(header))
        back = read_store(path)
        assert back.grid == field.grid
        assert np.array_equal(back.values, field.values)

    def test_negative_longitudes_normalized(self, rng, tmp_path):
        field = f32_field(rng, make_grid(3, 8))
        path = writers.write_grid(field, tmp_path / "f.rbg")
        header = json.loads((tmp_path / "f.rbg.json").read_text())
        # same circle expressed as [-180, 180): columns rolled by half
        values = np.frombuffer(path.read_bytes(), dtype="<f4").reshape(3, 8)
        rolled = np.roll(values, 4, axis=1)
        blob = np.ascontiguousarray(rolled).tobytes()
        header["lon_start"] = -180.0
        header["checksum"] = zlib.crc32(blob)
        path.write_bytes(blob)
        (tmp_path / "f.rbg.json").write_text(json.dumps(header))
        back = read_store(path)
        assert back.grid == field.grid
        assert np.array_equal(back.values, field.values)

    def test_infinite_header_integer_is_invalid_header(self, rng, tmp_path):
        path = writers.write_grid(f32_field(rng, make_grid(2, 4)),
                                 tmp_path / "f.rbg")
        sidecar = tmp_path / "f.rbg.json"
        sidecar.write_text(sidecar.read_text().replace(
            '"n_lat": 2', '"n_lat": Infinity'))
        with pytest.raises(InvalidHeader, match="n_lat"):
            read_store(path)

    @pytest.mark.parametrize("store", STORES.values(), ids=STORES.keys())
    @given(data=st.data())
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_reader_total_over_fuzzed_sidecars(self, tmp_path_factory, store,
                                               data):
        tmp = tmp_path_factory.mktemp("fuzz")
        path = store.write(np.random.default_rng(0), make_grid(3, 4),
                           tmp / "f.bin")
        sidecar = tmp / "f.bin.json"
        header = json.loads(sidecar.read_text())
        mutated = data.draw(st.dictionaries(
            st.sampled_from(sorted(header)), FUZZ_JSON_VALUES,
            max_size=2))
        header.update(mutated)
        for key in data.draw(st.sets(st.sampled_from(sorted(header)),
                                     max_size=2)):
            del header[key]
        sidecar.write_text(json.dumps(header))
        blob = data.draw(st.one_of(
            st.binary(max_size=400),  # arbitrary bytes
            st.just(sidecar.read_bytes()),  # a parseable, mutated header
        ))
        sidecar.write_bytes(blob)
        if data.draw(st.booleans()):
            path.write_bytes(b"\x00" * 32)
        try:
            store.read(path)
        except WxVerifyError:
            pass  # typed errors only; anything else fails the test


#: Engine-convention grid, the payload edit and the header changes that
#: store the same values in another orientation the format allows.
REORIENTED = {
    "south-first": (make_grid(3, 8), lambda layers: layers[:, ::-1],
                    {"lat_start": -60.0, "lat_step": 60.0}),
    "lon-from-minus-180": (make_grid(3, 8),
                           lambda layers: np.roll(layers, 4, axis=2),
                           {"lon_start": -180.0}),
    "both": (make_grid(3, 8),
             lambda layers: np.roll(layers[:, ::-1], 4, axis=2),
             {"lat_start": -60.0, "lat_step": 60.0, "lon_start": -180.0}),
    "regional-negative-lon": (GeoGrid.uniform(50.0, -10.0, 3, 300.0, 10.0, 4),
                              lambda layers: layers, {"lon_start": -60.0}),
}


class TestStackStores:
    def test_threshold_round_trip(self, rng, tmp_path):
        grid = make_grid(3, 4)
        heat = 280.0 + rng.standard_normal((DAYS_PER_YEAR, 12))
        cold = heat - 10.0
        tf = ThresholdField(heat, cold, (2019, 2020), 7, 0.9, 0.1)
        path = writers.write_thresholds(as_build(tf), grid, tmp_path / "t.rbt")
        back, back_grid, digest = day_source(path).thresholds(CALENDAR_DAYS)
        assert digest == hashlib.sha256(
            path.with_name("t.rbt.json").read_bytes()).hexdigest()
        assert back_grid == grid
        assert back.years == (2019, 2020)
        assert back.half_window == 7
        np.testing.assert_array_equal(
            back.tau_heat, heat.astype(np.float32).astype(np.float64))

    def test_thresholds_are_read_as_stored_within_their_payload(self, rng,
                                                                tmp_path):
        grid = make_grid(30, 40)
        heat = 280.0 + rng.standard_normal((DAYS_PER_YEAR, 1200))
        path = writers.write_thresholds(as_build(
            ThresholdField(heat, heat - 10.0, (2019, 2020), 7, 0.9, 0.1)),
            grid, tmp_path / "t.rbt")
        payload = path.stat().st_size
        tracemalloc.start()
        try:
            back, _, _ = day_source(path).thresholds(CALENDAR_DAYS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the float32 payload is held once, not widened beside it
        assert peak < 1.25 * payload
        assert back.tau_heat.dtype == back.tau_cold.dtype == np.float32
        assert back.tau_heat.tobytes() == heat.astype(np.float32).tobytes()

    def test_climatology_round_trip_is_lossless(self, rng, tmp_path):
        grid = make_grid(3, 4)
        day_mean = 280.0 + rng.standard_normal((DAYS_PER_YEAR, 3, 4))
        clim = DailyMeanClimatology(grid, VariableId.T2M, day_mean, (2020,))
        path = writers.write_daily_climatology([clim], tmp_path / "c.rbc")
        back = day_source(path).climatology(VariableId.T2M, CALENDAR_DAYS)
        assert back.variable is VariableId.T2M
        assert np.array_equal(back.day_mean, day_mean)  # f64 payload

    def test_float64_store_read_without_a_copy(self, rng, tmp_path):
        grid = make_grid(40, 60)
        day_mean = 280.0 + rng.standard_normal((DAYS_PER_YEAR, *grid.shape))
        path = writers.write_daily_climatology(
            [DailyMeanClimatology(grid, VariableId.T2M, day_mean, (2020,))],
            tmp_path / "c.rbc")
        payload = path.stat().st_size
        tracemalloc.start()
        try:
            back = day_source(path).climatology(VariableId.T2M,
                                                CALENDAR_DAYS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * payload
        assert back.day_mean.tobytes() == day_mean.tobytes()

    @pytest.mark.parametrize("store", STORES.values(), ids=STORES.keys())
    @pytest.mark.parametrize("case", REORIENTED.values(), ids=REORIENTED.keys())
    def test_reoriented_store_reads_as_engine_twin(self, store, case, rng,
                                                   tmp_path):
        grid, reorient, header_changes = case
        engine = store.write(rng, grid, tmp_path / "engine.bin")
        twin = tmp_path / "twin.bin"
        for suffix in ("", ".json"):
            (tmp_path / f"twin.bin{suffix}").write_bytes(
                (tmp_path / f"engine.bin{suffix}").read_bytes())
        rewrite_store(twin, store.dtype, reorient, **header_changes)
        want_grid, want = store.contents(store.read(engine))
        got_grid, got = store.contents(store.read(twin))
        assert got_grid == want_grid == grid
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("store", STORES.values(), ids=STORES.keys())
    @pytest.mark.parametrize("part", ["sidecar", "payload"])
    def test_directory_in_place_of_a_file(self, store, part, rng, tmp_path):
        path = store.write(rng, make_grid(2, 4), tmp_path / "f.bin")
        victim = path if part == "payload" else \
            path.with_name(path.name + ".json")
        victim.unlink()
        victim.mkdir()
        with pytest.raises(InvalidHeader, match=f"cannot read {part}") as err:
            store.read(path)
        assert str(victim) in str(err.value)


BESTTRACK = """storm_id,iso_time,lat,lon,mslp_hpa,wind_ms
ALPHA,2025-07-01T00:00:00Z,18.0,140.0,985.0,35.0
ALPHA,2025-07-01T06:00:00Z,18.5,139.5,980.0,38.0
BETA,2025-07-02T00:00:00Z,12.0,150.0,990.0,30.0
BETA,2025-07-02T06:00:00Z,12.5,149.0,988.0,31.0
BETA,2025-07-02T12:00:00Z,13.0,148.0,985.0,33.0
"""


class TestBestTrack:
    def test_two_storms_grouped(self, tmp_path):
        path = tmp_path / "bt.csv"
        path.write_text(BESTTRACK)
        tracks, _ = eventio.read_besttrack(path)
        assert [t.storm_id for t in tracks] == ["ALPHA", "BETA"]
        assert len(tracks[0].fixes) == 2
        assert len(tracks[1].fixes) == 3
        assert tracks[0].fixes[0].min_mslp_pa == 98500.0

    def test_out_of_order_rows(self, tmp_path):
        rows = BESTTRACK.splitlines()
        rows[1], rows[2] = rows[2], rows[1]
        path = tmp_path / "bt.csv"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(NonMonotoneTime):
            eventio.read_besttrack(path)

    def test_gap_in_cadence(self, tmp_path):
        bad = BESTTRACK.replace("2025-07-01T06:00:00Z", "2025-07-01T12:00:00Z")
        path = tmp_path / "bt.csv"
        path.write_text(bad)
        with pytest.raises(NonMonotoneTime):
            eventio.read_besttrack(path)

    def test_plausibility_band(self, tmp_path):
        deep = BESTTRACK.replace("985.0,35.0", "870.0,35.0")
        path = tmp_path / "bt.csv"
        path.write_text(deep)
        tracks, _ = eventio.read_besttrack(path)  # 870 hPa accepted
        assert tracks[0].fixes[0].min_mslp_pa == 87000.0
        impossible = BESTTRACK.replace("985.0,35.0", "600.0,35.0")
        path.write_text(impossible)
        with pytest.raises(UnitOutOfRange):
            eventio.read_besttrack(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bt.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(InvalidHeader):
            eventio.read_besttrack(path)

    def test_written_best_track_reads_back_as_its_bytes(self, tmp_path):
        path = tmp_path / "bt.csv"
        path.write_text(BESTTRACK)
        tracks, digest = eventio.read_besttrack(path)
        again = eventio.write_besttrack(tracks, tmp_path / "again.csv")
        assert again.read_text() == BESTTRACK
        assert eventio.read_besttrack(again) == (tracks, digest)


STATION_META = """id,lat,lon,elev_m
S1,45.0,10.0,203.0
S2,-12.0,240.0,5.0
"""

STATION_OBS = """station_id,iso_time,variable,value_si
S1,2025-07-01T00:05:00Z,t2m,288.5
S1,2025-07-01T00:10:00Z,t2m,289.5
S2,2025-07-01T00:00:00Z,t2m,300.0
S1,2025-07-01T06:00:00Z,ws10,4.0
"""
STATION_TIMES = [T0 + timedelta(hours=6 * k) for k in range(4)]


class TestStationCsvs:
    def test_consistent_pair(self, tmp_path):
        (tmp_path / "meta.csv").write_text(STATION_META)
        (tmp_path / "obs.csv").write_text(STATION_OBS)
        table = stationio.read_station_csvs(tmp_path / "meta.csv",
                                         tmp_path / "obs.csv", STATION_TIMES)
        assert len(table.stations) == 2
        assert table.variables == (VariableId.T2M, VariableId.WS10)
        t2m = table.variable_index(VariableId.T2M)
        s1 = 0
        assert table.values[t2m, 0, s1] == 289.0  # mean of the two records

    def test_unknown_station(self, tmp_path):
        (tmp_path / "meta.csv").write_text(STATION_META)
        (tmp_path / "obs.csv").write_text(
            STATION_OBS + "S9,2025-07-01T00:00:00Z,t2m,280.0\n")
        with pytest.raises(UnknownStation):
            stationio.read_station_csvs(tmp_path / "meta.csv",
                                     tmp_path / "obs.csv", STATION_TIMES)

    def test_duplicate_observation(self, tmp_path):
        (tmp_path / "meta.csv").write_text(STATION_META)
        (tmp_path / "obs.csv").write_text(
            STATION_OBS + "S1,2025-07-01T00:05:00Z,t2m,288.5\n")
        with pytest.raises(DuplicateObservation):
            stationio.read_station_csvs(tmp_path / "meta.csv",
                                     tmp_path / "obs.csv", STATION_TIMES)

    def test_metadata_header_with_spaces(self, tmp_path):
        (tmp_path / "obs.csv").write_text(STATION_OBS)
        tables = []
        for name, header in (("plain.csv", "id,lat,lon,elev_m"),
                             ("spaced.csv", "id, lat,lon , elev_m")):
            (tmp_path / name).write_text(
                STATION_META.replace("id,lat,lon,elev_m", header))
            tables.append(stationio.read_station_csvs(
                tmp_path / name, tmp_path / "obs.csv", STATION_TIMES))
        plain, spaced = tables
        assert spaced.stations == plain.stations
        assert (spaced.times, spaced.variables) == (plain.times,
                                                    plain.variables)
        assert spaced.values.tobytes() == plain.values.tobytes()
        assert spaced.flags.tobytes() == plain.flags.tobytes()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", " NaN",
                                       pytest.param("inf" + " " * 200,
                                                    id="inf-past-width-cap")])
    def test_non_finite_value_names_path_and_line(self, value, tmp_path):
        (tmp_path / "meta.csv").write_text(STATION_META)
        obs = tmp_path / "obs.csv"
        obs.write_text(STATION_OBS + f"S2,2025-07-01T06:00:00Z,t2m,{value}\n")
        with pytest.raises(NonFiniteValue) as err:
            stationio.read_station_csvs(tmp_path / "meta.csv", obs,
                                        STATION_TIMES)
        line = STATION_OBS.count("\n") + 1
        assert str(err.value) == \
            f"{obs}:{line}: non-finite value {value.strip()!r}"

    def test_window_mean_beyond_float_range_names_station_and_time(
            self, tmp_path):
        (tmp_path / "meta.csv").write_text(STATION_META)
        obs = tmp_path / "obs.csv"
        obs.write_text(STATION_OBS + "S2,2025-07-01T05:50:00Z,msl,1.7e308\n"
                       "S2,2025-07-01T06:10:00Z,msl,1.7e308\n")
        with pytest.raises(NonFiniteValue) as err:
            stationio.read_station_csvs(tmp_path / "meta.csv", obs,
                                        STATION_TIMES)
        assert str(err.value) == (
            f"{obs}: the mean of the records of station S2 within 15 min "
            f"of 2025-07-01T06:00:00Z is beyond the float range")

    # Each faulty row, in any order after the valid rows, with its error.
    # The time and variable strings repeat earlier rows, so they are
    # served from the reader's parse caches.
    FAULTS = {
        "bad value": ("S2,2025-07-01T00:00:00Z,ws10,warm\n", InvalidHeader,
                      "bad row: could not convert string to float: 'warm'"),
        "bad variable": ("S2,2025-07-01T06:00:00Z,t2 m,280.0\n", InvalidHeader,
                         "bad row: unknown variable key 't2 m'"),
        "bad time": ("S2,2025-07-01T00:00:00X,t2m,280.0\n", InvalidHeader,
                     "bad timestamp '2025-07-01T00:00:00X': "),
        "short row": ("S2,2025-07-01T00:00:00Z\n", InvalidHeader,
                      "expected 4 fields, got 2"),
        "long row": ("S2,2025-07-01T12:00:00Z,msl,101131.0,junk\n",
                     InvalidHeader, "expected 4 fields, got 5"),
        "unknown station": ("S9,2025-07-01T00:00:00Z,t2m,280.0\n",
                            UnknownStation, "station 'S9' not in meta.csv"),
        "duplicate": ("S2,2025-07-01T00:00:00+00:00,t2m,301.0\n",
                      DuplicateObservation,
                      "duplicate observation (S2, 2025-07-01T00:00:00Z, t2m)"),
    }

    @pytest.mark.parametrize("order", list(itertools.permutations(
        ["bad value", "unknown station", "duplicate", "bad time"])) + [
        ("short row", "duplicate"), ("duplicate", "bad variable"),
        ("bad variable", "short row"), ("long row", "unknown station"),
        ("bad value", "long row")], ids=" then ".join)
    def test_first_faulty_row_in_file_order_is_reported(self, order,
                                                        tmp_path):
        (tmp_path / "meta.csv").write_text(STATION_META)
        obs = tmp_path / "obs.csv"
        obs.write_text(STATION_OBS + "".join(self.FAULTS[f][0] for f in order))
        _, error, message = self.FAULTS[order[0]]
        first_row = STATION_OBS.count("\n") + 1
        with pytest.raises(error) as err:
            stationio.read_station_csvs(tmp_path / "meta.csv", obs,
                                        STATION_TIMES)
        assert str(err.value).startswith(f"{obs}:{first_row}: {message}")

    def test_metadata_row_with_wrong_field_count(self, tmp_path):
        (tmp_path / "obs.csv").write_text(STATION_OBS)
        for row, found in (("S3,1.0,2.0\n", 3), ("S3,1.0,2.0,3.0,4.0\n", 5)):
            (tmp_path / "meta.csv").write_text(STATION_META + row)
            with pytest.raises(InvalidHeader) as err:
                stationio.read_station_csvs(tmp_path / "meta.csv",
                                         tmp_path / "obs.csv", STATION_TIMES)
            assert str(err.value) == (f"{tmp_path / 'meta.csv'}:4: expected "
                                      f"4 fields, got {found}")

    def test_fields_wider_than_their_column_are_read_whole(self, tmp_path):
        # a 40-byte id and a 32-byte time spelling outgrow the starting
        # column widths and are read again at a wider one
        long_id = "STATION-" + "X" * 32
        (tmp_path / "meta.csv").write_text(
            STATION_META + f"{long_id},0.0,0.0,0.0\n")
        (tmp_path / "obs.csv").write_text(
            STATION_OBS + f"{long_id},2025-07-01T06:05:00.000000+00:00,"
                          f"t2m,281.5\n")
        table = stationio.read_station_csvs(tmp_path / "meta.csv",
                                         tmp_path / "obs.csv", STATION_TIMES)
        t2m = table.variable_index(VariableId.T2M)
        assert table.stations[2].station_id == long_id
        assert table.values[t2m, 1, 2] == 281.5

    def test_field_of_128_bytes_or_more_is_an_input_error(self, tmp_path):
        # every row takes its column's width in memory, so the width is
        # capped; rows before the long field are still checked first
        (tmp_path / "meta.csv").write_text(STATION_META)
        obs = tmp_path / "obs.csv"
        obs.write_text(STATION_OBS + "S1," + "T" * 200 + ",t2m,1.0\n")
        with pytest.raises(InvalidHeader) as err:
            stationio.read_station_csvs(tmp_path / "meta.csv", obs,
                                        STATION_TIMES)
        assert str(err.value) == (f"{obs}:6: a field is longer than 127 "
                                  f"bytes")
        obs.write_text(STATION_OBS + "S9,2025-07-01T00:00:00Z,t2m,1.0\n"
                       + "S1," + "T" * 200 + ",t2m,1.0\n")
        with pytest.raises(UnknownStation):
            stationio.read_station_csvs(tmp_path / "meta.csv", obs,
                                        STATION_TIMES)

    def test_values_that_only_python_parses(self, tmp_path):
        # float() takes digit separators and Unicode digits, numpy's
        # parser does not: the column is parsed once per spelling instead,
        # each field read whole (a value has no width cap)
        (tmp_path / "meta.csv").write_text(STATION_META)
        (tmp_path / "obs.csv").write_text(
            STATION_OBS + "S2,2025-07-01T06:00:00Z,t2m,2_81.5\n"
                          "S2,2025-07-01T12:00:00Z,t2m,٢٨٠\n"
                          "S2,2025-07-01T18:00:00Z,t2m,282.5" + " " * 200
            + "\n", encoding="utf-8")
        table = stationio.read_station_csvs(tmp_path / "meta.csv",
                                         tmp_path / "obs.csv", STATION_TIMES)
        t2m = table.variable_index(VariableId.T2M)
        assert table.values[t2m, 1:4, 1].tolist() == [281.5, 280.0, 282.5]


# Random station CSVs for the columnar reader against the row reader in
# tests/oracles.py. Each row has at most one odd or faulty part, drawn
# rarely enough that many files read as a table.

def _field(draw, text: str) -> str:
    """``text`` as one CSV field: bare, quoted, or with spaces around."""
    style = draw(st.sampled_from(["bare", "bare", "bare", "quoted", "spaced",
                                  "quoted-spaced"]))
    if style == "quoted":
        return '"' + text.replace('"', '""') + '"'
    if style == "spaced":
        return f" {text} "
    if style == "quoted-spaced":
        return '"' + text.replace('"', '""') + '" '
    return text


def _row(draw, fields: list[str], odd: str | None) -> str:
    """A CSV row of ``fields``."""
    if odd == "short":
        fields = fields[:draw(st.integers(1, len(fields) - 1))]
    elif odd == "long":
        fields = fields + ["junk"]
    elif odd == "wide":  # a field padded to a text column's width cap or past
        k = draw(st.integers(0, len(fields) - 1))
        fields = fields[:k] + [fields[k] + " " * draw(st.sampled_from(
            [127 - len(fields[k].encode()), 200]))] + fields[k + 1:]
    elif odd == "blank":
        return ""
    return ",".join(_field(draw, f) for f in fields)


def _csv(draw, header: str, rows: list[str]) -> bytes:
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    # a UTF-8 byte-order mark, as spreadsheet programs write it
    mark = draw(st.sampled_from(["", "", "", "\ufeff"]))
    return (mark + newline.join([header] + rows) + newline).encode("utf-8")


def _odd(draw, *kinds: str) -> str | None:
    return draw(st.sampled_from([None] * 4 * len(kinds) + list(kinds)))


@st.composite
def station_csv_pairs(draw):
    ids = ["S1", "S2", "S3"]
    meta_rows = []
    for sid in ids + draw(st.sampled_from([[]] * 6 + [["S1"]])):
        odd = _odd(draw, "short", "long", "wide", "blank", "lat", "lon")
        lat = draw(st.sampled_from(["north", "nan", "-inf", "95.0", "-90.5",
                                    "90"])) \
            if odd == "lat" else repr(draw(st.floats(-60.0, 60.0)))
        lon = draw(st.sampled_from(["NaN", "1e400"])) \
            if odd == "lon" else repr(draw(st.floats(-180.0, 360.0)))
        meta_rows.append(_row(draw, [sid, lat, lon, "0.0"], odd))
    meta_header = draw(st.sampled_from(["id,lat,lon,elev_m"] * 4
                                       + ["id, lat,lon , elev_m"] * 4
                                       + ["id,lat,lon"]))
    base = [T0 + timedelta(hours=h, minutes=m)
            for h in range(0, 24, 6) for m in (-15, -10, 0, 5, 15, 20)]
    # float() takes a digit separator and numpy's parser does not, so in
    # such a file the value column is read as Python text: a value padded
    # past a text column's width cap must still read as itself
    separators = draw(st.sampled_from([False, False, False, True]))
    obs_rows = []
    for _ in range(draw(st.integers(0, 10))):
        odd = _odd(draw, "short", "long", "wide", "blank", "repeat", "id",
                   "time", "variable", "value")
        if obs_rows and odd == "repeat":
            obs_rows.append(draw(st.sampled_from(obs_rows)))
            continue
        when = draw(st.sampled_from(base))
        fields = [draw(st.sampled_from(ids)), fileio.format_time(when),
                  draw(st.sampled_from(["t2m", "msl", "ws10"])),
                  repr(draw(st.floats(200.0, 110000.0)))]
        if separators:
            fields[3] = (fields[3][0] + "_" + fields[3][1:]
                         + " " * draw(st.sampled_from([0, 0, 200])))
        if odd == "id":
            fields[0] = draw(st.sampled_from(["S9", "S 1", "s1"]))
        elif odd == "time":
            fields[1] = draw(st.sampled_from([
                when.strftime("%Y-%m-%dT%H:%M:%S+00:00"),
                (when + timedelta(hours=1)).strftime(
                    "%Y-%m-%dT%H:%M:%S+01:00"),
                when.strftime("%Y-%m-%d %H:%M:%SZ"),
                when.strftime("%Y-%m-%dT%H:%M:%SX"),
                "2025-02-30T00:00:00Z", "2025-07-01T24:00:00Z"]))
        elif odd == "variable":
            fields[2] = draw(st.sampled_from(["t2 m", "T2M", "sst"]))
        elif odd == "value":
            fields[3] = draw(st.sampled_from(["nan", "inf", "-inf", "NaN",
                                              "1e400", "warm", "", "2_81.5",
                                              "0x1p8"]))
        obs_rows.append(_row(draw, fields, odd))
    obs_header = draw(st.sampled_from(
        ["station_id,iso_time,variable,value_si"] * 4
        + [" station_id,iso_time , variable,value_si", "station_id,time"]))
    times = draw(st.sampled_from([
        STATION_TIMES, oracles.six_hour_times(T0 - timedelta(hours=6),
                                              T0 + timedelta(hours=24))]))
    return (_csv(draw, meta_header, meta_rows),
            _csv(draw, obs_header, obs_rows), times)


def _read_outcome(read, meta, obs, times):
    """The table read, bit for bit, or the type and message it raised."""
    try:
        table = read(meta, obs, times)
    except WxVerifyError as exc:
        return type(exc), str(exc)
    return (table.stations, table.times, table.variables,
            table.values.tobytes(), table.flags.tobytes())


@settings(max_examples=150, deadline=None)
@given(station_csv_pairs())
def test_columnar_station_reader_matches_row_reader(files):
    meta_bytes, obs_bytes, times = files
    with tempfile.TemporaryDirectory() as tmp:
        meta, obs = Path(tmp) / "meta.csv", Path(tmp) / "obs.csv"
        meta.write_bytes(meta_bytes)
        obs.write_bytes(obs_bytes)
        want = _read_outcome(oracles.read_station_csvs_rows, meta, obs, times)
        got = _read_outcome(stationio.read_station_csvs, meta, obs, times)
    assert got == want


class TestTimes:
    @pytest.mark.parametrize("year", [1, 999, 2025, 9999])
    def test_a_formatted_time_parses_back(self, year):
        when = datetime(year, 1, 2, 18, tzinfo=timezone.utc)
        text = fileio.format_time(when)
        assert text == f"{year:04d}-01-02T18:00:00Z"
        assert fileio.parse_time(text) == when


class TestManifest:
    def write_minimal(self, tmp_path, rng, n_inits=1, max_lead=6):
        grid = make_grid(3, 4)
        inits = [T0 + k * timedelta(days=1) for k in range(n_inits)]
        doc = {
            "variables": ["t2m"],
            "init_times": [fileio.format_time(t) for t in inits],
            "max_lead_hours": max_lead,
            "truth_pattern": "truth/{variable}_{time}.rbg",
            "models": {"persistence": "m/{variable}_{init}_{lead:03d}.rbg"},
        }
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        for init in inits:
            for lead in range(0, max_lead + 1, 6):
                when = init + timedelta(hours=lead)
                field = f32_field(rng, grid, valid_time=when)
                writers.write_grid(field, tmp_path / "truth" /
                                  f"t2m_{when.strftime('%Y%m%d%H')}.rbg")
                writers.write_grid(
                    stamped(field, when, lead),
                    tmp_path / "m" /
                    f"t2m_{init.strftime('%Y%m%d%H')}_{lead:03d}.rbg")
        return path

    def test_loads_and_resolves(self, tmp_path, rng):
        path = self.write_minimal(tmp_path, rng)
        manifest = fileio.load_manifest(path)
        assert manifest.lead_hours == (0, 6)
        assert manifest.truth_path(VariableId.T2M, T0).exists()
        assert manifest.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_missing_model_file_named(self, tmp_path, rng):
        path = self.write_minimal(tmp_path, rng)
        victim = tmp_path / "m" / "t2m_2025070100_006.rbg"
        victim.unlink()
        with pytest.raises(ManifestError) as err:
            fileio.load_manifest(path)
        assert "t2m_2025070100_006.rbg" in str(err.value)

    @pytest.fixture
    def exists_calls(self, monkeypatch) -> list:
        """The paths ``Path.exists`` is asked about, in order."""
        calls, exists = [], Path.exists

        def counted(path, *args, **kwargs):
            calls.append(path)
            return exists(path, *args, **kwargs)
        monkeypatch.setattr(Path, "exists", counted)
        return calls

    def test_each_distinct_file_is_checked_once(self, tmp_path, exists_calls):
        inits = [T0, T0 + timedelta(days=1)]
        doc = {"variables": ["t2m", "msl"],
               "init_times": [fileio.format_time(t) for t in inits],
               "max_lead_hours": 48,
               "truth_pattern": "s/{variable}/{year}.rbs",
               "models": {"m": "m/{init}/{variable}.rbs",
                          "one-run": "one/{variable}.rbs"}}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        files = [tmp_path / rel for rel in (
            "s/t2m/2025.rbs", "s/msl/2025.rbs",
            "m/2025070100/t2m.rbs", "m/2025070100/msl.rbs",
            "m/2025070200/t2m.rbs", "m/2025070200/msl.rbs",
            "one/t2m.rbs", "one/msl.rbs")]
        for file in files:
            file.parent.mkdir(parents=True, exist_ok=True)
            file.touch()
        fileio.load_manifest(path)
        # at one check per (variable, valid time) and per (model, init,
        # variable, lead) this took 2 * 13 + 2 * 2 * 2 * 9 = 98 calls
        assert exists_calls == files

        exists_calls.clear()
        files[4].unlink()
        with pytest.raises(ManifestError) as err:
            fileio.load_manifest(path)
        assert str(err.value) == f"missing model file: {files[4]}"
        assert exists_calls == files[:5]

    def test_first_missing_file_in_layer_order_is_named(self, tmp_path, rng,
                                                        exists_calls):
        path = self.write_minimal(tmp_path, rng, n_inits=2, max_lead=12)
        for rel in ("t2m_2025070200_006.rbg", "t2m_2025070100_012.rbg"):
            (tmp_path / "m" / rel).unlink()
        with pytest.raises(ManifestError) as err:
            fileio.load_manifest(path)
        first = tmp_path / "m" / "t2m_2025070100_012.rbg"
        assert str(err.value) == f"missing model file: {first}"
        # the 6 distinct truth times, then the first init's leads; each once
        assert len(exists_calls) == len(set(exists_calls)) == 6 + 3
        assert exists_calls[-1] == first

    @pytest.mark.parametrize("section, require, key", [
        ("truth_pattern", "truth", "truth_pattern"),
        ("models", "models", "models.m"),
        ("daily_mean_pattern", "climatology",
         "climatology.daily_mean_pattern"),
        ("history_pattern", "history", "climatology.history_pattern")])
    @pytest.mark.parametrize("pattern, why", [
        ("{foo}", "'foo'"), ("x/{0}", "Format string contains positional"),
        ("{variable.x}", "'str' object has no attribute 'x'"),
        ("{variable", "expected '}' before end of string")])
    def test_bad_pattern_is_named_with_its_key(self, tmp_path, section,
                                               require, key, pattern, why):
        doc = {"variables": ["t2m"], "init_times": [fileio.format_time(T0)],
               "max_lead_hours": 6, "truth_pattern": "t/{variable}.rbs",
               "models": {"m": "m/{variable}.rbs"},
               "climatology": {"daily_mean_pattern": "c/{variable}.rbc",
                               "history_pattern": "t/{variable}.rbs",
                               "history_years": [T0.year]}}
        if section == "models":
            doc["models"] = {"m": pattern}
        elif section == "truth_pattern":
            doc["truth_pattern"] = pattern
        else:
            doc["climatology"][section] = pattern
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ManifestError) as err:
            fileio.load_manifest(path, require=(require,))
        assert str(err.value).startswith(
            f"{path}: bad {key} pattern {pattern!r}: ")
        assert why in str(err.value)

    @pytest.mark.parametrize("key, value, message", [
        ("history_years", [0, 2023], "climatology history_years lists 0; a "
                                     "history year must lie in 1..9998"),
        ("history_years", [-5, 2023], "climatology history_years lists -5; "
                                      "a history year must lie in 1..9998"),
        ("history_years", [2023, 10000], "climatology history_years lists "
                                         "10000; a history year must lie in "
                                         "1..9998"),
        # its Dec 31 runs to 00Z Jan 1 of year 10000
        ("history_years", [9999], "climatology history_years lists 9999; a "
                                  "history year must lie in 1..9998"),
        ("init_times", ["9999-12-31T18:00:00Z"],
         "init_times entry 9999-12-31T18:00:00Z plus max_lead_hours 6 runs "
         "past year 9999"),
        ("init_times", ["2025-07-01T00:00:00Z", "9999-12-31T23:00:00+01:00"],
         "init_times entry 9999-12-31T22:00:00Z plus max_lead_hours 6 runs "
         "past year 9999"),
        # a timestamp that does not parse is named with its key
        ("init_times", ["2025-13-01T00:00:00Z"],
         "init_times: bad timestamp '2025-13-01T00:00:00Z': month must be "
         "in 1..12"),
        ("init_times", ["2025-07-01T00:00:00Z", "2025-07-01T24:00:00Z"],
         "init_times: bad timestamp '2025-07-01T24:00:00Z': hour must be "
         "in 0..23")])
    def test_times_beyond_the_calendar_are_named(self, tmp_path, key, value,
                                                 message):
        doc = {"variables": ["t2m"], "init_times": [fileio.format_time(T0)],
               "max_lead_hours": 6, "truth_pattern": "t/{variable}.rbs",
               "models": {"m": "m/{variable}.rbs"},
               "climatology": {"history_pattern": "t/{variable}.rbs",
                               "history_years": [T0.year]}}
        if key == "init_times":
            doc["init_times"] = value
        else:
            doc["climatology"][key] = value
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ManifestError) as err:
            fileio.load_manifest(path, require=())
        assert str(err.value) == f"{path}: {message}"

    def test_times_at_the_calendar_edges_load(self, tmp_path):
        doc = {"variables": ["t2m"], "max_lead_hours": 6,
               "init_times": ["0001-01-01T00:00:00Z", "9999-12-31T12:00:00Z"],
               "truth_pattern": "t/{variable}.rbs",
               "models": {"m": "m/{variable}.rbs"},
               "climatology": {"history_pattern": "t/{variable}.rbs",
                               "history_years": [1, 9998]}}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        manifest = fileio.load_manifest(path, require=())
        assert manifest.valid_times[-1].year == 9999
        assert [climatology.year_times(year)[-1].year
                for year in manifest.history_years] == [1, 9998]

    def test_directory_as_manifest(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.mkdir()
        with pytest.raises(ManifestError, match="cannot read manifest") as err:
            fileio.load_manifest(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("raw, message", [
        (None, "manifest not found: {path}"),
        (b"\xff{}", "unparseable manifest {path}: 'utf-8' codec can't decode "
                    "byte 0xff in position 0: invalid start byte"),
        (b"{not json", "unparseable manifest {path}: Expecting property name "
                       "enclosed in double quotes: line 1 column 2 (char 1)"),
    ], ids=["missing", "not-utf8", "not-json"])
    def test_unreadable_manifest_is_named(self, tmp_path, raw, message):
        path = tmp_path / "manifest.json"
        if raw is not None:
            path.write_bytes(raw)
        with pytest.raises(ManifestError) as err:
            fileio.load_manifest(path)
        assert str(err.value) == message.format(path=path)

    def test_malformed_manifest(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{not json")
        with pytest.raises(ManifestError):
            fileio.load_manifest(path)
        path.write_text(json.dumps({"variables": ["t2m"]}))
        with pytest.raises(ManifestError):
            fileio.load_manifest(path)


def write_raw_grid(path, values, geometry, valid_time=T0, variable="t2m"):
    """Payload + sidecar in any orientation the format allows."""
    n_lat, n_lon, lat_start, lat_step, lon_start, lon_step = geometry
    blob = np.ascontiguousarray(values, dtype="<f4").tobytes()
    header = {"magic": fileio.GRID_MAGIC, "variable": variable, "unit": "K",
              "valid_time": fileio.format_time(valid_time), "lead_hours": 0,
              "n_lat": n_lat, "n_lon": n_lon, "lat_start": lat_start,
              "lat_step": lat_step, "lon_start": lon_start,
              "lon_step": lon_step, "dtype": "f32le",
              "checksum": zlib.crc32(blob)}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(blob)
    path.with_name(path.name + ".json").write_text(json.dumps(header))
    return path


def grid_manifest(root, variables=("t2m",)):
    """A manifest whose truth files are ``g/{variable}_{time}.rbg``, with
    climatologies ``clim/{variable}.rbc`` and thresholds ``clim/t.rbt``."""
    doc = {"variables": list(variables),
           "init_times": [fileio.format_time(T0)], "max_lead_hours": 0,
           "truth_pattern": "g/{variable}_{time}.rbg",
           "models": {"m": "m/{variable}_{init}_{lead:03d}.rbg"},
           "climatology": {"daily_mean_pattern": "clim/{variable}.rbc",
                           "thresholds_path": "clim/t.rbt"}}
    path = root / "manifest.json"
    path.write_text(json.dumps(doc))
    return fileio.load_manifest(path, require=())


def twins(geometry):
    """Other headers close to ``geometry``: the same rows stored in the
    opposite order, and the latitude start with its zero sign flipped."""
    n_lat, n_lon, lat_start, lat_step, lon_start, lon_step = geometry
    out = [(n_lat, n_lon, lat_start + lat_step * (n_lat - 1), -lat_step,
            lon_start, lon_step)]
    if lat_start == 0.0:
        out.append((n_lat, n_lon, -lat_start, lat_step, lon_start, lon_step))
    return out


def geometry_key(geometry):
    n_lat, n_lon, *floats = geometry
    return (n_lat, n_lon, *(float(x).hex() for x in floats))


def outcome(call):
    """(result, None), or (None, the typed error) when ``call`` raises one."""
    try:
        return call(), None
    except WxVerifyError as exc:
        return None, exc


@st.composite
def uniform_geometries(draw):
    """Uniform sidecar geometries: either row order, wrapping or not,
    negative longitude starts, and latitude starts of +-0.0."""
    n_lat = draw(st.integers(1, 5))
    lat_step = draw(st.sampled_from([0.5, 2.5, 12.0, 22.5]))
    span = lat_step * (n_lat - 1)
    south_first = draw(st.booleans())
    lo, hi = (-90.0, 90.0 - span) if south_first else (-90.0 + span, 90.0)
    lat_start = draw(st.sampled_from([0.0, -0.0]) | st.floats(lo, hi))
    if not lo <= lat_start <= hi:
        lat_start = hi
    if draw(st.booleans()):  # wrapping
        n_lon = draw(st.sampled_from([1, 2, 3, 4, 6, 8, 12]))
        lon_step = 360.0 / n_lon
    else:
        n_lon = draw(st.integers(1, 6))
        lon_step = draw(st.sampled_from([0.5, 5.0, 22.5, 50.0]))
    lon_start = draw(st.sampled_from([0.0, -0.0, -180.0, -45.0, 350.0])
                     | st.floats(-360.0, 359.0))
    return (n_lat, n_lon, lat_start, lat_step if south_first else -lat_step,
            lon_start, lon_step)


class TestFieldSource:
    @given(drawn=st.lists(uniform_geometries(), min_size=1, max_size=3),
           order=st.lists(st.integers(0, 8), min_size=1, max_size=12),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_cached_reads_match_fresh_reads(self, tmp_path_factory,
                                            drawn, order, seed):
        # a fresh read builds its grid with the uncached builder
        geometries = drawn + [t for g in drawn for t in twins(g)]
        root = tmp_path_factory.mktemp("geo")
        rng = np.random.default_rng(seed)
        source = fileio.FieldSource(grid_manifest(root))
        shared = {}  # geometry key -> first grid object read for it
        for k, g in enumerate(order):
            geometry = geometries[g % len(geometries)]
            when = T0 + k * SIX_HOURS
            path = write_raw_grid(
                source.manifest.truth_path(VariableId.T2M, when),
                rng.standard_normal(geometry[:2]), geometry, when)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(fileio, "_oriented_grid",
                              fileio._oriented_grid.__wrapped__)
                fresh, fresh_err = outcome(lambda: read_store(path))
            cached, cached_err = outcome(
                lambda: source.truth_block(VariableId.T2M, [when]))
            if fresh_err is not None:
                assert type(cached_err) is type(fresh_err)
                assert str(cached_err) == str(fresh_err)
                continue
            assert cached_err is None
            assert cached.grid is not fresh.grid
            assert cached.grid == fresh.grid
            assert cached.values.tobytes() == fresh.values.tobytes()
            assert (cached.variable, cached.valid_times, cached.lead_hours) == \
                (fresh.variable, fresh.valid_times, fresh.lead_hours)
            first = shared.setdefault(geometry_key(geometry), cached.grid)
            assert first is cached.grid
            assert not any(grid is cached.grid
                           for key, grid in shared.items()
                           if key != geometry_key(geometry))
            writes = []
            for name, field in (("fresh", fresh), ("cached", cached)):
                out = root / "w" / f"{name}{k}.rbg"
                written, err = outcome(lambda: writers.write_grid(field, out))
                writes.append(
                    type(err) if err is not None else
                    (written.read_bytes(),
                     out.with_name(out.name + ".json").read_bytes()))
            assert writes[0] == writes[1]

    def test_bad_geometry_raises_on_every_read(self, tmp_path):
        bad = (3, 4, 95.0, -5.0, 0.0, 90.0)  # first row north of the pole
        good = (3, 4, 85.0, -5.0, 0.0, 90.0)
        write_raw_grid(tmp_path / "bad.rbg", np.zeros((3, 4)), bad)
        write_raw_grid(tmp_path / "good.rbg", np.zeros((3, 4)), good)
        grids = []
        for _ in range(3):
            with pytest.raises(InvalidHeader, match="bad.rbg"):
                read_store(tmp_path / "bad.rbg")
            grids.append(read_store(tmp_path / "good.rbg").grid)
        assert grids[0].n_lat == 3
        assert all(grid is grids[0] for grid in grids)

    @pytest.mark.parametrize("store", STORES.values(), ids=STORES.keys())
    def test_nan_payload_error_names_path(self, store, rng, tmp_path):
        source = fileio.FieldSource(grid_manifest(tmp_path))
        path = store.write(rng, make_grid(2, 4),
                           store.path_in(source.manifest))

        def poison(layers):
            layers[-1, 1, 2] = np.nan
            return layers
        rewrite_store(path, store.dtype, poison)
        for read in (lambda: store.read(path),
                     lambda: store.read_via(source)):
            with pytest.raises(NonFiniteValue) as err:
                read()
            assert str(path) in str(err.value)

    def test_stores_share_the_field_grid(self, rng, tmp_path):
        manifest = grid_manifest(tmp_path)
        grid = make_grid(3, 8)
        for store in STORES.values():
            store.write(rng, grid, store.path_in(manifest))
        for field_first in (True, False):
            source = fileio.FieldSource(manifest)
            if field_first:
                truth = source.truth_block(VariableId.T2M, [T0])
            clim = source.climatology(VariableId.T2M, CALENDAR_DAYS)
            _, threshold_grid, _ = source.thresholds(CALENDAR_DAYS)
            stack_layer = STORES["stack"].read_via(source)
            if not field_first:
                truth = source.truth_block(VariableId.T2M, [T0])
            assert clim.grid is truth.grid
            assert threshold_grid is truth.grid
            assert stack_layer.grid is truth.grid

    def test_thresholds_absent_are_an_input_error(self, tmp_path):
        # a read never builds or skips the thresholds: a file not built,
        # or no thresholds path, is ManifestError naming what to do
        source = fileio.FieldSource(grid_manifest(tmp_path))
        with pytest.raises(ManifestError) as err:
            source.thresholds(CALENDAR_DAYS)
        assert str(err.value) == (
            f"thresholds file {tmp_path / 'clim/t.rbt'} has not been built; "
            f"run `wxverify build-climatology --manifest "
            f"{tmp_path / 'manifest.json'}` first")
        doc = json.loads((tmp_path / "manifest.json").read_text())
        del doc["climatology"]["thresholds_path"]
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        source = fileio.FieldSource(fileio.load_manifest(
            tmp_path / "manifest.json", require=()))
        with pytest.raises(ManifestError, match="declares no climatology "
                                                "thresholds_path"):
            source.thresholds(CALENDAR_DAYS)

    def test_resolves_manifest_paths_and_derives_wind(self, rng, tmp_path):
        manifest = grid_manifest(tmp_path, ("u10", "v10", "ws10"))
        grid = make_grid(3, 4)
        for variable in (VariableId.U10, VariableId.V10):
            field = f32_field(rng, grid, variable=variable)
            writers.write_grid(field, manifest.truth_path(variable, T0))
            writers.write_grid(field,
                               manifest.model_path("m", T0, variable, 0))
        source = fileio.FieldSource(manifest)
        for read in (lambda v: source.truth_block(v, [T0]),
                     lambda v: source.model_block("m", T0, v, [0])):
            u, v, ws = (read(var) for var in (VariableId.U10, VariableId.V10,
                                              VariableId.WS10))
            assert ws.variable is VariableId.WS10
            assert np.array_equal(ws.values, np.hypot(u.values, v.values,
                                                      dtype=np.float64))
            assert u.grid is v.grid is ws.grid


def write_raw_stack(path, layers, geometry, first_time=T0, variable="t2m",
                    lead_step=0):
    """An RBSTACK1 store of layers, in any orientation the format allows:
    truth, or with ``lead_step`` 6 a forecast from ``first_time``."""
    n_lat, n_lon, lat_start, lat_step, lon_start, lon_step = geometry
    blobs = [np.ascontiguousarray(v, dtype="<f4").tobytes() for v in layers]
    header = {"magic": fileio.STACK_MAGIC, "variable": variable, "unit": "K",
              "valid_time": fileio.format_time(first_time),
              "time_step_hours": 6, "lead_hours": 0,
              "lead_step_hours": lead_step,
              "n_layers": len(blobs),
              "checksums": [zlib.crc32(b) for b in blobs],
              "n_lat": n_lat, "n_lon": n_lon, "lat_start": lat_start,
              "lat_step": lat_step, "lon_start": lon_start,
              "lon_step": lon_step, "dtype": "f32le"}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"".join(blobs))
    path.with_name(path.name + ".json").write_text(json.dumps(header))
    return path


def stack_manifest(root, max_lead=12, history_years=(T0.year,)):
    """A manifest of stacks: truth ``s/{variable}/{year}.rbs``, models
    ``m/{init}/{variable}.rbs`` and ``one/{variable}.rbs`` (one stack for
    every init), and history in the truth stacks."""
    doc = {"variables": ["t2m"], "init_times": [fileio.format_time(T0)],
           "max_lead_hours": max_lead,
           "truth_pattern": "s/{variable}/{year}.rbs",
           "models": {"m": "m/{init}/{variable}.rbs",
                      "one-run": "one/{variable}.rbs"},
           "climatology": {"daily_mean_pattern": "clim/{variable}.rbc",
                           "history_pattern": "s/{variable}/{year}.rbs",
                           "history_years": list(history_years)}}
    path = root / "manifest.json"
    path.write_text(json.dumps(doc))
    return fileio.load_manifest(path, require=())


def times_from(first, n):
    return [first + k * SIX_HOURS for k in range(n)]


class TestStacks:
    @given(geometry=uniform_geometries(), n_layers=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_layer_k_equals_the_grid_read_of_its_field(
            self, tmp_path_factory, geometry, n_layers, seed):
        root = tmp_path_factory.mktemp("stack")
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((n_layers, *geometry[:2]))
        times = times_from(T0, n_layers)
        source = fileio.FieldSource(stack_manifest(root))
        stack = write_raw_stack(source.manifest.truth_path(VariableId.T2M, T0),
                                values, geometry)
        whole, whole_err = outcome(lambda: read_store(stack))
        for k, when in enumerate(times):
            path = write_raw_grid(root / f"g{k}.rbg", values[k], geometry, when)
            fresh, fresh_err = outcome(lambda: read_store(path))
            layer, layer_err = outcome(
                lambda: source.truth_block(VariableId.T2M, [when]))
            if fresh_err is not None:
                assert type(layer_err) is type(fresh_err)
                assert type(whole_err) is type(fresh_err)
                continue
            for got in (layer, layer_of(whole, k)):
                assert got.grid == fresh.grid
                assert got.values.tobytes() == fresh.values.tobytes()
                assert (got.variable, got.valid_times, got.lead_hours) == \
                    (fresh.variable, fresh.valid_times, fresh.lead_hours)
            assert layer.grid is read_store(path).grid
        if whole_err is None:
            # rewriting what was read gives the same fields back, or fails
            # as writing its first field alone does (a regional grid across
            # 0E is not uniform in the engine convention)
            written, err = outcome(lambda: writers.write_stack(
                (layer_of(whole, k) for k in range(n_layers)),
                root / "again.rbs"))
            _, grid_err = outcome(lambda: writers.write_grid(
                layer_of(whole, 0), root / "again.rbg"))
            assert type(err) is type(grid_err)
            if err is None:
                again = read_store(written)
                assert again.values.tobytes() == whole.values.tobytes()
                assert again.grid == whole.grid

    def test_canonical_serialization(self, rng, tmp_path):
        fields = [f32_field(rng, make_grid(3, 4), valid_time=when, lead_hours=6 * k)
                  for k, when in enumerate(times_from(T0, 3))]
        first = writers.write_stack(fields, tmp_path / "a.rbs")
        back = read_store(first)
        assert isinstance(back, FieldBlock)
        assert back.lead_hours == (0, 6, 12)
        second = writers.write_stack((layer_of(back, k) for k in range(3)),
                                    tmp_path / "b.rbs")
        assert first.read_bytes() == second.read_bytes()
        assert (tmp_path / "a.rbs.json").read_bytes() == \
            (tmp_path / "b.rbs.json").read_bytes()
        header = json.loads((tmp_path / "a.rbs.json").read_text())
        assert (header["n_layers"], header["lead_step_hours"],
                header["time_step_hours"]) == (3, 6, 6)

    def test_flipped_byte_fails_only_when_its_layer_is_read(self, rng,
                                                            tmp_path):
        manifest = stack_manifest(tmp_path)
        times = times_from(T0, 4)
        path = writers.write_stack(
            (f32_field(rng, make_grid(3, 4), valid_time=when)
             for when in times), manifest.truth_path(VariableId.T2M, T0))
        blob = path.read_bytes()
        layer_bytes = len(blob) // len(times)
        for k in range(len(times)):
            corrupt = bytearray(blob)
            corrupt[k * layer_bytes + 5] ^= 0xFF
            path.write_bytes(bytes(corrupt))
            source = fileio.FieldSource(manifest)
            for j, when in enumerate(times):
                if j != k:
                    source.truth_block(VariableId.T2M, [when])
                    continue
                with pytest.raises(ChecksumMismatch) as err:
                    source.truth_block(VariableId.T2M, [when])
                assert str(err.value) == f"{path}: CRC-32 mismatch in layer {k}"
            with pytest.raises(ChecksumMismatch, match=f"in layer {k}"):
                read_store(path)  # a whole read checks every layer

    def test_time_outside_or_lead_off_the_stack_names_path_and_time(
            self, rng, tmp_path):
        manifest = stack_manifest(tmp_path)
        grid = make_grid(3, 4)
        writers.write_stack((f32_field(rng, grid, valid_time=when)
                            for when in times_from(T0, 3)),
                           manifest.truth_path(VariableId.T2M, T0))
        forecast = [f32_field(rng, grid, valid_time=when, lead_hours=6 * k)
                    for k, when in enumerate(times_from(T0, 2))]
        model = writers.write_stack(
            forecast, manifest.model_path("m", T0, VariableId.T2M, 0))
        writers.write_stack(
            forecast, manifest.model_path("one-run", T0, VariableId.T2M, 0))
        source = fileio.FieldSource(manifest)
        path = manifest.truth_path(VariableId.T2M, T0)
        for when in (T0 - SIX_HOURS, T0 + 3 * SIX_HOURS,
                     T0 + timedelta(hours=1)):
            with pytest.raises(ManifestError) as err:
                source.truth_block(VariableId.T2M, [when])
            assert str(err.value).startswith(
                f"{path} holds no layer valid at {fileio.format_time(when)}")
        assert source.model_block("m", T0, VariableId.T2M,
                                  [6]).lead_hours == (6,)
        with pytest.raises(ManifestError, match=f"{model} holds no layer"):
            source.model_block("m", T0, VariableId.T2M, [12])
        # a later init resolves to the same store, whose layer valid at
        # T0 + 6 h has lead 6, not 0
        with pytest.raises(ManifestError, match="has lead 6 h, not 0 h"):
            source.model_block("one-run", T0 + SIX_HOURS,
                               VariableId.T2M, [0])

    @pytest.mark.parametrize("layout, leads", [
        ("stack", {"lead_step_hours": 3}), ("stack", {"lead_step_hours": -6}),
        ("stack", {"lead_hours": -6, "lead_step_hours": 6}),
        ("grid", {"lead_hours": 3}), ("grid", {"lead_hours": -6})])
    def test_leads_off_the_6_hour_grid_are_invalid_headers(
            self, layout, leads, rng, tmp_path):
        manifest = stack_manifest(tmp_path) if layout == "stack" \
            else grid_manifest(tmp_path)
        values = rng.standard_normal((3, 3, 4))
        geometry = (3, 4, 60.0, -60.0, 0.0, 90.0)
        if layout == "stack":
            path = write_raw_stack(manifest.truth_path(VariableId.T2M, T0),
                                   values, geometry)
        else:
            path = write_raw_grid(manifest.truth_path(VariableId.T2M, T0),
                                  values[0], geometry)
        rewrite_store(path, "<f4", lambda layers: layers, **leads)
        source = fileio.FieldSource(manifest)
        n_times = 3 if layout == "stack" else 1
        for attempt in (lambda: read_store(path),
                        lambda: source.truth_block(VariableId.T2M,
                                                   times_from(T0, n_times))):
            with pytest.raises(InvalidHeader, match="leads must be "
                               "non-negative multiples of 6 h") as err:
                attempt()
            assert str(err.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("fault", ["time-gap", "other-grid", "lead-step",
                                       "derived"])
    def test_writer_rejects_a_broken_series_and_leaves_no_file(
            self, fault, rng, tmp_path):
        grid = make_grid(3, 4)
        fields = [f32_field(rng, grid, valid_time=when)
                  for when in times_from(T0, 3)]
        if fault == "time-gap":
            fields[2] = stamped(fields[2], T0 + timedelta(hours=18), 0)
        elif fault == "other-grid":
            fields[2] = f32_field(rng, make_grid(3, 4, lat_top=50.0),
                                  valid_time=fields[2].valid_times[0])
        elif fault == "lead-step":
            fields[1] = stamped(fields[1], fields[1].valid_times[0], 6)
        else:
            fields[0] = make_field(grid, np.ones(grid.shape), VariableId.WS10)
        path = tmp_path / "s.rbs"
        with pytest.raises(WxVerifyError):
            writers.write_stack(fields, path)
        assert list(tmp_path.iterdir()) == []

    def test_chunks_write_what_their_fields_write(self, rng, tmp_path):
        fields = [f32_field(rng, make_grid(3, 4), valid_time=when,
                            lead_hours=6 * k)
                  for k, when in enumerate(times_from(T0, 7))]
        by_field = writers.write_stack(fields, tmp_path / "a.rbs")
        chunked = writers.write_stack(
            [field_block(*fields[:3]), fields[3], field_block(*fields[4:])],
            tmp_path / "b.rbs")
        assert by_field.read_bytes() == chunked.read_bytes()
        assert (tmp_path / "a.rbs.json").read_bytes() == \
            (tmp_path / "b.rbs.json").read_bytes()

    @pytest.mark.parametrize("layer", [2, 3])  # inside a chunk, at its start
    @pytest.mark.parametrize("fault", ["time-gap", "lead-step", "other-grid"])
    def test_break_in_a_chunk_names_the_layer_and_leaves_no_file(
            self, fault, layer, rng, tmp_path):
        grid = make_grid(3, 4)
        fields = [f32_field(rng, grid, valid_time=when, lead_hours=6 * k)
                  for k, when in enumerate(times_from(T0, 6))]
        if fault == "time-gap":
            fields[layer] = stamped(
                fields[layer], fields[layer].valid_times[0] + SIX_HOURS,
                6 * layer)
        elif fault == "lead-step":
            fields[layer] = stamped(fields[layer],
                                    fields[layer].valid_times[0], 0)
        else:
            fields[layer] = f32_field(
                rng, make_grid(3, 4, lat_top=50.0),
                valid_time=fields[layer].valid_times[0], lead_hours=6 * layer)
        chunks = [field_block(*fields[:3]), field_block(*fields[3:])]
        if fault == "other-grid":  # a chunk is on one grid
            chunks = [field_block(*fields[:layer]), field_block(*fields[layer:])]
        with pytest.raises(WxVerifyError,
                           match=f"does not continue the stack as layer "
                                 f"{layer}$"):
            writers.write_stack(iter(chunks), tmp_path / "s.rbs")
        assert list(tmp_path.iterdir()) == []

    def test_a_stream_of_chunks_holds_one_chunk_at_a_time(self, tmp_path):
        # each float64 chunk and its float32 copy are released before the
        # next chunk is made: 1.5 chunks at the peak, not 2.5
        grid, k, n_chunks = make_grid(40, 60), 32, 8

        def chunks():
            for c in range(n_chunks):
                times = times_from(T0 + c * k * SIX_HOURS, k)
                yield FieldBlock(grid, VariableId.T2M, tuple(times), (0,) * k,
                                 np.full((k, *grid.shape), 280.0 + c))
        chunk_bytes = k * grid.n_lat * grid.n_lon * 8
        tracemalloc.start()
        try:
            path = writers.write_stack(chunks(), tmp_path / "s.rbs")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * chunk_bytes
        assert path.stat().st_size == n_chunks * chunk_bytes // 2

    def test_history_year_formats_one_path(self, rng, tmp_path, monkeypatch):
        manifest = stack_manifest(tmp_path)
        times = fileio.year_times(T0.year)
        writers.write_stack(
            [field_block(*[f32_field(rng, make_grid(2, 3), valid_time=when)
                           for when in times])],
            manifest.history_path(VariableId.T2M, T0))
        writers.write_stack(
            [f32_field(rng, make_grid(2, 3), valid_time=when, lead_hours=6 * k)
             for k, when in enumerate(times_from(T0, 3))],
            manifest.model_path("m", T0, VariableId.T2M, 0))
        formatted = []
        real_fmt = fileio.RunManifest._fmt
        monkeypatch.setattr(fileio.RunManifest, "_fmt",
                            lambda self, key, pattern, keys: formatted.append(
                                key) or real_fmt(self, key, pattern, keys))
        monkeypatch.setattr(metrics, "CHUNK_BYTES", 1)  # a block a day
        # a manifest loaded afresh has formatted no path yet
        source = fileio.FieldSource(fileio.load_manifest(manifest.path,
                                                         require=()))
        assert source.history_days(VariableId.T2M) == 1
        for day in range(DAYS_PER_YEAR):
            source.history(VariableId.T2M, T0.year, range(day, day + 1))
        assert formatted == ["climatology.history_pattern"]
        formatted.clear()
        source.model_block("m", T0, VariableId.T2M, [0, 6, 12])
        assert formatted == ["models.m"]

    @pytest.mark.parametrize("year", [2024, 2025])
    @pytest.mark.parametrize("days", [1, 10, 366])  # days a block may hold
    def test_history_year_is_read_once_in_whole_days(
            self, rng, tmp_path, store_reads, monkeypatch, year, days):
        manifest = stack_manifest(tmp_path, history_years=[year])
        grid = make_grid(2, 3)
        times = fileio.year_times(year)
        path = writers.write_stack((f32_field(rng, grid, valid_time=when)
                                   for when in times),
                                  manifest.history_path(VariableId.T2M,
                                                        times[0]))
        # a budget of ``days`` days of float32 layers, and a few bytes more
        monkeypatch.setattr(metrics, "CHUNK_BYTES", days * 4 * 4 * 6 + 7)
        source = fileio.FieldSource(manifest)
        assert source.history_days(VariableId.T2M) == days
        blocks = [source.history(VariableId.T2M, year,
                                 range(first, min(first + days,
                                                  DAYS_PER_YEAR)))
                  for first in range(0, DAYS_PER_YEAR, days)]
        assert all(isinstance(block, FieldBlock) for block in blocks)
        assert {read[0] for read in store_reads} == {path}
        # in a leap year, the block of Feb 28 holds Feb 29 too
        assert_read_once_in_whole_days(store_reads, len(times), 4 * days
                                       + 4 * (len(times) > 1460))
        assert [block.valid_times for block in blocks] == \
            [tuple(times[start:start + count])
             for _, start, count in store_reads]
        assert [len(block.valid_times) for block in blocks] == \
            [4 * (min(first + days, DAYS_PER_YEAR) - first
                  + (len(times) > 1460 and first <= 58 < first + days))
             for first in range(0, DAYS_PER_YEAR, days)]
        # the stored float32 values, not widened
        assert all(block.values.dtype == np.float32 for block in blocks)
        assert blocks[-1].values[-1:].tobytes() == \
            fileio.FieldSource(manifest).truth_block(VariableId.T2M,
                                                     [times[-1]]).values.tobytes()

    def test_history_year_must_be_whole(self, rng, tmp_path):
        manifest = stack_manifest(tmp_path)
        writers.write_stack((f32_field(rng, make_grid(2, 3), valid_time=when)
                            for when in times_from(T0, 8)),
                           manifest.history_path(VariableId.T2M, T0))
        with pytest.raises(ManifestError, match="holds no layer valid at "
                                                "2025-01-01T00:00:00Z"):
            fileio.FieldSource(manifest).history(VariableId.T2M, T0.year,
                                                 range(DAYS_PER_YEAR))

    def test_sidecar_parsed_once_per_source(self, rng, tmp_path, monkeypatch):
        manifest = stack_manifest(tmp_path)
        times = times_from(T0, 5)
        writers.write_stack((f32_field(rng, make_grid(3, 4), valid_time=when)
                            for when in times),
                           manifest.truth_path(VariableId.T2M, T0))
        loads = []
        real_load = fileio._load_sidecar
        monkeypatch.setattr(fileio, "_load_sidecar", lambda path, *magics:
                            loads.append(path) or real_load(path, *magics))
        source = fileio.FieldSource(manifest)
        for _ in range(2):
            for when in times:
                source.truth_block(VariableId.T2M, [when])
        assert loads == [manifest.truth_path(VariableId.T2M, T0)]


class TestBlocks:
    @given(geometry=uniform_geometries(), n_layers=st.integers(1, 5),
           picked=st.sets(st.integers(0, 4), min_size=1),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_blocks_equal_field_reads_and_score_as_them(
            self, tmp_path_factory, geometry, n_layers, picked, seed):
        root = tmp_path_factory.mktemp("block")
        rng = np.random.default_rng(seed)
        source = fileio.FieldSource(stack_manifest(root))
        write_raw_stack(source.manifest.truth_path(VariableId.T2M, T0),
                        280.0 + rng.standard_normal((n_layers, *geometry[:2])),
                        geometry)
        write_raw_stack(source.manifest.model_path("m", T0, VariableId.T2M, 0),
                        280.0 + rng.standard_normal((n_layers, *geometry[:2])),
                        geometry, lead_step=6)
        ks = sorted(k for k in picked if k < n_layers) or [0]
        times = [T0 + k * SIX_HOURS for k in ks]
        truth, truth_err = outcome(
            lambda: source.truth_block(VariableId.T2M, times))
        pred, pred_err = outcome(lambda: source.model_block(
            "m", T0, VariableId.T2M, [6 * k for k in ks]))
        fields = [outcome(lambda: (source.truth_block(VariableId.T2M, [when]),
                                   source.model_block("m", T0, VariableId.T2M,
                                                      [6 * k])))
                  for k, when in zip(ks, times)]
        if fields[0][1] is not None:
            assert type(truth_err) is type(pred_err) is type(fields[0][1])
            return
        for block in (truth, pred):
            assert block.values.dtype == np.float32
            assert block.values.flags.c_contiguous
            assert block.valid_times == tuple(times)
        assert pred.lead_hours == tuple(6 * k for k in ks)
        grid = truth.grid
        clim = 280.0 + rng.standard_normal((len(ks), *grid.shape))
        w = latitude_weights(grid) if np.any(np.abs(grid.lat_deg) < 90.0) \
            else None
        scores = None if w is None else \
            metrics.block_scores(pred.values, truth.values,
                                 one_day_a_layer(clim), w)
        for i, ((tf, pf), _) in enumerate(fields):
            assert tf.values.tobytes() == truth.values[i].tobytes()
            assert pf.values.tobytes() == pred.values[i].tobytes()
            assert tf.grid is pf.grid is grid
            if scores is None:
                continue
            cf = make_field(grid, clim[i], valid_time=pf.valid_times[0])
            alone = layer_scores(pf, tf, cf, weights=w)
            p, t = (f.values[0].astype(np.float64) for f in (pf, tf))
            assert scores.wrmse[i] == alone.wrmse == \
                oracles.wrmse_field(p, t, w)
            assert scores.bias[i] == alone.bias == oracles.bias_field(p, t, w)
            assert scores.acc[i] == alone.acc == \
                oracles.acc_field(p, t, clim[i], w)
            assert scores.activity[i] == alone.activity == \
                oracles.activity_field(p, clim[i], w)

    def test_truth_span_across_a_year_reads_each_stack_once(
            self, rng, tmp_path, store_reads):
        manifest = stack_manifest(tmp_path)
        grid = make_grid(3, 4)
        new_year = T0.replace(year=T0.year + 1, month=1, day=1)
        old = times_from(new_year - 3 * SIX_HOURS, 3)
        new = times_from(new_year, 4)
        for times in (old, new):
            writers.write_stack((f32_field(rng, grid, valid_time=when)
                                for when in times),
                               manifest.truth_path(VariableId.T2M, times[0]))
        source = fileio.FieldSource(manifest)
        wanted = old[1:] + new[:3]
        block = source.truth_block(VariableId.T2M, wanted)
        assert store_reads == [
            (manifest.truth_path(VariableId.T2M, old[0]), 1, 2),
            (manifest.truth_path(VariableId.T2M, new[0]), 0, 3)]
        assert block.values.dtype == np.float32
        assert block.values.flags.c_contiguous
        assert block.valid_times == tuple(wanted)
        for i, when in enumerate(wanted):
            assert block.values[i].tobytes() == \
                source.truth_block(VariableId.T2M, [when]).values.tobytes()

    def test_lead_subset_is_one_read_of_its_span(self, rng, tmp_path,
                                                 store_reads):
        manifest = stack_manifest(tmp_path, max_lead=30)
        fields = [f32_field(rng, make_grid(3, 4), valid_time=when,
                            lead_hours=6 * k)
                  for k, when in enumerate(times_from(T0, 6))]
        path = writers.write_stack(
            fields, manifest.model_path("m", T0, VariableId.T2M, 0))
        source = fileio.FieldSource(manifest)
        block = source.model_block("m", T0, VariableId.T2M, [6, 18, 24])
        assert store_reads == [(path, 1, 4)]
        assert block.lead_hours == (6, 18, 24)
        assert block.values.dtype == np.float32
        assert block.values.flags.c_contiguous
        for i, k in enumerate((1, 3, 4)):
            assert block.values[i].astype(np.float64).tobytes() == \
                fields[k].values.tobytes()

    def test_non_finite_layer_fails_only_when_it_is_asked_for(self, rng,
                                                              tmp_path):
        manifest = stack_manifest(tmp_path)
        values = rng.standard_normal((4, 3, 4))
        values[2, 1, 1] = np.inf
        path = write_raw_stack(manifest.truth_path(VariableId.T2M, T0), values,
                               (3, 4, 60.0, -60.0, 0.0, 90.0))
        source = fileio.FieldSource(manifest)
        times = times_from(T0, 4)
        source.truth_block(VariableId.T2M, [times[1], times[3]])
        with pytest.raises(NonFiniteValue,
                           match=f"{path}: payload contains NaN/Inf"):
            source.truth_block(VariableId.T2M, times[1:])

    def test_lead_off_the_stack_is_named(self, rng, tmp_path):
        manifest = stack_manifest(tmp_path)
        forecast = [f32_field(rng, make_grid(3, 4), valid_time=when,
                              lead_hours=6 * k)
                    for k, when in enumerate(times_from(T0, 3))]
        writers.write_stack(
            forecast, manifest.model_path("one-run", T0, VariableId.T2M, 0))
        source = fileio.FieldSource(manifest)
        with pytest.raises(ManifestError, match="has lead 6 h, not 0 h"):
            source.model_block("one-run", T0 + SIX_HOURS,
                               VariableId.T2M, [0, 6])

    @pytest.mark.parametrize("layout", ["stack", "grid"])
    def test_wind_block_is_hypot_of_its_components(self, layout, rng,
                                                   tmp_path):
        times = times_from(T0, 3)
        if layout == "stack":
            manifest = stack_manifest(tmp_path)
        else:
            manifest = grid_manifest(tmp_path)
        grid = make_grid(3, 4)
        for variable in (VariableId.U10, VariableId.V10):
            fields = [f32_field(rng, grid, variable=variable, valid_time=when)
                      for when in times]
            if layout == "stack":
                writers.write_stack(fields,
                                   manifest.truth_path(variable, times[0]))
            else:
                for field in fields:
                    writers.write_grid(field, manifest.truth_path(
                        variable, field.valid_times[0]))
        source = fileio.FieldSource(manifest)
        block = source.truth_block(VariableId.WS10, times)
        assert block.variable is VariableId.WS10
        assert block.values.flags.c_contiguous
        for i, when in enumerate(times):
            u, v, ws = (source.truth_block(variable, [when]) for variable in (
                VariableId.U10, VariableId.V10, VariableId.WS10))
            assert ws.variable is VariableId.WS10
            assert block.values[i].tobytes() == ws.values.tobytes() == \
                np.hypot(u.values, v.values, dtype=np.float64).tobytes()


class TestClimatologyByDay:
    @pytest.fixture
    def clim_path(self, rng, tmp_path):
        grid = make_grid(3, 4)
        day_mean = 280.0 + rng.standard_normal((DAYS_PER_YEAR, *grid.shape))
        return writers.write_daily_climatology(
            [DailyMeanClimatology(grid, VariableId.T2M, day_mean, (2020,))],
            tmp_path / "c.rbc")

    def test_sidecar_has_one_checksum_per_day(self, clim_path):
        header = json.loads(clim_path.with_name("c.rbc.json").read_text())
        assert "checksum" not in header
        assert header["n_layers"] == header["n_days"] == DAYS_PER_YEAR
        assert len(header["checksums"]) == DAYS_PER_YEAR

    @pytest.mark.parametrize("days, reads", [
        ((100, 103), [(100, 4)]),
        ((5,), [(5, 1)]),
        ((362, 364, 0, 2), [(362, 3), (0, 3)]),
        ((364, 0), [(364, 1), (0, 1)]),
    ])
    def test_reads_only_the_days_of_its_times(self, clim_path, days, reads,
                                              store_reads):
        times = [T0.replace(month=1, day=1) + timedelta(days=d, hours=6)
                 for d in days]
        part = day_source(clim_path).climatology(
            VariableId.T2M, map(climatology.calendar_day_index, times))
        assert store_reads == [(clim_path, start, n) for start, n in reads]
        whole = day_source(clim_path).climatology(VariableId.T2M,
                                                  CALENDAR_DAYS)
        assert part.first_day == reads[0][0]
        assert part.day_mean.shape[0] == sum(n for _, n in reads)
        assert part.layers(times).tobytes() == whole.layers(times).tobytes()
        for when in times:
            assert part.layers([when])[0].tobytes() == \
                whole.layers([when])[0].tobytes()
        with pytest.raises(ValueError, match="outside the"):
            part.layers([times[0] + timedelta(days=180)])

    def test_a_run_across_dec_31_holds_the_run_and_one_part(self, rng,
                                                            tmp_path):
        # days 355 to Dec 31, then days 0 to 9, of a 40 x 50 grid: the read
        # holds the run and one of its two parts of 10 days, not the two
        # parts and the run joined from them (40 days)
        path = write_climatology_store(rng, make_grid(40, 50),
                                       tmp_path / "c.rbc")
        day = 8 * 40 * 50
        days = [*range(355, 365), *range(10)]
        day_source(path).climatology(VariableId.T2M, days)  # imports, caches
        tracemalloc.start()
        try:
            clim = day_source(path).climatology(VariableId.T2M, days)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (clim.first_day, clim.day_mean.shape[0]) == (355, 20)
        assert 30 * day <= peak < 34 * day

    def test_flipped_byte_fails_only_when_its_day_is_read(self, clim_path):
        blob = bytearray(clim_path.read_bytes())
        day_bytes = len(blob) // DAYS_PER_YEAR
        blob[10 * day_bytes + 3] ^= 0xFF
        clim_path.write_bytes(bytes(blob))
        day_source(clim_path).climatology(VariableId.T2M, [20])
        with pytest.raises(ChecksumMismatch) as err:
            day_source(clim_path).climatology(VariableId.T2M, [10])
        assert str(err.value) == f"{clim_path}: CRC-32 mismatch in layer 10"

    def test_only_a_full_year_is_written(self, tmp_path):
        grid = make_grid(2, 3)
        part = DailyMeanClimatology(grid, VariableId.T2M,
                                    np.zeros((3, *grid.shape)), (2020,), 363)
        with pytest.raises(ValueError, match="all 365 days"):
            writers.write_daily_climatology([part], tmp_path / "c.rbc")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("parts", ["days", "gap", "short", "long",
                                       "variable", "grid", "years"])
    def test_a_year_of_parts_is_the_year_whole(self, rng, tmp_path, parts):
        # parts of days that follow on from day 0 write the bytes of the
        # year whole; parts that do not hold the year once, on one grid,
        # of one variable and years, raise and leave no file behind
        grid = make_grid(2, 3)
        day_mean = 280.0 + rng.standard_normal((DAYS_PER_YEAR, *grid.shape))
        whole = writers.write_daily_climatology(
            [DailyMeanClimatology(grid, VariableId.T2M, day_mean, (2020,))],
            tmp_path / "whole/c.rbc")
        edges = [0, 1, 59, 60, 200, DAYS_PER_YEAR]
        pieces = [(grid, VariableId.T2M, day_mean[a:b], (2020,), a)
                  for a, b in zip(edges, edges[1:])]
        if parts == "gap":
            del pieces[2]
        elif parts == "short":
            del pieces[-1]
        elif parts == "long":
            pieces.append(pieces[-1])
        elif parts == "variable":
            pieces[3] = (grid, VariableId.MSL, *pieces[3][2:])
        elif parts == "grid":
            pieces[3] = (make_grid(2, 3, lat_top=50.0), *pieces[3][1:])
        elif parts == "years":
            pieces[3] = (*pieces[3][:3], (2021,), pieces[3][4])
        got = tmp_path / "got/c.rbc"
        streamed = (DailyMeanClimatology(*piece) for piece in pieces)
        if parts != "days":
            with pytest.raises(ValueError, match="all 365 days"):
                writers.write_daily_climatology(streamed, got)
            assert list(got.parent.iterdir()) == []
            return
        writers.write_daily_climatology(streamed, got)
        for suffix in ("", ".json"):
            assert Path(f"{got}{suffix}").read_bytes() == \
                Path(f"{whole}{suffix}").read_bytes()


def lattice_history(rng, n_years: int, n_loc: int) -> DailyHistory:
    """Daily extremes on a 0.25 K lattice (pools hold ties), as float32
    as a build spills them."""
    shape = (n_years, DAYS_PER_YEAR, n_loc)
    dmax = np.round(4.0 * (288.0 + 5.0 * rng.standard_normal(shape))) / 4
    dmin = dmax - np.round(12.0 * np.abs(rng.standard_normal(shape))) / 4
    return DailyHistory(tuple(range(2001, 2001 + n_years)),
                        dmax.astype(np.float32), dmin.astype(np.float32))


def locations_a_chunk(monkeypatch, n_years: int, n: int):
    """Patch the threshold kernel to take ``n`` locations of a history of
    ``n_years`` float32 years a chunk."""
    k = max(thresholds._list_lengths(n_years * 15, 0.9, 0.1))
    monkeypatch.setattr(thresholds, "LIST_CHUNK_BYTES",
                        n * k * thresholds._window_days(7) * 4)
    assert threshold_chunk(n_years, 4) == n


class TestStreamedThresholds:
    """Thresholds written a chunk of locations at a time as the kernel
    computes them, with one CRC-32 per day layer, and read by the day."""

    @pytest.mark.parametrize("write_bytes", [4, 12, None],
                             ids=["a-location-a-write", "3-locations",
                                  "default"])
    @pytest.mark.parametrize("chunk", [1, 2, 7])
    def test_equal_the_kernel_in_memory(self, rng, tmp_path, monkeypatch,
                                        chunk, write_bytes):
        # 36 locations: 7-location chunks end in a partial one, and
        # groups of 3 locations split chunks of 2 and 7
        grid = make_grid(4, 9)
        history = lattice_history(rng, 3, 36)
        locations_a_chunk(monkeypatch, 3, chunk)
        if write_bytes is not None:
            monkeypatch.setattr(writers, "THRESHOLD_WRITE_BYTES", write_bytes)
        held = build_thresholds(history)
        path = writers.write_thresholds(ThresholdBuild(history), grid,
                                       tmp_path / "t.rbt")
        layers = np.concatenate([held.tau_heat, held.tau_cold]).astype("<f4")
        assert path.read_bytes() == layers.tobytes()
        header = json.loads(path.with_name("t.rbt.json").read_text())
        assert "checksum" not in header
        assert header["n_layers"] == 2 * DAYS_PER_YEAR
        assert header["checksums"] == [zlib.crc32(layer.tobytes())
                                       for layer in layers]
        whole = writers.write_thresholds(as_build(held), grid,
                                        tmp_path / "whole.rbt")
        assert whole.with_name("whole.rbt.json").read_bytes() == \
            path.with_name("t.rbt.json").read_bytes()
        back, back_grid, _ = day_source(path).thresholds(CALENDAR_DAYS)
        assert back_grid == grid and back.first_day == 0
        assert back.tau_heat.tobytes() == layers[:DAYS_PER_YEAR].tobytes()
        assert back.tau_cold.tobytes() == layers[DAYS_PER_YEAR:].tobytes()

    def test_a_write_holds_a_group_of_locations(self, rng, tmp_path,
                                                monkeypatch):
        # 2,592 locations, 10 a kernel chunk, 256 a group: the write holds
        # the group (0.75 MB) and a chunk's workspace, never a float32
        # (365, 2592) array of thresholds (3.8 MB)
        grid = make_grid(36, 72)
        history = lattice_history(rng, 2, 2592)
        locations_a_chunk(monkeypatch, 2, 10)
        monkeypatch.setattr(writers, "THRESHOLD_WRITE_BYTES", 1024)
        group = 2 * DAYS_PER_YEAR * 256 * 4
        one_array = DAYS_PER_YEAR * 2592 * 4
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            path = writers.write_thresholds(ThresholdBuild(history), grid,
                                           tmp_path / "t.rbt")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert group + 2**20 < one_array
        assert peak - before < group + 2**20
        assert path.stat().st_size == 2 * one_array

    def test_a_failed_build_leaves_no_file(self, rng, tmp_path, monkeypatch):
        # a pool too small is found after the last chunk, when every other
        # chunk has been written to the temporary payload
        history = lattice_history(rng, 2, 12)
        daily_max = history.daily_max.copy()
        daily_max[:, 30:51, 11] = np.nan
        locations_a_chunk(monkeypatch, 2, 5)
        with pytest.raises(InsufficientHistory, match="location 11"):
            writers.write_thresholds(
                ThresholdBuild(DailyHistory(history.years, daily_max,
                                            history.daily_min)),
                make_grid(3, 4), tmp_path / "t.rbt")
        assert list(tmp_path.iterdir()) == []

    @pytest.fixture
    def threshold_path(self, rng, tmp_path):
        return write_threshold_store(rng, make_grid(3, 4), tmp_path / "t.rbt")

    @pytest.mark.parametrize("days, reads", [
        ((100, 103), [(100, 4), (465, 4)]),
        ((5,), [(5, 1), (370, 1)]),
        ((362, 364, 0, 2), [(362, 3), (0, 3), (727, 3), (365, 3)]),
    ])
    def test_reads_only_the_days_asked_for(self, threshold_path, days, reads,
                                           store_reads):
        part, _, _ = day_source(threshold_path).thresholds(days)
        assert store_reads == [(threshold_path, start, n)
                               for start, n in reads]
        whole, _, _ = day_source(threshold_path).thresholds(CALENDAR_DAYS)
        assert part.first_day == reads[0][0]
        assert part.tau_heat.shape == (sum(n for _, n in reads) // 2, 12)
        rows = part.rows(days)
        assert part.tau_heat[rows].tobytes() == \
            whole.tau_heat[list(days)].tobytes()
        assert part.tau_cold[rows].tobytes() == \
            whole.tau_cold[list(days)].tobytes()
        with pytest.raises(ValueError, match="outside the"):
            part.rows([(days[0] + 180) % DAYS_PER_YEAR])

    @pytest.mark.parametrize("layer, inside", [
        (101, True), (DAYS_PER_YEAR + 103, True), (99, False),
        (DAYS_PER_YEAR + 104, False)])
    def test_each_day_read_is_checked(self, threshold_path, layer, inside):
        # a flipped byte, and NaN under a matching CRC-32, fail a read of
        # days 100 .. 103 only in a layer of those days
        blob = bytearray(threshold_path.read_bytes())
        layer_bytes = len(blob) // (2 * DAYS_PER_YEAR)
        blob[layer * layer_bytes + 5] ^= 0xFF
        threshold_path.write_bytes(bytes(blob))
        days = (100, 103)
        if not inside:
            day_source(threshold_path).thresholds(days)
            return
        with pytest.raises(ChecksumMismatch) as err:
            day_source(threshold_path).thresholds(days)
        assert str(err.value) == \
            f"{threshold_path}: CRC-32 mismatch in layer {layer}"

        def poison(layers):
            layers[layer, 1, 2] = np.nan
            return layers
        rewrite_store(threshold_path, "<f4", poison)
        with pytest.raises(NonFiniteValue, match=str(threshold_path)):
            day_source(threshold_path).thresholds(days)

class TestSpilledHistory:
    """The daily extremes of a history, spilled to an anonymous scratch
    file a block of calendar rows at a time and read back a chunk of
    locations at a time."""

    @given(n_years=st.integers(2, 12), n_loc=st.integers(1, 400),
           dtype=st.sampled_from([np.float32, np.float64]),
           cuts=st.sets(st.integers(1, DAYS_PER_YEAR - 1), max_size=4),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_reads_back_what_was_written(self, n_years, n_loc, dtype, cuts,
                                         seed):
        # any split into blocks of rows: the chunks of the file, in order,
        # hold the extremes of a DailyHistory, and give the same thresholds
        rng = np.random.default_rng(seed)
        years = tuple(range(2001, 2001 + n_years))
        dmax = (288.0 + 5.0 * rng.standard_normal(
            (n_years, DAYS_PER_YEAR, n_loc))).astype(dtype)
        dmin = dmax - np.abs(rng.standard_normal(dmax.shape)).astype(dtype)
        history = DailyHistory(years, dmax, dmin)
        edges = [0, *sorted(cuts), DAYS_PER_YEAR]
        with tempfile.TemporaryDirectory() as scratch, \
                writers.SpilledHistory(scratch, years) as spill:
            for a, b in zip(edges, edges[1:]):
                for y in range(n_years):
                    spill.write(y, slice(a, b), dmax[y, a:b], dmin[y, a:b])
            assert list(Path(scratch).iterdir()) == []  # it has no name
            assert spill.n_locations == n_loc and spill.dtype == dtype
            read = [np.empty_like(dmax), np.empty_like(dmin)]
            at = 0
            for first, *extremes in spill.chunks():
                assert first == at
                at += extremes[0].shape[-1]
                for into, got in zip(read, extremes):
                    assert got.dtype == dtype
                    into[..., first:at] = got
            assert at == n_loc
            for got, want in zip(read, (dmax, dmin)):
                assert got.tobytes() == want.tobytes()
            spilled, held = build_thresholds(spill), build_thresholds(history)
        assert spilled.tau_heat.tobytes() == held.tau_heat.tobytes()
        assert spilled.tau_cold.tobytes() == held.tau_cold.tobytes()

    @pytest.mark.parametrize("days", [365, 5, 1])  # days a write holds
    def test_a_chunk_of_locations_is_one_read(self, tmp_path, monkeypatch,
                                              days):
        # the coarse grid: a year a write, one kernel chunk of locations
        # a chunk of the file, the last one partial; a few days a write,
        # as many kernel chunks a chunk of the file as make each write at
        # least io.DEFAULT_BUFFER_SIZE bytes. Read a kernel chunk at a
        # time, as build_thresholds reads it, each chunk of the file is
        # one read
        n_loc = 2592
        dmax = np.arange(DAYS_PER_YEAR * n_loc, dtype=np.float32).reshape(
            DAYS_PER_YEAR, n_loc)
        kernel = threshold_chunk(2, 4)
        with writers.SpilledHistory(tmp_path, (2023, 2024)) as spill:
            for first in range(0, DAYS_PER_YEAR, days):
                rows = slice(first, min(first + days, DAYS_PER_YEAR))
                for y in range(2):
                    spill.write(y, rows, dmax[rows] + y, dmax[rows] - y)
            reads = []
            real_readinto = spill._file.readinto
            monkeypatch.setattr(spill._file, "readinto", lambda buffer:
                                reads.append(buffer.nbytes)
                                or real_readinto(buffer))
            assert spill.step % kernel == 0
            assert min(days, 365) * 2 * spill.step * 4 \
                >= io.DEFAULT_BUFFER_SIZE
            assert spill.step == kernel or \
                min(days, 365) * 2 * (spill.step - kernel) * 4 \
                < io.DEFAULT_BUFFER_SIZE
            for start, daily_max, daily_min in spill.chunks():
                stop = start + daily_max.shape[-1]
                assert np.array_equal(daily_max[1], dmax[:, start:stop] + 1)
                assert np.array_equal(daily_min[1], dmax[:, start:stop] - 1)
        assert len(reads) == -(-n_loc // spill.step)
        assert list(tmp_path.iterdir()) == []

    @given(params=st.sampled_from([(0.9, 0.1, 3), (0.75, 0.25, 2),
                                   (0.9, 0.1, 1)]),
           days=st.sampled_from([365, 30]), n_loc=st.integers(40, 90),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_thresholds_do_not_depend_on_the_chunks(self, params, days,
                                                    n_loc, seed):
        # a q or half_window other than the defaults the file's chunks
        # are sized by: kernel chunks of 5 or 10 locations cut inside
        # chunks of the file of 4 or 36, and straddle no boundary of them.
        # The thresholds are those of the whole history at once, and of
        # sorting each pool, bit for bit
        q_heat, q_cold, half_window = params
        rng = np.random.default_rng(seed)
        years = (2023, 2024)
        dmax = np.round(4.0 * (288.0 + 5.0 * rng.standard_normal(
            (2, DAYS_PER_YEAR, n_loc)))).astype(np.float32) / 4
        dmin = dmax - np.round(8.0 * np.abs(rng.standard_normal(
            dmax.shape))).astype(np.float32) / 4
        history = DailyHistory(years, dmax, dmin)
        held = build_thresholds(history, q_heat, q_cold, half_window)
        with mock.patch.object(thresholds, "LIST_CHUNK_BYTES", 30000), \
                tempfile.TemporaryDirectory() as scratch, \
                writers.SpilledHistory(scratch, years) as spill:
            for first in range(0, DAYS_PER_YEAR, days):
                rows = slice(first, min(first + days, DAYS_PER_YEAR))
                for y in range(2):
                    spill.write(y, rows, dmax[y, rows], dmin[y, rows])
            kernel = thresholds.threshold_chunk(2, 4, q_heat, q_cold,
                                                 half_window)
            assert spill.step % kernel and spill.step < n_loc
            spilled = build_thresholds(spill, q_heat, q_cold, half_window)
        tau_heat, tau_cold = oracles.thresholds_per_day_sort(
            history, q_heat, q_cold, half_window)
        assert spilled.tau_heat.tobytes() == held.tau_heat.tobytes() \
            == tau_heat.tobytes()
        assert spilled.tau_cold.tobytes() == held.tau_cold.tobytes() \
            == tau_cold.tobytes()

    def test_a_directory_it_cannot_write_is_an_input_error(self, tmp_path):
        (tmp_path / "taken").write_text("a file where the directory goes")
        day = np.zeros((1, 3), np.float32)
        with writers.SpilledHistory(tmp_path / "taken", (2023, 2024)) as spill:
            with pytest.raises(WxVerifyError, match="taken: cannot spill"):
                spill.write(0, slice(0, 1), day, day)


@given(hours=st.sets(st.integers(0, 400)), max_layers=st.integers(1, 12))
def test_layer_runs_start_a_run_past_the_span_of_its_first(hours,
                                                          max_layers):
    # any hours, on the 6-hourly grid or not: the runs cut the hours in
    # order, each spans fewer than 6 * max_layers hours, and a run starts
    # only where the hour would not fit in the run before
    hours = sorted(hours)
    runs = fileio.layer_runs(hours, max_layers)
    assert [h for run in runs for h in run] == hours
    assert all(run[-1] - run[0] < 6 * max_layers for run in runs)
    assert all(b[0] - a[0] >= 6 * max_layers for a, b in zip(runs, runs[1:]))


@pytest.mark.parametrize("size", [0, 1, 2**20, 2**20 + 1, 3 * 2**20 - 5])
def test_file_sha256_is_the_digest_of_the_whole_file(tmp_path, size):
    # the built-in SHA-256 gives hashlib's digest of a file's bytes
    path = tmp_path / "f.bin"
    path.write_bytes(np.random.default_rng(size).bytes(size))
    assert fileio.sha256(path.read_bytes()).hexdigest() == \
        hashlib.sha256(path.read_bytes()).hexdigest()
