from __future__ import annotations

import itertools
import json
import sys
import threading
import tracemalloc
import zlib
from datetime import timedelta
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import T0, make_field, make_grid
from wxverify import fileio
from wxverify.climatology import (DAYS_PER_YEAR, DailyMeanClimatology,
                                  ThresholdField)
from wxverify.errors import (ChecksumMismatch, DuplicateObservation,
                             HeaderPayloadShapeMismatch, InvalidHeader,
                             ManifestError, NonFiniteValue, NonMonotoneTime,
                             NonUniformGrid, UnitOutOfRange, UnknownStation,
                             WxVerifyError)
from wxverify.grid import GeoGrid, VariableId


def f32_field(rng, grid, **kw):
    values = rng.standard_normal(grid.shape).astype(np.float32).astype(np.float64)
    return make_field(grid, values, **kw)


def write_grid_store(rng, grid, path):
    return fileio.write_grid(f32_field(rng, grid), path)


def write_threshold_store(rng, grid, path):
    heat = 280.0 + rng.standard_normal((DAYS_PER_YEAR, grid.n_lat * grid.n_lon))
    return fileio.write_thresholds(
        ThresholdField(heat, heat - 10.0, (2019, 2020), 7, 0.9, 0.1), grid, path)


#: Valid times of the stack store's layers.
STACK_TIMES = [T0 + k * timedelta(hours=6) for k in range(3)]


def write_stack_store(rng, grid, path):
    return fileio.write_stack(
        (f32_field(rng, grid, variable=VariableId.MSL, valid_time=when)
         for when in STACK_TIMES), path)


def write_climatology_store(rng, grid, path):
    day_mean = 280.0 + rng.standard_normal((DAYS_PER_YEAR, *grid.shape))
    return fileio.write_daily_climatology(
        DailyMeanClimatology(grid, VariableId.T2M, day_mean, (2020,)), path)


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
    "grid": Store(write_grid_store, fileio.read_grid, "<f4",
                  lambda m: m.truth_path(VariableId.T2M, T0),
                  lambda s: s.truth(VariableId.T2M, T0),
                  lambda f: (f.grid, [f.values])),
    "thresholds": Store(write_threshold_store, fileio.read_thresholds, "<f4",
                        lambda m: m.thresholds_file,
                        lambda s: s.thresholds(),
                        lambda r: (r[1], [r[0].tau_heat, r[0].tau_cold])),
    "climatology": Store(write_climatology_store, fileio.read_daily_climatology,
                         "<f8", lambda m: m.climatology_path(VariableId.T2M),
                         lambda s: s.climatologies()[VariableId.T2M],
                         lambda c: (c.grid, [c.day_mean])),
    "stack": Store(write_stack_store, fileio.read_stack, "<f4",
                   lambda m: m.truth_path(VariableId.MSL, STACK_TIMES[-1]),
                   lambda s: s.truth(VariableId.MSL, STACK_TIMES[-1]),
                   lambda fields: (fields[0].grid, [f.values for f in fields])),
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
        path = fileio.write_grid(field, tmp_path / "f.rbg")
        back = fileio.read_grid(path)
        assert back.grid == field.grid
        assert back.variable is field.variable
        assert back.valid_time == field.valid_time
        assert back.lead_hours == field.lead_hours
        assert np.array_equal(back.values, field.values)

    def test_canonical_serialization(self, rng, tmp_path):
        grid = make_grid(4, 8)
        field = f32_field(rng, grid)
        p1 = fileio.write_grid(field, tmp_path / "a.rbg")
        back = fileio.read_grid(p1)
        p2 = fileio.write_grid(back, tmp_path / "b.rbg")
        assert p1.read_bytes() == p2.read_bytes()
        assert (tmp_path / "a.rbg.json").read_bytes() == \
            (tmp_path / "b.rbg.json").read_bytes()

    def test_truncated_payload(self, rng, tmp_path):
        field = f32_field(rng, make_grid(4, 8))
        path = fileio.write_grid(field, tmp_path / "f.rbg")
        blob = path.read_bytes()
        path.write_bytes(blob[:-4])
        with pytest.raises(HeaderPayloadShapeMismatch):
            fileio.read_grid(path)

    def test_corrupt_byte_fails_checksum(self, rng, tmp_path):
        field = f32_field(rng, make_grid(4, 8))
        path = fileio.write_grid(field, tmp_path / "f.rbg")
        blob = bytearray(path.read_bytes())
        blob[7] ^= 0xFF
        path.write_bytes(bytes(blob))
        # independent CRC oracle confirms the corruption is visible
        header = json.loads((tmp_path / "f.rbg.json").read_text())
        assert zlib.crc32(bytes(blob)) != header["checksum"]
        with pytest.raises(ChecksumMismatch):
            fileio.read_grid(path)

    def test_nan_payload_rejected(self, rng, tmp_path):
        field = f32_field(rng, make_grid(2, 4))
        path = fileio.write_grid(field, tmp_path / "f.rbg")
        values = np.frombuffer(path.read_bytes(), dtype="<f4").copy()
        values[3] = np.nan
        blob = values.tobytes()
        header = json.loads((tmp_path / "f.rbg.json").read_text())
        header["checksum"] = zlib.crc32(blob)
        path.write_bytes(blob)
        (tmp_path / "f.rbg.json").write_text(json.dumps(header))
        with pytest.raises(NonFiniteValue):
            fileio.read_grid(path)

    def test_derived_variable_not_storable(self, rng, tmp_path):
        grid = make_grid(2, 4)
        ws = make_field(grid, np.ones(grid.shape), VariableId.WS10)
        with pytest.raises(WxVerifyError):
            fileio.write_grid(ws, tmp_path / "ws.rbg")

    def test_non_uniform_grid_rejected(self, rng, tmp_path):
        grid = GeoGrid(np.array([10.0, 5.0, -3.0]), np.array([0.0, 120.0, 240.0]))
        field = make_field(grid, np.zeros(grid.shape))
        with pytest.raises(NonUniformGrid):
            fileio.write_grid(field, tmp_path / "f.rbg")

    def test_south_to_north_file_normalized(self, rng, tmp_path):
        field = f32_field(rng, make_grid(4, 8))
        path = fileio.write_grid(field, tmp_path / "f.rbg")
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
        back = fileio.read_grid(path)
        assert back.grid == field.grid
        assert np.array_equal(back.values, field.values)

    def test_negative_longitudes_normalized(self, rng, tmp_path):
        field = f32_field(rng, make_grid(3, 8))
        path = fileio.write_grid(field, tmp_path / "f.rbg")
        header = json.loads((tmp_path / "f.rbg.json").read_text())
        # same circle expressed as [-180, 180): columns rolled by half
        values = np.frombuffer(path.read_bytes(), dtype="<f4").reshape(3, 8)
        rolled = np.roll(values, 4, axis=1)
        blob = np.ascontiguousarray(rolled).tobytes()
        header["lon_start"] = -180.0
        header["checksum"] = zlib.crc32(blob)
        path.write_bytes(blob)
        (tmp_path / "f.rbg.json").write_text(json.dumps(header))
        back = fileio.read_grid(path)
        assert back.grid == field.grid
        assert np.array_equal(back.values, field.values)

    def test_infinite_header_integer_is_invalid_header(self, rng, tmp_path):
        path = fileio.write_grid(f32_field(rng, make_grid(2, 4)),
                                 tmp_path / "f.rbg")
        sidecar = tmp_path / "f.rbg.json"
        sidecar.write_text(sidecar.read_text().replace(
            '"n_lat": 2', '"n_lat": Infinity'))
        with pytest.raises(InvalidHeader, match="n_lat"):
            fileio.read_grid(path)

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
        path = fileio.write_thresholds(tf, grid, tmp_path / "t.rbt")
        back, back_grid = fileio.read_thresholds(path)
        assert back_grid == grid
        assert back.years == (2019, 2020)
        assert back.half_window == 7
        np.testing.assert_array_equal(
            back.tau_heat, heat.astype(np.float32).astype(np.float64))

    def test_climatology_round_trip_is_lossless(self, rng, tmp_path):
        grid = make_grid(3, 4)
        day_mean = 280.0 + rng.standard_normal((DAYS_PER_YEAR, 3, 4))
        clim = DailyMeanClimatology(grid, VariableId.T2M, day_mean, (2020,))
        path = fileio.write_daily_climatology(clim, tmp_path / "c.rbc")
        back = fileio.read_daily_climatology(path)
        assert back.variable is VariableId.T2M
        assert np.array_equal(back.day_mean, day_mean)  # f64 payload

    def test_float64_store_read_without_a_copy(self, rng, tmp_path):
        grid = make_grid(40, 60)
        day_mean = 280.0 + rng.standard_normal((DAYS_PER_YEAR, *grid.shape))
        path = fileio.write_daily_climatology(
            DailyMeanClimatology(grid, VariableId.T2M, day_mean, (2020,)),
            tmp_path / "c.rbc")
        payload = path.stat().st_size
        tracemalloc.start()
        try:
            back = fileio.read_daily_climatology(path)
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
        tracks = fileio.read_besttrack(path)
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
            fileio.read_besttrack(path)

    def test_gap_in_cadence(self, tmp_path):
        bad = BESTTRACK.replace("2025-07-01T06:00:00Z", "2025-07-01T12:00:00Z")
        path = tmp_path / "bt.csv"
        path.write_text(bad)
        with pytest.raises(NonMonotoneTime):
            fileio.read_besttrack(path)

    def test_plausibility_band(self, tmp_path):
        deep = BESTTRACK.replace("985.0,35.0", "870.0,35.0")
        path = tmp_path / "bt.csv"
        path.write_text(deep)
        tracks = fileio.read_besttrack(path)  # 870 hPa accepted
        assert tracks[0].fixes[0].min_mslp_pa == 87000.0
        impossible = BESTTRACK.replace("985.0,35.0", "600.0,35.0")
        path.write_text(impossible)
        with pytest.raises(UnitOutOfRange):
            fileio.read_besttrack(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bt.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(InvalidHeader):
            fileio.read_besttrack(path)


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


class TestStationCsvs:
    def test_consistent_pair(self, tmp_path):
        (tmp_path / "meta.csv").write_text(STATION_META)
        (tmp_path / "obs.csv").write_text(STATION_OBS)
        table = fileio.read_station_csvs(tmp_path / "meta.csv",
                                         tmp_path / "obs.csv")
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
            fileio.read_station_csvs(tmp_path / "meta.csv",
                                     tmp_path / "obs.csv")

    def test_duplicate_observation(self, tmp_path):
        (tmp_path / "meta.csv").write_text(STATION_META)
        (tmp_path / "obs.csv").write_text(
            STATION_OBS + "S1,2025-07-01T00:05:00Z,t2m,288.5\n")
        with pytest.raises(DuplicateObservation):
            fileio.read_station_csvs(tmp_path / "meta.csv",
                                     tmp_path / "obs.csv")

    def test_metadata_header_with_spaces(self, tmp_path):
        (tmp_path / "obs.csv").write_text(STATION_OBS)
        tables = []
        for name, header in (("plain.csv", "id,lat,lon,elev_m"),
                             ("spaced.csv", "id, lat,lon , elev_m")):
            (tmp_path / name).write_text(
                STATION_META.replace("id,lat,lon,elev_m", header))
            tables.append(fileio.read_station_csvs(tmp_path / name,
                                                   tmp_path / "obs.csv"))
        plain, spaced = tables
        assert spaced.stations == plain.stations
        assert (spaced.times, spaced.variables) == (plain.times,
                                                    plain.variables)
        assert spaced.values.tobytes() == plain.values.tobytes()
        assert spaced.flags.tobytes() == plain.flags.tobytes()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", " NaN"])
    def test_non_finite_value_names_path_and_line(self, value, tmp_path):
        (tmp_path / "meta.csv").write_text(STATION_META)
        obs = tmp_path / "obs.csv"
        obs.write_text(STATION_OBS + f"S2,2025-07-01T06:00:00Z,t2m,{value}\n")
        with pytest.raises(NonFiniteValue) as err:
            fileio.read_station_csvs(tmp_path / "meta.csv", obs)
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
            fileio.read_station_csvs(tmp_path / "meta.csv", obs)
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
                     "bad timestamp '2025-07-01T00:00:00X'"),
        "short row": ("S2,2025-07-01T00:00:00Z\n", InvalidHeader,
                      "bad row: 'NoneType' object has no attribute 'strip'"),
        "unknown station": ("S9,2025-07-01T00:00:00Z,t2m,280.0\n",
                            UnknownStation, "station 'S9' not in meta.csv"),
        "duplicate": ("S2,2025-07-01T00:00:00+00:00,t2m,301.0\n",
                      DuplicateObservation,
                      "duplicate observation (S2, 2025-07-01T00:00:00Z, t2m)"),
    }

    @pytest.mark.parametrize("order", list(itertools.permutations(
        ["bad value", "unknown station", "duplicate", "bad time"])) + [
        ("short row", "duplicate"), ("duplicate", "bad variable"),
        ("bad variable", "short row")], ids=" then ".join)
    def test_first_faulty_row_in_file_order_is_reported(self, order,
                                                        tmp_path):
        (tmp_path / "meta.csv").write_text(STATION_META)
        obs = tmp_path / "obs.csv"
        obs.write_text(STATION_OBS + "".join(self.FAULTS[f][0] for f in order))
        _, error, message = self.FAULTS[order[0]]
        first_row = STATION_OBS.count("\n") + 1
        if error is not InvalidHeader or message.startswith("bad row"):
            message = f"{obs}:{first_row}: {message}"
        with pytest.raises(error) as err:
            fileio.read_station_csvs(tmp_path / "meta.csv", obs)
        assert str(err.value).startswith(message)


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
                fileio.write_grid(field, tmp_path / "truth" /
                                  f"t2m_{when.strftime('%Y%m%d%H')}.rbg")
                fileio.write_grid(
                    field.at(when, lead),
                    tmp_path / "m" /
                    f"t2m_{init.strftime('%Y%m%d%H')}_{lead:03d}.rbg")
        return path

    def test_loads_and_resolves(self, tmp_path, rng):
        path = self.write_minimal(tmp_path, rng)
        manifest = fileio.load_manifest(path)
        assert manifest.lead_hours == (0, 6)
        assert manifest.truth_path(VariableId.T2M, T0).exists()
        assert len(manifest.sha256) == 64

    def test_missing_model_file_named(self, tmp_path, rng):
        path = self.write_minimal(tmp_path, rng)
        victim = tmp_path / "m" / "t2m_2025070100_006.rbg"
        victim.unlink()
        with pytest.raises(ManifestError) as err:
            fileio.load_manifest(path)
        assert "t2m_2025070100_006.rbg" in str(err.value)

    def test_directory_as_manifest(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.mkdir()
        with pytest.raises(ManifestError, match="cannot read manifest") as err:
            fileio.load_manifest(path)
        assert str(path) in str(err.value)

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
        geometries = drawn + [t for g in drawn for t in twins(g)]
        root = tmp_path_factory.mktemp("geo")
        rng = np.random.default_rng(seed)
        source = fileio.FieldSource(grid_manifest(root))
        shared = {}  # geometry key -> first grid object read for it
        for k, g in enumerate(order):
            geometry = geometries[g % len(geometries)]
            when = T0 + k * timedelta(hours=6)
            path = write_raw_grid(
                source.manifest.truth_path(VariableId.T2M, when),
                rng.standard_normal(geometry[:2]), geometry, when)
            fresh, fresh_err = outcome(lambda: fileio.read_grid(path))
            cached, cached_err = outcome(
                lambda: source.truth(VariableId.T2M, when))
            if fresh_err is not None:
                assert type(cached_err) is type(fresh_err)
                assert str(cached_err) == str(fresh_err)
                continue
            assert cached_err is None
            assert cached.grid == fresh.grid
            assert cached.values.tobytes() == fresh.values.tobytes()
            assert (cached.variable, cached.valid_time, cached.lead_hours) == \
                (fresh.variable, fresh.valid_time, fresh.lead_hours)
            first = shared.setdefault(geometry_key(geometry), cached.grid)
            assert first is cached.grid
            assert not any(grid is cached.grid
                           for key, grid in shared.items()
                           if key != geometry_key(geometry))
            writes = []
            for name, field in (("fresh", fresh), ("cached", cached)):
                out = root / "w" / f"{name}{k}.rbg"
                written, err = outcome(lambda: fileio.write_grid(field, out))
                writes.append(
                    type(err) if err is not None else
                    (written.read_bytes(),
                     out.with_name(out.name + ".json").read_bytes()))
            assert writes[0] == writes[1]

    def test_bad_geometry_raises_on_every_read(self, rng, tmp_path):
        source = fileio.FieldSource(grid_manifest(tmp_path))
        bad = (3, 4, 95.0, -5.0, 0.0, 90.0)  # first row north of the pole
        good = (3, 4, 85.0, -5.0, 0.0, 90.0)
        write_raw_grid(tmp_path / "bad.rbg", np.zeros((3, 4)), bad)
        write_raw_grid(tmp_path / "good.rbg", np.zeros((3, 4)), good)
        for _ in range(3):
            with pytest.raises(InvalidHeader, match="bad.rbg"):
                source.read(tmp_path / "bad.rbg")
            assert source.read(tmp_path / "good.rbg").grid.n_lat == 3

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
                truth = source.truth(VariableId.T2M, T0)
            clim = source.climatologies()[VariableId.T2M]
            _, threshold_grid = source.thresholds()
            stack_layer = STORES["stack"].read_via(source)
            if not field_first:
                truth = source.truth(VariableId.T2M, T0)
            assert clim.grid is truth.grid
            assert threshold_grid is truth.grid
            assert stack_layer.grid is truth.grid

    def test_thresholds_absent_is_none(self, tmp_path):
        assert fileio.FieldSource(grid_manifest(tmp_path)).thresholds() is None

    def test_threads_share_one_grid_object(self, rng, tmp_path):
        # more threads than cores and a short switch interval, so that
        # concurrent misses on one geometry are likely
        geometry = (4, 8, 60.0, -10.0, 0.0, 45.0)
        paths = [write_raw_grid(tmp_path / f"f{k}.rbg",
                                rng.standard_normal((4, 8)), geometry)
                 for k in range(4)]
        n_threads = 6
        barrier = threading.Barrier(n_threads, timeout=30)
        grids = []

        def read(source):
            barrier.wait()
            grids.extend(source.read(p).grid for p in paths)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                source = fileio.FieldSource(grid_manifest(tmp_path))
                grids.clear()
                threads = [threading.Thread(target=read, args=(source,))
                           for _ in range(n_threads)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
                assert len(grids) == n_threads * len(paths)
                assert all(grid is grids[0] for grid in grids)
        finally:
            sys.setswitchinterval(interval)

    def test_resolves_manifest_paths_and_derives_wind(self, rng, tmp_path):
        manifest = grid_manifest(tmp_path, ("u10", "v10", "ws10"))
        grid = make_grid(3, 4)
        for variable in (VariableId.U10, VariableId.V10):
            field = f32_field(rng, grid, variable=variable)
            fileio.write_grid(field, manifest.truth_path(variable, T0))
            fileio.write_grid(field, manifest.model_path("m", T0, variable, 0))
        source = fileio.FieldSource(manifest)
        for read in (lambda v: source.truth(v, T0),
                     lambda v: source.model("m", T0, v, 0)):
            u, v, ws = (read(var) for var in (VariableId.U10, VariableId.V10,
                                              VariableId.WS10))
            assert ws.variable is VariableId.WS10
            assert np.array_equal(ws.values, np.hypot(u.values, v.values))
            assert u.grid is v.grid is ws.grid


def write_raw_stack(path, layers, geometry, first_time=T0, variable="t2m"):
    """An RBSTACK1 store of truth layers, in any orientation the format
    allows."""
    n_lat, n_lon, lat_start, lat_step, lon_start, lon_step = geometry
    blobs = [np.ascontiguousarray(v, dtype="<f4").tobytes() for v in layers]
    header = {"magic": fileio.STACK_MAGIC, "variable": variable, "unit": "K",
              "valid_time": fileio.format_time(first_time),
              "time_step_hours": 6, "lead_hours": 0, "lead_step_hours": 0,
              "n_layers": len(blobs),
              "checksums": [zlib.crc32(b) for b in blobs],
              "n_lat": n_lat, "n_lon": n_lon, "lat_start": lat_start,
              "lat_step": lat_step, "lon_start": lon_start,
              "lon_step": lon_step, "dtype": "f32le"}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"".join(blobs))
    path.with_name(path.name + ".json").write_text(json.dumps(header))
    return path


def stack_manifest(root, max_lead=12):
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
                           "history_years": [T0.year]}}
    path = root / "manifest.json"
    path.write_text(json.dumps(doc))
    return fileio.load_manifest(path, require=())


def times_from(first, n):
    return [first + k * fileio.STACK_STEP for k in range(n)]


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
        whole, whole_err = outcome(lambda: fileio.read_stack(stack))
        for k, when in enumerate(times):
            path = write_raw_grid(root / f"g{k}.rbg", values[k], geometry, when)
            fresh, fresh_err = outcome(lambda: fileio.read_grid(path))
            layer, layer_err = outcome(lambda: source.truth(VariableId.T2M,
                                                            when))
            if fresh_err is not None:
                assert type(layer_err) is type(fresh_err)
                assert type(whole_err) is type(fresh_err)
                continue
            for got in (layer, whole[k]):
                assert got.grid == fresh.grid
                assert got.values.tobytes() == fresh.values.tobytes()
                assert (got.variable, got.valid_time, got.lead_hours) == \
                    (fresh.variable, fresh.valid_time, fresh.lead_hours)
            assert layer.grid is source.read(path).grid
        if whole_err is None:
            # rewriting what was read gives the same fields back, or fails
            # as writing its first field alone does (a regional grid across
            # 0E is not uniform in the engine convention)
            written, err = outcome(lambda: fileio.write_stack(
                whole, root / "again.rbs"))
            _, grid_err = outcome(lambda: fileio.write_grid(
                whole[0], root / "again.rbg"))
            assert type(err) is type(grid_err)
            if err is None:
                again = fileio.read_stack(written)
                assert [f.values.tobytes() for f in again] == \
                    [f.values.tobytes() for f in whole]
                assert again[0].grid == whole[0].grid

    def test_canonical_serialization(self, rng, tmp_path):
        fields = [f32_field(rng, make_grid(3, 4), valid_time=when, lead_hours=6 * k)
                  for k, when in enumerate(times_from(T0, 3))]
        first = fileio.write_stack(fields, tmp_path / "a.rbs")
        back = fileio.read_stack(first)
        assert [f.lead_hours for f in back] == [0, 6, 12]
        second = fileio.write_stack(iter(back), tmp_path / "b.rbs")
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
        path = fileio.write_stack(
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
                    source.truth(VariableId.T2M, when)
                    continue
                with pytest.raises(ChecksumMismatch) as err:
                    source.truth(VariableId.T2M, when)
                assert str(err.value) == f"{path}: CRC-32 mismatch in layer {k}"
            with pytest.raises(ChecksumMismatch, match=f"in layer {k}"):
                fileio.read_stack(path)  # a whole read checks every layer

    def test_time_outside_or_lead_off_the_stack_names_path_and_time(
            self, rng, tmp_path):
        manifest = stack_manifest(tmp_path)
        grid = make_grid(3, 4)
        fileio.write_stack((f32_field(rng, grid, valid_time=when)
                            for when in times_from(T0, 3)),
                           manifest.truth_path(VariableId.T2M, T0))
        forecast = [f32_field(rng, grid, valid_time=when, lead_hours=6 * k)
                    for k, when in enumerate(times_from(T0, 2))]
        model = fileio.write_stack(
            forecast, manifest.model_path("m", T0, VariableId.T2M, 0))
        fileio.write_stack(
            forecast, manifest.model_path("one-run", T0, VariableId.T2M, 0))
        source = fileio.FieldSource(manifest)
        path = manifest.truth_path(VariableId.T2M, T0)
        for when in (T0 - fileio.STACK_STEP, T0 + 3 * fileio.STACK_STEP,
                     T0 + timedelta(hours=1)):
            with pytest.raises(ManifestError) as err:
                source.truth(VariableId.T2M, when)
            assert str(err.value).startswith(
                f"{path} holds no layer valid at {fileio.format_time(when)}")
        assert source.model("m", T0, VariableId.T2M, 6).lead_hours == 6
        with pytest.raises(ManifestError, match=f"{model} holds no layer"):
            source.model("m", T0, VariableId.T2M, 12)
        # a later init resolves to the same store, whose layer valid at
        # T0 + 6 h has lead 6, not 0
        with pytest.raises(ManifestError, match="has lead 6 h, not 0 h"):
            source.model("one-run", T0 + fileio.STACK_STEP, VariableId.T2M, 0)

    @pytest.mark.parametrize("fault", ["time-gap", "other-grid", "lead-step",
                                       "derived"])
    def test_writer_rejects_a_broken_series_and_leaves_no_file(
            self, fault, rng, tmp_path):
        grid = make_grid(3, 4)
        fields = [f32_field(rng, grid, valid_time=when)
                  for when in times_from(T0, 3)]
        if fault == "time-gap":
            fields[2] = fields[2].at(T0 + timedelta(hours=18), 0)
        elif fault == "other-grid":
            fields[2] = f32_field(rng, make_grid(3, 4, lat_top=50.0),
                                  valid_time=fields[2].valid_time)
        elif fault == "lead-step":
            fields[1] = fields[1].at(fields[1].valid_time, 6)
        else:
            fields[0] = make_field(grid, np.ones(grid.shape), VariableId.WS10)
        path = tmp_path / "s.rbs"
        with pytest.raises(WxVerifyError):
            fileio.write_stack(fields, path)
        assert list(tmp_path.iterdir()) == []

    def test_history_year_is_one_read(self, rng, tmp_path, monkeypatch):
        manifest = stack_manifest(tmp_path)
        grid = make_grid(2, 3)
        times = fileio.year_times(T0.year)
        path = fileio.write_stack((f32_field(rng, grid, valid_time=when)
                                   for when in times),
                                  manifest.history_path(VariableId.T2M, T0))
        reads = []
        real_read = fileio._Store.read
        monkeypatch.setattr(fileio._Store, "read", lambda store, start, count:
                            reads.append((store.path, start, count))
                            or real_read(store, start, count))
        fields = fileio.FieldSource(manifest).history(VariableId.T2M,
                                                      T0.year)
        assert reads == [(path, 0, len(times))]
        assert [f.valid_time for f in fields] == times
        assert fields[-1].values.tobytes() == \
            fileio.FieldSource(manifest).truth(VariableId.T2M,
                                               times[-1]).values.tobytes()

    def test_history_year_must_be_whole(self, rng, tmp_path):
        manifest = stack_manifest(tmp_path)
        fileio.write_stack((f32_field(rng, make_grid(2, 3), valid_time=when)
                            for when in times_from(T0, 8)),
                           manifest.history_path(VariableId.T2M, T0))
        with pytest.raises(ManifestError, match="holds no layer valid at "
                                                "2025-01-01T00:00:00Z"):
            fileio.FieldSource(manifest).history(VariableId.T2M, T0.year)

    def test_sidecar_parsed_once_per_source(self, rng, tmp_path, monkeypatch):
        manifest = stack_manifest(tmp_path)
        times = times_from(T0, 5)
        fileio.write_stack((f32_field(rng, make_grid(3, 4), valid_time=when)
                            for when in times),
                           manifest.truth_path(VariableId.T2M, T0))
        loads = []
        real_load = fileio._load_sidecar
        monkeypatch.setattr(fileio, "_load_sidecar", lambda path, *magics:
                            loads.append(path) or real_load(path, *magics))
        source = fileio.FieldSource(manifest)
        for _ in range(2):
            for when in times:
                source.truth(VariableId.T2M, when)
        assert loads == [manifest.truth_path(VariableId.T2M, T0)]
