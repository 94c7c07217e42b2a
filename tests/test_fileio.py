from __future__ import annotations

import json
import sys
import threading
import zlib
from datetime import timedelta

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

    @given(st.binary(min_size=0, max_size=400))
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_reader_total_over_fuzzed_sidecars(self, tmp_path_factory, blob):
        tmp = tmp_path_factory.mktemp("fuzz")
        path = tmp / "f.rbg"
        path.write_bytes(b"\x00" * 32)
        (tmp / "f.rbg.json").write_bytes(blob)
        try:
            fileio.read_grid(path)
        except WxVerifyError:
            pass  # typed errors only; anything else fails the test


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
    """A manifest whose truth files are ``g/{variable}_{time}.rbg``."""
    doc = {"variables": list(variables),
           "init_times": [fileio.format_time(T0)], "max_lead_hours": 0,
           "truth_pattern": "g/{variable}_{time}.rbg",
           "models": {"m": "m/{variable}_{init}_{lead:03d}.rbg"}}
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

    def test_nan_payload_error_names_path(self, tmp_path):
        values = np.zeros((2, 4))
        values[1, 2] = np.nan
        path = write_raw_grid(tmp_path / "nan.rbg", values,
                              (2, 4, 10.0, -5.0, 0.0, 90.0))
        source = fileio.FieldSource(grid_manifest(tmp_path))
        for read in (fileio.read_grid, source.read):
            with pytest.raises(NonFiniteValue) as err:
                read(path)
            assert str(path) in str(err.value)

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
