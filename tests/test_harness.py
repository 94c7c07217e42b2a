from __future__ import annotations

import itertools
import json
import math
import threading
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import (field_block, layer_of, layer_scores, make_field, read_store,
                      truth_fields)
from wxverify import fileio, harness, metrics, writers
from wxverify.extremes import EventKind, label_event_runs
from wxverify.grid import FieldBlock, GeoGrid, VariableId
from wxverify.harness import (PlantedEpisode, SyntheticScenario, VariableProcess,
                              VortexSpec, load_scenario, make_besttrack,
                              scenario_from_dict, seasonal_value,
                              smoothed_forecast, smoothing_width, year_times)
from wxverify.spectra import midlatitude_spectrum


def small_grid():
    return GeoGrid.uniform(45.0, -15.0, 7, 0.0, 30.0, 12)


def scenario(seed=7, years=(2025,), **t2m_kw):
    process = VariableProcess(base=285.0, **t2m_kw)
    return SyntheticScenario(seed=seed, grid=small_grid(), years=years,
                             processes={VariableId.T2M: process})


class TestGenerator:
    def test_same_seed_bitwise_identical(self):
        sc = scenario(noise_sigma=1.0, ar1=0.7)
        a = list(itertools.islice(truth_fields(sc, VariableId.T2M), 8))
        b = list(itertools.islice(truth_fields(sc, VariableId.T2M), 8))
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.values, fb.values)

    def test_different_seed_differs(self):
        a = next(truth_fields(scenario(seed=1, noise_sigma=1.0),
                              VariableId.T2M))
        b = next(truth_fields(scenario(seed=2, noise_sigma=1.0),
                              VariableId.T2M))
        assert not np.array_equal(a.values, b.values)

    def test_zero_noise_equals_closed_form(self):
        sc = scenario(seasonal_amp=10.0, diurnal_amp=3.0)
        process = sc.processes[VariableId.T2M]
        for field in itertools.islice(truth_fields(sc, VariableId.T2M), 12):
            expected = np.float64(np.float32(
                seasonal_value(process, field.valid_times[0])))
            np.testing.assert_array_equal(field.values, expected)

    def test_values_are_f32_exact(self):
        sc = scenario(noise_sigma=2.0)
        field = next(truth_fields(sc, VariableId.T2M))
        assert np.array_equal(field.values,
                              field.values.astype(np.float32).astype(np.float64))

    def test_planted_heat_episode_recovered_end_to_end(self):
        episode = PlantedEpisode(EventKind.HEATWAVE, 2025, 3, 5,
                                 start_day=200, n_days=5, amplitude_k=8.0)
        process = VariableProcess(base=285.0, seasonal_amp=5.0,
                                  diurnal_amp=2.0, ar1=0.5, noise_sigma=0.5)
        sc = SyntheticScenario(seed=99, grid=small_grid(),
                               years=(2022, 2023, 2024, 2025),
                               processes={VariableId.T2M: process},
                               episodes=(episode,))
        fields_by_year: dict[int, list] = {y: [] for y in sc.years}
        for f in truth_fields(sc, VariableId.T2M):
            fields_by_year[f.valid_times[0].year].append(f)
        history = oracles.history_from_fields(
            {y: fields_by_year[y] for y in (2022, 2023, 2024)})
        thresholds = oracles.build_thresholds(history)
        eval_history = oracles.history_from_fields({2025: fields_by_year[2025]})
        loc = 3 * sc.grid.n_lon + 5
        runs = label_event_runs(eval_history.daily_max[0], thresholds.tau_heat,
                                EventKind.HEATWAVE)
        segments = oracles.segments_by_location(runs, EventKind.HEATWAVE)
        spans = [(s.start_day, s.end_day) for s in segments.get(loc, [])]
        assert (200, 204) in spans

    def test_besttrack_matches_center_oracle(self):
        vortex = VortexSpec("SYN1", 20.0, 150.0,
                            datetime(2025, 7, 1, tzinfo=timezone.utc),
                            n_steps=8, u_ms=-5.0, v_ms=0.0)
        sc = SyntheticScenario(
            seed=1, grid=GeoGrid.uniform(35.0, -0.25, 121, 120.0, 0.25, 161),
            years=(2025,),
            processes={VariableId.MSL: VariableProcess(base=101000.0)},
            vortices=(vortex,))
        (track,) = make_besttrack(sc)
        assert len(track.fixes) == 9
        for k, fix in enumerate(track.fixes):
            when = vortex.start_time + timedelta(hours=6 * k)
            assert fix.position == vortex.center_at(when)
            assert fix.min_mslp_pa == pytest.approx(98000.0)


class TestChunkedGenerator:
    """The chunked generator against the one-field-at-a-time oracle."""

    @given(width=st.sampled_from([1, 3, 5, 7]),
           shape=st.tuples(st.integers(1, 4), st.integers(1, 6),
                           st.integers(1, 9)),
           spare=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_boxcar_equals_per_field_rolls(self, width, shape, spare, seed):
        noise = np.random.default_rng(seed).standard_normal(shape)
        expected = [oracles.boxcar_smooth_field(layer.copy(), width)
                    for layer in noise]
        smooth = harness._boxcar(width, shape[0] + spare, shape[1:])
        smooth(noise)
        for got, want in zip(noise, expected):
            assert got.tobytes() == want.tobytes()

    @given(n_lat=st.integers(1, 5), n_lon=st.integers(1, 9),
           width=st.sampled_from([1, 3, 5, 7]),
           ar1=st.sampled_from([0.0, 0.6, 0.95]),
           noise_sigma=st.sampled_from([0.0, 1.0, 150.0]),
           variable=st.sampled_from([VariableId.T2M, VariableId.MSL,
                                     VariableId.U10]),
           years=st.sampled_from([(2025,), (2023, 2024), (2024, 2025)]),
           inject=st.booleans(), per_chunk=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_equals_field_by_field(self, n_lat, n_lon, width, ar1,
                                   noise_sigma, variable, years, inject,
                                   per_chunk, seed):
        grid = GeoGrid.uniform(40.0, -10.0, n_lat, 0.0, 360.0 / n_lon, n_lon)
        last = years[-1]
        sc = SyntheticScenario(
            seed=seed, grid=grid, years=years,
            processes={variable: VariableProcess(
                base=285.0, seasonal_amp=6.0, diurnal_amp=2.0, ar1=ar1,
                noise_sigma=noise_sigma, spatial_corr_points=width)},
            # a vortex and an episode across the end of February
            vortices=(VortexSpec("V", 30.0, 40.0, datetime(
                last, 2, 27, tzinfo=timezone.utc), n_steps=12, u_ms=5.0),)
            if inject else (),
            episodes=(PlantedEpisode(EventKind.HEATWAVE, last, n_lat - 1, 0,
                                     start_day=58, n_days=3,
                                     amplitude_k=5.0),) if inject else ())
        budget = per_chunk * 8 * n_lat * n_lon
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(metrics, "CHUNK_BYTES", budget)
            blocks = list(harness.generate_variable_series(sc, variable))
        fields = list(oracles.generate_fields(sc, variable))
        for b in blocks:
            assert isinstance(b, FieldBlock)
            assert b.values.shape[0] == len(b.valid_times) <= per_chunk
            assert {t.year for t in b.valid_times} == {b.valid_times[0].year}
        layers = [(when, lead, values) for b in blocks for when, lead, values
                  in zip(b.valid_times, b.lead_hours, b.values)]
        assert len(layers) == len(fields) == sum(
            len(year_times(y)) for y in years)
        for (when, lead, values), field in zip(layers, fields):
            assert (when, lead) == (field.valid_times[0], field.lead_hours[0])
            assert values.tobytes() == field.values[0].tobytes()


WRITE_RUN_SCENARIO = {
    "seed": 2024,
    "grid": {"lat_start": 40.0, "lat_step": -10.0, "n_lat": 5,
             "lon_start": 0.0, "lon_step": 45.0, "n_lon": 8},
    "years": [2023, 2024],
    "processes": {
        "t2m": {"base": 285.0, "seasonal_amp": 8.0, "diurnal_amp": 2.0,
                "ar1": 0.7, "noise_sigma": 1.5, "spatial_corr_points": 3},
        "msl": {"base": 101000.0, "ar1": 0.9, "noise_sigma": 100.0,
                "spatial_corr_points": 5},
        "u10": {"base": 1.0, "ar1": 0.5, "noise_sigma": 2.0},
    },
    "vortices": [{"storm_id": "SYN01", "start_lat": 20.0, "start_lon": 90.0,
                  "start_time": "2024-02-27T00:00:00Z", "n_steps": 16,
                  "u_ms": -5.0}],
    "episodes": [{"kind": "heatwave", "year": 2024, "lat_index": 2,
                  "lon_index": 3, "start_day": 58, "n_days": 3,
                  "amplitude_k": 9.0}],
}


def tree(root):
    return {path.relative_to(root): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


class TestWriteRun:
    @pytest.mark.parametrize("truth_span, models", [
        ("full", "perfect,smoothed:3,lagged:12,persistence,smoothed:1"),
        ("run", "perfect,smoothed:3,persistence,smoothed:1")])
    def test_equals_the_run_written_field_by_field(
            self, truth_span, models, tmp_path, monkeypatch):
        import json
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(WRITE_RUN_SCENARIO))
        options = dict(inits="2024-02-28T00:00:00Z,2024-07-01T12:00:00Z",
                       max_lead_hours=48, models=models,
                       truth_span=truth_span, stations=6)
        with monkeypatch.context() as patch:
            # chunks of 7 layers: neither a year nor the 9 leads divide
            patch.setattr(metrics, "CHUNK_BYTES", 7 * 8 * 5 * 8)
            harness.write_run(scenario, tmp_path / "chunked", **options)
        with monkeypatch.context() as patch:
            patch.setattr(harness, "generate_variable_series",
                          oracles.generate_fields)
            patch.setattr(harness, "_lagged_forecast",
                          oracles.lagged_forecast_per_lead)
            patch.setattr(harness, "smoothed_forecast",
                          oracles.smoothed_forecast_per_lead)
            patch.setattr(harness, "_write_station_csvs",
                          oracles.write_station_csvs_per_field)
            harness.write_run(scenario, tmp_path / "by_field", **options)
        chunked = tree(tmp_path / "chunked")
        assert chunked == tree(tmp_path / "by_field")
        names = {str(path) for path in chunked}
        assert "stations_obs.csv" in names and "besttrack.csv" in names
        assert ("truth/t2m/2023.rbs" in names) is (truth_span == "full")
        assert any(name.startswith("models/smoothed3/") for name in names)
        # persistence is the smoothed forecast of width 1, byte for byte
        persistence = tree(tmp_path / "chunked" / "models" / "persistence")
        assert persistence and persistence == tree(
            tmp_path / "chunked" / "models" / "smoothed1")


class DrawFailed(Exception):
    """Raised by a patched draw or write of the truth generator."""


class RecordedDraws:
    """A ``Generator`` whose ``standard_normal`` calls are counted, with
    the thread of each, and whose call number ``fail_at`` raises."""

    def __init__(self, rng, fail_at=None):
        self.rng, self.fail_at = rng, fail_at
        self.threads = []

    def standard_normal(self, shape):
        self.threads.append(threading.current_thread())
        if len(self.threads) == self.fail_at:
            raise DrawFailed(f"draw {self.fail_at}")
        return self.rng.standard_normal(shape)


def record_draws(patch, fail_at=None):
    """Patch ``np.random.default_rng`` to hand out :class:`RecordedDraws`;
    returns the list they are appended to."""
    made = []
    default_rng = np.random.default_rng

    def recorded(*args, **kwargs):
        made.append(RecordedDraws(default_rng(*args, **kwargs), fail_at))
        return made[-1]
    patch.setattr(np.random, "default_rng", recorded)
    return made


class TestDrawAhead:
    """The truth generator draws its noise on a helper thread, and no
    thread outlives it, however it ends."""

    def test_closed_after_the_first_chunk(self, monkeypatch):
        before = threading.active_count()
        sc = scenario(noise_sigma=1.5, ar1=0.6, spatial_corr_points=3)
        # 10 layers a chunk: 146 chunks in the year
        monkeypatch.setattr(metrics, "CHUNK_BYTES", 10 * 8 * 7 * 12)
        draws = record_draws(monkeypatch)
        chunks = harness.generate_variable_series(sc, VariableId.T2M)
        first = next(chunks)
        assert first.values.shape == (10, 7, 12)
        chunks.close()
        assert threading.active_count() == before
        # one helper thread drew, never more than DRAWN_AHEAD chunks ahead
        [rng] = draws
        assert 1 <= len(rng.threads) <= 1 + harness.DRAWN_AHEAD
        assert len(set(rng.threads)) == 1
        assert rng.threads[0] is not threading.current_thread()

    def test_draw_that_raises_surfaces_in_the_consumer(self, monkeypatch):
        before = threading.active_count()
        sc = scenario(noise_sigma=1.5, ar1=0.6)
        monkeypatch.setattr(metrics, "CHUNK_BYTES", 10 * 8 * 7 * 12)
        record_draws(monkeypatch, fail_at=4)
        chunks = harness.generate_variable_series(sc, VariableId.T2M)
        taken = []
        with pytest.raises(DrawFailed, match="draw 4") as raised:
            for chunk in chunks:
                taken.append(chunk)
        assert raised.type is DrawFailed and len(taken) == 3
        assert threading.active_count() == before

    def test_write_run_that_raises_partway_through_a_year(
            self, tmp_path, monkeypatch):
        before = threading.active_count()
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(WRITE_RUN_SCENARIO))
        # chunks of 7 layers; the first stack fails at its third chunk
        monkeypatch.setattr(metrics, "CHUNK_BYTES", 7 * 8 * 5 * 8)

        def write_stack(blocks, path):
            for k, _ in enumerate(blocks):
                if k == 2:
                    raise DrawFailed(f"writing {path.name}")
        monkeypatch.setattr(writers, "write_stack", write_stack)
        # the traceback, held in `raised`, keeps write_run's frames alive:
        # the helper must have been joined without waiting for them to go
        with pytest.raises(DrawFailed, match="writing 2023.rbs") as raised:
            harness.write_run(scenario_path, tmp_path / "run")
        assert raised.type is DrawFailed
        assert threading.active_count() == before


class TestPersistence:
    """Persistence is the smoothed forecast of width 1."""

    def test_every_lead_is_init_bitwise(self):
        sc = scenario(noise_sigma=1.0)
        init = next(truth_fields(sc, VariableId.T2M))
        leads = [0, 6, 24, 240]
        fc = field_block(*smoothed_forecast(init, leads, kernel_width=1))
        assert fc.lead_hours == tuple(leads)
        for lead, when, values in zip(leads, fc.valid_times, fc.values):
            assert values.astype(np.float64).tobytes() == \
                init.values[0].tobytes()
            assert when == init.valid_times[0] + timedelta(hours=lead)

    def test_lead_zero_wrmse_zero(self):
        sc = scenario(noise_sigma=1.0)
        init = next(truth_fields(sc, VariableId.T2M))
        (fc,) = smoothed_forecast(init, [0], kernel_width=1)
        assert layer_scores(fc, init).wrmse == 0.0

    def test_wrmse_grows_with_lead_for_ar1_truth(self):
        # per-seed check; the 50-seed statistical version runs in acceptance
        wins = 0
        for seed in range(10):
            sc = scenario(seed=seed, noise_sigma=1.0, ar1=0.8)
            stream = truth_fields(sc, VariableId.T2M)
            t0, t1, t2 = itertools.islice(stream, 3)
            (fc,) = smoothed_forecast(t0, [6, 12], kernel_width=1)
            e1 = layer_scores(layer_of(fc, 0), t1).wrmse
            e2 = layer_scores(layer_of(fc, 1), t2).wrmse
            wins += e2 >= e1
        assert wins >= 9


class TestSmoothed:
    def test_width_one_is_persistence(self):
        sc = scenario(noise_sigma=1.0)
        init = next(truth_fields(sc, VariableId.T2M))
        (smooth,) = smoothed_forecast(init, [0, 6, 60], kernel_width=1)
        (wide,) = smoothed_forecast(init, [0, 6, 60], kernel_width=9)
        for values in (*smooth.values, wide.values[0]):
            assert np.array_equal(values, init.values[0])
        assert not np.array_equal(wide.values[1], init.values[0])

    def test_blocks_hold_at_most_a_chunk_of_leads(self, monkeypatch):
        grid = small_grid()
        init = make_field(grid, np.arange(84.0).reshape(grid.shape))
        leads = list(range(0, 241, 6))
        monkeypatch.setattr(metrics, "CHUNK_BYTES", 7 * 8 * grid.n_lat
                            * grid.n_lon)
        blocks = list(smoothed_forecast(init, leads, kernel_width=9))
        assert [len(b.lead_hours) for b in blocks] == [7] * 5 + [6]
        assert all(b.values.dtype == np.float32 for b in blocks)
        assert field_block(*blocks).values.tobytes() == b"".join(
            b.values.tobytes() for b in oracles.smoothed_forecast_per_lead(
                init, leads, 9))

    def test_each_width_is_smoothed_once(self, rng, monkeypatch):
        # smoothed:9 to 240 h in blocks of 7 leads: widths 1, 3, 5 and 7,
        # then 9 for the other 37 leads, across blocks, one boxcar each
        grid = small_grid()
        init = make_field(grid, rng.standard_normal(grid.shape))
        leads = list(range(0, 241, 6))
        monkeypatch.setattr(metrics, "CHUNK_BYTES", 7 * 8 * grid.n_lat
                            * grid.n_lon)
        widths = []
        boxcar = harness._zonal_boxcar
        monkeypatch.setattr(harness, "_zonal_boxcar", lambda values, width:
                            widths.append(width) or boxcar(values, width))
        blocks = list(smoothed_forecast(init, leads, kernel_width=9))
        assert widths == [1, 3, 5, 7, 9]
        assert field_block(*blocks).values.tobytes() == b"".join(
            b.values.tobytes() for b in oracles.smoothed_forecast_per_lead(
                init, leads, 9))

    def test_width_grows_with_lead_and_caps(self):
        assert smoothing_width(9, 0) == 1
        assert smoothing_width(9, 6) == 3
        assert smoothing_width(9, 12) == 5
        assert smoothing_width(9, 60) == 9

    def test_boxcar_transfer_attenuation(self):
        n = 48
        grid = GeoGrid.uniform(46.0, -2.0, 3, 0.0, 360.0 / n, n)
        j = np.arange(n)
        amp, k = 4.0, 3
        row = amp * np.cos(2 * np.pi * k * j / n)
        values = np.tile(row, (3, 1)).astype(np.float32).astype(np.float64)
        init = make_field(grid, values)
        width = 5
        (fc,) = smoothed_forecast(init, [12], kernel_width=width)  # width 5
        # every row lies in the mid-latitude band, and each row's
        # spectrum is the same up to its circumference
        s_init = midlatitude_spectrum(init, 0).energy
        s_fc = midlatitude_spectrum(fc, 0).energy
        transfer = (math.sin(width * math.pi * k / n)
                    / (width * math.sin(math.pi * k / n))) ** 2
        assert s_fc[k] / s_init[k] == pytest.approx(transfer, rel=1e-5)

    def test_smoothing_never_raises_zonal_variance(self, rng):
        grid = small_grid()
        values = rng.standard_normal(grid.shape).astype(np.float32)
        init = make_field(grid, values.astype(np.float64))
        for lead in (6, 12, 24):
            (fc,) = smoothed_forecast(init, [lead], kernel_width=7)
            smoothed = fc.values[0].astype(np.float64)
            for i in range(grid.n_lat):
                var_before = np.var(init.values[0, i])
                var_after = np.var(smoothed[i])
                assert var_after <= var_before * (1.0 + 1e-9)

    def test_smoothed_vortex_is_shallower(self):
        grid = GeoGrid.uniform(30.0, -0.25, 81, 140.0, 0.25, 81)
        d_lat = (grid.lat_deg - 20.05)[:, None]
        d_lon = (grid.lon_deg - 150.05)[None, :]
        dist_deg = np.hypot(d_lat, d_lon * math.cos(math.radians(20.0)))
        depression = 101000.0 - 3000.0 * np.exp(-((dist_deg * 111.2 / 300.0) ** 2))
        init = make_field(grid, depression.astype(np.float32).astype(np.float64),
                          VariableId.MSL)
        (fc,) = smoothed_forecast(init, [24], kernel_width=9)
        assert fc.values.min() > init.values.min()


class TestScenarioJson:
    def test_load_round_trip(self, tmp_path):
        doc = {
            "seed": 42,
            "grid": {"lat_start": 45.0, "lat_step": -15.0, "n_lat": 7,
                     "lon_start": 0.0, "lon_step": 30.0, "n_lon": 12},
            "years": [2024, 2025],
            "processes": {"t2m": {"base": 285.0, "seasonal_amp": 10.0,
                                  "ar1": 0.6, "noise_sigma": 1.0}},
            "episodes": [{"kind": "heatwave", "year": 2025, "lat_index": 1,
                          "lon_index": 2, "start_day": 100, "n_days": 4,
                          "amplitude_k": 9.0}],
        }
        import json
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        sc = load_scenario(path)
        assert sc.seed == 42
        assert sc.years == (2024, 2025)
        assert sc.grid.n_lat == 7
        assert sc.episodes[0].kind is EventKind.HEATWAVE

    @pytest.mark.parametrize("start_time", ["2025-07-01T00:00:00",
                                            "2025-07-01T02:00:00+02:00"])
    def test_vortex_time_without_zone_is_utc(self, start_time):
        # as in manifests; an explicit offset names the same instant
        doc = {"seed": 1, "grid": {"resolution_deg": 30.0}, "years": [2025],
               "processes": {"msl": {"base": 101000.0}},
               "vortices": [{"storm_id": "S", "start_lat": 20.0,
                             "start_lon": 150.0, "start_time": start_time,
                             "n_steps": 4}]}
        (vortex,) = scenario_from_dict(doc).vortices
        assert vortex.start_time == datetime(2025, 7, 1, tzinfo=timezone.utc)
        assert vortex.start_time.tzinfo is timezone.utc

    def test_year_times_counts(self):
        assert len(year_times(2025)) == 365 * 4
        assert len(year_times(2024)) == 366 * 4


class TestPipelineClosure:
    def test_disk_round_trip_is_bitwise(self, tmp_path):
        sc = scenario(noise_sigma=1.5, ar1=0.6)
        stream = truth_fields(sc, VariableId.T2M)
        fields = list(itertools.islice(stream, 6))
        for k, field in enumerate(fields):
            writers.write_grid(field, tmp_path / f"{k}.rbg")
        back = [read_store(tmp_path / f"{k}.rbg") for k in range(6)]
        for a, b in zip(fields, back):
            assert np.array_equal(a.values, b.values)
        # metric computed from disk fields equals the in-memory value bitwise
        from_disk = layer_scores(back[1], back[0])
        in_memory = layer_scores(fields[1], fields[0])
        assert from_disk.wrmse == in_memory.wrmse
