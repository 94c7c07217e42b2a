"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned in the assertions below.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from datetime import datetime, timedelta, timezone
import numpy as np
import pytest

import oracles
from conftest import (T0, field_block, layer_of, layer_scores, make_field,
                      make_grid, random_field, stamped, truth_fields)
from wxverify import fileio
from wxverify.cli import main as cli_main
from oracles import (DailyHistory, EventSegment, build_thresholds,
                     match_events)
from wxverify.climatology import (DAYS_PER_YEAR, DailyMeanClimatology,
                                  daily_means_from_fields)
from wxverify.cyclones import (homogeneous_sample, intensity_errors,
                               track_storm)
from wxverify.extremes import EventKind, label_event_runs, scores_from_counts
from wxverify.grid import (EARTH_RADIUS_KM, GeoGrid, VariableId, haversine_km,
                           latitude_weights)
from wxverify.harness import (SyntheticScenario, VariableProcess, VortexSpec,
                              make_besttrack, smoothed_forecast)
from wxverify.pipeline_evaluate import _mean
from wxverify.spectra import latitude_circumference_m, midlatitude_spectrum
from wxverify.stations import (QcThresholds, Station, StationInterpolator,
                               StationTable, apply_qc, epoch_microseconds,
                               station_scores, table_from_columns)


def ok(criterion: int, message: str):
    print(f"[acceptance] C{criterion:02d} PASS - {message}")


def _best_of_3(call) -> float:
    """The shortest wall time of three calls of ``call``."""
    best = math.inf
    for _ in range(3):
        started = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - started)
    return best


def _numpy_scores(pred, truth, clim, weights):
    """WRMSE, bias, ACC and activity of one layer in plain numpy, without
    preallocated buffers: the timing reference of C01."""
    w, n = weights[:, None], pred.size
    err, ap, at = pred - truth, pred - clim, truth - clim
    return (np.sqrt(np.sum(w * err * err) / n), np.sum(w * err) / n,
            np.sum(w * ap * at) / np.sqrt(np.sum(w * ap * ap)
                                          * np.sum(w * at * at)),
            np.sqrt(np.sum(w * (ap - np.sum(w * ap) / n) ** 2) / n))


def test_c01_metric_oracle_suite(rng):
    """WRMSE/ACC/Bias/Activity match scalar-loop oracles on 200 random
    grids within 1e-12 relative; the vectorized scoring takes under twice
    the time of a plain numpy reference of the four metrics on the same
    grids, each timed as the best of three calls a grid."""
    kernel_s = reference_s = 0.0
    for _ in range(200):
        n_lat = int(rng.integers(4, 91))
        n_lon = int(rng.integers(8, 181))
        grid = make_grid(n_lat, n_lon, lat_top=float(rng.uniform(30, 89)),
                         lat_bottom=float(rng.uniform(-89, -30)))
        w = latitude_weights(grid)
        pred = random_field(rng, grid)
        truth = random_field(rng, grid)
        clim = random_field(rng, grid)
        scores = layer_scores(pred, truth, clim, weights=w)
        kernel_s += _best_of_3(
            lambda: layer_scores(pred, truth, clim, weights=w))
        reference_s += _best_of_3(lambda: _numpy_scores(
            pred.values[0], truth.values[0], clim.values[0], w))
        assert scores.wrmse == pytest.approx(
            oracles.wrmse_loop(pred.values[0], truth.values[0], w), rel=1e-12)
        assert scores.bias == pytest.approx(
            oracles.bias_loop(pred.values[0], truth.values[0], w), rel=1e-12)
        assert scores.acc == pytest.approx(
            oracles.acc_loop(pred.values[0], truth.values[0], clim.values[0], w),
            rel=1e-12)
        assert scores.activity == pytest.approx(
            oracles.activity_loop(pred.values[0], clim.values[0], w), rel=1e-12)
    # timed against a reference on this host and at this moment, not a
    # wall-clock budget, so a slow or loaded host does not fail it
    assert kernel_s < 2.0 * reference_s, (
        f"vectorized scoring took {kernel_s:.4f}s, the numpy reference "
        f"{reference_s:.4f}s")
    ok(1, f"200 random grids, 4 metrics vs fsum loops at 1e-12; scoring "
          f"{kernel_s:.3f}s against {reference_s:.3f}s for plain numpy")


def test_c02_weight_normalization(rng):
    """Mean latitude weight equals 1 within 1e-12 on 50 random grids and
    the 721-row quarter-degree grid."""
    checked = 0
    for _ in range(50):
        n_lat = int(rng.integers(2, 200))
        lats = np.unique(rng.uniform(-89.99, 89.99, size=n_lat))[::-1]
        if lats.size < 2:
            continue
        grid = GeoGrid(lats, np.array([0.0, 180.0]))
        w = latitude_weights(grid)
        assert abs(float(np.mean(w)) - 1.0) <= 1e-12
        checked += 1
    grid = GeoGrid.regular_global(0.25)
    assert grid.n_lat == 721
    w = latitude_weights(grid)
    assert abs(float(np.mean(w)) - 1.0) <= 1e-12
    ok(2, f"mean weight = 1 within 1e-12 on {checked} random grids "
          f"and the 721x1440 grid")


def test_c03_spectrum_analytic_and_parseval(rng):
    """Pure cosine k=3 lands on S_3 = C A^2/2 within 1e-10 for
    N in {15, 64, 144}; Parseval holds within 1e-10 on odd-N rows."""
    c45 = latitude_circumference_m(45.0)
    for n_lon in (15, 64, 144):
        amp = float(rng.uniform(0.5, 5.0))
        grid = GeoGrid(np.array([45.0]), np.arange(n_lon) * (360.0 / n_lon))
        j = np.arange(n_lon)
        block = make_field(grid, (amp * np.cos(2 * np.pi * 3 * j / n_lon)
                                   ).reshape(1, n_lon))
        s = midlatitude_spectrum(block, 0).energy
        assert s[3] == pytest.approx(c45 * amp * amp / 2.0, rel=1e-10)
    for n_lon in (15, 45, 127):
        grid = GeoGrid(np.array([45.0]), np.arange(n_lon) * (360.0 / n_lon))
        values = 3.0 + rng.standard_normal(n_lon)
        block = make_field(grid, values.reshape(1, n_lon))
        s = midlatitude_spectrum(block, 0).energy
        assert float(s.sum()) / c45 == pytest.approx(
            oracles.mean_square_loop(values), rel=1e-10)
    ok(3, "cosine peak S_3 = C*A^2/2 at N in {15,64,144}; Parseval on "
          "odd-N rows at 1e-10")


def test_c04_percentile_threshold_oracle(rng):
    """12-year thresholds equal the sort-and-interpolate oracle exactly
    at 500 random (day, location) probes including year-wrap windows."""
    n_years, n_loc = 12, 4
    dmax = 288.0 + 6.0 * rng.standard_normal((n_years, DAYS_PER_YEAR, n_loc))
    dmin = dmax - np.abs(4.0 * rng.standard_normal(dmax.shape)) - 0.5
    history = DailyHistory(tuple(range(2013, 2025)), dmax, dmin)
    thresholds = build_thresholds(history)
    probes = [(int(rng.integers(0, DAYS_PER_YEAR)), int(rng.integers(0, n_loc)))
              for _ in range(480)]
    probes += [(d, l) for d in (0, 1, 5, 360, 363, 364) for l in (0, 3)]
    wrap_probes = sum(1 for d, _ in probes if d < 7 or d > 357)
    assert wrap_probes >= 12
    for day, loc in probes:
        win = oracles.window_indices(day, 7)
        pool_max = history.daily_max[:, win, loc].ravel()
        pool_min = history.daily_min[:, win, loc].ravel()
        assert thresholds.tau_heat[day, loc] == \
            oracles.percentile_sorted_oracle(pool_max, 0.9)
        assert thresholds.tau_cold[day, loc] == \
            oracles.percentile_sorted_oracle(pool_min, 0.1)
    ok(4, f"{len(probes)} probes ({wrap_probes} year-wrap) match the sort "
          f"oracle exactly")


def _segment_configs(n_days: int, max_segments: int):
    configs = [()]

    def extend(start_min, segs):
        for s in range(start_min, n_days - 1):
            for e in range(s + 2, n_days + 1):
                new = segs + ((s, e),)
                configs.append(new)
                if len(new) < max_segments:
                    extend(e + 2, new)

    extend(1, ())
    return configs


def test_c05_event_labeling_and_matching_exhaustive(rng):
    """label_event_runs agrees with the all-windows oracle on all 4096
    length-12 masks; match_events agrees with exhaustive matching on a
    complete <= 3-segment enumeration in 13 days plus 20000 sampled
    <= 4-segment configurations in 20 days."""
    thresholds = np.zeros(12)
    for code in range(4096):
        mask = [(code >> b) & 1 for b in range(12)]
        values = np.where(np.asarray(mask, dtype=bool), 1.0, -1.0)
        _, starts, ends = label_event_runs(
            values[:, None], thresholds[:, None], EventKind.HEATWAVE)
        got = [(s - 1, e - 1) for s, e in zip(starts.tolist(), ends.tolist())]
        assert got == oracles.label_events_bruteforce(mask), mask

    def run_pair(pred_cfg, truth_cfg):
        pred = [EventSegment("x", EventKind.HEATWAVE, s, e)
                for s, e in pred_cfg]
        truth = [EventSegment("x", EventKind.HEATWAVE, s, e)
                 for s, e in truth_cfg]
        m = match_events(pred, truth, gamma=0.5)
        expected = oracles.match_exhaustive(pred_cfg, truth_cfg, 0.5)
        assert (m.tp, m.fp, m.fn) == expected, (pred_cfg, truth_cfg)

    small = _segment_configs(13, 3)
    assert len(small) == 305
    for pred_cfg in small:
        for truth_cfg in small:
            run_pair(pred_cfg, truth_cfg)

    wide = _segment_configs(20, 4)
    assert len(wide) == 8844  # full cross-product is ~78M pairs; sample it
    four_seg = [c for c in wide if len(c) == 4]
    assert four_seg
    for _ in range(20000):
        run_pair(wide[int(rng.integers(0, len(wide)))],
                 wide[int(rng.integers(0, len(wide)))])
    for _ in range(2000):  # force dense 4-vs-4 coverage
        run_pair(four_seg[int(rng.integers(0, len(four_seg)))],
                 four_seg[int(rng.integers(0, len(four_seg)))])
    ok(5, "4096 masks vs window oracle; 305^2 exhaustive + 22000 sampled "
          "20-day matchings vs exhaustive matcher")


def test_c06_categorical_arithmetic():
    """(3,1,2) -> (0.6, 0.25, 0.5) exactly; perfect -> (1, 0, 1);
    zero denominators surface n/a, never 0."""
    scores = scores_from_counts(3, 1, 2)
    assert scores.pod == 0.6
    assert scores.far == 0.25
    assert scores.csi == 0.5
    perfect = scores_from_counts(7, 0, 0)
    assert (perfect.pod, perfect.far, perfect.csi) == (1.0, 0.0, 1.0)
    undefined = scores_from_counts(0, 0, 0)
    assert undefined.pod is None
    assert undefined.far is None
    assert undefined.csi is None
    partial = scores_from_counts(0, 4, 0)
    assert partial.pod is None and partial.far == 1.0 and partial.csi == 0.0
    ok(6, "exact hand arithmetic and n/a conventions")


def _vortex_scenario():
    grid = GeoGrid.uniform(35.0, -0.25, 121, 120.0, 0.25, 161)
    vortex = VortexSpec("SYN01", 20.05, 150.07,
                        datetime(2025, 7, 1, tzinfo=timezone.utc),
                        n_steps=20, depth_pa=3000.0, efold_km=300.0,
                        u_ms=-5.0, v_ms=0.0, max_wind_ms=40.0)
    return SyntheticScenario(
        seed=5150, grid=grid, years=(2025,),
        processes={VariableId.MSL: VariableProcess(base=101000.0),
                   VariableId.U10: VariableProcess(base=0.0),
                   VariableId.V10: VariableProcess(base=0.0)},
        vortices=(vortex,)), vortex


def _fields_at(scenario, variable, times):
    wanted = set(times)
    out = {}
    for field in truth_fields(scenario, variable):
        if field.valid_times[0] in wanted:
            out[field.valid_times[0]] = field
        if len(out) == len(wanted):
            break
    return [out[t] for t in times]


def test_c07_tracker_acceptance():
    """Tracker recovers a translating 30 hPa / 300 km Gaussian vortex to
    < 28 km and < 0.5 hPa through 120 h; smoothed forecasts have
    positive MSLP bias at every lead."""
    scenario, vortex = _vortex_scenario()
    times = [vortex.start_time + k * timedelta(hours=6) for k in range(21)]
    msl, u10, v10 = ([stamped(f, f.valid_times[0], 6 * k)
                      for k, f in enumerate(_fields_at(scenario, v, times))]
                     for v in (VariableId.MSL, VariableId.U10, VariableId.V10))
    (truth_track,) = make_besttrack(scenario)

    track = track_storm(field_block(*msl), field_block(*u10),
                        field_block(*v10), truth_track.fixes[0].position,
                        storm_id="SYN01", source="analysis")
    assert all(track.tracked_mask), "storm lost before 120 h"
    for k, fix in enumerate(track.fixes):
        center_error_km = haversine_km(fix.position,
                                       truth_track.fixes[k].position)
        assert center_error_km < 28.0
        assert abs(fix.min_mslp_pa - truth_track.fixes[k].min_mslp_pa) < 50.0

    leads = [6 * k for k in range(21)]
    model = track_storm(*(field_block(*smoothed_forecast(
                            init[0], leads, kernel_width=9))
                          for init in (msl, u10, v10)),
                        truth_track.fixes[0].position, storm_id="SYN01",
                        source="smoothed9")
    assert all(model.tracked_mask)
    tracks = {("SYN01", vortex.start_time): model}
    sample = homogeneous_sample({"smoothed9": tracks},
                                {"SYN01": truth_track}, 21)
    per_lead = intensity_errors(tracks, {"SYN01": truth_track}, sample)
    assert len(per_lead) == 21
    for err in per_lead:
        assert err is not None
        assert err.bias_mslp_hpa > 0.0
    ok(7, "center < 28 km and MSLP < 0.5 hPa through 120 h; smoothed "
          "bias_p > 0 at all 21 leads")


def test_c08_haversine():
    """Antipodal equatorial distance = pi*R to 1e-9 km; one degree at the
    equator = pi*R/180 to 1e-6 km."""
    assert haversine_km((0.0, 0.0), (0.0, 180.0)) == pytest.approx(
        math.pi * EARTH_RADIUS_KM, abs=1e-9)
    one_degree = haversine_km((0.0, 10.0), (0.0, 11.0))
    assert one_degree == pytest.approx(math.pi * EARTH_RADIUS_KM / 180.0,
                                       abs=1e-6)
    assert one_degree == pytest.approx(111.195, abs=5e-4)
    ok(8, "pi*R antipodal within 1e-9 km; 111.195 km per equatorial degree "
          "within 1e-6 km")


def test_c09_station_pipeline(rng):
    """Window boundaries per the +-15 min convention; QC replaces a 10x
    wind outlier idempotently; node-coincident station scores equal the
    restricted unweighted grid metric within 1e-12."""
    t = T0
    # one record per station, 15 min after, 15 min before and 20 min
    # after the target time
    offsets = [timedelta(minutes=m) for m in (15, -15, 20)]
    windows = table_from_columns(
        [Station(f"W{k}", 0.0, 0.0, 0.0) for k in range(3)],
        {VariableId.WS10: ([0, 1, 2], [epoch_microseconds(t + dt)
                                       for dt in offsets], [7.0] * 3)}, [t])
    assert windows.values[0, 0, 0] == 7.0
    assert windows.values[0, 0, 1] == 7.0
    assert windows.flags[0, 0, 2] == oracles.ABSENT

    def one_observation(value):
        return StationTable((Station("S", 0.0, 0.0, 0.0),), (t,),
                            (VariableId.WS10,), [[[value]]], [[[oracles.RAW]]])

    outcome, _ = apply_qc(one_observation(100.0), [[[10.0]]],
                          QcThresholds.default())
    assert outcome.flags[0, 0, 0] == oracles.REPLACED
    assert outcome.values[0, 0, 0] == 10.0
    again, _ = apply_qc(one_observation(outcome.values[0, 0, 0]), [[[10.0]]],
                        QcThresholds.default())
    assert again.flags[0, 0, 0] == oracles.RAW \
        and again.values[0, 0, 0] == 10.0

    grid = make_grid(6, 10)
    truth = random_field(rng, grid)
    pred = random_field(rng, grid)
    nodes = [(1, 2), (2, 7), (4, 4), (0, 9), (5, 0), (3, 3)]
    stations = tuple(Station(f"S{k}", float(grid.lat_deg[i]),
                             float(grid.lon_deg[j]), 0.0)
                     for k, (i, j) in enumerate(nodes))
    obs = np.array([[[truth.values[0, i, j] for i, j in nodes]]])
    table = StationTable(stations, (T0,), (VariableId.T2M,), obs,
                         np.ones(obs.shape, dtype=np.uint8))
    fc = StationInterpolator(table.stations).weights(grid).apply(pred.values)
    scores, = station_scores(fc[None], pred.valid_times, table,
                             VariableId.T2M, None)
    rows = np.array([i for i, _ in nodes])
    cols = np.array([j for _, j in nodes])
    err = pred.values[0, rows, cols] - truth.values[0, rows, cols]
    assert scores.rmse == pytest.approx(float(np.sqrt(np.mean(err ** 2))),
                                        rel=1e-12)
    assert scores.bias == pytest.approx(float(np.mean(err)), rel=1e-12)
    ok(9, "window boundary cases, idempotent 10x outlier replacement, "
          "node-coincident equality at 1e-12")


E2E_SCENARIO = {
    "seed": 20252025,
    "grid": {"lat_start": 78.75, "lat_step": -22.5, "n_lat": 8,
             "lon_start": 0.0, "lon_step": 22.5, "n_lon": 16},
    "years": [2025],
    "processes": {
        "t2m": {"base": 285.0, "seasonal_amp": 10.0, "diurnal_amp": 3.0,
                "ar1": 0.8, "noise_sigma": 1.5},
        "u10": {"base": 2.0, "ar1": 0.7, "noise_sigma": 2.0},
        "v10": {"base": -1.0, "ar1": 0.7, "noise_sigma": 2.0},
        "msl": {"base": 101000.0, "ar1": 0.9, "noise_sigma": 150.0},
    },
}


def test_c10_end_to_end_determinism_and_closure(tmp_path, rng):
    """cmd_evaluate is byte-deterministic; through-disk evaluation equals
    in-memory evaluation bitwise; the 1-year/8x16/4-variable/40-lead
    synthetic end-to-end completes in under 60 s."""
    started = time.perf_counter()
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(E2E_SCENARIO))
    run = tmp_path / "run"
    inits = ["2025-07-01T00:00:00Z", "2025-07-03T00:00:00Z"]
    leads = ",".join(str(h) for h in range(6, 241, 6))  # 40 leads
    assert cli_main(["synth", "--scenario", str(scenario_path),
                     "--out", str(run), "--inits", ",".join(inits),
                     "--max-lead-hours", "240",
                     "--models", "persistence"]) == 0
    assert cli_main(["build-climatology", "--manifest",
                     str(run / "manifest.json")]) == 0
    out1, out2 = tmp_path / "out1", tmp_path / "out2"
    for out in (out1, out2):
        assert cli_main(["evaluate", "--manifest", str(run / "manifest.json"),
                         "--out", str(out), "--leads", leads]) == 0
    blob1 = (out1 / "scorecard.json").read_bytes()
    assert blob1 == (out2 / "scorecard.json").read_bytes()
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"end-to-end took {elapsed:.1f}s"

    # through-disk vs in-memory, bitwise: recompute one (variable, lead)
    # cell of the scorecard from the in-memory stream
    from wxverify.harness import scenario_from_dict
    scenario = scenario_from_dict(E2E_SCENARIO)
    t2m = {f.valid_times[0]: f
           for f in truth_fields(scenario, VariableId.T2M)}
    clim = DailyMeanClimatology(
        scenario.grid, VariableId.T2M,
        oracles.build_daily_mean_climatology(
            [daily_means_from_fields(field_block(*t2m.values()))[1]]),
        (2025,))
    card = json.loads(blob1.decode())
    weights = latitude_weights(scenario.grid)
    init_times = [fileio.parse_time(t) for t in inits]
    for lead in (6, 120, 240):
        per_init_wrmse = []
        per_init_acc = []
        for init in init_times:
            when = init + timedelta(hours=lead)
            pred = t2m[init]  # persistence, in memory
            scores = layer_scores(pred, t2m[when], make_field(
                scenario.grid, clim.layers([when])[0]), weights=weights)
            per_init_wrmse.append(scores.wrmse)
            per_init_acc.append(scores.acc)
        rows = [r for r in card["grid_metrics"]
                if r["model"] == "persistence" and r["variable"] == "t2m"
                and r["lead_hours"] == lead]
        by_metric = {r["metric"]: r["value"] for r in rows}
        assert by_metric["wrmse"] == _mean(per_init_wrmse)  # bitwise
        assert by_metric["acc"] == _mean(per_init_acc)      # bitwise
    ok(10, f"byte-identical reruns; disk == memory bitwise; end-to-end in "
           f"{elapsed:.1f}s < 60s")


def test_c11_skill_decay_sanity():
    """Persistence WRMSE does not decrease from lead 1 to lead 2 on at
    least 95% of 50 seeded AR(1) runs."""
    grid = GeoGrid.uniform(60.0, -7.5, 17, 0.0, 11.25, 32)
    wins = 0
    for seed in range(50):
        scenario = SyntheticScenario(
            seed=seed, grid=grid, years=(2025,),
            processes={VariableId.T2M: VariableProcess(
                base=285.0, ar1=0.8, noise_sigma=1.0)})
        stream = truth_fields(scenario, VariableId.T2M)
        t0, t1, t2 = itertools.islice(stream, 3)
        (fc,) = smoothed_forecast(t0, [6, 12], kernel_width=1)  # persistence
        e1 = layer_scores(layer_of(fc, 0), t1).wrmse
        e2 = layer_scores(layer_of(fc, 1), t2).wrmse
        wins += e2 >= e1
    assert wins >= 48, f"monotone decay on only {wins}/50 seeds"
    ok(11, f"WRMSE(12h) >= WRMSE(6h) on {wins}/50 seeds (>= 48 required)")
