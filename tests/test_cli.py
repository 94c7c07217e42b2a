from __future__ import annotations

import json
import os
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest

import oracles
from wxverify import fileio
from wxverify.cli import _region_mask, main
from wxverify.climatology import SYNOPTIC_HOURS, calendar_day_index
from wxverify.extremes import EventKind
from wxverify.grid import VariableId
from wxverify.report import validate_scorecard

EXTREMES_SCENARIO = {
    "seed": 424242,
    "grid": {"lat_start": 84.0, "lat_step": -12.0, "n_lat": 15,
             "lon_start": 0.0, "lon_step": 22.5, "n_lon": 16},
    "years": [2023, 2024, 2025],
    "processes": {"t2m": {"base": 285.0, "seasonal_amp": 8.0,
                          "diurnal_amp": 2.0}},
    "episodes": [
        {"kind": "heatwave", "year": 2025, "lat_index": 4, "lon_index": 7,
         "start_day": 200, "n_days": 5, "amplitude_k": 10.0},
        {"kind": "heatwave", "year": 2025, "lat_index": 9, "lon_index": 2,
         "start_day": 201, "n_days": 3, "amplitude_k": 10.0},
        {"kind": "coldsurge", "year": 2025, "lat_index": 6, "lon_index": 11,
         "start_day": 199, "n_days": 4, "amplitude_k": 12.0},
    ],
}

EVALUATE_SCENARIO = {
    "seed": 31337,
    "grid": {"lat_start": 84.0, "lat_step": -12.0, "n_lat": 15,
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

CYCLONE_SCENARIO = {
    "seed": 9001,
    "grid": {"lat_start": 35.0, "lat_step": -0.5, "n_lat": 61,
             "lon_start": 120.0, "lon_step": 0.5, "n_lon": 81},
    "years": [2025],
    "processes": {
        "msl": {"base": 101000.0},
        "u10": {"base": 0.0},
        "v10": {"base": 0.0},
    },
    "vortices": [{"storm_id": "SYN01", "start_lat": 20.05,
                  "start_lon": 150.07, "start_time": "2025-07-01T00:00:00Z",
                  "n_steps": 20, "depth_pa": 3000.0, "efold_km": 300.0,
                  "u_ms": -5.0, "v_ms": 0.0, "max_wind_ms": 40.0}],
}


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def load_card(out_dir: Path) -> dict:
    card = json.loads((out_dir / "scorecard.json").read_text())
    validate_scorecard(card)
    return card


def rows_by(card, section, **filters):
    rows = card[section]
    for key, value in filters.items():
        rows = [r for r in rows if r[key] == value]
    return rows


@pytest.fixture(scope="module")
def evaluate_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("evalrun")
    scenario = root / "scenario.json"
    scenario.write_text(json.dumps(EVALUATE_SCENARIO))
    rc = run_cli("synth", "--scenario", scenario, "--out", root / "run",
                 "--inits", "2025-07-01T00:00:00Z,2025-07-02T00:00:00Z",
                 "--max-lead-hours", "48",
                 "--models", "persistence,perfect", "--stations", "5")
    assert rc == 0
    rc = run_cli("build-climatology", "--manifest", root / "run/manifest.json")
    assert rc == 0
    return root / "run"


class TestEvaluate:
    def test_scorecard_values(self, evaluate_run, tmp_path):
        out = tmp_path / "out"
        rc = run_cli("evaluate", "--manifest", evaluate_run / "manifest.json",
                     "--out", out)
        assert rc == 0
        card = load_card(out)
        perfect_wrmse = rows_by(card, "grid_metrics", model="perfect",
                                metric="wrmse")
        assert perfect_wrmse and all(r["value"] == 0.0 for r in perfect_wrmse)
        perfect_acc = rows_by(card, "grid_metrics", model="perfect",
                              metric="acc")
        assert all(r["value"] == pytest.approx(1.0, abs=1e-12)
                   for r in perfect_acc)
        lead0 = rows_by(card, "grid_metrics", model="persistence",
                        metric="wrmse", lead_hours=0)
        assert all(r["value"] == 0.0 for r in lead0)
        later = rows_by(card, "grid_metrics", model="persistence",
                        metric="wrmse", lead_hours=48)
        assert all(r["value"] > 0.0 for r in later)
        assert all(r["n_samples"] == 2 for r in perfect_wrmse)

    def test_spectra_csvs_written(self, evaluate_run, tmp_path):
        out = tmp_path / "out"
        assert run_cli("evaluate", "--manifest",
                       evaluate_run / "manifest.json", "--out", out) == 0
        card = load_card(out)
        assert card["spectra"]
        for row in card["spectra"]:
            csv = out / row["csv"]
            assert csv.exists()
            header, first = csv.read_text().splitlines()[:2]
            assert header == "k,energy"
            assert first.startswith("0,")

    def test_byte_identical_reruns(self, evaluate_run, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("evaluate", "--manifest",
                       evaluate_run / "manifest.json", "--out", out1) == 0
        assert run_cli("evaluate", "--manifest",
                       evaluate_run / "manifest.json", "--out", out2) == 0
        assert (out1 / "scorecard.json").read_bytes() == \
            (out2 / "scorecard.json").read_bytes()

    def test_workers_do_not_change_output(self, evaluate_run, tmp_path):
        out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert run_cli("evaluate", "--manifest",
                       evaluate_run / "manifest.json", "--out", out1) == 0
        assert run_cli("evaluate", "--manifest",
                       evaluate_run / "manifest.json", "--out", out2,
                       "--workers", "4") == 0
        os.environ["RB_WORKERS"] = "3"
        try:
            assert run_cli("evaluate", "--manifest",
                           evaluate_run / "manifest.json", "--out", out3) == 0
        finally:
            del os.environ["RB_WORKERS"]
        blob = (out1 / "scorecard.json").read_bytes()
        assert (out2 / "scorecard.json").read_bytes() == blob
        assert (out3 / "scorecard.json").read_bytes() == blob

    def test_missing_model_file_exit_2_names_path(self, evaluate_run, tmp_path,
                                                  capsys):
        victim = evaluate_run / "models/perfect/2025070100/t2m.rbs"
        blob = victim.read_bytes()
        victim.unlink()
        try:
            rc = run_cli("evaluate", "--manifest",
                         evaluate_run / "manifest.json",
                         "--out", tmp_path / "out")
        finally:
            victim.write_bytes(blob)
        assert rc == 2
        assert "t2m.rbs" in capsys.readouterr().err

    @pytest.mark.parametrize("victim", [
        "truth/t2m/2025.rbs.json", "truth/t2m/2025.rbs",
        "clim/msl.rbc.json", "clim/msl.rbc"])
    def test_directory_in_place_of_a_file_is_exit_2(self, evaluate_run,
                                                     victim, tmp_path, capsys):
        victim = evaluate_run / victim
        aside = victim.with_name(victim.name + ".aside")
        victim.rename(aside)
        victim.mkdir()
        try:
            rc = run_cli("evaluate", "--manifest",
                         evaluate_run / "manifest.json",
                         "--out", tmp_path / "out")
        finally:
            victim.rmdir()
            aside.rename(victim)
        assert rc == 2
        assert str(victim) in capsys.readouterr().err

    @pytest.mark.parametrize("fault, expected", [
        ("late-start", "holds no layer valid at 2025-07-01T00:00:00Z"),
        ("truncated", "payload is"),
        ("flipped-byte", "CRC-32 mismatch in layer 728"),
    ])
    def test_broken_truth_stack_is_exit_2(self, evaluate_run, fault, expected,
                                          tmp_path, capsys):
        victim = evaluate_run / "truth/t2m/2025.rbs"
        sidecar = victim.with_name(victim.name + ".json")
        saved = {p: p.read_bytes() for p in (victim, sidecar)}
        if fault == "late-start":  # the stack now starts on 2025-07-20
            header = json.loads(saved[sidecar])
            start = fileio.parse_time(header["valid_time"])
            header["valid_time"] = fileio.format_time(start + timedelta(days=200))
            sidecar.write_text(json.dumps(header))
        elif fault == "truncated":
            victim.write_bytes(saved[victim][:-4])
        else:  # one byte of layer 728, valid at 2025-07-02T00Z
            blob = bytearray(saved[victim])
            blob[728 * 4 * 15 * 16] ^= 0xFF
            victim.write_bytes(bytes(blob))
        try:
            rc = run_cli("evaluate", "--manifest",
                         evaluate_run / "manifest.json",
                         "--out", tmp_path / "out")
        finally:
            for path, blob in saved.items():
                path.write_bytes(blob)
        assert rc == 2
        err = capsys.readouterr().err
        assert str(victim) in err
        assert expected in err

    def test_report_flattens(self, evaluate_run, tmp_path):
        out = tmp_path / "out"
        assert run_cli("evaluate", "--manifest",
                       evaluate_run / "manifest.json", "--out", out) == 0
        assert run_cli("report", "--scorecard", out / "scorecard.json",
                       "--out", tmp_path / "csv") == 0
        assert (tmp_path / "csv/grid_metrics.csv").exists()


class TestStations:
    def test_station_scores_and_qc(self, evaluate_run, tmp_path):
        out = tmp_path / "out"
        rc = run_cli("stations", "--manifest", evaluate_run / "manifest.json",
                     "--station-meta", evaluate_run / "stations_meta.csv",
                     "--station-obs", evaluate_run / "stations_obs.csv",
                     "--out", out)
        assert rc == 0
        card = load_card(out)
        assert card["qc_report"]
        for counts in card["qc_report"].values():
            assert counts["replaced"] == 0  # obs sampled from truth itself
        perfect = rows_by(card, "station_scores", model="perfect")
        assert perfect
        for row in perfect:
            assert row["rmse"] == 0.0
            assert row["bias"] == 0.0
            assert row["n_pairs"] > 0
            # climatology is declared, so station ACC is computed
            assert row["acc"] == pytest.approx(1.0, abs=1e-12)
        lead0 = rows_by(card, "station_scores", model="persistence",
                        lead_hours=0)
        assert all(r["rmse"] == 0.0 for r in lead0)


@pytest.fixture(scope="module")
def wind_run(tmp_path_factory):
    """A u10/v10/msl run with stations and a built climatology."""
    root = tmp_path_factory.mktemp("windrun")
    scenario = root / "scenario.json"
    processes = {k: v for k, v in EVALUATE_SCENARIO["processes"].items()
                 if k != "t2m"}
    scenario.write_text(json.dumps(dict(EVALUATE_SCENARIO,
                                        processes=processes)))
    assert run_cli("synth", "--scenario", scenario, "--out", root / "run",
                   "--inits", "2025-07-01T00:00:00Z", "--max-lead-hours", "12",
                   "--models", "persistence,perfect", "--stations", "4") == 0
    assert run_cli("build-climatology",
                   "--manifest", root / "run/manifest.json") == 0
    return root / "run"


class TestStationInputs:
    def run_stations(self, run, obs, out):
        return run_cli("stations", "--manifest", run / "manifest.json",
                       "--station-meta", run / "stations_meta.csv",
                       "--station-obs", obs, "--out", out)

    def test_unlisted_variable_is_left_out(self, wind_run, tmp_path):
        obs = wind_run / "stations_obs.csv"
        rows = obs.read_text().splitlines()
        station, when = rows[1].split(",")[:2]
        extra = tmp_path / "obs.csv"
        extra.write_text("\n".join(rows + [f"{station},{when},t2m,290.0"])
                         + "\n")
        assert self.run_stations(wind_run, obs, tmp_path / "plain") == 0
        assert self.run_stations(wind_run, extra, tmp_path / "extra") == 0
        assert (tmp_path / "extra/scorecard.json").read_bytes() == \
            (tmp_path / "plain/scorecard.json").read_bytes()

    @pytest.mark.parametrize("values", [["nan"], ["inf"], ["-inf"],
                                        ["1.7e308", "1.7e308"]],
                             ids=["nan", "inf", "-inf", "window-overflow"])
    def test_non_finite_input_is_exit_2(self, wind_run, values, tmp_path,
                                        capsys):
        rows = (wind_run / "stations_obs.csv").read_text().splitlines()
        station = rows[1].split(",")[0]
        obs = tmp_path / "obs.csv"
        times = ["2025-07-01T05:50:00Z", "2025-07-01T06:10:00Z"]
        obs.write_text("\n".join(rows + [
            f"{station},{when},msl,{value}"
            for when, value in zip(times, values)]) + "\n")
        assert self.run_stations(wind_run, obs, tmp_path / "out") == 2
        assert str(obs) in capsys.readouterr().err


class TestRegions:
    def test_region_mask_box(self):
        from wxverify.cli import _region_mask
        from conftest import make_grid
        grid = make_grid(5, 8, lat_top=40.0, lat_bottom=-40.0)
        mask = _region_mask(grid, (-5.0, 25.0, 45.0, 200.0))
        lat_rows = np.nonzero(mask.any(axis=1))[0]
        assert all(-5.0 <= grid.lat_deg[r] <= 25.0 for r in lat_rows)
        lon_cols = np.nonzero(mask.any(axis=0))[0]
        assert all(45.0 <= grid.lon_deg[c] <= 200.0 for c in lon_cols)
        assert _region_mask(grid, None).all()


class TestExitCodes:
    def test_insufficient_history_is_exit_3(self, evaluate_run, tmp_path,
                                            capsys):
        # single-year manifest: thresholds can neither be loaded nor built
        # from fewer than two history years
        rc = run_cli("extremes", "--manifest", evaluate_run / "manifest.json",
                     "--out", tmp_path / "out", "--lead-days", "1")
        assert rc == 3
        assert "2" in capsys.readouterr().err

    @pytest.mark.parametrize("years", [["20x3"], "2023"],
                             ids=["non-integer-year", "string-not-list"])
    def test_bad_history_years_is_exit_2(self, evaluate_run, years, capsys):
        doc = json.loads((evaluate_run / "manifest.json").read_text())
        doc["climatology"]["history_years"] = years
        path = evaluate_run / "manifest_bad_years.json"
        path.write_text(json.dumps(doc))
        rc = run_cli("build-climatology", "--manifest", path)
        assert rc == 2
        assert "history_years" in capsys.readouterr().err


@pytest.fixture(scope="module")
def extremes_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("extrun")
    scenario = root / "scenario.json"
    scenario.write_text(json.dumps(EXTREMES_SCENARIO))
    inits = ",".join(f"2025-07-{day:02d}T00:00:00Z" for day in range(17, 25))
    rc = run_cli("synth", "--scenario", scenario, "--out", root / "run",
                 "--inits", inits, "--max-lead-hours", "66",
                 "--models", "perfect,lagged:48")
    assert rc == 0
    rc = run_cli("build-climatology", "--manifest", root / "run/manifest.json")
    assert rc == 0
    return root / "run"


class TestExtremes:
    def test_perfect_forecast_perfect_scores(self, extremes_run, tmp_path):
        out = tmp_path / "out"
        rc = run_cli("extremes", "--manifest", extremes_run / "manifest.json",
                     "--out", out, "--lead-days", "1,3")
        assert rc == 0
        card = load_card(out)
        assert card["provenance"]["thresholds_sha256"]
        assert card["provenance"]["gamma"] == 0.5
        for kind in ("heatwave", "coldsurge"):
            for d in (1, 3):
                (row,) = rows_by(card, "event_scores", model="perfect",
                                 kind=kind, lead_days=d)
                assert row["tp"] > 0, row
                assert row["pod"] == 1.0
                assert row["far"] == 0.0
                assert row["csi"] == 1.0
        seg_csv = out / "segments" / "truth_day1.csv"
        lines = seg_csv.read_text().splitlines()
        assert lines[0] == "location,kind,start_day,end_day"
        assert len(lines) > 1  # planted events present

    def test_two_day_lag_misses_three_day_events(self, extremes_run, tmp_path):
        out = tmp_path / "out"
        rc = run_cli("extremes", "--manifest", extremes_run / "manifest.json",
                     "--out", out, "--lead-days", "1")
        assert rc == 0
        card = load_card(out)
        # the 3-day heat episode shifted by 2 days has IoU 0.2 < 0.5
        (row,) = rows_by(card, "event_scores", model="lagged48",
                         kind="heatwave", lead_days=1)
        assert row["csi"] < 1.0
        assert row["fn"] > 0

    def test_byte_identical_reruns(self, extremes_run, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run_cli("extremes", "--manifest",
                           extremes_run / "manifest.json",
                           "--out", out, "--lead-days", "1") == 0
        assert (out1 / "scorecard.json").read_bytes() == \
            (out2 / "scorecard.json").read_bytes()

    @pytest.mark.parametrize("gamma", ["0", "1.5", "nan"])
    def test_gamma_outside_unit_interval_rejected(self, extremes_run, gamma,
                                                  tmp_path, capsys):
        rc = run_cli("extremes", "--manifest", extremes_run / "manifest.json",
                     "--out", tmp_path / "out", "--lead-days", "1",
                     "--gamma", gamma)
        assert rc == 2
        assert "--gamma" in capsys.readouterr().err

    def test_lead_day_beyond_horizon_rejected(self, extremes_run, tmp_path):
        rc = run_cli("extremes", "--manifest", extremes_run / "manifest.json",
                     "--out", tmp_path / "out", "--lead-days", "10")
        assert rc == 2


class TestStackReads:
    def test_evaluate_parses_each_sidecar_once(self, evaluate_run, tmp_path,
                                               monkeypatch):
        loads = []
        real_load = fileio._load_sidecar
        monkeypatch.setattr(fileio, "_load_sidecar", lambda path, *magics:
                            loads.append(path) or real_load(path, *magics))
        assert run_cli("evaluate", "--manifest",
                       evaluate_run / "manifest.json",
                       "--out", tmp_path / "out") == 0
        assert any(path.suffix == ".rbs" for path in loads)
        assert len(loads) == len(set(loads))

    @pytest.mark.parametrize("command", ["build-climatology", "extremes"])
    def test_each_history_year_is_one_read(self, extremes_run, command,
                                           tmp_path, monkeypatch):
        doc = json.loads((extremes_run / "manifest.json").read_text())
        del doc["climatology"]["thresholds_path"]  # extremes builds them
        manifest = extremes_run / "manifest_no_thresholds.json"
        manifest.write_text(json.dumps(doc))
        reads = []
        real_read = fileio._Store.read
        monkeypatch.setattr(fileio._Store, "read", lambda store, start, count:
                            reads.append((store.path, start, count))
                            or real_read(store, start, count))
        argv = [command, "--manifest", manifest]
        if command == "extremes":
            argv += ["--out", tmp_path / "out", "--lead-days", "1"]
        assert run_cli(*argv) == 0
        history = {extremes_run / f"truth/t2m/{year}.rbs": n_times
                   for year, n_times in ((2023, 1460), (2024, 1464))}
        assert [read for read in reads if read[0] in history] == \
            [(path, 0, n_times) for path, n_times in history.items()]


@pytest.fixture(scope="module")
def noisy_extremes_run(tmp_path_factory):
    """The extremes scenario with red noise, so that some locations have
    events on only one side."""
    root = tmp_path_factory.mktemp("noisyext")
    scenario = root / "scenario.json"
    t2m = dict(EXTREMES_SCENARIO["processes"]["t2m"], ar1=0.8, noise_sigma=1.5)
    scenario.write_text(json.dumps(dict(EXTREMES_SCENARIO,
                                        processes={"t2m": t2m})))
    inits = ",".join(f"2025-07-{day:02d}T00:00:00Z" for day in range(17, 25))
    rc = run_cli("synth", "--scenario", scenario, "--out", root / "run",
                 "--inits", inits, "--max-lead-hours", "66",
                 "--models", "perfect,persistence,lagged:48")
    assert rc == 0
    rc = run_cli("build-climatology", "--manifest", root / "run/manifest.json")
    assert rc == 0
    return root / "run"


class TestExtremesReference:
    def test_region_counts_match_per_location_loop(self, noisy_extremes_run,
                                                   tmp_path):
        doc = json.loads((noisy_extremes_run / "manifest.json").read_text())
        box = [-30.0, 40.0, 0.0, 200.0]  # both heat episodes, not the cold one
        doc["regions"] = {"global": None, "box": box}
        manifest_path = noisy_extremes_run / "manifest_regions.json"
        manifest_path.write_text(json.dumps(doc))
        lead_days = (1, 3)
        out = tmp_path / "out"
        assert run_cli("extremes", "--manifest", manifest_path, "--out", out,
                       "--lead-days", ",".join(map(str, lead_days))) == 0
        card = load_card(out)

        manifest = fileio.load_manifest(manifest_path)
        source = fileio.FieldSource(manifest)
        thresholds, grid = fileio.read_thresholds(manifest.thresholds_file)
        masks = {"global": _region_mask(grid, None).reshape(-1),
                 "box": _region_mask(grid, box).reshape(-1)}

        def series(fields_per_day, kind):
            reduce = np.max if kind is EventKind.HEATWAVE else np.min
            return np.stack([
                reduce([f.values for f in fields], axis=0).reshape(-1)
                for fields in fields_per_day])

        sides_in_box = {"both": set(), "pred": set(), "truth": set()}
        for d in lead_days:
            days = [init + timedelta(days=d - 1)
                    for init in manifest.init_times]
            rows = [calendar_day_index(day) for day in days]
            truth = [[source.truth(VariableId.T2M, day + timedelta(hours=h))
                      for h in SYNOPTIC_HOURS] for day in days]
            for model in manifest.models:
                forecast = [[source.model(model, init, VariableId.T2M,
                                          24 * (d - 1) + h)
                             for h in SYNOPTIC_HOURS]
                            for init in manifest.init_times]
                for kind, tau in ((EventKind.HEATWAVE, thresholds.tau_heat),
                                  (EventKind.COLDSURGE, thresholds.tau_cold)):
                    counts = oracles.event_counts_per_location(
                        series(truth, kind), series(forecast, kind),
                        tau[rows, :], kind, 0.5)
                    for region, mask in masks.items():
                        expected = tuple(
                            sum(c[i] for c, inside in zip(counts, mask)
                                if inside) for i in range(3))
                        (row,) = rows_by(card, "event_scores", model=model,
                                         kind=kind.value, lead_days=d,
                                         region=region)
                        assert (row["tp"], row["fp"], row["fn"]) == expected
                    for loc, (tp, fp, fn) in enumerate(counts):
                        n_pred, n_truth = tp + fp, tp + fn
                        if masks["box"][loc] and (n_pred or n_truth):
                            side = ("both" if n_pred and n_truth
                                    else "pred" if n_pred else "truth")
                            sides_in_box[side].add((kind, loc))
        # the comparison covers locations where matching happens and
        # locations with events on one side only
        assert len(sides_in_box["both"]) >= 2
        assert sides_in_box["pred"] and sides_in_box["truth"]


class TestExtremesEmptyYear:
    def test_no_events_surface_na(self, tmp_path):
        scenario_doc = {
            "seed": 77,
            "grid": {"lat_start": 30.0, "lat_step": -20.0, "n_lat": 4,
                     "lon_start": 0.0, "lon_step": 45.0, "n_lon": 8},
            "years": [2023, 2024, 2025],
            "processes": {"t2m": {"base": 285.0, "seasonal_amp": 8.0}},
        }
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(scenario_doc))
        rc = run_cli("synth", "--scenario", scenario, "--out", tmp_path / "run",
                     "--inits", "2025-07-01T00:00:00Z", "--max-lead-hours",
                     "24", "--models", "perfect")
        assert rc == 0
        out = tmp_path / "out"
        rc = run_cli("extremes", "--manifest", tmp_path / "run/manifest.json",
                     "--out", out, "--lead-days", "1")
        assert rc == 0  # undefined scores are reported, not an error
        card = load_card(out)
        for row in card["event_scores"]:
            assert (row["tp"], row["fp"], row["fn"]) == (0, 0, 0)
            assert row["pod"] == "n/a"
            assert row["far"] == "n/a"
            assert row["csi"] == "n/a"


@pytest.fixture(scope="module")
def cyclone_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("tcrun")
    scenario = root / "scenario.json"
    scenario.write_text(json.dumps(CYCLONE_SCENARIO))
    rc = run_cli("synth", "--scenario", scenario, "--out", root / "run",
                 "--inits", "2025-07-01T00:00:00Z", "--max-lead-hours", "120",
                 "--models", "perfect,smoothed:9", "--truth-span", "run")
    assert rc == 0
    return root / "run"


class TestCyclones:
    def test_track_verification(self, cyclone_run, tmp_path):
        out = tmp_path / "out"
        rc = run_cli("cyclones", "--manifest", cyclone_run / "manifest.json",
                     "--besttrack", cyclone_run / "besttrack.csv",
                     "--out", out, "--lead-days", "1,3,5")
        assert rc == 0
        card = load_card(out)
        assert (out / "tracks.csv").exists()
        perfect = rows_by(card, "cyclone_scores", model="perfect")
        assert [r["lead_hours"] for r in perfect] == [24, 72, 120]
        for row in perfect:
            assert row["n_storms"] == 1
            assert row["dpe_km"] < 56.0  # within one 0.5-degree spacing
            assert abs(row["mslp_mae_hpa"]) < 0.5
        smoothed = rows_by(card, "cyclone_scores", model="smoothed9")
        for row in smoothed:
            assert row["mslp_bias_hpa"] > 0.0  # under-intensified

    def test_model_losing_storm_reports_na(self, cyclone_run, tmp_path):
        # raise the cutoff so the smoothed depression is "lost" everywhere:
        # with no point below cutoff the tracker never locks on
        out = tmp_path / "out"
        rc = run_cli("cyclones", "--manifest", cyclone_run / "manifest.json",
                     "--besttrack", cyclone_run / "besttrack.csv",
                     "--out", out, "--lead-days", "1",
                     "--mslp-cutoff-pa", "90000")
        assert rc == 0
        card = load_card(out)
        for row in card["cyclone_scores"]:
            assert row["n_storms"] == 0
            assert row["dpe_km"] == "n/a"
            assert row["mslp_bias_hpa"] == "n/a"


class TestLeadLists:
    @pytest.mark.parametrize("run, argv, expected", [
        ("extremes_run", ["extremes", "--lead-days", ","],
         "--lead-days: empty lead list"),
        ("extremes_run", ["extremes", "--lead-days", "0"],
         "--lead-days value 0 (-24..-6 h)"),
        ("evaluate_run", ["evaluate", "--leads", ","],
         "--leads: empty lead list"),
        ("evaluate_run", ["evaluate", "--spectra-leads", "7"],
         "--spectra-leads value 7 (7 h)"),
        ("cyclone_run", ["cyclones", "--lead-days=-1", "--besttrack", None],
         "--lead-days value -1 (-24 h)"),
    ], ids=["extremes-empty", "extremes-day-0", "evaluate-empty",
            "spectra-off-grid", "cyclones-negative"])
    def test_bad_lead_list_is_exit_2(self, request, run, argv, expected,
                                     tmp_path, capsys):
        data = request.getfixturevalue(run)
        argv = [data / "besttrack.csv" if a is None else a for a in argv]
        rc = run_cli(*argv, "--manifest", data / "manifest.json",
                     "--out", tmp_path / "out")
        assert rc == 2
        assert expected in capsys.readouterr().err


class TestManifestPath:
    @pytest.mark.parametrize("command", ["evaluate", "stations"])
    def test_directory_as_manifest_is_exit_2(self, command, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.mkdir()
        extra = (["--station-meta", tmp_path / "meta.csv",
                  "--station-obs", tmp_path / "obs.csv"]
                 if command == "stations" else [])
        rc = run_cli(command, "--manifest", manifest,
                     "--out", tmp_path / "out", *extra)
        assert rc == 2
        assert str(manifest) in capsys.readouterr().err


class TestUnbuiltClimatology:
    @pytest.mark.parametrize("command", ["evaluate", "stations"])
    def test_names_file_and_next_step(self, command, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(dict(
            EVALUATE_SCENARIO,
            processes={"t2m": EVALUATE_SCENARIO["processes"]["t2m"]})))
        run = tmp_path / "run"
        assert run_cli("synth", "--scenario", scenario, "--out", run,
                       "--inits", "2025-07-01T00:00:00Z",
                       "--max-lead-hours", "12", "--models", "perfect",
                       "--truth-span", "run", "--stations", "3") == 0
        capsys.readouterr()
        extra = (["--station-meta", run / "stations_meta.csv",
                  "--station-obs", run / "stations_obs.csv"]
                 if command == "stations" else [])
        rc = run_cli(command, "--manifest", run / "manifest.json",
                     "--out", tmp_path / "out", *extra)
        assert rc == 2
        err = capsys.readouterr().err
        assert str(run / "clim" / "t2m.rbc") in err
        assert f"wxverify build-climatology --manifest " \
               f"{run / 'manifest.json'}" in err
