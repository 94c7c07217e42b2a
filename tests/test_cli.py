from __future__ import annotations

import gc
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
import zlib
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest

import oracles
import wxverify
from conftest import (CALENDAR_DAYS, assert_read_once_in_whole_days,
                      layer_of, read_store, spilled_extremes, stamped)
from test_fileio import with_whole_checksum
from wxverify import (fileio, metrics, pipeline_climatology, pipeline_cyclones,
                      pipeline_evaluate, pipeline_extremes, pipeline_stations,
                      writers)
from wxverify.cli import main
from wxverify.climatology import (SYNOPTIC_HOURS, DailyMeanClimatology,
                                  calendar_day_index,
                                  daily_extremes_from_fields, day_span,
                                  year_times)
from wxverify.errors import ChecksumMismatch, ManifestError
from wxverify.extremes import EventKind
from wxverify.grid import (SIX_HOURS, FieldBlock, GeoGrid, VariableId,
                          latitude_weights)
from wxverify.pipeline_evaluate import _mean
from wxverify.pipeline_extremes import _region_mask
from wxverify.report import (canonical_json, new_scorecard,
                             validate_scorecard)
from wxverify.spectra import midlatitude_spectrum
from wxverify.thresholds import ThresholdBuild

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


def grid_metrics_card() -> dict:
    """A valid evaluate scorecard of one grid_metrics row."""
    return dict(new_scorecard("evaluate", "0" * 64), grid_metrics=[{
        "model": "m", "variable": "t2m", "lead_hours": 6, "metric": "wrmse",
        "value": 1.25, "n_samples": 3}])


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

    @pytest.mark.parametrize("marked", ["stations_meta.csv",
                                        "stations_obs.csv"])
    def test_byte_order_mark_is_skipped(self, wind_run, marked, tmp_path):
        # spreadsheet programs start a UTF-8 CSV with the mark EF BB BF
        run = tmp_path / "run"
        shutil.copytree(wind_run, run)
        (run / marked).write_bytes(b"\xef\xbb\xbf" + (run / marked).read_bytes())
        assert self.run_stations(wind_run, wind_run / "stations_obs.csv",
                                 tmp_path / "plain") == 0
        assert self.run_stations(run, run / "stations_obs.csv",
                                 tmp_path / "marked") == 0
        assert (tmp_path / "marked/scorecard.json").read_bytes() == \
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

    @pytest.mark.parametrize("column, value", [("lat", "nan"), ("lon", "inf")])
    def test_non_finite_station_coordinate_is_exit_2(
            self, wind_run, column, value, tmp_path, capsys):
        rows = (wind_run / "stations_meta.csv").read_text().splitlines()
        fields = rows[1].split(",")
        fields[1 if column == "lat" else 2] = value
        meta = tmp_path / "meta.csv"
        meta.write_text("\n".join([rows[0], ",".join(fields), *rows[2:]])
                        + "\n")
        assert run_cli("stations", "--manifest", wind_run / "manifest.json",
                       "--station-meta", meta, "--station-obs",
                       wind_run / "stations_obs.csv",
                       "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err == \
            f"error: {meta}:2: non-finite {column} {value!r}\n"

    @pytest.mark.parametrize("value", ["95.0", "-90.5", " 1e3"])
    def test_latitude_beyond_90_degrees_is_exit_2(self, wind_run, value,
                                                  tmp_path, capsys):
        rows = (wind_run / "stations_meta.csv").read_text().splitlines()
        fields = rows[2].split(",")
        fields[1] = value
        meta = tmp_path / "meta.csv"
        meta.write_text("\n".join([rows[0], rows[1], ",".join(fields),
                                   *rows[3:]]) + "\n")
        assert run_cli("stations", "--manifest", wind_run / "manifest.json",
                       "--station-meta", meta, "--station-obs",
                       wind_run / "stations_obs.csv",
                       "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err == \
            f"error: {meta}:3: lat {value.strip()!r} is outside [-90, 90] " \
            f"degrees\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("lat", ["86.5", "-84.25"])
    def test_station_outside_the_grid_span_is_named(self, wind_run, lat,
                                                    tmp_path, capsys):
        # the grid spans 84 S to 84 N: the stations of rows 3 and 4 lie
        # within +-90 degrees but outside it, and the first is named
        rows = (wind_run / "stations_meta.csv").read_text().splitlines()
        edited = []
        for row, new_lat in ((rows[2], lat), (rows[3], "-89.0")):
            fields = row.split(",")
            fields[1] = new_lat
            edited.append(",".join(fields))
        meta = tmp_path / "meta.csv"
        meta.write_text("\n".join([rows[0], rows[1], *edited, *rows[4:]])
                        + "\n")
        station, _, lon = rows[2].split(",")[:3]
        assert run_cli("stations", "--manifest", wind_run / "manifest.json",
                       "--station-meta", meta, "--station-obs",
                       wind_run / "stations_obs.csv",
                       "--out", tmp_path / "out") == 3
        assert capsys.readouterr().err == (
            f"error: {meta}: station {station} at lat {float(lat)}, lon "
            f"{float(lon)} is outside the grid's span: latitude [-84.0, "
            f"84.0], every longitude\n")
        assert not (tmp_path / "out").exists()

    def test_forecast_of_another_variable_is_exit_3(self, wind_run, tmp_path,
                                                    capsys):
        # the perfect model's msl store holds its u10 forecast
        run = tmp_path / "run"
        shutil.copytree(wind_run, run)
        stacks = run / "models" / "perfect" / "2025070100"
        for suffix in ("", ".json"):
            shutil.copyfile(stacks / f"u10.rbs{suffix}",
                            stacks / f"msl.rbs{suffix}")
        assert self.run_stations(run, run / "stations_obs.csv",
                                 tmp_path / "out") == 3
        assert capsys.readouterr().err == (
            f"error: variable mismatch: {stacks / 'msl.rbs'} holds u10, not "
            f"msl\n")
        assert not (tmp_path / "out").exists()

    def test_init_off_the_synoptic_hours_is_reported_before_the_csvs_are_read(
            self, wind_run, tmp_path, capsys):
        # the run's model stacks stand in for a 03 UTC init; the
        # unreadable CSV is never parsed
        run = tmp_path / "run"
        shutil.copytree(wind_run, run)
        doc = json.loads((run / "manifest.json").read_text())
        doc["init_times"] = ["2025-07-01T03:00:00Z"]
        (run / "manifest.json").write_text(json.dumps(doc))
        for model in ("persistence", "perfect"):
            (run / "models" / model / "2025070100").rename(
                run / "models" / model / "2025070103")
        garbage = tmp_path / "garbage.csv"
        garbage.write_text("not,a,station,file\n")
        assert run_cli("stations", "--manifest", run / "manifest.json",
                       "--station-meta", garbage, "--station-obs", garbage,
                       "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err == (
            f"error: {run / 'manifest.json'}: init_times: stations evaluation "
            f"expects init times at 00/06/12/18 UTC, got "
            f"2025-07-01T03:00:00Z\n")

    @pytest.mark.parametrize("variable", ["msl", "u10"])
    def test_missing_climatology_is_reported_before_the_csvs_are_read(
            self, wind_run, variable, tmp_path, capsys):
        # the observations carry msl only; every stored manifest variable
        # needs its climatology, and the unreadable CSV is never parsed
        run = tmp_path / "run"
        shutil.copytree(wind_run, run)
        rows = (run / "stations_obs.csv").read_text().splitlines()
        (run / "stations_obs.csv").write_text("\n".join(
            [rows[0]] + [r for r in rows[1:] if ",msl," in r]) + "\n")
        assert self.run_stations(run, run / "stations_obs.csv",
                                 tmp_path / "ok") == 0
        (run / "clim" / f"{variable}.rbc").unlink()
        garbage = tmp_path / "garbage.csv"
        garbage.write_text("not,a,station,file\n")
        capsys.readouterr()
        assert self.run_stations(run, garbage, tmp_path / "out") == 2
        assert capsys.readouterr().err == (
            f"error: climatology file {run / 'clim' / variable}.rbc has not "
            f"been built; run `wxverify build-climatology --manifest "
            f"{run / 'manifest.json'}` first\n")


class TestRegions:
    def test_region_mask_box(self):
        from wxverify.pipeline_extremes import _region_mask
        from conftest import make_grid
        grid = make_grid(5, 8, lat_top=40.0, lat_bottom=-40.0)
        mask = _region_mask(grid, (-5.0, 25.0, 45.0, 200.0))
        lat_rows = np.nonzero(mask.any(axis=1))[0]
        assert all(-5.0 <= grid.lat_deg[r] <= 25.0 for r in lat_rows)
        lon_cols = np.nonzero(mask.any(axis=0))[0]
        assert all(45.0 <= grid.lon_deg[c] <= 200.0 for c in lon_cols)
        assert _region_mask(grid, None).all()

    def test_a_box_across_0_degrees_holds_both_sides(self):
        grid = GeoGrid.regular_global(5.0)
        mask = _region_mask(grid, (-30.0, 60.0, -20.0, 20.0))
        lons = grid.lon_deg[mask.any(axis=0)]
        assert lons.tolist() == [0.0, 5.0, 10.0, 15.0, 20.0,
                                 340.0, 345.0, 350.0, 355.0]
        lats = grid.lat_deg[mask.any(axis=1)]
        assert lats.min() == -30.0 and lats.max() == 60.0
        assert (mask == np.outer(mask.any(axis=1), mask.any(axis=0))).all()

    @pytest.mark.parametrize("lon_min, lon_max", [(0.0, 360.0),
                                                  (-180.0, 180.0),
                                                  (-200.0, 400.0)])
    def test_a_box_360_degrees_wide_holds_every_longitude(self, lon_min,
                                                          lon_max):
        grid = GeoGrid.regular_global(5.0)
        mask = _region_mask(grid, (-90.0, 90.0, lon_min, lon_max))
        assert mask.all()

    @pytest.mark.parametrize("box", [(-30.0, 40.0, 0.0, 200.0),
                                     (-5.0, 25.0, 45.0, 200.0),
                                     (0.0, 0.0, 22.5, 22.5),
                                     (-90.0, 90.0, 100.0, 359.9)])
    def test_a_box_within_0_to_360_selects_as_a_plain_range(self, box):
        # lon_min <= lon <= lon_max, as before longitudes wrapped
        lat_min, lat_max, lon_min, lon_max = box
        for grid in (GeoGrid.regular_global(5.0),
                     GeoGrid.uniform(84.0, -12.0, 15, 0.0, 22.5, 16)):
            lat_ok = (grid.lat_deg >= lat_min) & (grid.lat_deg <= lat_max)
            lon_ok = (grid.lon_deg >= lon_min) & (grid.lon_deg <= lon_max)
            assert (_region_mask(grid, box)
                    == np.outer(lat_ok, lon_ok)).all()

    BAD_BOXES = {
        "lat-reversed": [20.0, -20.0, 0.0, 10.0],
        "lon-reversed": [-20.0, 20.0, 10.0, 0.0],
        "nan": [-20.0, 20.0, float("nan"), 10.0],
        "inf": [-20.0, float("inf"), 0.0, 10.0],
        "three-numbers": [-20.0, 20.0, 0.0],
        "strings": ["-20", "20", "0", "10"],
        "bool": [-20.0, 20.0, False, 10.0],
        "object": {"lat_min": -20.0},
        "number": 5,
    }

    @pytest.mark.parametrize("box", BAD_BOXES.values(), ids=BAD_BOXES.keys())
    def test_a_bad_box_is_exit_2_naming_it(self, extremes_run, box,
                                           tmp_path, capsys):
        doc = json.loads((extremes_run / "manifest.json").read_text())
        doc["regions"] = {"global": None, "tropics": box}
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(doc))  # NaN and Infinity as spelt
        capsys.readouterr()
        assert run_cli("extremes", "--manifest", manifest,
                       "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert f"{manifest}: regions.tropics must be null or" in err
        assert not (tmp_path / "out").exists()


class TestExitCodes:
    def test_insufficient_history_is_exit_3(self, evaluate_run, tmp_path,
                                            capsys):
        # single-year manifest with a thresholds path: thresholds cannot
        # be built from fewer than two history years
        doc = json.loads((evaluate_run / "manifest.json").read_text())
        manifest = with_manifest(
            evaluate_run, f"manifest_{tmp_path.name}.json",
            climatology=dict(
                doc["climatology"],
                daily_mean_pattern=str(tmp_path / "clim/{variable}.rbc"),
                thresholds_path=str(tmp_path / "clim/thresholds.rbt")))
        assert len(doc["climatology"]["history_years"]) == 1
        rc = run_cli("build-climatology", "--manifest", manifest)
        assert rc == 3
        assert "2" in capsys.readouterr().err

    def test_degenerate_anomaly_is_exit_3(self, tmp_path, capsys):
        # a constant truth equals its climatology: no anomaly to correlate
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(dict(
            EVALUATE_SCENARIO, processes={"t2m": {"base": 285.0}})))
        run = tmp_path / "run"
        assert run_cli("synth", "--scenario", scenario, "--out", run,
                       "--inits", "2025-07-01T00:00:00Z",
                       "--max-lead-hours", "12", "--models", "perfect") == 0
        assert run_cli("build-climatology",
                       "--manifest", run / "manifest.json") == 0
        capsys.readouterr()
        rc = run_cli("evaluate", "--manifest", run / "manifest.json",
                     "--out", tmp_path / "out")
        assert rc == 3
        assert capsys.readouterr().err == \
            "error: anomaly field is (near-)constant zero\n"

    @pytest.mark.parametrize("magic", ["RBCLIM1", "RBTHRESH1"])
    def test_a_whole_payload_checksum_is_exit_2(self, extremes_run, magic,
                                                tmp_path, capsys):
        # climatologies and thresholds as written before they were read by
        # the day, with one CRC-32 over the whole payload
        if magic == "RBTHRESH1":
            path, manifest = thresholds_copy(extremes_run, tmp_path)
            command = "extremes"
        else:
            path = tmp_path / "t2m.rbc"
            for suffix in ("", ".json"):
                shutil.copyfile(f"{extremes_run / 'clim/t2m.rbc'}{suffix}",
                                f"{path}{suffix}")
            doc = json.loads((extremes_run / "manifest.json").read_text())
            manifest = with_manifest(
                extremes_run, f"manifest_{tmp_path.name}.json",
                climatology=dict(doc["climatology"], daily_mean_pattern=str(
                    tmp_path / "{variable}.rbc")))
            command = "evaluate"
        with_whole_checksum(path)
        capsys.readouterr()
        extra = ["--lead-days", "1,3"] if command == "extremes" else []
        assert run_cli(command, "--manifest", manifest,
                       "--out", tmp_path / "out", *extra) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: one checksum over the whole payload is no "
            f"longer read; rerun build-climatology to rewrite it\n")
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("years", [[0, 2025], [-5, 2025], [2025, 10000],
                                       [9999]])
    def test_history_year_beyond_the_calendar_is_exit_2(
            self, evaluate_run, years, tmp_path, capsys):
        doc = json.loads((evaluate_run / "manifest.json").read_text())
        doc["climatology"]["history_years"] = years
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        assert run_cli("build-climatology", "--manifest", path) == 2
        bad = next(year for year in years if not 1 <= year <= 9998)
        assert capsys.readouterr().err == (
            f"error: {path}: climatology history_years lists {bad}; a "
            f"history year must lie in 1..9998\n")

    @pytest.mark.parametrize("command", ["evaluate", "extremes", "stations"])
    def test_init_time_beyond_the_calendar_is_exit_2(
            self, evaluate_run, command, tmp_path, capsys):
        path = with_manifest(evaluate_run, "manifest_year_9999.json",
                             init_times=["9999-12-31T00:00:00Z"])
        stations = ["--station-meta", evaluate_run / "stations_meta.csv",
                    "--station-obs", evaluate_run / "stations_obs.csv"] \
            if command == "stations" else []
        assert run_cli(command, "--manifest", path, *stations,
                       "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err == (
            f"error: {path}: init_times entry 9999-12-31T00:00:00Z plus "
            f"max_lead_hours 48 runs past year 9999\n")
        assert not (tmp_path / "out").exists()


class TestUnwritableOutput:
    """An output path that cannot be written is exit 2 naming it, and
    leaves no temp file: an output directory that is a file, or a file to
    write that is a directory."""

    def command(self, name, request, tmp_path):
        """The argv of ``name``, the output directory it writes into and
        the first file it writes there."""
        if name == "synth":
            scenario = tmp_path / "scenario.json"
            scenario.write_text(json.dumps(EVALUATE_SCENARIO))
            out = tmp_path / "run"
            return (["synth", "--scenario", scenario, "--out", out], out,
                    "manifest.json")
        if name == "build-climatology":
            run = tmp_path / "run"
            shutil.copytree(request.getfixturevalue("evaluate_run"), run)
            shutil.rmtree(run / "clim")
            manifest = fileio.load_manifest(run / "manifest.json", require=())
            first = next(v for v in manifest.variables if not v.derived)
            return (["build-climatology", "--manifest", run / "manifest.json"],
                    run / "clim", manifest.climatology_path(first).name)
        out = tmp_path / "out"
        if name == "report":
            card = tmp_path / "scorecard.json"
            card.write_text(json.dumps(grid_metrics_card()))
            return (["report", "--scorecard", card, "--out", out], out,
                    "grid_metrics.csv")
        run = request.getfixturevalue({"evaluate": "evaluate_run",
                                       "stations": "evaluate_run",
                                       "extremes": "extremes_run",
                                       "cyclones": "cyclone_run"}[name])
        argv = [name, "--manifest", run / "manifest.json", "--out", out]
        if name == "extremes":
            argv += ["--lead-days", "1,3"]
        elif name == "cyclones":
            argv += ["--besttrack", run / "besttrack.csv"]
        elif name == "stations":
            argv += ["--station-meta", run / "stations_meta.csv",
                     "--station-obs", run / "stations_obs.csv"]
        return argv, out, "scorecard.json"

    @pytest.mark.parametrize("name", ["synth", "build-climatology",
                                      "evaluate", "extremes", "cyclones",
                                      "stations", "report"])
    @pytest.mark.parametrize("case", ["directory-is-a-file",
                                      "file-is-a-directory"])
    def test_is_exit_2_naming_the_path(self, name, case, request, tmp_path,
                                       capsys):
        argv, out, first = self.command(name, request, tmp_path)
        if case == "directory-is-a-file":
            out.write_text("")
            named = f"error: cannot write {out}{os.sep}"
        else:
            (out / first).mkdir(parents=True)
            named = f"error: cannot write {out / first}: "
        capsys.readouterr()
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(named), err
        assert err.count("\n") == 1
        assert list(tmp_path.rglob("*.tmp")) == []


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

    def test_names_the_digest_of_its_thresholds_file(self, extremes_run,
                                                     tmp_path):
        # the digest of the sidecar, which holds the CRC-32 of every day
        # layer that a run reads
        path, manifest = thresholds_copy(extremes_run, tmp_path)
        assert run_cli("extremes", "--manifest", manifest, "--out",
                       tmp_path / "out", "--lead-days", "1") == 0
        sidecar = path.with_name(path.name + ".json")
        assert load_card(tmp_path / "out")["provenance"][
            "thresholds_sha256"] == \
            hashlib.sha256(sidecar.read_bytes()).hexdigest()

    def test_a_rebuilt_sidecar_changes_the_digest(self, extremes_run,
                                                  tmp_path):
        doc = json.loads((extremes_run / "manifest.json").read_text())
        clim = doc["climatology"]
        assert clim["history_years"] == [2023, 2024]
        path = tmp_path / "thresholds.rbt"
        manifest = with_manifest(
            extremes_run, f"manifest_{tmp_path.name}.json",
            climatology=dict(clim, history_years=[2023, 2024, 2025],
                             thresholds_path=str(path),
                             daily_mean_pattern=str(
                                 tmp_path / "{variable}.rbc")))
        assert run_cli("build-climatology", "--manifest", manifest) == 0
        digests = []
        for run_manifest, out in ((extremes_run / "manifest.json", "built"),
                                  (manifest, "rebuilt")):
            assert run_cli("extremes", "--manifest", run_manifest, "--out",
                           tmp_path / out, "--lead-days", "1") == 0
            digests.append(load_card(tmp_path / out)["provenance"][
                "thresholds_sha256"])
        sidecar = path.with_name(path.name + ".json")
        assert digests[1] == hashlib.sha256(sidecar.read_bytes()).hexdigest()
        assert digests[0] != digests[1]

    def test_thresholds_not_built_are_exit_2(self, extremes_run, tmp_path,
                                             capsys):
        path, manifest = thresholds_copy(extremes_run, tmp_path)
        for suffix in ("", ".json"):
            Path(f"{path}{suffix}").unlink()
        capsys.readouterr()
        assert run_cli("extremes", "--manifest", manifest, "--out",
                       tmp_path / "out", "--lead-days", "1") == 2
        assert capsys.readouterr().err == (
            f"error: thresholds file {path} has not been built; run "
            f"`wxverify build-climatology --manifest {manifest}` first\n")
        assert not (tmp_path / "out").exists()

    def test_a_manifest_without_thresholds_is_exit_2(self, extremes_run,
                                                     tmp_path, capsys):
        manifest = without_thresholds(extremes_run)
        capsys.readouterr()
        assert run_cli("extremes", "--manifest", manifest, "--out",
                       tmp_path / "out", "--lead-days", "1") == 2
        assert capsys.readouterr().err == (
            f"error: {manifest}: manifest declares no climatology "
            f"thresholds_path\n")
        assert not (tmp_path / "out").exists()

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

    def test_init_off_00z_is_exit_2_naming_it(self, extremes_run, tmp_path,
                                              capsys):
        # every init reads the stacks of the first, so that the load check
        # passes; the first init off 00Z is named
        doc = json.loads((extremes_run / "manifest.json").read_text())
        models = {name: pattern.replace("{init}", "2025071700")
                  for name, pattern in doc["models"].items()}
        manifest = with_manifest(
            extremes_run, "manifest_12z.json", models=models,
            init_times=["2025-07-17T00:00:00Z", "2025-07-18T12:00:00Z",
                        "2025-07-19T06:00:00Z"])
        assert run_cli("extremes", "--manifest", manifest, "--out",
                       tmp_path / "out", "--lead-days", "1") == 2
        assert capsys.readouterr().err == (
            f"error: {manifest}: init_times: extremes evaluation expects 00Z "
            f"init times, got 2025-07-18T12:00:00Z\n")
        assert not (tmp_path / "out").exists()


def thresholds_copy(run, tmp_path):
    """A copy of the run's thresholds file and sidecar in ``tmp_path``,
    and a manifest of the run that names it."""
    doc = json.loads((run / "manifest.json").read_text())
    source = run / doc["climatology"]["thresholds_path"]
    path = tmp_path / "thresholds.rbt"
    for suffix in ("", ".json"):
        Path(f"{path}{suffix}").write_bytes(
            Path(f"{source}{suffix}").read_bytes())
    clim = dict(doc["climatology"], thresholds_path=str(path))
    return path, with_manifest(run, f"manifest_{tmp_path.name}.json",
                               climatology=clim)


class TestThresholdsByDay:
    """``extremes`` reads only the run of calendar days its lead days fall
    on from the thresholds, each day layer checked by its own CRC-32."""

    @staticmethod
    def span(manifest_path, lead_days):
        manifest = fileio.load_manifest(manifest_path)
        return day_span(calendar_day_index(init + timedelta(days=d - 1))
                        for init in manifest.init_times for d in lead_days)

    def test_reads_only_the_days_of_its_lead_days(self, extremes_run,
                                                  tmp_path, monkeypatch,
                                                  store_reads):
        manifest = extremes_run / "manifest.json"
        path = fileio.load_manifest(manifest).thresholds_file
        argv = ["extremes", "--manifest", manifest, "--lead-days", "1,3"]
        assert run_cli(*argv, "--out", tmp_path / "days") == 0
        first, n_days = self.span(manifest, (1, 3))
        assert (first, n_days) == (197, 10)  # Jul 17 .. 26
        assert [read for read in store_reads if read[0] == path] == \
            [(path, first, n_days), (path, 365 + first, n_days)]
        full = fileio.FieldSource.thresholds
        monkeypatch.setattr(fileio.FieldSource, "thresholds",
                            lambda source, days: full(source, CALENDAR_DAYS))
        assert run_cli(*argv, "--out", tmp_path / "whole") == 0
        whole = sorted((tmp_path / "whole").rglob("*"))
        assert [p.relative_to(tmp_path / "whole") for p in whole] == \
            [p.relative_to(tmp_path / "days")
             for p in sorted((tmp_path / "days").rglob("*"))]
        for p in whole:
            if p.is_file():
                assert p.read_bytes() == (
                    tmp_path / "days" / p.relative_to(tmp_path / "whole")
                ).read_bytes()

    @pytest.mark.parametrize("layer, inside", [
        (197, True), (365 + 206, True), (196, False), (365 + 207, False)])
    def test_a_corrupt_layer_fails_only_inside_the_span(
            self, extremes_run, tmp_path, capsys, layer, inside):
        path, manifest = thresholds_copy(extremes_run, tmp_path)
        assert run_cli("extremes", "--manifest", manifest, "--out",
                       tmp_path / "clean", "--lead-days", "1,3") == 0
        blob = bytearray(path.read_bytes())
        blob[layer * (len(blob) // 730) + 7] ^= 0x10
        path.write_bytes(bytes(blob))
        capsys.readouterr()
        rc = run_cli("extremes", "--manifest", manifest, "--out",
                     tmp_path / "out", "--lead-days", "1,3")
        err = capsys.readouterr().err
        if not inside:
            # a day the run does not read is neither read nor hashed
            assert rc == 0
            assert load_card(tmp_path / "out") == \
                load_card(tmp_path / "clean")
            return
        assert rc == 2
        assert f"{path}: CRC-32 mismatch in layer {layer}" in err

    def test_thresholds_on_another_grid_are_exit_3(self, extremes_run,
                                                   tmp_path, capsys):
        # the same number of locations, shifted by half a grid step: the
        # truth blocks of the lead days are on another grid
        path, manifest = thresholds_copy(extremes_run, tmp_path)
        sidecar = path.with_name(path.name + ".json")
        header = json.loads(sidecar.read_text())
        header["lat_start"] -= 6.0
        sidecar.write_text(json.dumps(header))
        capsys.readouterr()
        assert run_cli("extremes", "--manifest", manifest, "--out",
                       tmp_path / "out", "--lead-days", "1") == 3
        # the first truth store, read on the thresholds' grid, is named
        truth = extremes_run / "truth/t2m/2025.rbs"
        assert capsys.readouterr().err == (
            f"error: grid mismatch: {truth} is on {sidecar_grid(truth)}, "
            f"not {sidecar_grid(path)}\n")
        assert not (tmp_path / "out").exists()

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

    def test_stations_read_each_forecast_once_and_the_run_days(
            self, evaluate_run, tmp_path, monkeypatch, store_reads):
        manifest = fileio.load_manifest(evaluate_run / "manifest.json")
        argv = ["stations", "--manifest", manifest.path,
                "--station-meta", evaluate_run / "stations_meta.csv",
                "--station-obs", evaluate_run / "stations_obs.csv"]
        full = pipeline_stations._station_climatology
        with monkeypatch.context() as whole_year:
            whole_year.setattr(pipeline_stations, "_station_climatology",
                               lambda source, variable, days, interpolator:
                               full(source, variable, CALENDAR_DAYS,
                                    interpolator))
            assert run_cli(*argv, "--out", tmp_path / "whole") == 0
        store_reads.clear()
        assert run_cli(*argv, "--out", tmp_path / "days") == 0
        days = day_span(calendar_day_index(init + timedelta(hours=lead))
                        for init in manifest.init_times
                        for lead in manifest.lead_hours)
        # a chunk holds every day of the run on this grid: one read of
        # each variable's days
        assert days[1] <= metrics.CHUNK_BYTES // (8 * 15 * 16)
        assert [r for r in store_reads if "clim" in r[0].parts] == \
            [(manifest.climatology_path(v), *days)
             for v in manifest.variables]
        assert sorted(r for r in store_reads if "models" in r[0].parts) == \
            sorted((manifest.model_path(name, init, v, 0), 0,
                    len(manifest.lead_hours))
                   for name in manifest.models for v in manifest.variables
                   for init in manifest.init_times)
        assert (tmp_path / "days/scorecard.json").read_bytes() == \
            (tmp_path / "whole/scorecard.json").read_bytes()
        with monkeypatch.context() as one_layer:
            one_layer.setattr(metrics, "CHUNK_BYTES", 1)
            assert run_cli(*argv, "--out", tmp_path / "layers") == 0
        assert (tmp_path / "layers/scorecard.json").read_bytes() == \
            (tmp_path / "whole/scorecard.json").read_bytes()

    def test_stations_read_the_qc_reference_as_one_block_per_stack(
            self, evaluate_run, tmp_path, store_reads):
        manifest = fileio.load_manifest(evaluate_run / "manifest.json")
        assert run_cli("stations", "--manifest", manifest.path,
                       "--station-meta", evaluate_run / "stations_meta.csv",
                       "--station-obs", evaluate_run / "stations_obs.csv",
                       "--out", tmp_path / "out") == 0
        valid_times = sorted({init + timedelta(hours=lead)
                              for init in manifest.init_times
                              for lead in manifest.lead_hours})
        first = valid_times[0]
        start = (first - first.replace(month=1, day=1)) // SIX_HOURS
        assert len(valid_times) == 13  # two inits a day apart, leads to 48 h
        assert sorted(r for r in store_reads if "truth" in r[0].parts) == \
            sorted((manifest.truth_path(v, first), start, len(valid_times))
                   for v in manifest.variables)

    @pytest.mark.parametrize("command", ["build-climatology"])
    def test_each_history_year_is_read_once_in_whole_days(
            self, extremes_run, command, tmp_path, store_reads):
        manifest = without_thresholds(extremes_run)
        assert run_cli(command, "--manifest", manifest) == 0
        history = {year: extremes_run / f"truth/t2m/{year}.rbs"
                   for year in (2023, 2024)}
        # as many whole days as CHUNK_BYTES of float32 layers holds on the
        # 15 x 16 grid, read a block of days at a time across the years
        days = metrics.CHUNK_BYTES // (4 * 4 * 15 * 16)
        assert days < 365
        want = []
        for first in range(0, 365, days):
            for year, path in history.items():
                times = year_times(year, range(first, min(first + days, 365)))
                start = times[0] - datetime(year, 1, 1, tzinfo=timezone.utc)
                want.append((path, start // SIX_HOURS, len(times)))
        reads = [read for read in store_reads
                 if read[0] in history.values()]
        assert reads == want
        for year, path in history.items():
            # in 2024, the block of Feb 28 holds Feb 29 too
            assert_read_once_in_whole_days(
                [read for read in reads if read[0] == path],
                len(year_times(year)), 4 * (days + 1))


def without_thresholds(run):
    """A copy of the run's manifest without a thresholds path."""
    doc = json.loads((run / "manifest.json").read_text())
    del doc["climatology"]["thresholds_path"]
    path = run / "manifest_no_thresholds.json"
    path.write_text(json.dumps(doc))
    return path


def whole_year_stores(run, out):
    """The T2M climatology and thresholds of the run, from whole history
    years by the field-by-field reductions of ``oracles``, written to
    ``out/t2m.rbc`` and ``out/thresholds.rbt``."""
    manifest = fileio.load_manifest(run / "manifest.json")
    per_year, extremes = [], {}
    for year in manifest.history_years:
        stack = read_store(manifest.history_path(
            VariableId.T2M, datetime(year, 1, 1, tzinfo=timezone.utc)))
        fields = [layer_of(stack, i) for i in range(len(stack.valid_times))]
        per_year.append(oracles.daily_means_loop(fields))
        extremes[year] = oracles.daily_extremes_loop(fields)
    writers.write_daily_climatology([DailyMeanClimatology(
        stack.grid, VariableId.T2M,
        oracles.build_daily_mean_climatology(per_year),
        manifest.history_years)], out / "t2m.rbc")
    writers.write_thresholds(
        ThresholdBuild(oracles.history_from_extremes(extremes)),
        stack.grid, out / "thresholds.rbt")


@pytest.fixture(scope="module")
def half_year_run(tmp_path_factory):
    """t2m, u10, v10 and msl on a 30 x 48 grid with stations, and inits on
    Jan 15 and Jul 15: each variable's climatology days run from Jan 15
    to Jul 15."""
    root = tmp_path_factory.mktemp("halfyear")
    scenario = root / "scenario.json"
    scenario.write_text(json.dumps(dict(EVALUATE_SCENARIO, grid={
        "lat_start": 87.0, "lat_step": -6.0, "n_lat": 30,
        "lon_start": 0.0, "lon_step": 7.5, "n_lon": 48})))
    assert run_cli("synth", "--scenario", scenario, "--out", root / "run",
                   "--inits", "2025-01-15T00:00:00Z,2025-07-15T00:00:00Z",
                   "--max-lead-hours", "12", "--models", "persistence,perfect",
                   "--stations", "6") == 0
    assert run_cli("build-climatology",
                   "--manifest", root / "run/manifest.json") == 0
    return root / "run"


#: Bytes of one variable's climatology days in ``half_year_run``: 182
#: float64 days of its 30 x 48 grid.
HALF_YEAR_DAYS_BYTES = 182 * 30 * 48 * 8


class TestClimatologyMemory:
    """``evaluate`` holds the climatology days of one block at a time, and
    ``stations`` one chunk of one variable's gridded days."""

    def test_evaluate_of_four_variables_peaks_as_of_one(self, half_year_run,
                                                        tmp_path):
        manifest = half_year_run / "manifest.json"
        one = with_manifest(half_year_run, "manifest_t2m.json",
                            variables=["t2m"])
        # imports, caches
        pipeline_evaluate.evaluate(manifest, tmp_path / "warm")
        peaks = []
        for name, path in (("one", one), ("four", manifest)):
            tracemalloc.start()
            try:
                pipeline_evaluate.evaluate(path, tmp_path / name)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # the run of one variable holds no more than a few of its days;
        # each further variable's days replace the last's
        assert peaks[0] < HALF_YEAR_DAYS_BYTES / 4
        assert peaks[1] - peaks[0] < HALF_YEAR_DAYS_BYTES

    def test_evaluate_days_held_grow_with_neither_inits_nor_spread(
            self, half_year_run, tmp_path, monkeypatch):
        # one init, or two half a year apart: each block's days are read
        # next to its truth (the one day of leads 0 to 12 h) and released
        # with it, so the peak does not hold the 182 days (2.1 MB) between
        # the inits
        day = HALF_YEAR_DAYS_BYTES // 182
        manifests = [with_manifest(half_year_run, f"manifest_{name}.json",
                                   init_times=inits)
                     for name, inits in (
                         ("jan", ["2025-01-15T00:00:00Z"]),
                         ("jul", ["2025-07-15T00:00:00Z"]),
                         ("janjul", ["2025-01-15T00:00:00Z",
                                     "2025-07-15T00:00:00Z"]))]
        log = trace_reads(monkeypatch, "climatology")
        peaks = []
        for manifest in manifests:
            # imports, caches
            pipeline_evaluate.evaluate(manifest, tmp_path / "warm")
            log.clear()
            tracemalloc.start()
            try:
                pipeline_evaluate.evaluate(manifest, tmp_path / "out")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            # the one day of each (variable, init) block, four variables
            n_inits = len(fileio.load_manifest(manifest).init_times)
            assert [nbytes for *_, nbytes in log] == [day] * 4 * n_inits
        assert max(peaks) - min(peaks) < 4 * day, peaks

    def test_stations_holds_no_other_variables_gridded_days(
            self, half_year_run, monkeypatch):
        # the memory held as each variable's climatology is read stays
        # within a tenth of one variable's days of that at the first read:
        # no earlier variable's gridded days are held
        read = fileio.FieldSource.climatology
        held = {}  # variable -> memory held as its first days are read

        def climatology(source, variable, days):
            held.setdefault(variable, tracemalloc.get_traced_memory()[0])
            return read(source, variable, days)

        monkeypatch.setattr(fileio.FieldSource, "climatology", climatology)
        tracemalloc.start()
        try:
            pipeline_stations.stations(half_year_run / "manifest.json",
                                       half_year_run / "stations_meta.csv",
                                       half_year_run / "stations_obs.csv")
        finally:
            tracemalloc.stop()
        assert len(held) == 4
        assert max(held.values()) - held[VariableId.T2M] \
            < HALF_YEAR_DAYS_BYTES / 10, held

    @pytest.mark.parametrize("chunk", [1, 2**30],
                             ids=["a-day-a-chunk", "one-chunk"])
    def test_stations_climatology_chunkings_change_no_byte(
            self, half_year_run, tmp_path, monkeypatch, store_reads, chunk):
        # each variable's 182 days are read and interpolated to the
        # stations a chunk of days at a time, each day once and in order:
        # by default 45 days of the 30 x 48 grid a chunk
        manifest = fileio.load_manifest(half_year_run / "manifest.json")
        first, n_days = day_span(
            calendar_day_index(when) for when in manifest.valid_times)
        assert (first, n_days) == (14, 182)
        cards = []
        for budget in (metrics.CHUNK_BYTES, chunk):
            store_reads.clear()
            monkeypatch.setattr(metrics, "CHUNK_BYTES", budget)
            out = tmp_path / f"out{len(cards)}"
            assert run_cli("stations", "--manifest", manifest.path,
                           "--station-meta",
                           half_year_run / "stations_meta.csv",
                           "--station-obs", half_year_run / "stations_obs.csv",
                           "--out", out) == 0
            per_chunk = max(1, budget // (8 * 30 * 48))
            for v in manifest.variables:
                assert [(start, count) for path, start, count in store_reads
                        if path == manifest.climatology_path(v)] == [
                    (first + lo, min(per_chunk, n_days - lo))
                    for lo in range(0, n_days, per_chunk)]
            cards.append((out / "scorecard.json").read_bytes())
        assert cards[1] == cards[0]


@pytest.fixture(scope="module")
def block_run(tmp_path_factory):
    """t2m on a 60 x 120 grid with 6 stations, a built climatology, inits
    on Jul 1 and Jul 2, leads to 24 h and three models."""
    root = tmp_path_factory.mktemp("blockrun")
    scenario = root / "scenario.json"
    scenario.write_text(json.dumps(dict(
        EVALUATE_SCENARIO,
        processes={"t2m": EVALUATE_SCENARIO["processes"]["t2m"]},
        grid={"lat_start": 88.5, "lat_step": -3.0, "n_lat": 60,
              "lon_start": 0.0, "lon_step": 3.0, "n_lon": 120})))
    assert run_cli("synth", "--scenario", scenario, "--out", root / "run",
                   "--inits", "2025-07-01T00:00:00Z,2025-07-02T00:00:00Z",
                   "--max-lead-hours", "24",
                   "--models", "persistence,perfect,smoothed:3",
                   "--stations", "6") == 0
    assert run_cli("build-climatology",
                   "--manifest", root / "run/manifest.json") == 0
    return root / "run"


@pytest.fixture(scope="module")
def many_inits_run(tmp_path_factory):
    """``block_run`` with 8 daily inits from Jul 1 and two models."""
    root = tmp_path_factory.mktemp("manyinits")
    scenario = root / "scenario.json"
    scenario.write_text(json.dumps(dict(
        EVALUATE_SCENARIO,
        processes={"t2m": EVALUATE_SCENARIO["processes"]["t2m"]},
        grid={"lat_start": 88.5, "lat_step": -3.0, "n_lat": 60,
              "lon_start": 0.0, "lon_step": 3.0, "n_lon": 120})))
    assert run_cli("synth", "--scenario", scenario, "--out", root / "run",
                   "--inits", ",".join(f"2025-07-0{day}T00:00:00Z"
                                       for day in range(1, 9)),
                   "--max-lead-hours", "24",
                   "--models", "persistence,smoothed:3",
                   "--stations", "6") == 0
    assert run_cli("build-climatology",
                   "--manifest", root / "run/manifest.json") == 0
    return root / "run"


#: Bytes of one float32 layer of ``block_run``'s grid.
BLOCK_RUN_LAYER = 60 * 120 * 4

#: Bytes of one float32 layer of ``extremes_run``'s grid.
EXTREMES_LAYER = 15 * 16 * 4


def trace_reads(monkeypatch, *names):
    """Record ``(name, traced bytes held as the read starts, bytes of the
    values it returns)`` for each call of the ``FieldSource`` reads
    ``names``, into the returned list."""
    log = []

    def traced(name, read):
        def call(source, *args, **kwargs):
            held = tracemalloc.get_traced_memory()[0]
            got = read(source, *args, **kwargs)
            values = getattr(got, "values", getattr(got, "day_mean", None))
            log.append((name, held, 0 if values is None else values.nbytes))
            return got
        return call

    for name in names:
        monkeypatch.setattr(fileio.FieldSource, name, traced(
            name, getattr(fileio.FieldSource, name)))
    return log


def traced_run(call):
    """``call()`` under tracemalloc, after an untraced warm-up call."""
    call()  # imports, caches
    tracemalloc.start()
    try:
        call()
    finally:
        tracemalloc.stop()


class TestBlockMemory:
    """Each scoring command holds at most one block per role: the truth,
    one forecast and the held climatology days. A slack of a float32
    layer or two covers the sidecars parsed and the scores kept along
    the run."""

    def test_evaluate_holds_one_forecast_and_one_truth(self, block_run,
                                                       monkeypatch, tmp_path):
        log = trace_reads(monkeypatch, "climatology", "truth_block",
                          "model_block")
        traced_run(lambda: (log.clear(), pipeline_evaluate.evaluate(
            block_run / "manifest.json", tmp_path / "out")))
        # one block of each init: its truth, then its days and three
        # forecasts, both read on the truth's grid
        assert [name for name, *_ in log] == [
            "truth_block", "climatology", *["model_block"] * 3] * 2
        start = log[0][1]
        for k in (0, 5):
            (_, first, truth), (_, before_days, days), *forecasts = \
                log[k:k + 5]
            # no earlier block's days, truth or forecast is held
            assert first - start <= BLOCK_RUN_LAYER
            assert before_days - first >= truth  # the truth is held
            for _, held, _ in forecasts:
                # the truth block and the days, and no earlier forecast
                assert held - first <= truth + days + BLOCK_RUN_LAYER
            assert truth == 5 * BLOCK_RUN_LAYER
            assert days == 2 * 2 * BLOCK_RUN_LAYER  # two float64 days

    def test_extremes_holds_one_block_of_a_lead_day(self, extremes_run,
                                                   monkeypatch, tmp_path):
        # 8 daily inits: each 4-layer block of a lead day is reduced into
        # the day's extremes and released before the next block is read
        log = trace_reads(monkeypatch, "truth_block", "model_block")
        traced_run(lambda: (log.clear(), pipeline_extremes.extremes(
            extremes_run / "manifest.json", tmp_path / "out", [1, 3])))
        # the truth of days 1 and 3, then each model's forecasts of both
        assert [name for name, *_ in log] == \
            ["truth_block"] * 16 + ["model_block"] * 32
        block = 4 * EXTREMES_LAYER
        assert all(nbytes == block for *_, nbytes in log)
        # the reads of a lead day whose stores have all been opened: from
        # the second read on, the day's extremes are allocated, and each
        # read starts with less than a layer more held than the last (the
        # log's own entries), so no earlier block is held
        for first in (0, 8, 24, 40):
            held = [held for _, held, _ in log[first:first + 8]]
            for k in range(2, 8):
                assert held[k] - held[k - 1] < EXTREMES_LAYER, (first, k)

    def test_stations_holds_one_forecast_block_and_no_truth(
            self, block_run, monkeypatch):
        # three layers a block: QC reads the truth of the 9 valid times in
        # runs of 3, and scoring each init's forecasts in runs of 3 leads
        # and 2
        monkeypatch.setattr(metrics, "CHUNK_BYTES", 2 * 3 * BLOCK_RUN_LAYER)
        log = trace_reads(monkeypatch, "truth_block", "climatology",
                          "model_block")
        traced_run(lambda: (log.clear(), pipeline_stations.stations(
            block_run / "manifest.json", block_run / "stations_meta.csv",
            block_run / "stations_obs.csv")))
        names = [name for name, *_ in log]
        assert names == ["truth_block"] * 3 + ["climatology"] \
            + ["model_block"] * 12
        first = log[0][1]
        # two layers of slack: the rows kept grow by about 1 kB a run,
        # and the truth blocks QC reads hold 3 layers
        for k, (_, held, nbytes) in enumerate(log[4:]):
            # no truth block, no earlier forecast block
            assert held - first <= 2 * BLOCK_RUN_LAYER, k
            assert nbytes == (3 if k % 4 < 2 else 2) * BLOCK_RUN_LAYER, k

    def test_stations_of_more_inits_than_a_chunk_has_layers(
            self, many_inits_run, monkeypatch):
        # 8 inits and 4 float64 layers a chunk: each init's forecast is
        # read in runs of 4 leads and 1, and each block is interpolated to
        # the stations and released before the next is read, so the
        # gridded forecasts held do not grow with the inits
        monkeypatch.setattr(metrics, "CHUNK_BYTES", 2 * 4 * BLOCK_RUN_LAYER)
        log = trace_reads(monkeypatch, "model_block")
        traced_run(lambda: (log.clear(), pipeline_stations.stations(
            many_inits_run / "manifest.json",
            many_inits_run / "stations_meta.csv",
            many_inits_run / "stations_obs.csv")))
        first = log[0][1]
        for k, (_, held, _) in enumerate(log):
            # a layer of slack for the rows kept: no earlier block is held
            assert held - first <= BLOCK_RUN_LAYER, k
        # two models, each over two runs of the 8 inits
        assert [nbytes for *_, nbytes in log] == 2 * (
            [4 * BLOCK_RUN_LAYER] * 8 + [BLOCK_RUN_LAYER] * 8)

    def test_stations_chunkings_change_no_byte(self, many_inits_run,
                                               monkeypatch, tmp_path):
        # 4 layers a chunk, one layer, the default and every lead at once
        cards = []
        for budget in (2 * 4 * BLOCK_RUN_LAYER, 2 * BLOCK_RUN_LAYER,
                       metrics.CHUNK_BYTES, 2**30):
            monkeypatch.setattr(metrics, "CHUNK_BYTES", budget)
            out = tmp_path / f"out{len(cards)}"
            assert run_cli("stations", "--manifest",
                           many_inits_run / "manifest.json",
                           "--station-meta",
                           many_inits_run / "stations_meta.csv",
                           "--station-obs",
                           many_inits_run / "stations_obs.csv",
                           "--out", out) == 0
            cards.append((out / "scorecard.json").read_bytes())
        assert cards[1:] == cards[:1] * 3


@pytest.fixture(scope="module")
def fine_cyclone_run(tmp_path_factory):
    """``cyclone_run`` on a 0.25 degree grid: 121 x 161 points, 21 leads."""
    root = tmp_path_factory.mktemp("finetcrun")
    scenario = root / "scenario.json"
    scenario.write_text(json.dumps(dict(CYCLONE_SCENARIO, grid={
        "lat_start": 35.0, "lat_step": -0.25, "n_lat": 121,
        "lon_start": 120.0, "lon_step": 0.25, "n_lon": 161})))
    assert run_cli("synth", "--scenario", scenario, "--out", root / "run",
                   "--inits", "2025-07-01T00:00:00Z", "--max-lead-hours",
                   "120", "--models", "perfect,smoothed:9",
                   "--truth-span", "run") == 0
    return root / "run"


class TestCycloneMemory:
    @pytest.mark.parametrize("run_layers", [1, 2, 3])
    def test_tracking_holds_one_run_per_variable(
            self, fine_cyclone_run, monkeypatch, tmp_path, run_layers):
        # from the first forecast read to the homogeneous sample, the peak
        # is one run of each variable's layers, with two layers of slack
        # for the tracker's search boxes, the sidecars and the tracks
        layer = 121 * 161 * 4
        monkeypatch.setattr(metrics, "CHUNK_BYTES", run_layers * 2 * layer)
        read, sample = fileio.FieldSource.model_block, \
            pipeline_cyclones.homogeneous_sample
        start, peaks = [], []

        def model_block(source, *args, **kwargs):
            if not start:
                tracemalloc.reset_peak()
                start.append(tracemalloc.get_traced_memory()[0])
            return read(source, *args, **kwargs)

        def homogeneous_sample(*args):
            peaks.append(tracemalloc.get_traced_memory()[1])
            return sample(*args)

        monkeypatch.setattr(fileio.FieldSource, "model_block", model_block)
        monkeypatch.setattr(pipeline_cyclones, "homogeneous_sample",
                            homogeneous_sample)
        outs = []

        def run():
            start.clear()
            out = tmp_path / f"out{len(outs)}"
            outs.append((out, pipeline_cyclones.cyclones(
                fine_cyclone_run / "manifest.json", out,
                fine_cyclone_run / "besttrack.csv")))

        traced_run(run)
        assert peaks[-1] - start[0] <= (3 * run_layers + 2) * layer
        monkeypatch.setattr(metrics, "CHUNK_BYTES", 2**30)
        run()  # every lead in one run
        (runs, card), (whole, whole_card) = outs[1:]
        assert card == whole_card
        assert all(row["n_storms"] == 1 for row in card["cyclone_scores"])
        assert (runs / "tracks.csv").read_bytes() == \
            (whole / "tracks.csv").read_bytes()


@pytest.fixture(scope="module")
def history_run(tmp_path_factory):
    """Three years of T2M on a 40 x 60 grid: two history years."""
    root = tmp_path_factory.mktemp("histrun")
    scenario = root / "scenario.json"
    scenario.write_text(json.dumps({
        "seed": 5,
        "grid": {"lat_start": 58.5, "lat_step": -3.0, "n_lat": 40,
                 "lon_start": 0.0, "lon_step": 6.0, "n_lon": 60},
        "years": [2023, 2024, 2025],
        "processes": {"t2m": {"base": 285.0, "seasonal_amp": 8.0,
                              "ar1": 0.8, "noise_sigma": 1.5}}}))
    assert run_cli("synth", "--scenario", scenario, "--out", root / "run",
                   "--inits", "2025-07-01T00:00:00Z", "--max-lead-hours",
                   "6", "--models", "perfect") == 0
    return root / "run"


class TestStreamedHistory:
    """``build-climatology`` streams each history year a block of whole
    days at a time."""

    @pytest.mark.parametrize("budget", [1, None, 2**30],
                             ids=["a-day-a-block", "default", "a-year"])
    def test_block_size_changes_no_byte(self, extremes_run, tmp_path,
                                        monkeypatch, budget):
        # a leap and a common history year; with one day a block, Feb 29
        # is a block with no calendar rows
        want = tmp_path / "want"
        whole_year_stores(extremes_run, want)
        doc = json.loads((extremes_run / "manifest.json").read_text())
        doc["climatology"].update(
            daily_mean_pattern=str(tmp_path / "got/{variable}.rbc"),
            thresholds_path=str(tmp_path / "got/thresholds.rbt"))
        manifest = extremes_run / f"manifest_budget_{budget}.json"
        manifest.write_text(json.dumps(doc))
        if budget is not None:
            monkeypatch.setattr(metrics, "CHUNK_BYTES", budget)
        assert run_cli("build-climatology", "--manifest", manifest) == 0
        for name in ("t2m.rbc", "thresholds.rbt"):
            for suffix in ("", ".json"):
                assert (tmp_path / "got" / (name + suffix)).read_bytes() == \
                    (want / (name + suffix)).read_bytes(), name + suffix

    @pytest.mark.parametrize("command", ["build-climatology"])
    @pytest.mark.parametrize("fault", ["crc-of-feb-29", "nan-in-dec-31",
                                       "four-layers-short"])
    def test_every_layer_of_the_year_is_checked(self, extremes_run, tmp_path,
                                                command, fault, capsys):
        run = tmp_path / "run"
        for part in ("truth", "models"):
            shutil.copytree(extremes_run / part, run / part)
        (run / "manifest.json").write_bytes(
            (extremes_run / "manifest.json").read_bytes())
        manifest = without_thresholds(run)
        layer_bytes = 4 * 15 * 16
        if fault == "crc-of-feb-29":
            store = run / "truth/t2m/2024.rbs"
            payload = bytearray(store.read_bytes())
            payload[4 * 59 * layer_bytes + 5] ^= 0x01  # Feb 29, 00Z
            store.write_bytes(bytes(payload))
        elif fault == "nan-in-dec-31":  # in the year's last layer
            store = run / "truth/t2m/2023.rbs"
            payload = bytearray(store.read_bytes())
            payload[-layer_bytes:-layer_bytes + 4] = \
                np.float32(np.nan).tobytes()
            store.write_bytes(bytes(payload))
            sidecar = store.with_name(store.name + ".json")
            header = json.loads(sidecar.read_text())
            header["checksums"][-1] = zlib.crc32(payload[-layer_bytes:])
            sidecar.write_bytes(canonical_json(header))
        else:
            store = run / "truth/t2m/2023.rbs"
            block = read_store(store)
            writers.write_stack([FieldBlock(
                block.grid, block.variable, block.valid_times[:-4],
                block.lead_hours[:-4], block.values[:-4])], store)
        capsys.readouterr()
        assert run_cli(command, "--manifest", manifest) == 2
        assert str(store) in capsys.readouterr().err

    def test_history_stack_without_its_last_layer_is_exit_2(
            self, extremes_run, tmp_path, capsys):
        victim = extremes_run / "truth/t2m/2023.rbs"
        sidecar = victim.with_name(victim.name + ".json")
        saved = {path: path.read_bytes() for path in (victim, sidecar)}
        doc = json.loads((extremes_run / "manifest.json").read_text())
        doc["climatology"].update(
            daily_mean_pattern=str(tmp_path / "out/{variable}.rbc"),
            thresholds_path=str(tmp_path / "out/thresholds.rbt"))
        manifest = with_manifest(extremes_run, "manifest_short.json", **doc)
        block = read_store(victim)
        writers.write_stack([FieldBlock(
            block.grid, block.variable, block.valid_times[:-1],
            block.lead_hours[:-1], block.values[:-1])], victim)
        capsys.readouterr()
        try:
            rc = run_cli("build-climatology", "--manifest", manifest)
        finally:
            for path, blob in saved.items():
                path.write_bytes(blob)
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{victim} holds no layer valid at 2023-12-31T18:00:00Z" in err

    def test_memory_is_the_accumulator_and_a_block(self, history_run):
        # a block of days of one year and the float64 total of its days:
        # the 365-day float64 total (7 MB on this 40 x 60 grid) is not
        # held, and neither is a year of float64 layers (28 MB)
        manifest = without_thresholds(history_run)
        tracemalloc.start()
        try:
            pipeline_climatology.build_climatology(manifest)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * metrics.CHUNK_BYTES

    @pytest.mark.parametrize("command", ["build-climatology"])
    def test_a_failed_read_leaves_no_file(self, extremes_run, tmp_path,
                                          monkeypatch, command, capsys):
        # the reader fails on the fifth block of history, while the
        # climatology is half written and the daily extremes half spilled:
        # no file is left in the output directory, the scratch file of
        # the extremes included
        out = tmp_path / "out"
        doc = json.loads((extremes_run / "manifest.json").read_text())
        doc["climatology"].update(
            daily_mean_pattern=str(out / "{variable}.rbc"),
            thresholds_path=str(out / "thresholds.rbt"))
        manifest = extremes_run / f"manifest_failing_{command}.json"
        manifest.write_text(json.dumps(doc))
        real_history = fileio.FieldSource.history
        spills = []
        real_write = writers.SpilledHistory.write

        def history(source, variable, year, days, grid=None):
            if len(spills) == 4:
                raise ChecksumMismatch(f"{year}: CRC-32 mismatch (injected)")
            return real_history(source, variable, year, days, grid)

        monkeypatch.setattr(fileio.FieldSource, "history", history)
        monkeypatch.setattr(writers.SpilledHistory, "write", lambda spill, *a:
                            spills.append(spill) or real_write(spill, *a))
        capsys.readouterr()
        assert run_cli(command, "--manifest", manifest) == 2
        assert "CRC-32 mismatch (injected)" in capsys.readouterr().err
        assert len(spills) == 4 and spills[0]._file.closed
        assert [path for path in out.rglob("*") if path.is_file()] == []

    def test_history_extremes_are_the_float32_of_the_stores(self,
                                                            history_run,
                                                            tmp_path):
        # the daily max and min of float32 layers are float32 values: held
        # as float32, they equal those of the layers widened to float64
        manifest = fileio.load_manifest(history_run / "manifest.json")
        with writers.SpilledHistory(tmp_path,
                                    manifest.history_years) as history:
            pipeline_climatology._reduce_history(
                fileio.FieldSource(manifest), VariableId.T2M,
                tmp_path / "t2m.rbc", history)
            daily_max, daily_min = spilled_extremes(history)
        assert daily_max.dtype == daily_min.dtype == np.float32
        for y, year in enumerate(manifest.history_years):
            block = read_store(manifest.history_path(
                VariableId.T2M, datetime(year, 1, 1, tzinfo=timezone.utc)))
            assert block.values.dtype == np.float32
            _, day_max, day_min = daily_extremes_from_fields(FieldBlock(
                block.grid, block.variable, block.valid_times,
                block.lead_hours, block.values.astype(np.float64)))
            assert daily_max[y].astype(np.float64).tobytes() == \
                day_max.tobytes()
            assert daily_min[y].astype(np.float64).tobytes() == \
                day_min.tobytes()


def field_by_field(manifest_path, leads, spectra_leads):
    """The grid metric rows and mean spectra of scoring one field at a
    time: per (model, variable, lead), each init's forecast field against
    its truth field and climatology day with the per-field metric bodies
    of ``oracles``, averaged over the inits in init order."""
    manifest = fileio.load_manifest(manifest_path)
    source = fileio.FieldSource(manifest)
    clims = {v: source.climatology(v, CALENDAR_DAYS)
             for v in manifest.variables}
    rows = []
    for model in sorted(manifest.models):
        for variable in manifest.variables:
            for lead in leads:
                per = {"wrmse": [], "acc": [], "bias": [], "activity": []}
                for init in manifest.init_times:
                    when = init + timedelta(hours=lead)
                    pred = source.model_block(model, init, variable,
                                              [lead]).values[0]
                    truth = source.truth_block(variable, [when])
                    w = latitude_weights(truth.grid)
                    t = truth.values[0].astype(np.float64)
                    per["wrmse"].append(oracles.wrmse_field(pred, t, w))
                    per["bias"].append(oracles.bias_field(pred, t, w))
                    if clims[variable] is not None:
                        clim = clims[variable].layers([when])[0]
                        per["acc"].append(
                            oracles.acc_field(pred, t, clim, w))
                        per["activity"].append(
                            oracles.activity_field(pred, clim, w))
                rows.extend({"model": model, "variable": variable.key,
                             "lead_hours": lead, "metric": metric,
                             "value": _mean(values) if values else "n/a",
                             "n_samples": len(values)}
                            for metric, values in per.items())
    spectra = {}
    for name in sorted(manifest.models) + ["truth"]:
        for variable in manifest.variables:
            for lead in spectra_leads:
                blocks = [source.truth_block(
                              variable, [init + timedelta(hours=lead)])
                          if name == "truth" else
                          source.model_block(name, init, variable, [lead])
                          for init in manifest.init_times]
                spectra[f"spectra/{name}_{variable.key}_{lead:03d}h.csv"] = \
                    np.mean([midlatitude_spectrum(b, 0).energy
                             for b in blocks], axis=0)
    return rows, spectra


def assert_scores_field_by_field(out, manifest_path, leads, spectra_leads):
    card = load_card(out)
    rows, spectra = field_by_field(manifest_path, leads, spectra_leads)
    assert card["grid_metrics"] == rows  # floats compared exactly
    assert [row["csv"] for row in card["spectra"]] == list(spectra)
    for rel, energy in spectra.items():
        lines = (out / rel).read_text().splitlines()[1:]
        got = np.array([float(line.split(",")[1]) for line in lines])
        assert got.tobytes() == energy.tobytes()


def with_manifest(run, name, **changes):
    """A copy of the run's manifest under ``name`` with ``changes``."""
    doc = json.loads((run / "manifest.json").read_text())
    doc.update(changes)
    path = run / name
    path.write_text(json.dumps(doc))
    return path


def grid_layout(run):
    """The run rewritten as one RBGRID1 file per field; its manifest."""
    manifest = fileio.load_manifest(run / "manifest.json")
    source = fileio.FieldSource(manifest)
    models = {name: f"grid/models/{name}/{{init}}/{{variable}}_{{lead:03d}}.rbg"
              for name in manifest.models}
    path = with_manifest(run, "manifest_grid.json",
                         truth_pattern="grid/truth/{variable}/{time}.rbg",
                         models=models)
    grid_manifest = fileio.load_manifest(path, require=())
    for variable in manifest.variables:
        if variable.derived:
            continue
        for init in manifest.init_times:
            for lead in manifest.lead_hours:
                when = init + timedelta(hours=lead)
                writers.write_grid(source.truth_block(variable, [when]),
                                   grid_manifest.truth_path(variable, when))
                for name in manifest.models:
                    writers.write_grid(
                        source.model_block(name, init, variable, [lead]),
                        grid_manifest.model_path(name, init, variable, lead))
    return path


@pytest.fixture(scope="module")
def new_year_run(tmp_path_factory):
    """Inits on Dec 30 and 31 with two-day leads: each truth span crosses
    into the next year's stack, and the climatology days run 363 -> 1."""
    root = tmp_path_factory.mktemp("newyear")
    scenario = root / "scenario.json"
    processes = {k: v for k, v in EVALUATE_SCENARIO["processes"].items()
                 if k in ("t2m", "msl")}
    scenario.write_text(json.dumps(dict(EVALUATE_SCENARIO, years=[2025, 2026],
                                        processes=processes)))
    rc = run_cli("synth", "--scenario", scenario, "--out", root / "run",
                 "--inits", "2025-12-30T00:00:00Z,2025-12-31T00:00:00Z",
                 "--max-lead-hours", "48", "--models", "persistence,perfect")
    assert rc == 0
    assert run_cli("build-climatology",
                   "--manifest", root / "run/manifest.json") == 0
    return root / "run"


ALL_LEADS = tuple(range(0, 49, 6))


class TestEvaluateBlocks:
    """``evaluate`` scores blocks of leads; every run must equal scoring
    one field at a time, bit for bit."""

    @pytest.mark.parametrize("variant", ["stacks", "rbgrid1", "ws10",
                                         "one-layer-blocks"])
    def test_equals_field_by_field(self, evaluate_run, variant, tmp_path,
                                   monkeypatch):
        manifest = evaluate_run / "manifest.json"
        if variant == "rbgrid1":
            manifest = grid_layout(evaluate_run)
        elif variant == "ws10":
            manifest = with_manifest(evaluate_run, "manifest_ws10.json",
                                     variables=["t2m", "u10", "v10", "msl",
                                                "ws10"])
        elif variant == "one-layer-blocks":
            monkeypatch.setattr(metrics, "CHUNK_BYTES", 1)
        out = tmp_path / "out"
        assert run_cli("evaluate", "--manifest", manifest, "--out", out) == 0
        assert_scores_field_by_field(out, manifest, ALL_LEADS, (6,))

    def test_spectra_leads_outside_the_metric_leads(self, evaluate_run,
                                                    tmp_path):
        manifest = evaluate_run / "manifest.json"
        out = tmp_path / "out"
        assert run_cli("evaluate", "--manifest", manifest, "--out", out,
                       "--leads", "6,12", "--spectra-leads",
                       "0,18,48") == 0
        assert_scores_field_by_field(out, manifest, (6, 12), (0, 18, 48))

    def test_span_across_the_new_year(self, new_year_run, tmp_path,
                                      store_reads):
        manifest = new_year_run / "manifest.json"
        out = tmp_path / "out"
        assert run_cli("evaluate", "--manifest", manifest, "--out", out) == 0
        reads = [(path.relative_to(new_year_run).as_posix(), start, count)
                 for path, start, count in store_reads]
        # each init's block reads its climatology days from day 363 or
        # 364 to Dec 31, then from day 0
        assert [r for r in reads if r[0].startswith("clim/")] == [
            (f"clim/{v}.rbc", start, n) for v in ("msl", "t2m")
            for start, n in ((363, 2), (0, 1), (364, 1), (0, 2))]
        # each init reads one block of each truth year it spans
        truth = [r for r in reads if r[0].startswith("truth/t2m/")]
        assert [path for path, _, _ in truth] == [
            "truth/t2m/2025.rbs", "truth/t2m/2026.rbs"] * 2
        assert_scores_field_by_field(out, manifest, ALL_LEADS, (6,))
        again = tmp_path / "grid"
        assert run_cli("evaluate", "--manifest", grid_layout(new_year_run),
                       "--out", again) == 0
        assert load_card(again)["grid_metrics"] == \
            load_card(out)["grid_metrics"]

    def test_each_stack_payload_is_read_once(self, evaluate_run, tmp_path,
                                             store_reads):
        manifest = fileio.load_manifest(evaluate_run / "manifest.json")
        assert run_cli("evaluate", "--manifest", manifest.path,
                       "--out", tmp_path / "out") == 0
        n_layers = len(manifest.lead_hours)
        stored = [v for v in manifest.variables if not v.derived]
        models = [(manifest.model_path(name, init, v, 0), 0, n_layers)
                  for v in stored for init in manifest.init_times
                  for name in sorted(manifest.models)]
        assert sorted(r for r in store_reads if "models" in r[0].parts) == \
            sorted(models)
        # one span per (variable, init) of the year's stack, from Jan 1
        jan = manifest.init_times[0].replace(month=1, day=1)
        truth = [(manifest.truth_path(v, init),
                  (init - jan) // SIX_HOURS, n_layers)
                 for v in stored for init in manifest.init_times]
        assert [r for r in store_reads if "truth" in r[0].parts] == truth
        # the climatology days of each (variable, init) block, next to its
        # truth: each day a block needs is read once
        assert [r for r in store_reads if "clim" in r[0].parts] == [
            (manifest.climatology_path(v),
             *day_span(calendar_day_index(init + timedelta(hours=lead))
                       for lead in manifest.lead_hours))
            for v in stored for init in manifest.init_times]

    def test_field_files_build_one_grid_per_geometry(
            self, evaluate_run, tmp_path, store_reads, monkeypatch):
        # one RBGRID1 file per field: the grid is built once per distinct
        # sidecar geometry, not once per file read
        manifest = grid_layout(evaluate_run)
        builds = []
        real = fileio.GeoGrid
        monkeypatch.setattr(fileio, "GeoGrid",
                            lambda *axes: builds.append(axes) or real(*axes))
        lookups = []
        oriented = fileio._Store.oriented
        monkeypatch.setattr(fileio._Store, "oriented", lambda store:
                            lookups.append(store.path) or oriented(store))
        fileio._oriented_grid.cache_clear()
        store_reads.clear()
        assert run_cli("evaluate", "--manifest", manifest,
                       "--out", tmp_path / "out") == 0
        geometries = set()
        for path, _, _ in store_reads:
            header, _ = fileio._load_sidecar(path, fileio.GRID_MAGIC,
                                             fileio.CLIM_MAGIC)
            geometries.add(fileio._grid_header_geometry(header, path))
        assert len({path for path, _, _ in store_reads}) > 100
        assert len(builds) == len(geometries) == 1
        # the memo is looked up at each store read, and at each check of a
        # store paired with a grid
        assert len(lookups) > len(store_reads)
        memo = fileio._oriented_grid.cache_info()
        assert memo.misses == 1 and memo.hits == len(lookups) - 1


def grid_run(run, root, truth_pattern="truth/{variable}/{time}.rbg"):
    """The T2M truth and persistence forecasts of the run's first init at
    leads 0 and 6, one RBGRID1 file per field under ``root``; its manifest.
    With a ``truth_pattern`` without ``{time}`` the one truth file there
    holds the truth at the init."""
    source = fileio.FieldSource(fileio.load_manifest(run / "manifest.json"))
    init = source.manifest.init_times[0]
    doc = {"variables": ["t2m"], "init_times": [fileio.format_time(init)],
           "max_lead_hours": 6, "truth_pattern": truth_pattern,
           "models": {"persistence":
                      "models/persistence/{init}/{variable}_{lead:03d}.rbg"}}
    path = root / "manifest.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc))
    manifest = fileio.load_manifest(path, require=())
    for lead in (6, 0):  # one truth file for every time keeps the init's
        when = init + timedelta(hours=lead)
        writers.write_grid(source.truth_block(VariableId.T2M, [when]),
                           manifest.truth_path(VariableId.T2M, when))
        writers.write_grid(
            source.model_block("persistence", init, VariableId.T2M, [lead]),
            manifest.model_path("persistence", init, VariableId.T2M, lead))
    return manifest


class TestGridFilesReadAsStacks:
    """An RBGRID1 file is read as a stack of one layer, so it is checked
    against the valid time and lead asked for, as a stack layer is."""

    def test_forecast_of_another_lead_is_exit_2(self, evaluate_run, tmp_path,
                                                capsys):
        # the lead-6 file holds a field valid at the same time from an
        # init 6 h earlier, at lead 12
        manifest = grid_run(evaluate_run, tmp_path / "grid")
        init = manifest.init_times[0]
        path = manifest.model_path("persistence", init, VariableId.T2M, 6)
        field = read_store(path)
        writers.write_grid(stamped(field, field.valid_times[0], 12), path)
        capsys.readouterr()
        assert run_cli("evaluate", "--manifest", manifest.path,
                       "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert str(path) in err
        assert "has lead 12 h, not 6 h" in err

    @pytest.mark.parametrize("command", ["evaluate", "stations"])
    def test_one_truth_file_for_every_time_is_exit_2(
            self, evaluate_run, command, tmp_path, capsys):
        manifest = grid_run(evaluate_run, tmp_path / "grid",
                            truth_pattern="truth/{variable}.rbg")
        path = manifest.truth_path(VariableId.T2M, manifest.init_times[0])
        extra = (["--station-meta", evaluate_run / "stations_meta.csv",
                  "--station-obs", evaluate_run / "stations_obs.csv"]
                 if command == "stations" else [])
        capsys.readouterr()
        assert run_cli(command, "--manifest", manifest.path,
                       "--out", tmp_path / "out", *extra) == 2
        err = capsys.readouterr().err
        later = manifest.init_times[0] + timedelta(hours=6)
        assert f"{path} holds no layer valid at " \
               f"{fileio.format_time(later)}" in err


@pytest.fixture(scope="module")
def two_variable_run(tmp_path_factory):
    """The extremes scenario with msl next to t2m: two history years,
    so thresholds are built."""
    root = tmp_path_factory.mktemp("twovar")
    scenario = root / "scenario.json"
    processes = dict(EXTREMES_SCENARIO["processes"],
                     msl=EVALUATE_SCENARIO["processes"]["msl"])
    scenario.write_text(json.dumps(dict(EXTREMES_SCENARIO,
                                        processes=processes)))
    assert run_cli("synth", "--scenario", scenario, "--out", root / "run",
                   "--inits", "2025-07-18T00:00:00Z", "--max-lead-hours", "24",
                   "--models", "perfect") == 0
    assert run_cli("build-climatology",
                   "--manifest", root / "run/manifest.json") == 0
    return root / "run"


def command_argv(command, run, out):
    """The arguments of ``command`` on the run, writing to ``out``."""
    extra = {"evaluate": ["--out", out],
             "stations": ["--station-meta", run / "stations_meta.csv",
                          "--station-obs", run / "stations_obs.csv",
                          "--out", out],
             "extremes": ["--lead-days", "1", "--out", out],
             "cyclones": ["--besttrack", run / "besttrack.csv", "--out", out],
             "build-climatology": []}[command]
    return [command, "--manifest", run / "manifest.json", *extra]


class TestStoreVariables:
    """Every store a command reads is opened for the variable it is read
    as, whatever the command and the role: a store that holds another
    variable is exit 3 naming it, and no scorecard or climatology is
    written."""

    @pytest.mark.parametrize("run_name, command, copied, replaced", [
        ("evaluate_run", "evaluate", "truth/t2m/2025.rbs",
         "truth/msl/2025.rbs"),
        ("evaluate_run", "evaluate", "models/perfect/2025070100/t2m.rbs",
         "models/perfect/2025070100/msl.rbs"),
        ("evaluate_run", "evaluate", "clim/t2m.rbc", "clim/msl.rbc"),
        ("wind_run", "stations", "truth/u10/2025.rbs", "truth/msl/2025.rbs"),
        ("wind_run", "stations", "models/perfect/2025070100/u10.rbs",
         "models/perfect/2025070100/msl.rbs"),
        ("wind_run", "stations", "clim/u10.rbc", "clim/msl.rbc"),
        ("two_variable_run", "extremes", "truth/msl/2025.rbs",
         "truth/t2m/2025.rbs"),
        ("two_variable_run", "extremes", "models/perfect/2025071800/msl.rbs",
         "models/perfect/2025071800/t2m.rbs"),
        ("cyclone_run", "cyclones", "models/perfect/2025070100/u10.rbs",
         "models/perfect/2025070100/msl.rbs"),
        # msl is built first: its second history year holds t2m
        ("two_variable_run", "build-climatology", "truth/t2m/2024.rbs",
         "truth/msl/2024.rbs"),
    ], ids=["evaluate-truth", "evaluate-model", "evaluate-climatology",
            "stations-truth", "stations-model", "stations-climatology",
            "extremes-truth", "extremes-model", "cyclones-model-msl",
            "build-climatology-history"])
    def test_a_store_of_another_variable_is_exit_3_naming_it(
            self, request, run_name, command, copied, replaced, tmp_path,
            capsys):
        run = tmp_path / "run"
        shutil.copytree(request.getfixturevalue(run_name), run)
        for suffix in ("", ".json"):
            shutil.copyfile(run / f"{copied}{suffix}",
                            run / f"{replaced}{suffix}")
        if command == "build-climatology":
            shutil.rmtree(run / "clim")
        out = tmp_path / "out"
        capsys.readouterr()
        assert run_cli(*command_argv(command, run, out)) == 3
        # a truth store's variable names its directory, any other's its file
        held, asked = (Path(rel).parent.name if rel.startswith("truth/")
                       else Path(rel).stem for rel in (copied, replaced))
        assert capsys.readouterr().err == (
            f"error: variable mismatch: {run / replaced} holds {held}, not "
            f"{asked}\n")
        assert not (out / "scorecard.json").exists()
        if command == "build-climatology":
            assert not (run / "clim").exists()


def sidecar_grid(store: Path) -> GeoGrid:
    """The grid of the geometry in ``store``'s sidecar."""
    header = json.loads(store.with_name(store.name + ".json").read_text())
    return fileio._oriented_grid(
        fileio._grid_header_geometry(header, store))[0]


class TestFieldGrids:
    """Each store a command pairs with another is read on that one's
    grid: a store on another grid is exit 3 naming it and showing both
    grids, and no scorecard (or climatology) is written. ``stations``
    reads each store on its own grid."""

    @staticmethod
    def shift_columns(store: Path):
        """Move the store's grid half a column east: the same shape on
        another grid."""
        sidecar = store.with_name(store.name + ".json")
        header = json.loads(sidecar.read_text())
        header["lon_start"] += header["lon_step"] / 2
        sidecar.write_text(json.dumps(header))

    @pytest.mark.parametrize("run_name, command, store", [
        ("evaluate_run", "evaluate", "models/persistence/2025070200/t2m.rbs"),
        ("evaluate_run", "evaluate", "clim/t2m.rbc"),
        # the spans of both inits cross into the 2026 stack
        ("new_year_run", "evaluate", "truth/t2m/2026.rbs"),
        ("extremes_run", "extremes", "truth/t2m/2025.rbs"),
        ("extremes_run", "extremes", "models/lagged48/2025071800/t2m.rbs"),
        ("extremes_run", "build-climatology", "truth/t2m/2024.rbs"),
        ("cyclone_run", "cyclones", "models/smoothed9/2025070100/u10.rbs"),
        ("cyclone_run", "cyclones", "models/perfect/2025070100/v10.rbs"),
    ], ids=["evaluate-model", "evaluate-climatology", "evaluate-truth-span",
            "extremes-truth", "extremes-model", "build-climatology-history",
            "cyclones-u10", "cyclones-v10"])
    def test_is_exit_3_naming_the_store(self, request, run_name, command,
                                        store, tmp_path, capsys):
        run = tmp_path / "run"
        shutil.copytree(request.getfixturevalue(run_name), run)
        if command == "build-climatology":
            shutil.rmtree(run / "clim")
        paired = sidecar_grid(run / store)
        self.shift_columns(run / store)
        out = tmp_path / "out"
        capsys.readouterr()
        assert run_cli(*command_argv(command, run, out)) == 3
        assert capsys.readouterr().err == (
            f"error: grid mismatch: {run / store} is on "
            f"{sidecar_grid(run / store)}, not {paired}\n")
        assert not (out / "scorecard.json").exists()
        if command == "build-climatology":
            assert not (run / "clim/t2m.rbc").exists()

    def test_a_store_of_another_shape_is_named_before_its_grid_is_built(
            self, evaluate_run, tmp_path, capsys):
        # a sidecar of a trillion rows: the check compares shapes first, so
        # neither its grid nor its payload is read
        run = tmp_path / "run"
        shutil.copytree(evaluate_run, run)
        store = run / "models/perfect/2025070100/t2m.rbs"
        paired = sidecar_grid(store)
        sidecar = store.with_name(store.name + ".json")
        header = json.loads(sidecar.read_text())
        header["n_lat"] = 10**12
        sidecar.write_text(json.dumps(header))
        capsys.readouterr()
        assert run_cli(*command_argv("evaluate", run, tmp_path / "out")) == 3
        assert capsys.readouterr().err == (
            f"error: grid mismatch: {store} is on a {10**12} x "
            f"{paired.n_lon} grid, not {paired}\n")

    def test_stations_reads_each_model_on_its_own_grid(self, evaluate_run,
                                                       tmp_path):
        # the forecasts are interpolated to the stations from their own
        # grid, so a model half a column east is scored, and differently
        run = tmp_path / "run"
        shutil.copytree(evaluate_run, run)
        cards = []
        for out in (tmp_path / "aligned", tmp_path / "shifted"):
            assert run_cli(*command_argv("stations", run, out)) == 0
            cards.append(load_card(out)["station_scores"])
            self.shift_columns(run / "models/perfect/2025070100/t2m.rbs")
        aligned, shifted = ([row for row in card if row["model"] == "perfect"
                             and row["variable"] == "t2m"] for card in cards)
        assert all(row["n_pairs"] > 0 for row in shifted)
        assert [row["rmse"] for row in shifted] != \
            [row["rmse"] for row in aligned]


def command_files(out: Path) -> dict:
    """Every file under ``out`` by relative path, the scorecard parsed and
    without the digest of its manifest."""
    files = {path.relative_to(out).as_posix(): path.read_bytes()
             for path in sorted(out.rglob("*")) if path.is_file()}
    if "scorecard.json" in files:
        card = json.loads(files.pop("scorecard.json"))
        del card["provenance"]["manifest_sha256"]
        files["scorecard.json"] = card
    return files


class TestManifestPaths:
    """A command formats each distinct manifest path once, for its load
    check and all its reads together, and one RBGRID1 file per field
    scores as the stacks do."""

    @pytest.mark.parametrize("command", ["build-climatology", "evaluate",
                                         "extremes", "cyclones", "stations"])
    def test_each_distinct_path_is_formatted_once(self, request, command,
                                                  tmp_path, monkeypatch):
        run = request.getfixturevalue(
            {"extremes": "extremes_run", "cyclones": "cyclone_run"}.get(
                command, "evaluate_run"))
        formatted = []
        real_fmt = fileio.RunManifest._fmt
        monkeypatch.setattr(
            fileio.RunManifest, "_fmt", lambda self, key, pattern, values:
            formatted.append(real_fmt(self, key, pattern, values))
            or formatted[-1])
        outputs = []
        for layout in ("stacks", "rbgrid1"):
            manifest = run / "manifest.json" if layout == "stacks" \
                else grid_layout(run)
            out = tmp_path / layout
            argv = [command, "--manifest", manifest]
            if command == "build-climatology":  # written under ``out``
                doc = json.loads(manifest.read_text())
                doc["climatology"].update(
                    daily_mean_pattern=str(out / "{variable}.rbc"))
                manifest = with_manifest(run, f"manifest_{layout}_out.json",
                                         **doc)
                argv[-1] = manifest
            else:
                argv += ["--out", out]
            if command == "extremes":
                argv += ["--lead-days", "1,2"]
            if command == "cyclones":
                argv += ["--besttrack", run / "besttrack.csv"]
            if command == "stations":
                argv += ["--station-meta", run / "stations_meta.csv",
                         "--station-obs", run / "stations_obs.csv"]
            formatted.clear()
            assert run_cli(*argv) == 0
            assert formatted
            assert len(formatted) == len(set(formatted)), layout
            outputs.append(command_files(out))
        assert outputs[0] == outputs[1]


class TestEmptyInitTimes:
    @pytest.mark.parametrize("command", ["evaluate", "extremes", "cyclones",
                                         "stations"])
    def test_is_exit_2_naming_the_manifest(self, evaluate_run, command,
                                           tmp_path, capsys):
        manifest = with_manifest(evaluate_run, "manifest_no_inits.json",
                                 init_times=[])
        extra = {"cyclones": ["--besttrack", tmp_path / "besttrack.csv"],
                 "stations": ["--station-meta",
                              evaluate_run / "stations_meta.csv",
                              "--station-obs",
                              evaluate_run / "stations_obs.csv"]}
        capsys.readouterr()
        assert run_cli(command, "--manifest", manifest,
                       "--out", tmp_path / "out",
                       *extra.get(command, [])) == 2
        err = capsys.readouterr().err
        assert f"{manifest}: init_times is empty" in err
        assert not (tmp_path / "out").exists()

    def test_build_climatology_needs_no_init(self, evaluate_run, tmp_path):
        doc = json.loads((evaluate_run / "manifest.json").read_text())
        clim = dict(doc["climatology"],
                    daily_mean_pattern="clim_no_inits/{variable}.rbc")
        manifest = with_manifest(evaluate_run, "manifest_no_inits_clim.json",
                                 init_times=[], climatology=clim)
        assert run_cli("build-climatology", "--manifest", manifest) == 0
        for payload in (evaluate_run / "clim").glob("*.rbc"):
            assert (evaluate_run / "clim_no_inits" / payload.name) \
                .read_bytes() == payload.read_bytes()


class TestUndeclaredSections:
    """A manifest that lacks a climatology or history section a command or
    a path needs is exit 2 naming the manifest."""

    @pytest.mark.parametrize("drop, path, message", [
        ("history_pattern", None, "manifest declares no history section"),
        ("daily_mean_pattern", None,
         "manifest declares no climatology daily_mean_pattern"),
        ("daily_mean_pattern",
         lambda manifest: manifest.climatology_path(VariableId.T2M),
         "manifest declares no climatology"),
        ("history_pattern",
         lambda manifest: manifest.history_path(VariableId.T2M,
                                                manifest.init_times[0]),
         "manifest declares no history"),
    ], ids=["build-climatology-history", "build-climatology-climatology",
            "climatology_path", "history_path"])
    def test_is_exit_2_naming_the_manifest(self, evaluate_run, drop, path,
                                           message, tmp_path, capsys):
        # path None: build-climatology runs on the manifest
        run = tmp_path / "run"
        shutil.copytree(evaluate_run, run)
        doc = json.loads((run / "manifest.json").read_text())
        del doc["climatology"][drop]
        manifest = with_manifest(run, "manifest.json",
                                 climatology=doc["climatology"])
        capsys.readouterr()
        if path is None:
            assert run_cli("build-climatology", "--manifest", manifest) == 2
            err = capsys.readouterr().err
        else:
            with pytest.raises(ManifestError) as exc:
                path(fileio.load_manifest(manifest, require=()))
            err = f"error: {exc.value}\n"
        assert err == f"error: {manifest}: {message}\n"


class TestManifestTypes:
    """A manifest value of the wrong type, or a path pattern that cannot
    be formatted, is exit 2 naming the manifest and the key."""

    # mutation -> (section or None, key, value, the key the message names)
    MUTATIONS = {
        "init-not-a-string": (None, "init_times", [5], "init_times"),
        "lead-bool": (None, "max_lead_hours", False, "max_lead_hours"),
        "clim-pattern-int": ("climatology", "daily_mean_pattern", 5,
                             "daily_mean_pattern"),
        "thresholds-int": ("climatology", "thresholds_path", 5,
                           "thresholds_path"),
        "history-list": ("climatology", "history_pattern", ["x"],
                         "history_pattern"),
        "model-attribute": ("models", "perfect", "{variable.x}",
                            "models.perfect"),
        "truth-index": (None, "truth_pattern", "{year[0]}", "truth_pattern"),
        "clim-attribute": ("climatology", "daily_mean_pattern",
                           "{variable.x}", "climatology.daily_mean_pattern"),
        "history-attribute": ("climatology", "history_pattern", "{time.x}",
                              "climatology.history_pattern"),
    }
    # each command with the mutations it reads: the type checks are made
    # at load, a pattern is checked where it is formatted
    CASES = [(command, mutation) for command, mutations in (
        ("evaluate", ("init-not-a-string", "lead-bool", "clim-pattern-int",
                      "thresholds-int", "history-list", "model-attribute",
                      "truth-index", "clim-attribute")),
        ("extremes", ("init-not-a-string", "lead-bool", "clim-pattern-int",
                      "thresholds-int", "history-list", "model-attribute",
                      "truth-index")),
        ("build-climatology", ("init-not-a-string", "lead-bool",
                               "clim-pattern-int", "thresholds-int",
                               "history-list", "clim-attribute",
                               "history-attribute")),
    ) for mutation in mutations]

    @pytest.mark.parametrize("command, mutation", CASES)
    def test_is_exit_2_naming_the_key(self, extremes_run, command, mutation,
                                      tmp_path, capsys):
        section, key, value, named = self.MUTATIONS[mutation]
        doc = json.loads((extremes_run / "manifest.json").read_text())
        (doc[section] if section else doc)[key] = value
        manifest = extremes_run / f"manifest_{mutation}.json"
        manifest.write_text(json.dumps(doc))
        out = [] if command == "build-climatology" \
            else ["--out", tmp_path / "out"]
        capsys.readouterr()
        assert run_cli(command, "--manifest", manifest, *out) == 2
        err = capsys.readouterr().err
        assert str(manifest) in err
        assert named in err


class TestManifestRepeats:
    """A manifest list that names an entry twice is exit 2 naming the
    manifest and the key, for every command that loads the manifest."""

    # key -> (section or None, the key the message names)
    KEYS = {"init_times": (None, "init_times"),
            "variables": (None, "variables"),
            "history_years": ("climatology", "climatology history_years")}

    @pytest.mark.parametrize("key", KEYS)
    @pytest.mark.parametrize("command",
                             ["build-climatology", "evaluate", "extremes"])
    def test_is_exit_2_naming_the_key(self, extremes_run, command, key,
                                      tmp_path, capsys):
        section, named = self.KEYS[key]
        doc = json.loads((extremes_run / "manifest.json").read_text())
        owner = doc[section] if section else doc
        owner[key] = owner[key] + owner[key][:1]
        manifest = extremes_run / f"manifest_repeated_{key}.json"
        manifest.write_text(json.dumps(doc))
        out = [] if command == "build-climatology" \
            else ["--out", tmp_path / "out"]
        capsys.readouterr()
        assert run_cli(command, "--manifest", manifest, *out) == 2
        err = capsys.readouterr().err
        assert f"{manifest}: {named} lists {owner[key][0]!r} more than " \
               f"once" in err
        assert not (tmp_path / "out").exists()


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
    @pytest.mark.parametrize("gamma", [0.5, 0.2])
    def test_region_counts_match_per_location_loop(self, noisy_extremes_run,
                                                   gamma, tmp_path):
        doc = json.loads((noisy_extremes_run / "manifest.json").read_text())
        box = [-30.0, 40.0, 0.0, 200.0]  # both heat episodes, not the cold one
        doc["regions"] = {"global": None, "box": box}
        manifest_path = noisy_extremes_run / "manifest_regions.json"
        manifest_path.write_text(json.dumps(doc))
        lead_days = (1, 3)
        out = tmp_path / "out"
        assert run_cli("extremes", "--manifest", manifest_path, "--out", out,
                       "--lead-days", ",".join(map(str, lead_days)),
                       "--gamma", str(gamma)) == 0
        card = load_card(out)
        assert card["provenance"]["gamma"] == gamma

        manifest = fileio.load_manifest(manifest_path)
        source = fileio.FieldSource(manifest)
        thresholds, grid, _ = source.thresholds(CALENDAR_DAYS)
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
            truth = [[source.truth_block(VariableId.T2M,
                                         [day + timedelta(hours=h)])
                      for h in SYNOPTIC_HOURS] for day in days]
            for model in manifest.models:
                forecast = [[source.model_block(model, init, VariableId.T2M,
                                                [24 * (d - 1) + h])
                             for h in SYNOPTIC_HOURS]
                            for init in manifest.init_times]
                for kind, tau in ((EventKind.HEATWAVE, thresholds.tau_heat),
                                  (EventKind.COLDSURGE, thresholds.tau_cold)):
                    counts = oracles.event_counts_per_location(
                        series(truth, kind), series(forecast, kind),
                        tau[rows, :], kind, gamma)
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

    def test_a_box_across_0_degrees_counts_both_halves(self,
                                                       noisy_extremes_run,
                                                       tmp_path):
        # [-100, 100] degrees E holds [260, 360) and [0, 100]: its counts
        # are the sums of those two boxes', and the western half has
        # events, so a box that dropped it would count less
        doc = json.loads((noisy_extremes_run / "manifest.json").read_text())
        doc["regions"] = {"across": [-90.0, 90.0, -100.0, 100.0],
                          "west": [-90.0, 90.0, 260.0, 359.0],
                          "east": [-90.0, 90.0, 0.0, 100.0]}
        manifest_path = noisy_extremes_run / "manifest_across.json"
        manifest_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run_cli("extremes", "--manifest", manifest_path, "--out", out,
                       "--lead-days", "1,3") == 0
        card = load_card(out)
        west_events = 0
        for row in rows_by(card, "event_scores", region="across"):
            key = {k: row[k] for k in ("model", "kind", "lead_days")}
            (west,) = rows_by(card, "event_scores", region="west", **key)
            (east,) = rows_by(card, "event_scores", region="east", **key)
            for count in ("tp", "fp", "fn"):
                assert row[count] == west[count] + east[count]
            west_events += west["tp"] + west["fp"] + west["fn"]
        assert west_events > 0


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
        assert run_cli("build-climatology",
                       "--manifest", tmp_path / "run/manifest.json") == 0
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


class TestCycloneReads:
    def test_each_forecast_stack_is_read_once(self, cyclone_run, tmp_path,
                                              store_reads):
        out = tmp_path / "out"
        argv = ["cyclones", "--manifest", cyclone_run / "manifest.json",
                "--besttrack", cyclone_run / "besttrack.csv"]
        assert run_cli(*argv, "--out", out) == 0
        blobs = {name: (out / name).read_bytes()
                 for name in ("tracks.csv", "scorecard.json")}
        manifest = fileio.load_manifest(cyclone_run / "manifest.json")
        # a second storm seeded at the same init shares the reads
        besttrack = cyclone_run / "besttrack2.csv"
        lines = (cyclone_run / "besttrack.csv").read_text().splitlines()
        besttrack.write_text("\n".join(
            lines + [line.replace("SYN01", "SYN02") for line in lines[1:]])
            + "\n")
        for track_file, target in ((cyclone_run / "besttrack.csv", out),
                                   (besttrack, tmp_path / "two")):
            store_reads.clear()
            assert run_cli("cyclones", "--manifest", manifest.path,
                           "--besttrack", track_file, "--out", target) == 0
            # each stack's 21 layers are read once, in order, in runs of
            # as many as a chunk holds of the 61 x 81 grid
            n_layers = len(manifest.lead_hours)
            run_layers = metrics.CHUNK_BYTES // (8 * 61 * 81)
            assert 1 < run_layers < n_layers
            runs = [(start, min(run_layers, n_layers - start))
                    for start in range(0, n_layers, run_layers)]
            stacks = {manifest.model_path(name, init, variable, 0)
                      for name in manifest.models
                      for init in manifest.init_times
                      for variable in (VariableId.MSL, VariableId.U10,
                                       VariableId.V10)}
            assert {path for path, _, _ in store_reads} == stacks
            for stack in stacks:
                assert [(start, count) for path, start, count in store_reads
                        if path == stack] == runs
        for name, blob in blobs.items():
            assert (out / name).read_bytes() == blob
        two = (tmp_path / "two/tracks.csv").read_text().splitlines()
        assert [line for line in two if not line.startswith("SYN02,")] == \
            blobs["tracks.csv"].decode().splitlines()


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

    def test_besttrack_byte_order_mark_is_skipped(self, cyclone_run,
                                                  tmp_path):
        besttrack = tmp_path / "besttrack.csv"
        besttrack.write_bytes(b"\xef\xbb\xbf"
                              + (cyclone_run / "besttrack.csv").read_bytes())
        for track_file, out in ((cyclone_run / "besttrack.csv", "plain"),
                                (besttrack, "marked")):
            assert run_cli("cyclones", "--manifest",
                           cyclone_run / "manifest.json", "--besttrack",
                           track_file, "--out", tmp_path / out) == 0
        assert (tmp_path / "marked/tracks.csv").read_bytes() == \
            (tmp_path / "plain/tracks.csv").read_bytes()
        # the scorecards differ only in the digest of the file read
        cards = [load_card(tmp_path / out) for out in ("plain", "marked")]
        digests = [card["provenance"].pop("besttrack_sha256")
                   for card in cards]
        assert digests[1] == hashlib.sha256(besttrack.read_bytes()).hexdigest()
        assert cards[0] == cards[1]

    @pytest.mark.parametrize("at", ["header", "storm id"])
    def test_besttrack_that_is_not_utf8_is_exit_2(self, cyclone_run, tmp_path,
                                                  capsys, at):
        header, first, *rest = (cyclone_run / "besttrack.csv").read_bytes() \
            .splitlines(keepends=True)
        if at == "header":
            header = b"\xff" + header
        else:
            first = first.replace(b"SYN01", b"SYN\xff1", 1)
        besttrack = tmp_path / "besttrack.csv"
        besttrack.write_bytes(b"".join([header, first, *rest]))
        rc = run_cli("cyclones", "--manifest", cyclone_run / "manifest.json",
                     "--besttrack", besttrack, "--out", tmp_path / "out",
                     "--lead-days", "1")
        assert rc == 2
        assert f"{besttrack}: not UTF-8 text: invalid start byte " \
               f"(byte 0xff)" in capsys.readouterr().err

    def test_a_manifest_without_msl_is_exit_2_naming_it(self, cyclone_run,
                                                        tmp_path, capsys):
        manifest = with_manifest(cyclone_run, "manifest_wind.json",
                                 variables=["u10", "v10"])
        assert run_cli("cyclones", "--manifest", manifest,
                       "--besttrack", cyclone_run / "besttrack.csv",
                       "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err == (
            f"error: {manifest}: variables: cyclones needs msl, u10, v10; "
            f"msl is not listed\n")
        assert not (tmp_path / "out").exists()

    def test_msl_in_hpa_is_exit_2_naming_the_store(self, cyclone_run,
                                                   tmp_path, capsys):
        # a store of the right variable in the wrong unit: the tracker's
        # first fix is outside the plausibility band
        run = tmp_path / "run"
        shutil.copytree(cyclone_run, run)
        store = run / "models/perfect/2025070100/msl.rbs"
        block = read_store(store)
        writers.write_stack([FieldBlock(
            block.grid, block.variable, block.valid_times, block.lead_hours,
            block.values / np.float32(100.0))], store)
        capsys.readouterr()
        assert run_cli(*command_argv("cyclones", run, tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {store}: model perfect from "
                              f"2025-07-01T00:00:00Z: MSLP 9"), err
        assert err.endswith(" Pa outside plausibility band (85000.0, "
                            "105000.0); check that the store holds msl in "
                            "Pa\n"), err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--search-radius-km", "nan"), ("--search-radius-km", "-5"),
        ("--search-radius-km", "0"), ("--search-radius-km", "inf"),
        ("--wind-radius-km", "-1"), ("--wind-radius-km", "nan"),
        ("--mslp-cutoff-pa", "nan"), ("--mslp-cutoff-pa", "-inf"),
    ])
    def test_bad_tracker_flag_is_exit_2(self, flag, value, tmp_path, capsys):
        # the paths do not exist: the flag is rejected before any file is read
        rc = run_cli("cyclones", "--manifest", tmp_path / "manifest.json",
                     "--besttrack", tmp_path / "besttrack.csv",
                     "--out", tmp_path / "out", f"{flag}={value}")
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{flag} must be finite" in err
        assert f"got {float(value)}" in err
        assert not (tmp_path / "out").exists()


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
        ("evaluate_run", ["evaluate", "--leads", "6,12,6"],
         "--leads lists 6 more than once"),
        ("evaluate_run", ["evaluate", "--spectra-leads", "6,6"],
         "--spectra-leads lists 6 more than once"),
        ("extremes_run", ["extremes", "--lead-days", "1,1"],
         "--lead-days lists 1 more than once"),
    ], ids=["extremes-empty", "extremes-day-0", "evaluate-empty",
            "spectra-off-grid", "cyclones-negative", "leads-repeated",
            "spectra-leads-repeated", "lead-days-repeated"])
    def test_bad_lead_list_is_exit_2(self, request, run, argv, expected,
                                     tmp_path, capsys):
        data = request.getfixturevalue(run)
        argv = [data / "besttrack.csv" if a is None else a for a in argv]
        rc = run_cli(*argv, "--manifest", data / "manifest.json",
                     "--out", tmp_path / "out")
        assert rc == 2
        assert expected in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


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


class TestSynthModels:
    @pytest.mark.parametrize("token", [
        "smoothed:x", "smoothed:2.5", "smoothed:", "smoothed:4",
        "smoothed:0", "smoothed:-3", "smoothedx", "lagged:x", "lagged:6.0",
        "lagged:-6", "lagged:9"])
    def test_bad_model_is_exit_2_before_anything_is_written(
            self, token, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(EVALUATE_SCENARIO))
        out = tmp_path / "run"
        rc = run_cli("synth", "--scenario", scenario, "--out", out,
                     "--inits", "2025-07-01T00:00:00Z",
                     "--max-lead-hours", "12",
                     "--models", f"perfect,{token}")
        assert rc == 2
        assert repr(token) in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


class TestSynthOptions:
    @pytest.mark.parametrize("option, value", [
        ("--max-lead-hours", "-6"), ("--max-lead-hours", "10"),
        ("--stations", "-1"), ("--stations", str(15 * 16 + 1)),
        ("--inits", "2025-07-18T03:00:00Z"),
        ("--inits", "2025-07-18T12:30:00Z")])
    def test_bad_value_is_exit_2_before_anything_is_written(
            self, option, value, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(EVALUATE_SCENARIO))
        out = tmp_path / "run"
        argv = {"--inits": "2025-07-01T00:00:00Z", "--max-lead-hours": "12",
                "--models": "perfect", option: value}
        rc = run_cli("synth", "--scenario", scenario, "--out", out,
                     *(item for pair in argv.items() for item in pair))
        assert rc == 2
        err = capsys.readouterr().err
        assert option in err and value in err
        assert not out.exists()

    @pytest.mark.parametrize("years, inits, expected", [
        ([2025], "2025-07-01T00:00:00Z,2025-07-02T00:00:00Z,"
         "2025-07-01T00:00:00+00:00",
         "--inits lists 2025-07-01T00:00:00Z more than once"),
        ([2024, 2025, 2024], "2025-07-01T00:00:00Z",
         "scenario years list 2024 more than once"),
    ], ids=["init", "scenario-year"])
    def test_repeated_entry_is_exit_2_before_anything_is_written(
            self, years, inits, expected, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(dict(EVALUATE_SCENARIO, years=years)))
        out = tmp_path / "run"
        rc = run_cli("synth", "--scenario", scenario, "--out", out,
                     "--inits", inits, "--max-lead-hours", "12",
                     "--models", "perfect")
        assert rc == 2
        assert expected in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("years, inits, lead, models, outside", [
        ([2025], "2025-12-30T00:00:00Z", 48, "persistence",
         "2026-01-01T00:00:00Z"),
        ([2023, 2024, 2025], "2022-12-31T00:00:00Z", 12, "persistence",
         "2022-12-31T00:00:00Z"),
        ([2024, 2026], "2024-12-31T00:00:00Z", 48, "persistence",
         "2025-01-01T00:00:00Z"),
        ([2025], "2025-07-01T00:00:00Z,2025-12-31T18:00:00Z", 12,
         "persistence", "2026-01-01T00:00:00Z"),
        ([2025], "2025-01-01T12:00:00Z", 12, "perfect,lagged:24",
         "2024-12-31T12:00:00Z"),
    ], ids=["past-last-year", "before-first-year", "year-between",
            "second-init", "lagged-model"])
    def test_times_outside_the_years_are_exit_2_before_anything_is_written(
            self, years, inits, lead, models, outside, tmp_path, capsys):
        # at each init, the truth runs from the largest lag before it to
        # the last lead after it: every year of it must be generated
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(dict(EVALUATE_SCENARIO, years=years)))
        out = tmp_path / "run"
        out.mkdir()
        rc = run_cli("synth", "--scenario", scenario, "--out", out,
                     "--inits", inits, "--max-lead-hours", str(lead),
                     "--models", models)
        assert rc == 2
        init = inits.split(",")[-1]
        lag = " and a model lagged 24 h" if "lagged" in models else ""
        assert capsys.readouterr().err == (
            f"error: years {years} do not hold {outside}, which --inits "
            f"{init} needs with --max-lead-hours {lead}{lag}; list its year "
            f"in the scenario, or change those options\n")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("years, inits, lead, models, needs", [
        ([9999], "9999-12-31T00:00:00Z", 48, "persistence", ""),
        ([2025], "0001-01-01T00:00:00Z", 12, "perfect,lagged:24",
         " and a model lagged 24 h"),
    ], ids=["after-the-calendar", "before-the-calendar"])
    def test_times_past_the_calendar_are_exit_2_before_anything_is_written(
            self, years, inits, lead, models, needs, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(dict(EVALUATE_SCENARIO, years=years)))
        out = tmp_path / "run"
        out.mkdir()
        assert run_cli("synth", "--scenario", scenario, "--out", out,
                       "--inits", inits, "--max-lead-hours", str(lead),
                       "--models", models) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: years {years} do not hold the times "
                              f"which --inits ")
        assert err.endswith(f" needs with --max-lead-hours {lead}{needs}: "
                            f"they run past the calendar\n")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("change, argv, named", [
        ({"processes": []}, [], "scenario"),
        ({"vortices": [dict(CYCLONE_SCENARIO["vortices"][0],
                            start_time=20250701)]}, [], "scenario"),
        ({"years": [0]}, [], "scenario"),
        ({"years": [10000]}, [], "scenario"),
        ({"grid": {"resolution_deg": 0}}, [], "scenario"),
        ({"seed": -1}, [], "scenario"),
        ({}, ["--seed", "-1"], "--seed"),
    ], ids=["processes-list", "vortex-time-number", "year-0", "year-10000",
            "resolution-0", "negative-seed", "negative-seed-flag"])
    def test_bad_input_is_exit_2_before_anything_is_written(
            self, change, argv, named, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(dict(EVALUATE_SCENARIO, **change)))
        out = tmp_path / "run"
        rc = run_cli("synth", "--scenario", scenario, "--out", out,
                     "--inits", "2025-07-01T00:00:00Z",
                     "--max-lead-hours", "12", "--models", "perfect", *argv)
        assert rc == 2
        err = capsys.readouterr().err
        assert (str(scenario) if named == "scenario" else named) in err
        assert not out.exists()

    @pytest.mark.parametrize("change, message", [
        ({"processes": []}, "processes must be an object, not an array"),
        ({"grid": []}, "grid must be an object, not an array"),
        ({"processes": {"t2m": 285.0}},
         "processes.t2m must be an object, not a number"),
        ({"years": 2025}, "years must be an array, not a number"),
        ({"vortices": {}}, "vortices must be an array, not an object"),
        ({"episodes": [None]}, "episodes[0] must be an object, not null"),
    ], ids=["processes-list", "grid-list", "process-number", "years-number",
            "vortices-object", "episode-null"])
    def test_section_of_the_wrong_type_names_its_key(self, change, message,
                                                     tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(dict(EVALUATE_SCENARIO, **change)))
        rc = run_cli("synth", "--scenario", scenario, "--out", tmp_path / "run",
                     "--inits", "2025-07-01T00:00:00Z",
                     "--max-lead-hours", "12", "--models", "perfect")
        assert rc == 2
        assert f"{scenario}: bad scenario document: {message}" in \
            capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_a_document_that_is_not_an_object_is_exit_2(self, tmp_path,
                                                        capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text("[]")
        rc = run_cli("synth", "--scenario", scenario, "--out", tmp_path / "run",
                     "--inits", "2025-07-01T00:00:00Z",
                     "--max-lead-hours", "12", "--models", "perfect")
        assert rc == 2
        assert "the document must be an object, not an array" in \
            capsys.readouterr().err

    def test_every_grid_point_may_be_a_station(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(EVALUATE_SCENARIO))
        assert run_cli("synth", "--scenario", scenario, "--out",
                       tmp_path / "run", "--inits", "2025-07-01T00:00:00Z",
                       "--max-lead-hours", "0", "--models", "perfect",
                       "--stations", str(15 * 16)) == 0
        meta = (tmp_path / "run/stations_meta.csv").read_text().splitlines()
        assert len(meta) == 1 + 15 * 16


def run_fresh(code: str) -> str:
    """The standard output of a fresh interpreter that runs ``code``."""
    env = dict(os.environ)
    src = str(Path(wxverify.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True).stdout


def modules_after(code: str) -> set[str]:
    """The modules a fresh interpreter has loaded after running ``code``."""
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    return set(json.loads(run_fresh(script).splitlines()[-1]))


#: A run that every scoring command scores: t2m over two history years
#: for the thresholds, a vortex for the cyclone tracker, rows of 30-60 N
#: for the spectra, and noise for the station QC
EVERY_COMMAND_SCENARIO = {
    "seed": 5,
    "grid": {"lat_start": 40.0, "lat_step": -2.0, "n_lat": 16,
             "lon_start": 130.0, "lon_step": 2.0, "n_lon": 21},
    "years": [2023, 2024, 2025],
    "processes": {
        "t2m": {"base": 285.0, "seasonal_amp": 8.0, "ar1": 0.8,
                "noise_sigma": 1.5},
        "msl": {"base": 101000.0, "ar1": 0.9, "noise_sigma": 50.0},
        "u10": {"base": 0.0, "ar1": 0.7, "noise_sigma": 1.0},
        "v10": {"base": 0.0, "ar1": 0.7, "noise_sigma": 1.0},
    },
    "vortices": [{"storm_id": "SYN01", "start_lat": 20.05,
                  "start_lon": 150.07, "start_time": "2025-07-01T00:00:00Z",
                  "n_steps": 12, "depth_pa": 3000.0, "efold_km": 300.0,
                  "u_ms": -5.0, "v_ms": 0.0, "max_wind_ms": 40.0}],
}


@pytest.fixture(scope="module")
def every_command_run(tmp_path_factory):
    """``EVERY_COMMAND_SCENARIO`` from two inits, with two models, five
    stations and its climatology built."""
    root = tmp_path_factory.mktemp("everycommand")
    scenario = root / "scenario.json"
    scenario.write_text(json.dumps(EVERY_COMMAND_SCENARIO))
    run = root / "run"
    assert run_cli("synth", "--scenario", scenario, "--out", run,
                   "--inits", "2025-07-01T00:00:00Z,2025-07-02T00:00:00Z",
                   "--max-lead-hours", "48",
                   "--models", "persistence,perfect",
                   "--stations", "5") == 0
    assert run_cli("build-climatology",
                   "--manifest", run / "manifest.json") == 0
    return run


class TestStartup:
    """Each command imports only what it runs."""

    #: The modules of wxverify every scoring command loads: the CLI, the
    #: store readers and the types they read into, and the scorecard
    SCORING_MODULES = {"wxverify", "wxverify.cli", "wxverify.errors",
                       "wxverify.fileio", "wxverify.metrics",
                       "wxverify.climatology", "wxverify.grid",
                       "wxverify.report"}
    #: The modules of wxverify each command loads besides: its own module,
    #: its kernel and its own file interfaces. No scoring command loads
    #: a store writer or the threshold kernel, and only the event and
    #: station commands load a CSV interface
    COMMAND_MODULES = {
        "build-climatology": {"pipeline_climatology", "thresholds",
                              "writers"},
        "evaluate": {"pipeline_evaluate", "spectra"},
        "extremes": {"pipeline_extremes", "extremes", "eventio"},
        "cyclones": {"pipeline_cyclones", "cyclones", "eventio"},
        "stations": {"pipeline_stations", "stations", "stationio"},
    }

    @pytest.mark.parametrize("command", list(COMMAND_MODULES))
    def test_each_command_loads_only_its_modules(
            self, command, every_command_run, tmp_path):
        run, out = every_command_run, str(tmp_path / "out")
        argv = [command, "--manifest", str(run / "manifest.json")] + {
            "build-climatology": [],
            "evaluate": ["--out", out],
            "extremes": ["--out", out, "--lead-days", "1"],
            "cyclones": ["--out", out, "--besttrack",
                         str(run / "besttrack.csv"), "--lead-days", "1"],
            "stations": ["--out", out,
                         "--station-meta", str(run / "stations_meta.csv"),
                         "--station-obs", str(run / "stations_obs.csv")],
        }[command]
        loaded = modules_after(
            "import contextlib, io\n"
            "from wxverify.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0")
        assert {m for m in loaded if m.split(".")[0] == "wxverify"} == \
            self.SCORING_MODULES | {f"wxverify.{name}" for name
                                    in self.COMMAND_MODULES[command]}
        # only a station window whose sum overflows math.fsum needs it
        assert "fractions" not in loaded

    def test_main_called_with_arguments_leaves_the_collector_alone(
            self, tmp_path):
        card = tmp_path / "scorecard.json"
        card.write_text(json.dumps(grid_metrics_card()))
        frozen = gc.get_freeze_count()
        assert main(["report", "--scorecard", str(card),
                     "--out", str(tmp_path / "csv")]) == 0
        assert gc.get_freeze_count() == frozen

    def test_main_as_the_entry_point_ends_frozen(self, tmp_path):
        # python -m wxverify.cli and the console script call main() with
        # no arguments: once the outputs are written, interpreter exit
        # has no heap left to collect
        card = tmp_path / "scorecard.json"
        card.write_text(json.dumps(grid_metrics_card()))
        argv = ["wxverify", "report", "--scorecard", str(card),
                "--out", str(tmp_path / "csv")]
        out = run_fresh(
            "import gc, sys\n"
            f"sys.argv = {argv!r}\n"
            "from wxverify.cli import main\n"
            "assert gc.get_freeze_count() == 0\n"
            "code = main()\n"
            "print(code, gc.get_freeze_count() > 0)")
        assert out.splitlines() == [f"wrote {tmp_path / 'csv'}"
                                    f"{os.sep}grid_metrics.csv", "0 True"]
        assert (tmp_path / "csv" / "grid_metrics.csv").exists()

    def test_report_imports_no_importlib_resources(self):
        # every command imports report, and only scorecard_schema reads a
        # packaged file. -S keeps site, which may import the module, out
        src = str(Path(wxverify.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-S", "-c",
             f"import sys\nsys.path.insert(0, {src!r})\n"
             "import wxverify.report\n"
             "print('importlib.resources' in sys.modules)"],
            capture_output=True, text=True, check=True).stdout
        assert out.split() == ["False"]

    def test_importing_the_cli_loads_no_layer(self):
        loaded = modules_after("import wxverify.cli")
        assert not loaded & {"jsonschema", "numpy", "wxverify.harness",
                             "wxverify.cyclones", "wxverify.extremes",
                             "wxverify.stations", "wxverify.fileio"}

    def test_help_loads_neither_numpy_nor_a_layer(self):
        loaded = modules_after(
            "import contextlib, io, runpy, sys\n"
            "sys.argv = ['wxverify', '--help']\n"
            "with contextlib.suppress(SystemExit), "
            "contextlib.redirect_stdout(io.StringIO()):\n"
            "    runpy.run_module('wxverify.cli', run_name='__main__')")
        assert "numpy" not in loaded
        assert {m for m in loaded if m.startswith("wxverify.")} \
            <= {"wxverify.cli", "wxverify.errors"}

    def test_evaluate_loads_only_its_layers(self, evaluate_run, tmp_path):
        loaded = modules_after(
            "from wxverify.cli import main\n"
            f"assert main(['evaluate', '--manifest', "
            f"{str(evaluate_run / 'manifest.json')!r}, '--out', "
            f"{str(tmp_path / 'out')!r}]) == 0")
        assert (tmp_path / "out" / "scorecard.json").exists()
        assert not loaded & {"jsonschema", "wxverify.harness",
                             "wxverify.cyclones", "wxverify.extremes",
                             "wxverify.stations"}

    def test_report_loads_no_numpy(self, tmp_path):
        # every file is published through report, which fileio imports:
        # report itself must stay free of numpy and of the layers
        card = tmp_path / "scorecard.json"
        card.write_text(json.dumps(grid_metrics_card()))
        loaded = modules_after(
            "from wxverify.cli import main\n"
            f"assert main(['report', '--scorecard', {str(card)!r}, "
            f"'--out', {str(tmp_path / 'csv')!r}]) == 0")
        assert (tmp_path / "csv" / "grid_metrics.csv").exists()
        assert "numpy" not in loaded
        assert {m for m in loaded if m.startswith("wxverify.")} \
            <= {"wxverify.cli", "wxverify.errors", "wxverify.report"}

    def test_no_scoring_command_loads_openssl(self, tmp_path):
        # every digest comes from the interpreter's built-in SHA-256, as
        # hashlib maps OpenSSL. synth runs here, not in the fresh
        # interpreter: numpy.random imports secrets, and so hashlib
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(EVERY_COMMAND_SCENARIO))
        run = tmp_path / "run"
        assert run_cli("synth", "--scenario", scenario, "--out", run,
                       "--inits", "2025-07-01T00:00:00Z,2025-07-02T00:00:00Z",
                       "--max-lead-hours", "48",
                       "--models", "persistence,perfect",
                       "--stations", "5") == 0
        manifest = str(run / "manifest.json")
        commands = [
            ["build-climatology", "--manifest", manifest],
            ["evaluate", "--manifest", manifest, "--out", f"{tmp_path}/ev"],
            ["extremes", "--manifest", manifest, "--out", f"{tmp_path}/ex",
             "--lead-days", "1"],
            ["cyclones", "--manifest", manifest, "--out", f"{tmp_path}/cy",
             "--besttrack", str(run / "besttrack.csv"), "--lead-days", "1"],
            ["stations", "--manifest", manifest, "--out", f"{tmp_path}/st",
             "--station-meta", str(run / "stations_meta.csv"),
             "--station-obs", str(run / "stations_obs.csv")],
            ["report", "--scorecard", f"{tmp_path}/ev/scorecard.json",
             "--out", f"{tmp_path}/csv"],
        ]
        loaded = modules_after(
            "import contextlib, io\n"
            "from wxverify.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    for argv in {commands!r}:\n"
            "        assert main(argv) == 0, argv")
        for out in ("ev", "ex", "cy", "st"):
            load_card(tmp_path / out)
        assert "_hashlib" not in loaded and "hashlib" not in loaded

    def test_digests_fall_back_to_hashlib_without_a_builtin(self):
        expected = [hashlib.sha256(data).hexdigest()
                    for data in (b"", b"abc", bytes(range(256)) * 4097)]
        code = (
            "import sys\n"
            "from wxverify import fileio\n"
            "for data in (b'', b'abc', bytes(range(256)) * 4097):\n"
            "    print(fileio.sha256(data).hexdigest())\n"
            "print('_hashlib' in sys.modules)")
        # the built-in one, then hashlib's with the built-ins blocked
        for blocked, openssl in (([], "False"), (["_sha2", "_sha256"], "True")):
            block = "".join(f"sys.modules[{name!r}] = None\n"
                            for name in blocked)
            *digests, loaded = run_fresh(
                f"import sys\n{block}{code}").split()
            assert digests == expected
            assert loaded == openssl

    def test_every_exported_name_resolves(self):
        names = [n for n in wxverify.__all__ if n != "__version__"]
        namespace: dict = {}
        exec(f"from wxverify import {', '.join(wxverify.__all__)}", namespace)
        for name in names:
            module = __import__(f"wxverify.{wxverify._MODULE_OF[name]}",
                                fromlist=[name])
            assert namespace[name] is getattr(module, name)
        assert namespace["__version__"] == wxverify.__version__
        assert set(wxverify.__all__) <= set(dir(wxverify))
        with pytest.raises(AttributeError):
            getattr(wxverify, "no_such_name")

    def test_every_exported_name_resolves_in_a_fresh_interpreter(self):
        loaded = modules_after(
            f"from wxverify import {', '.join(wxverify.__all__)}")
        assert {"wxverify.harness", "wxverify.cyclones", "wxverify.stations",
                "wxverify.extremes"} <= loaded


class TestSourceTree:
    """``src/wxverify`` holds what the commands run."""

    #: Public names that nothing else in ``src`` refers to, and why each
    #: stays.
    UNREFERENCED = {
        # the benchmark's layer tracer wraps it by name
        "climatology.DailyMeanClimatology.field_for",
        # the only writer of RBGRID1 files, which manifests may still name
        "writers.write_grid",
        # the published scorecard contract
        "report.scorecard_schema",
        # the console-script entry point
        "cli.main",
        # the library's one-storm, one-run case of cyclones.StormTracker
        "cyclones.track_storm",
    }

    @staticmethod
    def definitions_and_uses():
        """The public and the private module-level definitions of ``src``
        ("module.name" or "module.Class.method" -> its node), and a
        predicate: whether a definition's name is used outside it, where
        a use inside an annotation does not count. A module-level name is
        used as a bare name or as an attribute of a module
        (``fileio.read_grid``); a method as any attribute, as the type of
        the object is not known here."""
        import ast
        src = Path(wxverify.__file__).parent
        paths = sorted(src.glob("*.py"))
        trees = [ast.parse(path.read_text(encoding="utf-8"))
                 for path in paths]
        public, private = {}, {}
        for path, tree in zip(paths, trees):
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names = [node.name]
                else:  # an assignment counts when its name is private
                    names = [target.id
                             for target in getattr(node, "targets", [])
                             if isinstance(target, ast.Name)
                             and target.id.startswith("_")]
                for name in names:
                    if not name.startswith("__"):
                        kind = private if name.startswith("_") else public
                        kind[f"{path.stem}.{name}"] = node
                if not isinstance(node, ast.ClassDef) \
                        or node.name.startswith("_"):
                    continue
                public.update(
                    (f"{path.stem}.{node.name}.{item.name}", item)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("_"))
        annotations = set()
        for tree in trees:
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef):
                    args = node.args
                    notes = [arg.annotation for arg in (
                        *args.posonlyargs, *args.args, *args.kwonlyargs,
                        args.vararg, args.kwarg) if arg is not None]
                    notes.append(node.returns)
                elif isinstance(node, ast.AnnAssign):
                    notes = [node.annotation]
                else:
                    continue
                annotations.update(id(inner) for note in notes
                                   if note is not None
                                   for inner in ast.walk(note))
        modules = {path.stem for path in paths}
        uses: dict[tuple[str, bool], list] = {}  # (name, is method) -> nodes
        for tree in trees:
            for node in ast.walk(tree):
                if not isinstance(getattr(node, "ctx", None), ast.Load) \
                        or id(node) in annotations:
                    continue
                if isinstance(node, ast.Name):
                    uses.setdefault((node.id, False), []).append(node)
                elif isinstance(node, ast.Attribute):
                    uses.setdefault((node.attr, True), []).append(node)
                    if getattr(node.value, "id", None) in modules:
                        uses.setdefault((node.attr, False), []).append(node)

        def used_outside(name: str, definition) -> bool:
            inside = {id(node) for node in ast.walk(definition)}
            method = name.count(".") == 2
            return any(id(node) not in inside
                       for node in uses.get((name.rsplit(".", 1)[1], method),
                                            []))
        return public, private, used_outside

    def test_one_place_decides_what_a_store_holds(self):
        """Whether a store holds the variable asked for is decided where
        ``FieldSource`` opens it, for every command and role: ``src``
        raises the variable mismatch in one place."""
        import ast
        places = []

        def visit(node, where):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                where = f"{where}.{node.name}"
            if isinstance(node, ast.Raise) and any(
                    isinstance(part, ast.Constant)
                    and "variable mismatch" in str(part.value)
                    for part in ast.walk(node)):
                places.append(where)
            for child in ast.iter_child_nodes(node):
                visit(child, where)

        for path in sorted(Path(wxverify.__file__).parent.glob("*.py")):
            visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
        assert places == ["fileio.FieldSource._open"]

    def test_one_place_parses_a_sidecar(self):
        """Every store, a stack, a climatology or the thresholds, is
        parsed where ``FieldSource`` opens it: ``src`` calls
        ``_load_sidecar`` in that one place."""
        import ast
        places = []

        def visit(node, where):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                where = f"{where}.{node.name}"
            if isinstance(node, ast.Call) and "_load_sidecar" in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None)):
                places.append(where)
            for child in ast.iter_child_nodes(node):
                visit(child, where)

        for path in sorted(Path(wxverify.__file__).parent.glob("*.py")):
            visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
        assert places == ["fileio.FieldSource._open"]

    #: The functions that check the grids of blocks they are handed, not
    #: of a store a run reads, and why each keeps its check.
    BLOCK_GRID_CHECKS = {
        # library entry points, which callers outside a run may hand
        # blocks of any grid
        "grid.derive_wind_speed",
        "cyclones.StormTracker.advance",
        # a writer, of the parts of one climatology it is handed
        "writers.write_daily_climatology.day_means",
    }

    def test_one_place_decides_which_grid_a_store_is_on(self):
        """Whether a store may be paired with the grid of another is
        decided where ``FieldSource`` opens it, for every command and
        role: no ``pipeline_*`` module compares a ``.grid``, and ``src``
        raises ``GridMismatch``, or raises on a comparison of a ``.grid``,
        in that one place and in the checks of handed blocks alone."""
        import ast

        def compares_grid(node) -> bool:
            return any(isinstance(part, ast.Compare) and any(
                isinstance(side, ast.Attribute) and side.attr == "grid"
                for side in (part.left, *part.comparators))
                for part in ast.walk(node))

        places = set()

        def visit(node, where):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                where = f"{where}.{node.name}"
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) \
                    and getattr(node.exc.func, "id", None) == "GridMismatch" \
                    or isinstance(node, ast.If) and compares_grid(node.test) \
                    and any(isinstance(inner, ast.Raise)
                            for inner in ast.walk(node)):
                places.add(where)
            for child in ast.iter_child_nodes(node):
                visit(child, where)

        for path in sorted(Path(wxverify.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            assert not path.stem.startswith("pipeline_") \
                or not compares_grid(tree)
            visit(tree, path.stem)
        assert places == {"fileio.FieldSource._open", *self.BLOCK_GRID_CHECKS}

    def test_every_public_name_is_referenced_elsewhere_in_src(self):
        public, _, used_outside = self.definitions_and_uses()
        assert self.UNREFERENCED <= set(public)
        unused = sorted(name for name, definition in public.items()
                        if name not in self.UNREFERENCED
                        and not used_outside(name, definition))
        assert unused == []

    def test_every_private_module_name_is_referenced_in_src(self):
        _, private, used_outside = self.definitions_and_uses()
        assert "fileio._sidecar_path" in private
        unused = sorted(name for name, definition in private.items()
                        if not used_outside(name, definition))
        assert unused == []
