"""Command-line surface.

Subcommands mirror the pipeline stages:

  synth              generate synthetic truth, forecasts, and a manifest
  build-climatology  daily-mean climatology + extreme thresholds from history
  evaluate           latitude-weighted grid metrics and zonal spectra
  extremes           heatwave / cold-surge categorical scores
  cyclones           tropical-cyclone track and intensity verification
  stations           station-space scores with QC report
  report             flatten a scorecard JSON into CSV tables

Runs are deterministic: the same manifest and inputs produce
byte-identical scorecards. Exit codes: 0 success, 2 input error,
3 computation error (for example insufficient history).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from datetime import datetime, timedelta, timezone
from itertools import groupby
from pathlib import Path
from typing import Sequence

import numpy as np

from . import climatology, fileio, report, stations
from .climatology import (DailyMeanClimatology,
                          build_daily_mean_climatology, build_thresholds,
                          calendar_day_index, daily_extremes_from_fields,
                          daily_means_from_fields, history_from_extremes)
from .cyclones import (StormTrack, TrackerConfig, TrackSource,
                       homogeneous_sample, intensity_errors, track_dpe,
                       track_storm)
from .errors import (ChecksumMismatch, DegenerateAnomaly,
                     DuplicateObservation, EmptyBand, GridMismatch,
                     HeaderPayloadShapeMismatch, InsufficientHistory,
                     InvalidHeader, ManifestError, MissingFix, NoValidPairs,
                     NonFiniteValue, NonMonotoneTime, NonUniformGrid,
                     PolarRow, SeedOutsideDomain, TargetOutsideDomain,
                     UnitOutOfRange, UnknownStation, WxVerifyError)
from .extremes import (EventKind, label_event_runs, match_counts,
                       scores_from_counts, segments_by_location)
from .grid import GeoGrid, GridField, VariableId, latitude_weights
from .harness import (SyntheticScenario, generate_variable_series,
                      load_scenario, make_besttrack, persistence_forecast,
                      smoothed_forecast)
from .metrics import acc as metric_acc
from .metrics import activity as metric_activity
from .metrics import bias as metric_bias
from .metrics import wrmse as metric_wrmse
from .report import na, new_scorecard, write_scorecard, write_spectrum_csv
from .spectra import ZonalSpectrum, midlatitude_spectrum
from .stations import (QcThresholds, StationInterpolator,
                       station_climatology_from_grid)

INPUT_ERRORS = (ManifestError, InvalidHeader, ChecksumMismatch,
                HeaderPayloadShapeMismatch, NonFiniteValue, NonMonotoneTime,
                UnitOutOfRange, UnknownStation, DuplicateObservation,
                NonUniformGrid)
COMPUTE_ERRORS = (InsufficientHistory, NoValidPairs, DegenerateAnomaly,
                  EmptyBand, PolarRow, MissingFix, GridMismatch,
                  TargetOutsideDomain, SeedOutsideDomain)

DEFAULT_SPECTRA_LEADS = (6, 72, 120, 240)
DEFAULT_EXTREME_LEAD_DAYS = (1, 3, 7, 10)
DEFAULT_CYCLONE_LEAD_DAYS = (1, 3, 5)


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def _parse_leads(text: str | None, default: Sequence[int], flag: str,
                manifest: fileio.RunManifest, hours_of) -> tuple[int, ...]:
    """A comma-separated lead list, or ``default`` when the flag is absent.

    An empty list is rejected, and so is any value whose lead hours
    (``hours_of(value)``) leave the manifest's 6-hourly lead grid.
    """
    if text is None:
        values = tuple(default)
    else:
        try:
            values = tuple(int(part) for part in text.split(",")
                           if part.strip())
        except ValueError as exc:
            raise ManifestError(f"{flag}: bad integer list {text!r}") from exc
        if not values:
            raise ManifestError(f"{flag}: empty lead list {text!r}")
    on_grid = set(manifest.lead_hours)
    for value in values:
        hours = hours_of(value)
        if not on_grid.issuperset(hours):
            span = f"{hours[0]}..{hours[-1]}" if len(hours) > 1 else hours[0]
            raise ManifestError(
                f"{flag} value {value} ({span} h) is outside the manifest "
                f"lead grid (0..{manifest.max_lead_hours} h, every 6 h)")
    return values


def _lead_hours(lead: int) -> tuple[int, ...]:
    return (lead,)


def _extreme_day_hours(day: int) -> tuple[int, ...]:
    """The four synoptic lead hours of extremes lead day ``day`` (1-based)."""
    return tuple(24 * (day - 1) + h for h in climatology.SYNOPTIC_HOURS)


def _cyclone_day_hours(day: int) -> tuple[int, ...]:
    return (24 * day,)


# --- evaluate ----------------------------------------------------------------

def _evaluate_task(source, clims, model, variable, lead):
    """Metric means over init times for one (model, variable, lead)."""
    weights = None
    clim = clims.get(variable)
    per_metric: dict[str, list[float]] = {"wrmse": [], "acc": [], "bias": [],
                                          "activity": []}
    for init in source.manifest.init_times:
        when = init + timedelta(hours=lead)
        pred = source.model(model, init, variable, lead)
        truth = source.truth(variable, when)
        if weights is None:
            weights = latitude_weights(pred.grid)
        per_metric["wrmse"].append(metric_wrmse(pred, truth, weights))
        per_metric["bias"].append(metric_bias(pred, truth, weights))
        if clim is not None:
            clim_field = clim.field_for(when)
            per_metric["acc"].append(metric_acc(pred, truth, clim_field, weights))
            per_metric["activity"].append(
                metric_activity(pred, clim_field, weights))
    rows = []
    for metric in ("wrmse", "acc", "bias", "activity"):
        values = per_metric[metric]
        rows.append({
            "model": model,
            "variable": variable.key,
            "lead_hours": lead,
            "metric": metric,
            "value": _mean(values) if values else "n/a",
            "n_samples": len(values),
        })
    return rows


def cmd_evaluate(args) -> int:
    manifest = fileio.load_manifest(args.manifest)
    out_dir = Path(args.out)
    leads = _parse_leads(args.leads, manifest.lead_hours, "--leads",
                         manifest, _lead_hours)
    spectra_leads = _parse_leads(
        args.spectra_leads,
        tuple(l for l in DEFAULT_SPECTRA_LEADS if l in leads),
        "--spectra-leads", manifest, _lead_hours)
    source = fileio.FieldSource(manifest)
    clims = source.climatologies()

    card = new_scorecard("evaluate", manifest.sha256)
    card["grid_metrics"] = [row
                            for model in sorted(manifest.models)
                            for variable in manifest.variables
                            for lead in leads
                            for row in _evaluate_task(source, clims, model,
                                                      variable, lead)]

    def mean_spectrum(load_field) -> ZonalSpectrum:
        stack = [midlatitude_spectrum(load_field(init))
                 for init in manifest.init_times]
        return ZonalSpectrum(stack[0].variable, stack[0].lead_hours,
                             np.mean([s.energy for s in stack], axis=0),
                             stack[0].band)

    spectra_rows = []
    for model in sorted(manifest.models):
        for variable in manifest.variables:
            for lead in spectra_leads:
                spectrum = mean_spectrum(
                    lambda init: source.model(model, init, variable, lead))
                rel = f"spectra/{model}_{variable.key}_{lead:03d}h.csv"
                write_spectrum_csv(spectrum, out_dir / rel)
                spectra_rows.append({"model": model, "variable": variable.key,
                                     "lead_hours": lead, "csv": rel})
    for variable in manifest.variables:
        for lead in spectra_leads:
            spectrum = mean_spectrum(
                lambda init: source.truth(variable,
                                          init + timedelta(hours=lead)))
            rel = f"spectra/truth_{variable.key}_{lead:03d}h.csv"
            write_spectrum_csv(spectrum, out_dir / rel)
            spectra_rows.append({"model": "truth", "variable": variable.key,
                                 "lead_hours": lead, "csv": rel})
    if spectra_rows:
        card["spectra"] = spectra_rows

    write_scorecard(card, out_dir / "scorecard.json")
    print(f"wrote {out_dir / 'scorecard.json'}")
    return 0


# --- build-climatology -------------------------------------------------------

def _check_history_grid(grid: GeoGrid | None, fields: Sequence[GridField],
                        variable: VariableId, year: int) -> GeoGrid:
    """The grid of one history year, which must be that of the years before."""
    if grid is not None and fields[0].grid != grid:
        raise ManifestError(f"{variable.key} history of {year} is on another "
                            f"grid than the years before it")
    return fields[0].grid


def cmd_build_climatology(args) -> int:
    manifest = fileio.load_manifest(args.manifest, require=("history",))
    if manifest.climatology_pattern is None:
        raise ManifestError("manifest declares no climatology daily_mean_pattern")
    source = fileio.FieldSource(manifest)
    for variable in manifest.variables:
        if variable.derived:
            continue
        with_thresholds = variable is VariableId.T2M \
            and manifest.thresholds_file is not None
        grid = None
        per_year = []
        extremes = {}  # year -> (daily max, daily min)
        for year in manifest.history_years:
            fields = source.history(variable, year)
            grid = _check_history_grid(grid, fields, variable, year)
            per_year.append(daily_means_from_fields(fields))
            if with_thresholds:
                extremes[year] = daily_extremes_from_fields(fields)
            del fields  # hold one year of history at a time
        clim = DailyMeanClimatology(grid, variable,
                                    build_daily_mean_climatology(per_year),
                                    manifest.history_years)
        path = fileio.write_daily_climatology(
            clim, manifest.climatology_path(variable))
        print(f"wrote {path}")
        if with_thresholds:
            thresholds = build_thresholds(history_from_extremes(extremes))
            path = fileio.write_thresholds(thresholds, grid,
                                           manifest.thresholds_file)
            print(f"wrote {path}")
    return 0


# --- extremes ----------------------------------------------------------------

def _day_extremes(fields_per_day: Sequence[Sequence[GridField]],
                  kind: EventKind) -> np.ndarray:
    """(days x locations) daily max (heat) or min (cold) of each day's fields."""
    stack = np.stack([[f.values for f in fields] for fields in fields_per_day])
    extreme = stack.max(axis=1) if kind is EventKind.HEATWAVE \
        else stack.min(axis=1)
    return extreme.reshape(len(fields_per_day), -1)


def _truth_day_fields(source: fileio.FieldSource, day: datetime
                      ) -> list[GridField]:
    return [source.truth(VariableId.T2M, day + timedelta(hours=h))
            for h in climatology.SYNOPTIC_HOURS]


def _region_mask(grid: GeoGrid, box) -> np.ndarray:
    if box is None:
        return np.ones(grid.shape, dtype=bool)
    lat_min, lat_max, lon_min, lon_max = box
    lat_ok = (grid.lat_deg >= lat_min) & (grid.lat_deg <= lat_max)
    lon_ok = (grid.lon_deg >= lon_min) & (grid.lon_deg <= lon_max)
    return lat_ok[:, None] & lon_ok[None, :]


def cmd_extremes(args) -> int:
    manifest = fileio.load_manifest(args.manifest)
    out_dir = Path(args.out)
    lead_days = _parse_leads(args.lead_days, DEFAULT_EXTREME_LEAD_DAYS,
                             "--lead-days", manifest, _extreme_day_hours)
    gamma = args.gamma
    # checked here: match_events only runs where both sides have events
    if not 0.0 < gamma <= 1.0:
        raise ManifestError(f"--gamma must lie in (0, 1], got {gamma}")
    for init in manifest.init_times:
        if init.hour != 0:
            raise ManifestError("extremes evaluation expects 00Z init times")
    source = fileio.FieldSource(manifest)

    thresholds_sha = None
    stored = source.thresholds()
    if stored is not None:
        thresholds, tgrid = stored
        thresholds_sha = hashlib.sha256(
            manifest.thresholds_file.read_bytes()).hexdigest()
    elif manifest.history_pattern and manifest.history_years:
        tgrid = None
        extremes = {}
        for year in manifest.history_years:
            fields = source.history(VariableId.T2M, year)
            tgrid = _check_history_grid(tgrid, fields, VariableId.T2M, year)
            extremes[year] = daily_extremes_from_fields(fields)
            del fields  # hold one year of history at a time
        thresholds = build_thresholds(history_from_extremes(extremes))
    else:
        raise ManifestError(
            "extremes needs thresholds_path or a history section to build from")

    first_truth = source.truth(VariableId.T2M, manifest.init_times[0])
    if first_truth.grid != tgrid:
        raise ManifestError("threshold grid does not match the truth grid")

    card = new_scorecard("extremes", manifest.sha256,
                         thresholds_sha256=thresholds_sha, gamma=gamma)
    kinds = (EventKind.HEATWAVE, EventKind.COLDSURGE)
    n_loc = tgrid.shape[0] * tgrid.shape[1]
    region_locations = [
        (region, np.nonzero(_region_mask(tgrid, box).reshape(-1))[0])
        for region, box in sorted(manifest.regions.items())]

    # Thresholds and truth events do not depend on the model: label the
    # truth once per lead day. Calendar days at lead d: date(init) + (d - 1).
    per_day = {}  # lead day -> ({kind: thresholds}, {kind: truth segments})
    for d in lead_days:
        days = [init + timedelta(days=d - 1) for init in manifest.init_times]
        day_indices = [calendar_day_index(day) for day in days]
        tau = {EventKind.HEATWAVE: thresholds.tau_heat[day_indices, :],
               EventKind.COLDSURGE: thresholds.tau_cold[day_indices, :]}
        truth_fields = [_truth_day_fields(source, day) for day in days]
        truth = {kind: segments_by_location(label_event_runs(
                     _day_extremes(truth_fields, kind), tau[kind], kind), kind)
                 for kind in kinds}
        fileio.write_segments_csv(
            [seg for kind in kinds for segs in truth[kind].values()
             for seg in segs],
            out_dir / "segments" / f"truth_day{d}.csv")
        per_day[d] = (tau, truth)

    rows = []
    for model in sorted(manifest.models):
        for d in lead_days:
            tau, truth = per_day[d]
            fc_fields = [[source.model(model, init, VariableId.T2M, lead)
                          for lead in _extreme_day_hours(d)]
                         for init in manifest.init_times]
            fc_segments = []
            counts = {}  # kind -> per-location (tp, fp, fn) arrays
            for kind in kinds:
                fc = segments_by_location(label_event_runs(
                    _day_extremes(fc_fields, kind), tau[kind], kind), kind)
                fc_segments.extend(seg for segs in fc.values() for seg in segs)
                counts[kind] = match_counts(fc, truth[kind], n_loc, gamma)
            for region, locations in region_locations:
                for kind in kinds:
                    tp, fp, fn = (int(a[locations].sum())
                                  for a in counts[kind])
                    scores = scores_from_counts(tp, fp, fn)
                    rows.append({
                        "model": model, "kind": kind.value, "lead_days": d,
                        "region": region, "pod": na(scores.pod),
                        "far": na(scores.far), "csi": na(scores.csi),
                        "tp": tp, "fp": fp, "fn": fn,
                    })
            fileio.write_segments_csv(
                fc_segments, out_dir / "segments" / f"{model}_day{d}.csv")
    card["event_scores"] = rows
    write_scorecard(card, out_dir / "scorecard.json")
    print(f"wrote {out_dir / 'scorecard.json'}")
    return 0


# --- cyclones ----------------------------------------------------------------

def cmd_cyclones(args) -> int:
    manifest = fileio.load_manifest(args.manifest)
    out_dir = Path(args.out)
    besttrack_path = Path(args.besttrack)
    truth_list = fileio.read_besttrack(besttrack_path)
    truth_tracks = {t.storm_id: t for t in truth_list}
    lead_days = _parse_leads(args.lead_days, DEFAULT_CYCLONE_LEAD_DAYS,
                             "--lead-days", manifest, _cyclone_day_hours)
    lead_steps = [4 * d for d in lead_days]
    n_leads = manifest.max_lead_hours // 6 + 1
    config = TrackerConfig(search_radius_km=args.search_radius_km,
                           wind_radius_km=args.wind_radius_km,
                           mslp_cutoff_pa=args.mslp_cutoff_pa)
    for variable in (VariableId.MSL, VariableId.U10, VariableId.V10):
        if variable not in manifest.variables:
            raise ManifestError(f"cyclones needs {variable.key} in the manifest")

    source = fileio.FieldSource(manifest)
    model_tracks: dict[str, dict] = {}
    all_tracks: list[StormTrack] = []
    for model in sorted(manifest.models):
        tracks: dict = {}
        for init in manifest.init_times:
            for storm_id in sorted(truth_tracks):
                seed_fix = truth_tracks[storm_id].fix_at_time(init)
                if seed_fix is None:
                    continue
                msl = [source.model(model, init, VariableId.MSL, 6 * k)
                       for k in range(n_leads)]
                u10 = [source.model(model, init, VariableId.U10, 6 * k)
                       for k in range(n_leads)]
                v10 = [source.model(model, init, VariableId.V10, 6 * k)
                       for k in range(n_leads)]
                track = track_storm(msl, u10, v10, seed_fix.position,
                                    storm_id=storm_id,
                                    source=TrackSource(model),
                                    config=config)
                tracks[(storm_id, init)] = track
                all_tracks.append(track)
        if not tracks:
            raise MissingFix("no (storm, init) pair overlaps the best track")
        model_tracks[model] = tracks

    sample = homogeneous_sample(model_tracks, truth_tracks, n_leads)
    card = new_scorecard(
        "cyclones", manifest.sha256,
        besttrack_sha256=hashlib.sha256(besttrack_path.read_bytes()).hexdigest())
    rows = []
    for model in sorted(manifest.models):
        dpe = track_dpe(model_tracks[model], truth_tracks, sample)
        intensity = intensity_errors(model_tracks[model], truth_tracks, sample)
        for step in lead_steps:
            err = intensity[step]
            rows.append({
                "model": model,
                "lead_hours": 6 * step,
                "n_storms": len(sample[step]),
                "dpe_km": na(dpe[step]),
                "mslp_mae_hpa": na(err.mae_mslp_hpa if err else None),
                "mslp_bias_hpa": na(err.bias_mslp_hpa if err else None),
                "wind_mae_ms": na(err.mae_wind_ms if err else None),
                "wind_bias_ms": na(err.bias_wind_ms if err else None),
            })
    card["cyclone_scores"] = rows
    fileio.write_tracks_csv(all_tracks, out_dir / "tracks.csv")
    write_scorecard(card, out_dir / "scorecard.json")
    print(f"wrote {out_dir / 'scorecard.json'}")
    return 0


# --- stations ----------------------------------------------------------------

def cmd_stations(args) -> int:
    manifest = fileio.load_manifest(args.manifest)
    out_dir = Path(args.out)
    valid_times = sorted({init + timedelta(hours=lead)
                          for init in manifest.init_times
                          for lead in manifest.lead_hours})
    table = fileio.read_station_csvs(args.station_meta, args.station_obs,
                                     times=valid_times)
    station_vars = [v for v in table.variables if v in manifest.variables]
    if not station_vars:
        raise NoValidPairs("no station variable overlaps the manifest variables")
    # QC needs a truth reference for every variable it tests
    table = table.select(station_vars)

    source = fileio.FieldSource(manifest)
    interpolator = StationInterpolator(table.stations)
    reference = np.empty(table.values.shape)
    for vi, variable in enumerate(table.variables):
        for ti, when in enumerate(table.times):
            reference[vi, ti] = interpolator.at_stations(
                source.truth(variable, when))
    qc_table, qc_report = stations.apply_qc(table, reference,
                                            QcThresholds.default())

    clims = source.climatologies()
    station_clims = {variable: station_climatology_from_grid(clims[variable],
                                                             interpolator)
                     for variable in station_vars if variable in clims}

    card = new_scorecard("stations", manifest.sha256)
    rows = []
    for model in sorted(manifest.models):
        for variable in station_vars:
            for lead in manifest.lead_hours:
                forecasts = [source.model(model, init, variable, lead)
                             for init in manifest.init_times]
                try:
                    scores = stations.station_scores(
                        forecasts, qc_table, variable,
                        clim=station_clims.get(variable),
                        interpolator=interpolator)
                    rows.append({
                        "model": model, "variable": variable.key,
                        "lead_hours": lead, "rmse": scores.rmse,
                        "bias": scores.bias, "acc": na(scores.acc),
                        "n_pairs": scores.n_pairs,
                    })
                except NoValidPairs:
                    rows.append({
                        "model": model, "variable": variable.key,
                        "lead_hours": lead, "rmse": "n/a", "bias": "n/a",
                        "acc": "n/a", "n_pairs": 0,
                    })
    card["station_scores"] = rows
    card["qc_report"] = qc_report.as_dict()
    write_scorecard(card, out_dir / "scorecard.json")
    print(f"wrote {out_dir / 'scorecard.json'}")
    return 0


# --- synth -------------------------------------------------------------------

def _write_truth(scenario: SyntheticScenario, out_dir: Path,
                 truth_pattern: str, keep: set[datetime] | None) -> None:
    """Generate truth and write one stack per (variable, year), streamed.

    With ``keep``, each year's stack holds the contiguous 6-hourly span
    from the year's first to its last kept time; years without a kept
    time are not written.
    """
    spans: dict[int, tuple[datetime, datetime]] | None = None
    if keep is not None:
        spans = {}
        for when in keep:
            lo, hi = spans.get(when.year, (when, when))
            spans[when.year] = (min(lo, when), max(hi, when))
    for variable in scenario.variables:
        series = generate_variable_series(scenario, variable)
        for year, fields in groupby(series, key=lambda f: f.valid_time.year):
            if spans is not None:
                if year not in spans:
                    continue
                lo, hi = spans[year]
                fields = (f for f in fields if lo <= f.valid_time <= hi)
            fileio.write_stack(fields, out_dir / truth_pattern.format(
                variable=variable.key, year=year))


def cmd_synth(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = SyntheticScenario(args.seed, scenario.grid, scenario.years,
                                     scenario.processes, scenario.vortices,
                                     scenario.episodes)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    max_lead = args.max_lead_hours
    leads = list(range(0, max_lead + 1, 6))
    eval_year = scenario.years[-1]
    if args.inits:
        init_times = [fileio.parse_time(t) for t in args.inits.split(",")]
    else:
        init_times = [datetime(eval_year, 7, 1, tzinfo=timezone.utc)]

    model_specs: dict[str, tuple[str, int]] = {}
    for token in (args.models or "persistence").split(","):
        token = token.strip()
        if not token:
            continue
        if token == "persistence":
            model_specs[token] = ("persistence", 0)
        elif token == "perfect":
            model_specs[token] = ("perfect", 0)
        elif token.startswith("smoothed"):
            width = int(token.split(":", 1)[1]) if ":" in token else 9
            model_specs[f"smoothed{width}"] = ("smoothed", width)
        elif token.startswith("lagged"):
            lag = int(token.split(":", 1)[1]) if ":" in token else 48
            if lag % 6:
                raise ManifestError("lag must be a multiple of 6 hours")
            model_specs[f"lagged{lag}"] = ("lagged", lag)
        else:
            raise ManifestError(f"unknown synthetic model {token!r}")

    keep: set[datetime] | None = None
    if args.truth_span == "run":
        if any(kind == "lagged" for kind, _ in model_specs.values()):
            raise ManifestError("lagged models need --truth-span full")
        keep = {init + timedelta(hours=lead)
                for init in init_times for lead in leads}
    truth_pattern = "truth/{variable}/{year}.rbs"
    _write_truth(scenario, out_dir, truth_pattern, keep)

    model_patterns = {
        name: f"models/{name}/{{init}}/{{variable}}.rbs"
        for name in sorted(model_specs)}
    history_years = list(scenario.years[:-1]) if len(scenario.years) > 1 \
        else list(scenario.years)
    climatology_doc = {
        "daily_mean_pattern": "clim/{variable}.rbc",
        "history_pattern": truth_pattern,
        "history_years": history_years,
    }
    if len(history_years) >= 2:  # threshold construction needs >= 2 years
        climatology_doc["thresholds_path"] = "clim/thresholds.rbt"
    manifest_doc = {
        "variables": [v.key for v in scenario.variables],
        "init_times": [fileio.format_time(t) for t in init_times],
        "max_lead_hours": max_lead,
        "truth_pattern": truth_pattern,
        "models": model_patterns,
        "climatology": climatology_doc,
        "regions": {"global": None},
    }
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_bytes(
        (json.dumps(manifest_doc, sort_keys=True, indent=2) + "\n").encode())
    # keep the generating process parameters next to the outputs
    (out_dir / "scenario.json").write_bytes(Path(args.scenario).read_bytes())

    # forecasts are built from the truth just written, read back through
    # the manifest like any other run
    source = fileio.FieldSource(fileio.load_manifest(manifest_path, require=()))
    for name, (kind, param) in sorted(model_specs.items()):
        for init in init_times:
            for variable in scenario.variables:
                if kind == "persistence":
                    fields = persistence_forecast(source.truth(variable, init),
                                                  leads)
                elif kind == "smoothed":
                    fields = smoothed_forecast(source.truth(variable, init),
                                               leads, param)
                elif kind == "perfect":
                    fields = [source.truth(variable, init + timedelta(hours=lead))
                              .at(init + timedelta(hours=lead), lead)
                              for lead in leads]
                else:  # lagged: stale truth from `param` hours earlier
                    fields = [source.truth(variable,
                                           init + timedelta(hours=lead - param))
                              .at(init + timedelta(hours=lead), lead)
                              for lead in leads]
                fileio.write_stack(fields, source.manifest.model_path(
                    name, init, variable, leads[0]))

    if scenario.vortices:
        tracks = make_besttrack(scenario)
        lines = ["storm_id,iso_time,lat,lon,mslp_hpa,wind_ms"]
        for track in tracks:
            for fix in track.fixes:
                lines.append(f"{track.storm_id},{fileio.format_time(fix.time)},"
                             f"{fix.lat!r},{fix.lon!r},"
                             f"{fix.min_mslp_pa / 100.0!r},{fix.max_wind_ms!r}")
        (out_dir / "besttrack.csv").write_bytes(
            ("\n".join(lines) + "\n").encode())

    if args.stations:
        _write_station_csvs(scenario, source, args.stations)

    print(f"wrote {manifest_path}")
    return 0


def _write_station_csvs(scenario: SyntheticScenario,
                        source: fileio.FieldSource, n_stations: int) -> None:
    """Sample synthetic stations at grid nodes; observations equal truth."""
    out_dir = source.manifest.root
    grid = scenario.grid
    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=scenario.seed, spawn_key=(10_001,)))
    flat = rng.choice(grid.n_lat * grid.n_lon, size=min(
        n_stations, grid.n_lat * grid.n_lon), replace=False)
    flat.sort()
    meta_lines = ["id,lat,lon,elev_m"]
    sites = []
    for idx in flat:
        i, j = divmod(int(idx), grid.n_lon)
        sid = f"SYN{idx:05d}"
        sites.append((sid, i, j))
        meta_lines.append(f"{sid},{float(grid.lat_deg[i])!r},"
                          f"{float(grid.lon_deg[j])!r},0.0")
    (out_dir / "stations_meta.csv").write_bytes(
        ("\n".join(meta_lines) + "\n").encode())

    valid_times = sorted({init + timedelta(hours=lead)
                          for init in source.manifest.init_times
                          for lead in source.manifest.lead_hours})
    obs_lines = ["station_id,iso_time,variable,value_si"]
    for variable in scenario.variables:
        if variable.derived:
            continue
        for when in valid_times:
            field = source.truth(variable, when)
            for sid, i, j in sites:
                obs_lines.append(
                    f"{sid},{fileio.format_time(when)},{variable.key},"
                    f"{float(field.values[i, j])!r}")
    (out_dir / "stations_obs.csv").write_bytes(
        ("\n".join(obs_lines) + "\n").encode())


# --- report ------------------------------------------------------------------

def cmd_report(args) -> int:
    path = Path(args.scorecard)
    try:
        card = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InvalidHeader(f"cannot read scorecard {path}: {exc}") from exc
    report.validate_scorecard(card)
    written = report.flatten_scorecard_csv(card, args.out)
    for p in written:
        print(f"wrote {p}")
    return 0


# --- entry point -------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wxverify",
        description="Forecast verification engine (grid metrics, spectra, "
                    "extremes, cyclones, stations).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evaluate", help="grid metrics and spectra")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--leads", help="comma-separated lead hours (default: all)")
    p.add_argument("--spectra-leads", help="comma-separated spectra lead hours")
    p.add_argument("--workers", type=int, default=None,
                   help="accepted and ignored; evaluate runs serially")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("extremes", help="heatwave / cold-surge scores")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--lead-days", dest="lead_days",
                   help="comma-separated lead days (default 1,3,7,10)")
    p.add_argument("--gamma", type=float, default=0.5)
    p.set_defaults(func=cmd_extremes)

    p = sub.add_parser("cyclones", help="TC track and intensity verification")
    p.add_argument("--manifest", required=True)
    p.add_argument("--besttrack", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--lead-days", dest="lead_days",
                   help="comma-separated lead days (default 1,3,5)")
    p.add_argument("--search-radius-km", type=float, default=450.0)
    p.add_argument("--wind-radius-km", type=float, default=250.0)
    p.add_argument("--mslp-cutoff-pa", type=float, default=100500.0)
    p.set_defaults(func=cmd_cyclones)

    p = sub.add_parser("stations", help="station scores with QC report")
    p.add_argument("--manifest", required=True)
    p.add_argument("--station-meta", required=True)
    p.add_argument("--station-obs", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_stations)

    p = sub.add_parser("build-climatology",
                       help="daily means and extreme thresholds from history")
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=cmd_build_climatology)

    p = sub.add_parser("synth", help="generate synthetic truth and forecasts")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--inits", help="comma-separated init times (ISO-8601)")
    p.add_argument("--max-lead-hours", type=int, default=240)
    p.add_argument("--models",
                   help="comma list: persistence, perfect, smoothed[:width], "
                        "lagged[:hours]")
    p.add_argument("--truth-span", choices=("full", "run"), default="full",
                   help="write truth for whole years, or only run valid times")
    p.add_argument("--stations", type=int, default=0,
                   help="sample N synthetic stations at grid nodes")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("report", help="flatten a scorecard into CSV tables")
    p.add_argument("--scorecard", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except COMPUTE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except WxVerifyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
