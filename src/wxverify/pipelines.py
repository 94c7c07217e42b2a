"""The verification commands, one function each: ``build_climatology``,
``evaluate``, ``extremes``, ``cyclones`` and ``stations``.

Each takes plain values (the manifest path, the directory for its side
files such as spectra, segments and tracks, and its options) and returns
its scorecard dict, to be written with
:func:`wxverify.report.write_scorecard`; ``build_climatology`` returns
the paths it wrote. Each imports the modules it runs inside itself, so
``evaluate`` loads none of ``harness``, ``cyclones``, ``extremes`` or
``stations``.
"""

from __future__ import annotations

import math
from datetime import timedelta
from pathlib import Path
from typing import Sequence

from .errors import (InsufficientHistory, ManifestError, MissingFix,
                     NoValidPairs, UnitOutOfRange)

DEFAULT_SPECTRA_LEADS = (6, 72, 120, 240)
DEFAULT_EXTREME_LEAD_DAYS = (1, 3, 7, 10)
DEFAULT_CYCLONE_LEAD_DAYS = (1, 3, 5)


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def _check_leads(values: Sequence[int] | None, default: Sequence[int],
                 flag: str, manifest, hours_of) -> tuple[int, ...]:
    """``values`` (``default`` when None), not empty, none repeated and
    none with lead hours ``hours_of(value)`` off the manifest's 6-hourly
    lead grid."""
    values = tuple(default if values is None else values)
    if not values:
        raise ManifestError(f"{flag}: empty lead list")
    on_grid = set(manifest.lead_hours)
    for k, value in enumerate(values):
        if value in values[:k]:
            raise ManifestError(f"{flag} lists {value} more than once")
        hours = hours_of(value)
        if not on_grid.issuperset(hours):
            span = f"{hours[0]}..{hours[-1]}" if len(hours) > 1 else hours[0]
            raise ManifestError(
                f"{flag} value {value} ({span} h) is outside the manifest "
                f"lead grid (0..{manifest.max_lead_hours} h, every 6 h)")
    return values


def _extreme_day_hours(day: int) -> tuple[int, ...]:
    """The four synoptic lead hours of extremes lead day ``day`` (1-based)."""
    from .climatology import SYNOPTIC_HOURS
    return tuple(24 * (day - 1) + h for h in SYNOPTIC_HOURS)


# --- evaluate ----------------------------------------------------------------

_METRICS = ("wrmse", "acc", "bias", "activity")


def evaluate(manifest_path, out_dir, leads: Sequence[int] | None = None,
             spectra_leads: Sequence[int] | None = None) -> dict:
    """Grid metrics of every (model, variable, lead in ``leads``, default
    all), and spectra of ``spectra_leads`` (default those of 6, 72, 120
    and 240 among ``leads``) written under ``out_dir/spectra``."""
    import numpy as np

    from . import fileio
    from .climatology import calendar_day_index, day_rows
    from .grid import latitude_weights
    from .metrics import block_scores
    from .report import new_scorecard, write_spectrum_csv
    from .spectra import ZonalSpectrum, midlatitude_spectrum
    manifest = fileio.load_manifest(manifest_path)
    out_dir = Path(out_dir)
    leads = _check_leads(leads, manifest.lead_hours, "--leads", manifest,
                         lambda lead: (lead,))
    spectra_leads = _check_leads(
        spectra_leads, tuple(l for l in DEFAULT_SPECTRA_LEADS if l in leads),
        "--spectra-leads", manifest, lambda lead: (lead,))
    source = fileio.FieldSource(manifest)
    models = sorted(manifest.models)

    # Blocks run over (variable, init) outside and models inside: each
    # truth span and each forecast stack is read once, and one block per
    # role is held at a time: the truth, one model's forecast and the
    # climatology days of the truth block's metric leads, each at most
    # one chunk (see FieldSource.block_layers). Scores and
    # spectra are appended per (model, variable, lead) in init order, so
    # each mean sums the same sequence as a field-by-field loop would.
    metric_leads, spectra_set = set(leads), set(spectra_leads)
    scores = {(model, variable, lead): {metric: [] for metric in _METRICS}
              for model in models for variable in manifest.variables
              for lead in leads}
    energies: dict[tuple, list] = {}

    def add_spectra(model, variable, run, block):  # model None: the truth
        for i, lead in enumerate(run):
            if lead in spectra_set:
                energies.setdefault((model, variable, lead), []).append(
                    midlatitude_spectrum(block, i).energy)

    for variable in manifest.variables:
        runs = fileio.layer_runs(sorted(metric_leads | spectra_set),
                                 source.block_layers(variable))
        for init in manifest.init_times:
            for run in runs:
                times = [init + timedelta(hours=lead) for lead in run]
                rows = [i for i, lead in enumerate(run) if lead in metric_leads]
                days = [calendar_day_index(times[i]) for i in rows]
                truth = source.truth_block(variable, times)
                clim = source.climatology(variable, days, grid=truth.grid) \
                    if rows else None
                scored = rows if len(rows) < len(run) else slice(None)
                clim_rows = None if clim is None else (clim.day_mean, day_rows(
                    clim.first_day, len(clim.day_mean), days))
                weights = latitude_weights(truth.grid)
                for model in models:
                    pred = source.model_block(model, init, variable, run,
                                              grid=truth.grid)
                    if rows:
                        block = block_scores(pred.values[scored],
                                             truth.values[scored],
                                             clim_rows, weights)
                        for metric, values in block._asdict().items():
                            if values is None:
                                continue
                            for i, value in zip(rows, values.tolist()):
                                scores[model, variable, run[i]][metric] \
                                    .append(value)
                    add_spectra(model, variable, run, pred)
                    del pred  # released before the next model's is read
                add_spectra(None, variable, run, truth)
                # released before the next run's are read
                del truth, clim, clim_rows

    card = new_scorecard("evaluate", manifest.sha256)
    card["grid_metrics"] = [
        {"model": model, "variable": variable.key, "lead_hours": lead,
         "metric": metric, "value": _mean(values) if values else "n/a",
         "n_samples": len(values)}
        for model in models for variable in manifest.variables
        for lead in leads
        for metric, values in scores[(model, variable, lead)].items()]

    spectra_rows = []
    for model in models + [None]:
        name = "truth" if model is None else model
        for variable in manifest.variables:
            for lead in spectra_leads:
                spectrum = ZonalSpectrum(
                    np.mean(energies[(model, variable, lead)], axis=0))
                rel = f"spectra/{name}_{variable.key}_{lead:03d}h.csv"
                write_spectrum_csv(spectrum, out_dir / rel)
                spectra_rows.append({"model": name, "variable": variable.key,
                                     "lead_hours": lead, "csv": rel})
    if spectra_rows:
        card["spectra"] = spectra_rows
    return card


# --- build-climatology -------------------------------------------------------

def _reduce_history(source, variable, clim_path, spill=None):
    """Stream the history years of ``variable`` through the daily
    reductions, a block of whole calendar days at a time across the
    years (see :meth:`~wxverify.fileio.FieldSource.history`), and return
    its grid. The mean over the years of its daily means is written to
    ``clim_path``, a block of days at a time; with ``spill`` (a
    :class:`~wxverify.fileio.SpilledHistory`) its daily extremes are
    spilled there, in the dtype of the blocks (the float32 of the
    stores).

    Memory is one block of one year and the float64 total of the block's
    days: each block's day means are added, in year order, into the
    total, which is divided once by the number of years and written
    before the next block of days is read. Every block is read on the
    grid of the first.
    """
    import numpy as np

    from . import fileio
    from .climatology import (DAYS_PER_YEAR, DailyMeanClimatology,
                              daily_extremes_from_fields,
                              daily_means_from_fields)
    years = source.manifest.history_years
    if not years:
        raise InsufficientHistory("no history years supplied")
    grid = None

    def day_means():
        nonlocal grid
        per_block = source.history_days(variable)
        for first in range(0, DAYS_PER_YEAR, per_block):
            days = range(first, min(first + per_block, DAYS_PER_YEAR))
            for y, year in enumerate(years):
                block = source.history(variable, year, days, grid=grid)
                grid = block.grid
                rows, means = daily_means_from_fields(block)
                if y == 0:
                    total = np.zeros((len(days), *grid.shape))
                total[rows.start - first:rows.stop - first] += means
                if spill is not None:
                    spill.write(y, *daily_extremes_from_fields(block))
                del block  # hold one block of history at a time
            total /= len(years)
            yield DailyMeanClimatology(grid, variable, total, years, first)
            del total  # written before the next block's is made

    fileio.write_daily_climatology(day_means(), clim_path)
    return grid


def build_climatology(manifest_path) -> list[Path]:
    """Write the daily-mean climatology of each stored variable, and the
    T2M extreme thresholds where the manifest names a thresholds path;
    returns the paths written, in order. The history is streamed a block
    of whole days at a time (see :func:`_reduce_history`), the daily
    extremes for the thresholds are spilled to a scratch file next to
    the thresholds file, and the thresholds are written a chunk of
    locations at a time as they are computed from it (see
    :func:`~wxverify.fileio.write_thresholds`)."""
    from contextlib import nullcontext

    from . import fileio
    from .climatology import ThresholdBuild
    from .grid import VariableId
    manifest = fileio.load_manifest(manifest_path, require=("history",))
    if manifest.climatology_pattern is None:
        raise ManifestError(f"{manifest.path}: manifest declares no "
                            f"climatology daily_mean_pattern")
    source = fileio.FieldSource(manifest)
    written = []
    for variable in manifest.variables:
        if variable.derived:
            continue
        with_thresholds = variable is VariableId.T2M \
            and manifest.thresholds_file is not None
        clim_path = manifest.climatology_path(variable)
        with fileio.SpilledHistory(
                manifest.thresholds_file.parent, manifest.history_years) \
                if with_thresholds else nullcontext() as spill:
            grid = _reduce_history(source, variable, clim_path, spill)
            written.append(clim_path)
            if with_thresholds:
                written.append(fileio.write_thresholds(
                    ThresholdBuild(spill), grid, manifest.thresholds_file))
    return written


# --- extremes ----------------------------------------------------------------

def _day_extremes(day_blocks, n_days: int) -> dict:
    """Event kind -> (days x locations) daily max (heat) or min (cold) of
    the ``n_days`` day blocks ``day_blocks`` yields, each as it comes."""
    import numpy as np

    from .climatology import day_extremes
    from .extremes import EventKind
    for i, block in enumerate(day_blocks):
        if i == 0:
            dmax = np.empty((n_days, *block.grid.shape), block.values.dtype)
            dmin = np.empty_like(dmax)
        day_extremes(block.values[None], dmax[i:i + 1], dmin[i:i + 1])
        del block  # released before the next day's is read
    return {EventKind.HEATWAVE: dmax.reshape(n_days, -1),
            EventKind.COLDSURGE: dmin.reshape(n_days, -1)}


def _region_mask(grid, box):
    """Boolean (n_lat, n_lon) mask of a [lat_min, lat_max, lon_min,
    lon_max] box; every point when ``box`` is None. Longitudes wrap: the
    box runs east from lon_min for lon_max - lon_min degrees, so [-30, 60]
    holds 330-360 and 0-60 degrees E, and a box 360 degrees or wider holds
    every longitude."""
    import numpy as np
    if box is None:
        return np.ones(grid.shape, dtype=bool)
    lat_min, lat_max, lon_min, lon_max = box
    lat_ok = (grid.lat_deg >= lat_min) & (grid.lat_deg <= lat_max)
    lon_ok = (grid.lon_deg - lon_min) % 360.0 <= lon_max - lon_min
    return lat_ok[:, None] & lon_ok[None, :]


def extremes(manifest_path, out_dir, lead_days: Sequence[int] | None = None,
             gamma: float = 0.5) -> dict:
    """Heatwave and cold-surge scores per (model, lead day, region, kind)
    at temporal-IoU ``gamma``, with event segments under
    ``out_dir/segments``, against the thresholds ``build-climatology``
    stored."""
    import numpy as np

    from . import fileio
    from .climatology import SYNOPTIC_HOURS, calendar_day_index
    from .extremes import (EventKind, label_event_runs, match_counts,
                           scores_from_counts)
    from .grid import VariableId
    from .report import na, new_scorecard
    manifest = fileio.load_manifest(
        manifest_path, require=("truth", "models", "thresholds"))
    out_dir = Path(out_dir)
    lead_days = _check_leads(lead_days, DEFAULT_EXTREME_LEAD_DAYS,
                             "--lead-days", manifest, _extreme_day_hours)
    # checked before any field is read
    if not 0.0 < gamma <= 1.0:
        raise ManifestError(f"--gamma must lie in (0, 1], got {gamma}")
    for init in manifest.init_times:
        if init.hour or init.minute or init.second or init.microsecond:
            raise ManifestError(
                f"{manifest.path}: init_times: extremes evaluation expects "
                f"00Z init times, got {fileio.format_time(init)}")
    source = fileio.FieldSource(manifest)

    # the calendar days at lead d: date(init) + (d - 1); only their run of
    # days is read from the thresholds
    days_of = {d: [init + timedelta(days=d - 1) for init in manifest.init_times]
               for d in lead_days}
    thresholds, tgrid, thresholds_sha256 = source.thresholds(
        calendar_day_index(day) for days in days_of.values() for day in days)

    card = new_scorecard("extremes", manifest.sha256,
                         thresholds_sha256=thresholds_sha256, gamma=gamma)
    kinds = (EventKind.HEATWAVE, EventKind.COLDSURGE)
    n_loc = tgrid.shape[0] * tgrid.shape[1]
    region_locations = [
        (region, np.nonzero(_region_mask(tgrid, box).reshape(-1))[0])
        for region, box in sorted(manifest.regions.items())]

    # Thresholds and truth events do not depend on the model: label the
    # truth once per lead day. Every block is read on the thresholds' grid
    per_day = {}  # lead day -> ({kind: thresholds}, {kind: truth runs})
    for d, days in days_of.items():
        rows = thresholds.rows([calendar_day_index(day) for day in days])
        tau = {EventKind.HEATWAVE: thresholds.tau_heat[rows],
               EventKind.COLDSURGE: thresholds.tau_cold[rows]}
        truth_extremes = _day_extremes((source.truth_block(VariableId.T2M, [
            day + timedelta(hours=h) for h in SYNOPTIC_HOURS], grid=tgrid)
            for day in days), len(days))
        truth = {kind: label_event_runs(truth_extremes[kind], tau[kind], kind)
                 for kind in kinds}
        fileio.write_segments_csv([(kind, truth[kind]) for kind in kinds],
                                  out_dir / "segments" / f"truth_day{d}.csv")
        per_day[d] = (tau, truth)

    rows = []
    for model in sorted(manifest.models):
        for d in lead_days:
            tau, truth = per_day[d]
            fc_extremes = _day_extremes((source.model_block(
                model, init, VariableId.T2M, _extreme_day_hours(d), grid=tgrid)
                for init in manifest.init_times), len(manifest.init_times))
            fc = {kind: label_event_runs(fc_extremes[kind], tau[kind], kind)
                  for kind in kinds}
            # kind -> per-location (tp, fp, fn) arrays
            counts = {kind: match_counts(fc[kind], truth[kind], n_loc, gamma)
                      for kind in kinds}
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
                [(kind, fc[kind]) for kind in kinds],
                out_dir / "segments" / f"{model}_day{d}.csv")
    card["event_scores"] = rows
    return card


# --- cyclones ----------------------------------------------------------------

def cyclones(manifest_path, out_dir, besttrack,
             lead_days: Sequence[int] | None = None, **tracker) -> dict:
    """Track and intensity errors against the best track on the
    homogeneous sample, with the tracks in ``out_dir/tracks.csv``.
    ``tracker`` holds :class:`~wxverify.cyclones.TrackerConfig` fields."""
    # checked before any file is read: a radius that is not a positive
    # number, or a NaN cutoff, finds no storm and empties the scorecard
    for key, value in tracker.items():
        radius = key.endswith("_km")
        if not (math.isfinite(value) and (value > 0.0 or not radius)):
            raise ManifestError(
                f"--{key.replace('_', '-')} must be finite"
                f"{' and > 0' if radius else ''}, got {value}")

    from . import fileio
    from .cyclones import (StormTracker, TrackerConfig, homogeneous_sample,
                           intensity_errors, track_dpe)
    from .grid import VariableId
    from .report import na, new_scorecard
    manifest = fileio.load_manifest(manifest_path)
    out_dir = Path(out_dir)
    truth, besttrack_sha256 = fileio.read_besttrack(besttrack)
    truth_tracks = {t.storm_id: t for t in truth}
    lead_days = _check_leads(lead_days, DEFAULT_CYCLONE_LEAD_DAYS,
                             "--lead-days", manifest, lambda day: (24 * day,))
    lead_steps = [4 * d for d in lead_days]
    n_leads = len(manifest.lead_hours)
    config = TrackerConfig(**tracker)
    variables = (VariableId.MSL, VariableId.U10, VariableId.V10)
    for variable in variables:
        if variable not in manifest.variables:
            raise ManifestError(
                f"{manifest.path}: variables: cyclones needs "
                f"{', '.join(v.key for v in variables)}; {variable.key} is "
                f"not listed")

    source = fileio.FieldSource(manifest)
    # every variable's stack is read over the same runs of leads, each
    # within every variable's block
    runs = fileio.layer_runs(manifest.lead_hours, min(
        source.block_layers(variable) for variable in variables))
    model_tracks: dict[str, dict] = {}
    all_tracks = []
    for model in sorted(manifest.models):
        tracks: dict = {}
        for init in manifest.init_times:
            seeds = [(storm_id, fix) for storm_id in sorted(truth_tracks)
                     if (fix := truth_tracks[storm_id].fix_at_time(init))
                     is not None]
            if not seeds:
                continue
            # each (model, init, variable) stack is read once for all
            # storms, a run of leads at a time
            tracker = StormTracker(
                [(storm_id, fix.position) for storm_id, fix in seeds],
                source=model, config=config)
            for run in runs:
                msl = source.model_block(model, init, VariableId.MSL, run)
                u10, v10 = (source.model_block(model, init, variable, run,
                                               grid=msl.grid)
                            for variable in variables[1:])
                try:
                    tracker.advance(msl, u10, v10)
                except UnitOutOfRange as exc:
                    stores = sorted({str(manifest.model_path(
                        model, init, msl.variable, lead)) for lead in run})
                    raise UnitOutOfRange(
                        f"{', '.join(stores)}: model {model} from "
                        f"{fileio.format_time(init)}: {exc}; check that the "
                        f"store holds msl in Pa") from exc
                del msl, u10, v10  # released before the next run's are read
            for track in tracker.tracks():
                tracks[(track.storm_id, init)] = track
                all_tracks.append(track)
        if not tracks:
            raise MissingFix("no (storm, init) pair overlaps the best track")
        model_tracks[model] = tracks

    sample = homogeneous_sample(model_tracks, truth_tracks, n_leads)
    card = new_scorecard("cyclones", manifest.sha256,
                         besttrack_sha256=besttrack_sha256)
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
    return card


# --- stations ----------------------------------------------------------------

def _station_row(model, variable, lead, scores) -> dict:
    """The scorecard row of one (model, variable, lead); ``scores`` None
    when nothing paired up."""
    from .report import na
    row = {"model": model, "variable": variable.key, "lead_hours": lead}
    if scores is None:
        return dict(row, rmse="n/a", bias="n/a", acc="n/a", n_pairs=0)
    return dict(row, rmse=scores.rmse, bias=scores.bias, acc=na(scores.acc),
                n_pairs=scores.n_pairs)


def _station_climatology(source, variable, days, interpolator):
    """``(first_day, values)``: the climatology of ``variable`` on the
    shortest run of consecutive calendar days that holds ``days``,
    interpolated to ``interpolator``'s stations, ``(n_days, n_stations)``;
    None without a climatology. The days are read and interpolated a
    block of :meth:`~wxverify.fileio.FieldSource.block_layers` days at a
    time into one array, so one block of gridded days is held; as the
    interpolation is elementwise, the values have the bits of
    interpolating the whole run at once."""
    import numpy as np

    from .climatology import DAYS_PER_YEAR, day_span
    first, n_days = day_span(days)
    values = np.empty((n_days, len(interpolator.stations)))
    step = source.block_layers(variable)
    for lo in range(0, n_days, step):
        part = source.climatology(variable, [
            (first + d) % DAYS_PER_YEAR
            for d in range(lo, min(lo + step, n_days))])
        if part is None:
            return None
        values[lo:lo + len(part.day_mean)] = \
            interpolator.weights(part.grid).apply(part.day_mean)
        del part  # released before the next block of days is read
    return first, values


def stations(manifest_path, station_meta, station_obs) -> dict:
    """Scores of each (model, variable, lead) at the stations, after QC
    against the truth; the scorecard carries the QC report."""
    import numpy as np

    from . import fileio, metrics
    from .climatology import calendar_day_index
    from .report import new_scorecard
    from .stations import (QcThresholds, StationInterpolator, apply_qc,
                           station_scores)
    # every climatology is checked before the station CSVs are parsed
    manifest = fileio.load_manifest(
        manifest_path, require=("truth", "models", "climatology"))
    # the station table is 6-hourly, at the run's valid times
    for init in manifest.init_times:
        if init.hour % 6 or init.minute or init.second or init.microsecond:
            raise ManifestError(
                f"{manifest.path}: init_times: stations evaluation expects "
                f"init times at 00/06/12/18 UTC, got "
                f"{fileio.format_time(init)}")
    valid_times = manifest.valid_times
    table = fileio.read_station_csvs(station_meta, station_obs,
                                     times=valid_times)
    station_vars = [v for v in table.variables if v in manifest.variables]
    if not station_vars:
        raise NoValidPairs("no station variable overlaps the manifest variables")
    # QC needs a truth reference for every variable it tests
    table = table.select(station_vars)

    source = fileio.FieldSource(manifest)
    interpolator = StationInterpolator(table.stations, station_meta)
    # the truth reference is read in blocks over runs of valid times
    first = table.times[0]
    hours = [(when - first) // timedelta(hours=1) for when in table.times]
    reference = np.empty(table.values.shape)
    for vi, variable in enumerate(table.variables):
        start = 0
        for run in fileio.layer_runs(hours, source.block_layers(variable)):
            block = source.truth_block(
                variable, [first + timedelta(hours=h) for h in run])
            reference[vi, start:start + len(run)] = \
                interpolator.weights(block.grid).apply(block.values)
            start += len(run)
            del block  # released before the next run's is read
    qc_table, qc_report = apply_qc(table, reference, QcThresholds.default())

    models = sorted(manifest.models)
    inits = manifest.init_times
    days = [calendar_day_index(when) for when in valid_times]
    scored = {}  # (model, variable) -> its rows, one a lead
    for variable in station_vars:
        # only the calendar days of the valid times are read, and only
        # their values at the stations are kept
        clim = _station_climatology(source, variable, days, interpolator)
        # a run of leads is one block of each init's stack, and its
        # forecasts of all inits at the stations take at most one chunk
        runs = fileio.layer_runs(manifest.lead_hours, min(
            source.block_layers(variable),
            metrics.chunk_count(8 * len(inits) * len(table.stations))))
        for model in models:
            scored[model, variable] = rows = []
            for run in runs:
                fc = np.empty((len(inits), len(run), len(table.stations)))
                for k, init in enumerate(inits):
                    block = source.model_block(model, init, variable, run)
                    fc[k] = interpolator.weights(block.grid).apply(
                        block.values)
                    del block  # released before the next init's is read
                scores = station_scores(
                    fc, [init + timedelta(hours=lead)
                         for init in inits for lead in run],
                    qc_table, variable, clim)
                rows.extend(_station_row(model, variable, lead, score)
                            for lead, score in zip(run, scores))

    card = new_scorecard("stations", manifest.sha256)
    card["station_scores"] = [row for model in models
                              for variable in station_vars
                              for row in scored[model, variable]]
    card["qc_report"] = qc_report.as_dict()
    return card
