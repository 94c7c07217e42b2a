"""``stations``: scores of every model, variable and lead at the
stations, after quality control of the observations against the truth.

:func:`stations` takes plain values (the manifest path and the two
station CSVs) and returns its scorecard dict, with the QC report, to be
written with :func:`wxverify.report.write_scorecard`.
"""

from __future__ import annotations

from datetime import timedelta

import numpy as np

from . import fileio, metrics
from .climatology import DAYS_PER_YEAR, calendar_day_index, day_span
from .errors import ManifestError, NoValidPairs
from .report import na, new_scorecard
from .stationio import read_station_csvs
from .stations import (QcThresholds, StationInterpolator, apply_qc,
                       station_scores)


def _station_row(model, variable, lead, scores) -> dict:
    """The scorecard row of one (model, variable, lead); ``scores`` None
    when nothing paired up."""
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
    table = read_station_csvs(station_meta, station_obs, times=valid_times)
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
