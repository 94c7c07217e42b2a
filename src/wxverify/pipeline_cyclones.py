"""``cyclones``: track and intensity errors of every model against the
best track, on the homogeneous sample of storms.

:func:`cyclones` takes plain values (the manifest path, the directory for
its tracks CSV, the best-track path and its options) and returns its
scorecard dict, to be written with :func:`wxverify.report.write_scorecard`.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Sequence

from . import fileio
from .cyclones import (StormTracker, TrackerConfig, homogeneous_sample,
                       intensity_errors, track_dpe)
from .errors import ManifestError, MissingFix, UnitOutOfRange
from .eventio import read_besttrack, write_tracks_csv
from .grid import VariableId
from .report import na, new_scorecard

DEFAULT_CYCLONE_LEAD_DAYS = (1, 3, 5)


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

    manifest = fileio.load_manifest(manifest_path)
    out_dir = Path(out_dir)
    truth, besttrack_sha256 = read_besttrack(besttrack)
    truth_tracks = {t.storm_id: t for t in truth}
    lead_days = manifest.check_leads(lead_days, DEFAULT_CYCLONE_LEAD_DAYS,
                                     "--lead-days", lambda day: (24 * day,))
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
    write_tracks_csv(all_tracks, out_dir / "tracks.csv")
    return card
