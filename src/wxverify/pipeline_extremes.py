"""``extremes``: heatwave and cold-surge scores of every model, lead day,
region and kind against the thresholds ``build-climatology`` stored.

:func:`extremes` takes plain values (the manifest path, the directory for
its event segments and its options) and returns its scorecard dict, to
be written with :func:`wxverify.report.write_scorecard`.
"""

from __future__ import annotations

from datetime import timedelta
from pathlib import Path
from typing import Sequence

import numpy as np

from . import fileio
from .climatology import SYNOPTIC_HOURS, calendar_day_index, day_extremes
from .errors import ManifestError
from .eventio import write_segments_csv
from .extremes import (EventKind, label_event_runs, match_counts,
                       scores_from_counts)
from .grid import VariableId
from .report import na, new_scorecard

DEFAULT_EXTREME_LEAD_DAYS = (1, 3, 7, 10)


def _extreme_day_hours(day: int) -> tuple[int, ...]:
    """The four synoptic lead hours of extremes lead day ``day`` (1-based)."""
    return tuple(24 * (day - 1) + h for h in SYNOPTIC_HOURS)


def _day_extremes(day_blocks, n_days: int) -> dict:
    """Event kind -> (days x locations) daily max (heat) or min (cold) of
    the ``n_days`` day blocks ``day_blocks`` yields, each as it comes."""
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
    manifest = fileio.load_manifest(
        manifest_path, require=("truth", "models", "thresholds"))
    out_dir = Path(out_dir)
    lead_days = manifest.check_leads(lead_days, DEFAULT_EXTREME_LEAD_DAYS,
                                     "--lead-days", _extreme_day_hours)
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
        write_segments_csv([(kind, truth[kind]) for kind in kinds],
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
            write_segments_csv(
                [(kind, fc[kind]) for kind in kinds],
                out_dir / "segments" / f"{model}_day{d}.csv")
    card["event_scores"] = rows
    return card
