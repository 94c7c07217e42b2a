"""``evaluate``: latitude-weighted grid metrics of every model, variable
and lead against the truth, and zonal spectra of chosen leads.

:func:`evaluate` takes plain values (the manifest path, the directory for
its spectra CSVs and its lead options) and returns its scorecard dict,
to be written with :func:`wxverify.report.write_scorecard`.
"""

from __future__ import annotations

from datetime import timedelta
from pathlib import Path
from typing import Sequence

import numpy as np

from . import fileio
from .climatology import calendar_day_index, day_rows
from .grid import latitude_weights
from .metrics import block_scores
from .report import new_scorecard, write_spectrum_csv
from .spectra import ZonalSpectrum, midlatitude_spectrum

DEFAULT_SPECTRA_LEADS = (6, 72, 120, 240)

_METRICS = ("wrmse", "acc", "bias", "activity")


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def evaluate(manifest_path, out_dir, leads: Sequence[int] | None = None,
             spectra_leads: Sequence[int] | None = None) -> dict:
    """Grid metrics of every (model, variable, lead in ``leads``, default
    all), and spectra of ``spectra_leads`` (default those of 6, 72, 120
    and 240 among ``leads``) written under ``out_dir/spectra``."""
    manifest = fileio.load_manifest(manifest_path)
    out_dir = Path(out_dir)
    leads = manifest.check_leads(leads, manifest.lead_hours, "--leads",
                                 lambda lead: (lead,))
    spectra_leads = manifest.check_leads(
        spectra_leads, tuple(l for l in DEFAULT_SPECTRA_LEADS if l in leads),
        "--spectra-leads", lambda lead: (lead,))
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
