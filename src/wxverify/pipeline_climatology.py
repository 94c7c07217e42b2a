"""``build-climatology``: the daily-mean climatology of each stored
variable from the manifest's history years, and the T2M extreme
thresholds where the manifest names a thresholds path.

:func:`build_climatology` takes the manifest path and returns the paths
it wrote. It is the one command that runs the threshold kernel
(:mod:`wxverify.thresholds`) and writes stores (:mod:`wxverify.writers`).
"""

from __future__ import annotations

from contextlib import nullcontext
from pathlib import Path

import numpy as np

from . import fileio
from .climatology import (DAYS_PER_YEAR, DailyMeanClimatology,
                          daily_extremes_from_fields, daily_means_from_fields)
from .errors import InsufficientHistory, ManifestError
from .grid import VariableId
from .thresholds import ThresholdBuild
from .writers import SpilledHistory, write_daily_climatology, write_thresholds


def _reduce_history(source, variable, clim_path, spill=None):
    """Stream the history years of ``variable`` through the daily
    reductions, a block of whole calendar days at a time across the
    years (see :meth:`~wxverify.fileio.FieldSource.history`), and return
    its grid. The mean over the years of its daily means is written to
    ``clim_path``, a block of days at a time; with ``spill`` (a
    :class:`~wxverify.writers.SpilledHistory`) its daily extremes are
    spilled there, in the dtype of the blocks (the float32 of the
    stores).

    Memory is one block of one year and the float64 total of the block's
    days: each block's day means are added, in year order, into the
    total, which is divided once by the number of years and written
    before the next block of days is read. Every block is read on the
    grid of the first.
    """
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

    write_daily_climatology(day_means(), clim_path)
    return grid


def build_climatology(manifest_path) -> list[Path]:
    """Write the daily-mean climatology of each stored variable, and the
    T2M extreme thresholds where the manifest names a thresholds path;
    returns the paths written, in order. The history is streamed a block
    of whole days at a time (see :func:`_reduce_history`), the daily
    extremes for the thresholds are spilled to a scratch file next to
    the thresholds file, and the thresholds are written a chunk of
    locations at a time as they are computed from it (see
    :func:`~wxverify.writers.write_thresholds`)."""
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
        with SpilledHistory(
                manifest.thresholds_file.parent, manifest.history_years) \
                if with_thresholds else nullcontext() as spill:
            grid = _reduce_history(source, variable, clim_path, spill)
            written.append(clim_path)
            if with_thresholds:
                written.append(write_thresholds(
                    ThresholdBuild(spill), grid, manifest.thresholds_file))
    return written
