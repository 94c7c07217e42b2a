from __future__ import annotations

from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from wxverify import fileio, writers
from wxverify.grid import (SIX_HOURS, FieldBlock, GeoGrid, VariableId,
                          latitude_weights)
from wxverify.metrics import BlockScores, block_scores

T0 = datetime(2025, 7, 1, 0, tzinfo=timezone.utc)

#: Every calendar day: thresholds or a climatology read for these days
#: hold all 365 days.
CALENDAR_DAYS = range(365)


def make_grid(n_lat: int, n_lon: int, lat_top: float = 60.0,
              lat_bottom: float = -60.0, wrap: bool = True) -> GeoGrid:
    """Uniform test grid; wraps in longitude by default."""
    lats = np.linspace(lat_top, lat_bottom, n_lat)
    if wrap:
        lons = np.arange(n_lon) * (360.0 / n_lon)
    else:
        lons = np.linspace(10.0, 80.0, n_lon)
    return GeoGrid(lats, lons)


def as_build(thresholds):
    """A ``ThresholdField`` of all 365 days as ``writers.write_thresholds``
    takes thresholds: its header fields, and ``chunks()`` that yields one
    chunk of every location, as a ``ThresholdBuild`` yields its chunks."""
    assert thresholds.first_day == 0 and len(thresholds.tau_heat) == 365
    n = thresholds.n_locations
    return SimpleNamespace(
        n_locations=n, years=thresholds.years,
        half_window=thresholds.half_window, q_heat=thresholds.q_heat,
        q_cold=thresholds.q_cold,
        chunks=lambda: iter([(0, n, thresholds.tau_heat,
                              thresholds.tau_cold)]))


def make_field(grid: GeoGrid, values, variable: VariableId = VariableId.T2M,
               valid_time: datetime = T0, lead_hours: int = 0) -> FieldBlock:
    """``values``, one float64 (n_lat, n_lon) layer, as a one-layer block."""
    return FieldBlock(grid, variable, (valid_time,), (lead_hours,),
                      np.asarray(values, dtype=np.float64)[None])


def random_field(rng: np.random.Generator, grid: GeoGrid,
                 variable: VariableId = VariableId.T2M, loc: float = 280.0,
                 scale: float = 10.0, valid_time: datetime = T0,
                 lead_hours: int = 0) -> FieldBlock:
    values = loc + scale * rng.standard_normal(grid.shape)
    return make_field(grid, values, variable, valid_time, lead_hours)


def field_block(*blocks: FieldBlock) -> FieldBlock:
    """The blocks, one variable on one grid, concatenated into one."""
    first = blocks[0]
    return FieldBlock(first.grid, first.variable,
                      tuple(t for b in blocks for t in b.valid_times),
                      tuple(h for b in blocks for h in b.lead_hours),
                      np.concatenate([b.values for b in blocks]))


def layer_of(block: FieldBlock, i: int) -> FieldBlock:
    """Layer ``i`` of ``block`` as a block of one layer."""
    return FieldBlock(block.grid, block.variable, block.valid_times[i:i + 1],
                      block.lead_hours[i:i + 1], block.values[i:i + 1])


def stamped(block: FieldBlock, valid_time: datetime, lead_hours: int
            ) -> FieldBlock:
    """The one-layer ``block`` valid at ``valid_time`` with ``lead_hours``."""
    return replace(block, valid_times=(valid_time,), lead_hours=(lead_hours,))


def one_day_a_layer(clim: np.ndarray | None):
    """``clim``, float64 ``(k, n_lat, n_lon)`` layers, as the ``(day_mean,
    rows)`` that ``metrics.block_scores`` takes: layer i on day row i."""
    return None if clim is None else (clim, np.arange(len(clim)))


def layer_scores(pred: FieldBlock, truth: FieldBlock,
                 clim: FieldBlock | None = None, weights=None) -> BlockScores:
    """``metrics.block_scores`` of these one-layer blocks, as floats (None
    where not scored); latitude weights by default."""
    if weights is None:
        weights = latitude_weights(pred.grid)
    scores = block_scores(pred.values, truth.values,
                          one_day_a_layer(None if clim is None
                                          else clim.values), weights)
    return BlockScores(*(None if s is None else float(s[0]) for s in scores))


def spilled_extremes(spill) -> tuple[np.ndarray, np.ndarray]:
    """The ``(n_years, 365, n_locations)`` daily max and min that a
    ``writers.SpilledHistory`` holds, gathered from its chunks."""
    parts = [(daily_max.copy(), daily_min.copy())
             for _, daily_max, daily_min in spill.chunks()]
    return tuple(np.concatenate(side, axis=-1) for side in zip(*parts))


def read_store(path) -> FieldBlock:
    """Every layer of the RBGRID1 or RBSTACK1 store at ``path``, read as a
    run reads a span of it (``fileio._Stack.block``)."""
    path = Path(path)
    stack = fileio._Stack.parse(path, fileio._load_sidecar(
        path, fileio.GRID_MAGIC, fileio.STACK_MAGIC)[0])
    times = [stack.first_time + k * SIX_HOURS
             for k in range(stack.store.n_layers)]
    return stack.block(times, [None] * len(times))


def day_source(path) -> fileio.FieldSource:
    """A run's field source whose manifest names the 365-day store at
    ``path`` as its thresholds and as the climatology of every variable,
    so that ``.thresholds(days)`` or ``.climatology(variable, days)``
    reads it as a run does."""
    path = Path(path)
    return fileio.FieldSource(fileio.RunManifest(
        path=path.parent / "manifest.json", variables=(), init_times=(),
        max_lead_hours=0, truth_pattern="", models={},
        climatology_pattern=path.name, thresholds_path=path.name,
        history_years=(), history_pattern=None, regions={}, sha256=""))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20250701)


@pytest.fixture
def store_reads(monkeypatch) -> list:
    """(path, start, count) of every ``fileio._Store.read`` in the test:
    how often, and which layers of, each stored payload is read."""
    reads = []
    real_read = fileio._Store.read
    monkeypatch.setattr(fileio._Store, "read", lambda store, start, count:
                        reads.append((store.path, start, count))
                        or real_read(store, start, count))
    return reads


def assert_read_once_in_whole_days(reads, n_layers: int, max_layers: int):
    """``reads``, the ``store_reads`` of one store, run through its
    ``n_layers`` layers once and in order, each a whole number of days
    (four layers) and at most ``max_layers`` layers."""
    at = 0
    for _, start, count in reads:
        assert start == at and count % 4 == 0 and 0 < count <= max_layers, \
            (start, count)
        at += count
    assert at == n_layers


def truth_fields(scenario, variable: VariableId):
    """``harness.generate_variable_series`` one layer at a time."""
    from wxverify.harness import generate_variable_series
    return (layer_of(block, i)
            for block in generate_variable_series(scenario, variable)
            for i in range(len(block.valid_times)))
