from __future__ import annotations

from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest

from wxverify import fileio
from wxverify.grid import (FieldBlock, GeoGrid, GridField, VariableId,
                           latitude_weights)
from wxverify.metrics import BlockScores, block_scores

T0 = datetime(2025, 7, 1, 0, tzinfo=timezone.utc)


def make_grid(n_lat: int, n_lon: int, lat_top: float = 60.0,
              lat_bottom: float = -60.0, wrap: bool = True) -> GeoGrid:
    """Uniform test grid; wraps in longitude by default."""
    lats = np.linspace(lat_top, lat_bottom, n_lat)
    if wrap:
        lons = np.arange(n_lon) * (360.0 / n_lon)
    else:
        lons = np.linspace(10.0, 80.0, n_lon)
    return GeoGrid(lats, lons)


def make_field(grid: GeoGrid, values, variable: VariableId = VariableId.T2M,
               valid_time: datetime = T0, lead_hours: int = 0) -> GridField:
    return GridField(grid, variable, valid_time, lead_hours,
                     np.asarray(values, dtype=np.float64))


def random_field(rng: np.random.Generator, grid: GeoGrid,
                 variable: VariableId = VariableId.T2M, loc: float = 280.0,
                 scale: float = 10.0, valid_time: datetime = T0,
                 lead_hours: int = 0) -> GridField:
    values = loc + scale * rng.standard_normal(grid.shape)
    return make_field(grid, values, variable, valid_time, lead_hours)


def field_block(*fields: GridField) -> FieldBlock:
    """The fields, one variable on one grid, as the layers of a block."""
    first = fields[0]
    return FieldBlock(first.grid, first.variable,
                      tuple(f.valid_time for f in fields),
                      tuple(f.lead_hours for f in fields),
                      np.stack([f.values for f in fields]))


def layer_block(grid: GeoGrid, values, variable: VariableId = VariableId.T2M
                ) -> FieldBlock:
    """``values``, one float64 (n_lat, n_lon) layer, as a block at T0,
    lead 0."""
    return FieldBlock(grid, variable, (T0,), (0,),
                      np.asarray(values, dtype=np.float64)[None])


def layer_scores(pred: GridField, truth: GridField | None = None,
                 clim: GridField | None = None, weights=None) -> BlockScores:
    """``metrics.block_scores`` of the one-layer blocks of these fields,
    as floats (None where not scored); latitude weights by default."""
    if weights is None:
        weights = latitude_weights(pred.grid)
    scores = block_scores(*(None if f is None else f.values[None]
                            for f in (pred, truth, clim)), weights)
    return BlockScores(*(None if s is None else float(s[0]) for s in scores))


def read_store(path, geometries: dict | None = None) -> FieldBlock:
    """Every layer of the RBGRID1 or RBSTACK1 store at ``path``, read as a
    run reads a span of it (``fileio._Stack.block``)."""
    path = Path(path)
    stack = fileio._Stack.parse(path, fileio._load_sidecar(
        path, fileio.GRID_MAGIC, fileio.STACK_MAGIC), geometries)
    times = [stack.first_time + k * fileio.STACK_STEP
             for k in range(stack.store.n_layers)]
    return stack.block(times, [None] * len(times))


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
    """``harness.generate_variable_series`` one field at a time."""
    from wxverify.harness import generate_variable_series
    return (block.field(i)
            for block in generate_variable_series(scenario, variable)
            for i in range(len(block.valid_times)))
