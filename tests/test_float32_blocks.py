"""Blocks hold the float32 values as stored, and the kernels that compute
in float64 widen what they use: each gives the same bits from a float32
block as from the block widened to float64."""

from __future__ import annotations

from dataclasses import replace
from datetime import timedelta

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import T0, make_grid, one_day_a_layer
from wxverify import metrics
from wxverify.cyclones import TrackerConfig, track_storm
from wxverify.extremes import EventKind, label_event_runs
from wxverify.grid import (FieldBlock, GeoGrid, VariableId, bilinear_weights,
                           derive_wind_speed, latitude_weights)
from wxverify.pipeline_extremes import _day_extremes
from wxverify.spectra import midlatitude_spectrum

SEEDS = st.integers(0, 2**32 - 1)


def block_of(grid, variable, values) -> FieldBlock:
    """``values`` as a block at leads 0, 6, 12, ... hours from T0."""
    return FieldBlock(grid, variable,
                      tuple(T0 + timedelta(hours=6 * k)
                            for k in range(len(values))),
                      tuple(6 * k for k in range(len(values))), values)


def stored_block(rng, grid, n_layers, variable=VariableId.T2M, loc=280.0,
                 scale=10.0) -> FieldBlock:
    """A block of float32 values, as a store holds them."""
    return block_of(grid, variable, (
        loc + scale * rng.standard_normal((n_layers, *grid.shape))
    ).astype(np.float32))


def widened(block: FieldBlock) -> FieldBlock:
    return replace(block, values=block.values.astype(np.float64))


def same_bits(got: np.ndarray, want: np.ndarray):
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


grids = st.builds(make_grid, st.integers(2, 9), st.integers(2, 12),
                  st.just(58.0), st.just(-58.0), st.booleans())


class TestFloat32Blocks:
    @given(grid=grids, n_layers=st.integers(1, 6), with_clim=st.booleans(),
           loc=st.sampled_from([0.0, 280.0]), seed=SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_block_scores(self, grid, n_layers, with_clim, loc, seed):
        rng = np.random.default_rng(seed)
        # about 0, the float32 difference of two float32 values is inexact
        # (about 280 it is exact), so a kernel that does not widen differs
        pred = stored_block(rng, grid, n_layers, loc=loc)
        truth = stored_block(rng, grid, n_layers, loc=loc)
        # climatologies are float64 as stored
        clim = 280.0 + 5.0 * rng.standard_normal((n_layers, *grid.shape)) \
            if with_clim else None
        w = latitude_weights(grid)
        got = metrics.block_scores(pred.values, truth.values,
                                   one_day_a_layer(clim), w)
        want = metrics.block_scores(widened(pred).values,
                                    widened(truth).values,
                                    one_day_a_layer(clim), w)
        for mine, theirs in zip(got, want):
            assert (mine is None) == (theirs is None)
            if mine is not None:
                same_bits(mine, theirs)

    @given(grid=grids, n_layers=st.integers(1, 4),
           n_points=st.integers(0, 20), seed=SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_bilinear_weights_apply(self, grid, n_layers, n_points, seed):
        rng = np.random.default_rng(seed)
        block = stored_block(rng, grid, n_layers)
        lon_hi = 360.0 if grid.wraps_lon else grid.lon_deg[-1]
        points = np.column_stack([
            rng.uniform(grid.lat_deg[-1], grid.lat_deg[0], n_points),
            rng.uniform(grid.lon_deg[0], lon_hi, n_points)])
        # a node, where the kernel reproduces a grid value
        points = np.vstack([points, [grid.lat_deg[0], grid.lon_deg[0]]])
        weights = bilinear_weights(grid, points)
        same_bits(weights.apply(block.values),
                  weights.apply(widened(block).values))
        same_bits(weights.apply(block.values[0]),
                  weights.apply(widened(block).values[0]))

    @given(grid=grids, n_layers=st.integers(1, 4), seed=SEEDS)
    @settings(max_examples=30, deadline=None)
    def test_derive_wind_speed_and_spectra(self, grid, n_layers, seed):
        rng = np.random.default_rng(seed)
        u10 = stored_block(rng, grid, n_layers, VariableId.U10, 2.0, 8.0)
        v10 = stored_block(rng, grid, n_layers, VariableId.V10, -1.0, 8.0)
        speed = derive_wind_speed(u10, v10)
        same_bits(speed.values,
                  derive_wind_speed(widened(u10), widened(v10)).values)
        for block in (u10, speed):
            for i in range(n_layers):
                same_bits(midlatitude_spectrum(block, i).energy,
                          midlatitude_spectrum(widened(block), i).energy)

    @given(grid=grids, n_days=st.integers(1, 8),
           kind=st.sampled_from(list(EventKind)), seed=SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_day_extremes_label_the_same_runs(self, grid, n_days, kind,
                                              seed):
        rng = np.random.default_rng(seed)
        days = [stored_block(rng, grid, 4, loc=280.0, scale=2.0)
                for _ in range(n_days)]
        # stored thresholds are float32, on the values' float32 lattice
        tau = (280.0 + rng.choice([-2.0, 0.0, 2.0],
                                  (n_days, grid.n_lat * grid.n_lon))
               ).astype(np.float32)
        extremes = _day_extremes(days, n_days)[kind]
        assert extremes.dtype == np.float32
        got = label_event_runs(extremes, tau, kind)
        widened_extremes = _day_extremes([widened(b) for b in days],
                                         n_days)[kind]
        want = label_event_runs(widened_extremes, tau.astype(np.float64),
                                kind)
        for mine, theirs in zip(got, want):
            assert mine.tobytes() == theirs.tobytes()

    @given(n_lat=st.integers(3, 8), n_lon=st.integers(3, 10),
           n_leads=st.integers(1, 8), cutoff=st.sampled_from(
               [100500.3, 100000.1, 99800.7, 100999.9]),
           seed=SEEDS)
    @settings(max_examples=60, deadline=None)
    def test_track_storm(self, n_lat, n_lon, n_leads, cutoff, seed):
        # 2 degree spacing: the 450 km search disc holds a few nodes
        grid = GeoGrid.uniform(30.0, -2.0, n_lat, 140.0, 2.0, n_lon)
        rng = np.random.default_rng(seed)
        near = np.float32(cutoff)  # float32 cannot represent the cutoff
        palette = np.array([near, np.nextafter(near, np.float32(-np.inf)),
                            np.nextafter(near, np.float32(np.inf)),
                            near + 300, near - 400, near - 900],
                           dtype=np.float32)
        msl = np.empty((n_leads, n_lat, n_lon), dtype=np.float32)
        for k in range(n_leads):
            # layers mostly above the cutoff lose the storm mid-track;
            # nodes of one deep value tie for the minimum
            deep, above = rng.uniform(0.0, 0.3), rng.uniform(0.2, 0.95)
            shallow = (1 - deep) * (1 - above)
            msl[k] = rng.choice(palette, grid.shape, p=[
                0.6 * shallow, 0.4 * shallow, 0.8 * (1 - deep) * above,
                0.2 * (1 - deep) * above, 0.7 * deep, 0.3 * deep])
        msl = block_of(grid, VariableId.MSL, msl)
        u10 = stored_block(rng, grid, n_leads, VariableId.U10, 0.0, 15.0)
        v10 = stored_block(rng, grid, n_leads, VariableId.V10, 0.0, 15.0)
        seed_at = (float(grid.lat_deg[n_lat // 2]),
                   float(grid.lon_deg[n_lon // 2]))
        config = TrackerConfig(mslp_cutoff_pa=cutoff)
        got, want = (track_storm(*blocks, seed_at, storm_id="S",
                                 source="m", config=config)
                     for blocks in ((msl, u10, v10),
                                    map(widened, (msl, u10, v10))))
        assert repr(got) == repr(want)
