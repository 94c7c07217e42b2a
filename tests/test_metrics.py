from __future__ import annotations

import tracemalloc
from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import (layer_scores, make_field, make_grid,
                      one_day_a_layer, random_field)
from wxverify import climatology, metrics
from wxverify.errors import DegenerateAnomaly
from wxverify.grid import GeoGrid, latitude_weights
from wxverify.metrics import block_scores


@pytest.fixture
def grid():
    return make_grid(4, 8)


@contextmanager
def no_anomaly_floor():
    """Score a zero anomaly's activity: ``block_scores`` computes ACC
    whenever it is given a climatology, and the floor would raise; ACC of
    a zero anomaly is then NaN, unchecked."""
    with mock.patch.object(metrics, "ANOMALY_NORM_FLOOR", 0.0), \
            np.errstate(invalid="ignore"):
        yield


class TestWrmse:
    def test_zero_for_identical_fields(self, rng, grid):
        f = random_field(rng, grid)
        assert layer_scores(f, f).wrmse == 0.0

    def test_constant_offset_passes_through(self, rng, grid):
        truth = random_field(rng, grid)
        pred = replace(truth, values=truth.values + 1.5)
        assert layer_scores(pred, truth).wrmse == pytest.approx(1.5,
                                                                rel=1e-14)

    def test_matches_scalar_loop_oracle(self, rng, grid):
        pred = random_field(rng, grid)
        truth = random_field(rng, grid)
        w = latitude_weights(grid)
        expected = oracles.wrmse_loop(pred.values[0], truth.values[0], w)
        assert layer_scores(pred, truth, weights=w).wrmse == pytest.approx(
            expected, rel=1e-12)


class TestBias:
    def test_constant_offset(self, rng, grid):
        truth = random_field(rng, grid)
        pred = replace(truth, values=truth.values + 2.5)
        assert layer_scores(pred, truth).bias == pytest.approx(2.5, rel=1e-14)

    def test_zero_for_identical(self, rng, grid):
        f = random_field(rng, grid)
        assert layer_scores(f, f).bias == 0.0

    def test_matches_scalar_loop_oracle(self, rng, grid):
        pred = random_field(rng, grid)
        truth = random_field(rng, grid)
        w = latitude_weights(grid)
        expected = oracles.bias_loop(pred.values[0], truth.values[0], w)
        assert layer_scores(pred, truth, weights=w).bias == pytest.approx(
            expected, rel=1e-12)


class TestAcc:
    def test_self_correlation_is_one(self, rng, grid):
        truth = random_field(rng, grid)
        clim = random_field(rng, grid)
        assert layer_scores(truth, truth, clim).acc == pytest.approx(
            1.0, abs=1e-12)

    def test_antiparallel_anomalies(self, rng, grid):
        clim = random_field(rng, grid)
        anom = rng.standard_normal(grid.shape)
        pred = replace(clim, values=clim.values + anom)
        truth = replace(clim, values=clim.values - anom)
        assert layer_scores(pred, truth, clim).acc == pytest.approx(
            -1.0, abs=1e-12)

    def test_matches_scalar_loop_oracle(self, rng, grid):
        pred = random_field(rng, grid)
        truth = random_field(rng, grid)
        clim = random_field(rng, grid)
        w = latitude_weights(grid)
        expected = oracles.acc_loop(pred.values[0], truth.values[0], clim.values[0], w)
        assert layer_scores(pred, truth, clim, weights=w).acc == \
            pytest.approx(expected, rel=1e-12)

    def test_degenerate_anomaly(self, rng, grid):
        clim = random_field(rng, grid)
        truth = random_field(rng, grid)
        with pytest.raises(DegenerateAnomaly):
            layer_scores(clim, truth, clim)  # pred anomaly identically zero

    def test_scale_invariance_of_anomalies(self, rng, grid):
        clim = random_field(rng, grid)
        ap = rng.standard_normal(grid.shape)
        at = rng.standard_normal(grid.shape)
        a1 = layer_scores(replace(clim, values=clim.values + ap),
                          replace(clim, values=clim.values + at), clim).acc
        a2 = layer_scores(replace(clim, values=clim.values + 37.5 * ap),
                          replace(clim, values=clim.values + 37.5 * at),
                          clim).acc
        assert a1 == pytest.approx(a2, rel=1e-12)

    def test_bounded_by_one(self, rng, grid):
        for _ in range(50):
            pred = random_field(rng, grid)
            truth = random_field(rng, grid)
            clim = random_field(rng, grid)
            assert abs(layer_scores(pred, truth, clim).acc) <= 1.0 + 1e-12


class TestActivity:
    def test_zero_when_pred_equals_clim(self, rng, grid):
        clim = random_field(rng, grid)
        truth = random_field(rng, grid)
        with no_anomaly_floor():
            assert layer_scores(clim, truth, clim).activity == 0.0

    def test_zero_for_constant_anomaly(self, rng, grid):
        clim = random_field(rng, grid)
        truth = random_field(rng, grid)
        pred = replace(clim, values=clim.values + 4.0)
        assert layer_scores(pred, truth, clim).activity == pytest.approx(
            0.0, abs=1e-12)

    def test_matches_scalar_loop_oracle(self, rng, grid):
        pred = random_field(rng, grid)
        truth = random_field(rng, grid)
        clim = random_field(rng, grid)
        w = latitude_weights(grid)
        expected = oracles.activity_loop(pred.values[0], clim.values[0], w)
        assert layer_scores(pred, truth, clim, weights=w).activity == \
            pytest.approx(expected, rel=1e-12)


class TestFullResolution:
    def test_oracle_tolerance_holds_at_quarter_degree(self, rng):
        # 721x1440: pairwise numpy accumulation vs exactly-rounded fsum
        # loops must still agree to 1e-12 relative
        grid = GeoGrid.regular_global(0.25)
        w = latitude_weights(grid)
        base = 280.0 + 8.0 * rng.standard_normal(grid.shape)
        shared = rng.standard_normal(grid.shape)
        truth = make_field(grid, base)
        pred = make_field(grid, base + 0.6 * shared
                          + 0.4 * rng.standard_normal(grid.shape) + 0.8)
        clim = make_field(grid, base - shared)
        scores = layer_scores(pred, truth, clim, weights=w)
        assert scores.wrmse == pytest.approx(
            oracles.wrmse_loop(pred.values[0], truth.values[0], w), rel=1e-12)
        assert scores.bias == pytest.approx(
            oracles.bias_loop(pred.values[0], truth.values[0], w), rel=1e-12)
        assert scores.acc == pytest.approx(
            oracles.acc_loop(pred.values[0], truth.values[0], clim.values[0], w),
            rel=1e-12)
        assert scores.activity == pytest.approx(
            oracles.activity_loop(pred.values[0], clim.values[0], w), rel=1e-12)


class TestIdentities:
    def test_bias_variance_decomposition(self, rng):
        # wrmse^2 = bias^2 + weighted variance of the error field, which is
        # the activity of the forecast about the truth
        for _ in range(20):
            grid = make_grid(int(rng.integers(3, 12)), int(rng.integers(4, 20)))
            pred = random_field(rng, grid)
            truth = random_field(rng, grid)
            w = latitude_weights(grid)
            scores = layer_scores(pred, truth, weights=w)
            err_var = layer_scores(pred, pred, truth,
                                   weights=w).activity ** 2
            assert scores.wrmse ** 2 == pytest.approx(
                scores.bias ** 2 + err_var, rel=1e-10)

    def test_equatorial_single_row_reduces_to_unweighted(self, rng):
        grid = make_grid(1, 24, lat_top=0.0, lat_bottom=0.0)
        pred = random_field(rng, grid)
        truth = random_field(rng, grid)
        clim = random_field(rng, grid)
        scores = layer_scores(pred, truth, clim)
        err = pred.values - truth.values
        assert scores.wrmse == pytest.approx(
            float(np.sqrt(np.mean(err ** 2))), rel=1e-14)
        assert scores.bias == pytest.approx(float(np.mean(err)), rel=1e-12)
        ap = (pred.values - clim.values).ravel()
        at = (truth.values - clim.values).ravel()
        textbook_acc = float(np.mean(ap * at)
                             / np.sqrt(np.mean(ap ** 2) * np.mean(at ** 2)))
        assert scores.acc == pytest.approx(textbook_acc, rel=1e-12)
        assert scores.activity == pytest.approx(float(np.std(ap)), rel=1e-12)

    def test_perfect_forecast_all_metrics(self, rng):
        for _ in range(10):
            grid = make_grid(int(rng.integers(2, 10)), int(rng.integers(4, 16)))
            truth = random_field(rng, grid)
            clim = random_field(rng, grid)
            scores = layer_scores(truth, truth, clim)
            assert scores.wrmse == 0.0
            assert scores.bias == 0.0
            assert scores.acc == pytest.approx(1.0, abs=1e-12)


#: Memory layouts of one block of values. The kernel must score every
#: one of them as the C-contiguous block: a reader's flipped-row view
#: (south-first file) and rolled-column view (file starting west of 0),
#: and blocks stored in Fortran order or with the layer axis last, which
#: numpy would sum in another order.
LAYOUTS = {
    "c": lambda x: x,
    "south-first view": lambda x: np.ascontiguousarray(x[:, ::-1])[:, ::-1],
    "rolled view": lambda x: np.concatenate([x, x], axis=2)[:, :, :x.shape[2]],
    "fortran": np.asfortranarray,
    "layers last": lambda x: np.moveaxis(
        np.ascontiguousarray(np.moveaxis(x, 0, -1)), -1, 0),
}


@st.composite
def blocks(draw):
    """(grid, pred, truth, clim) blocks of k in 1..5 layers in a drawn
    memory layout; sometimes one layer's forecast equals its climatology,
    so that its ACC is degenerate."""
    n_lat, n_lon, k = (draw(st.integers(1, 9)), draw(st.integers(1, 12)),
                       draw(st.integers(1, 5)))
    top = draw(st.floats(-80.0, 89.0))
    bottom = draw(st.floats(-89.0, top)) if n_lat > 1 else top
    if n_lat > 1 and not bottom < top - 1e-6 * n_lat:
        bottom = top - n_lat
    lats = np.linspace(top, bottom, n_lat)
    grid = GeoGrid(lats, np.arange(n_lon) * (360.0 / n_lon))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 150.0]))
    pred, truth, clim = (280.0 + scale * rng.standard_normal((k, n_lat, n_lon))
                         for _ in range(3))
    degenerate = draw(st.none() | st.integers(0, k - 1))
    if degenerate is not None:
        pred[degenerate] = clim[degenerate]
    layout = LAYOUTS[draw(st.sampled_from(sorted(LAYOUTS)))]
    return grid, layout(pred), layout(truth), layout(clim), degenerate


class TestBlockKernel:
    @given(drawn=blocks())
    @settings(max_examples=300, deadline=None)
    def test_layers_score_as_single_fields_bitwise(self, drawn):
        grid, pred, truth, clim, degenerate = drawn
        w = latitude_weights(grid)
        if degenerate is None:
            scores = block_scores(pred, truth, one_day_a_layer(clim), w)
        else:
            with pytest.raises(DegenerateAnomaly, match="constant zero"):
                block_scores(pred, truth, one_day_a_layer(clim), w)
            with no_anomaly_floor():
                scores = block_scores(pred, truth, one_day_a_layer(clim), w)
        for i in range(pred.shape[0]):
            p, t, c = (np.ascontiguousarray(a[i]) for a in (pred, truth, clim))
            fp, ft, fc = (make_field(grid, a) for a in (p, t, c))
            with no_anomaly_floor():
                alone = layer_scores(fp, ft, fc, weights=w)
            want = oracles.wrmse_field(p, t, w)
            assert scores.wrmse[i] == want == alone.wrmse
            want = oracles.bias_field(p, t, w)
            assert scores.bias[i] == want == alone.bias
            want = oracles.activity_field(p, c, w)
            assert scores.activity[i] == want == alone.activity
            want = oracles.acc_field(p, t, c, w)
            if want is None:
                assert i == degenerate
                with pytest.raises(DegenerateAnomaly):
                    layer_scores(fp, ft, fc, weights=w)
            else:
                assert scores.acc[i] == want
                assert layer_scores(fp, ft, fc, weights=w).acc == want

    @given(k=st.integers(1, 9), data=st.data(),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_gathered_float64_oracle(self, k, data, seed):
        grid = make_grid(data.draw(st.integers(2, 7)),
                         data.draw(st.integers(2, 9)))
        rng = np.random.default_rng(seed)
        # float32 blocks as stored, float64 day means as a climatology
        # holds them; values about 0 make the float32 difference of two
        # float32 values inexact, unlike two values within a factor of 2
        loc = data.draw(st.sampled_from([0.0, 280.0]))
        pred, truth = (
            (loc + 5.0 * rng.standard_normal((k, *grid.shape)))
            .astype(np.float32) for _ in range(2))
        n_days = data.draw(st.integers(1, 6))
        day_mean = loc + 3.0 * rng.standard_normal((n_days, *grid.shape))
        # a run of days that may cross Dec 31, and each layer's day in it,
        # in order and with repeats, as consecutive valid times fall
        first_day = data.draw(st.sampled_from([0, 180, 361, 362, 363, 364]))
        offsets = sorted(data.draw(st.lists(st.integers(0, n_days - 1),
                                            min_size=k, max_size=k)))
        rows = climatology.day_rows(
            first_day, n_days, [(first_day + i) % 365 for i in offsets])
        assert rows.tolist() == offsets
        w = latitude_weights(grid)
        want = oracles.block_scores_gathered(pred, truth, day_mean, rows, w)
        got = block_scores(pred, truth, (day_mean, rows), w)
        for mine, theirs in zip(got, want):
            assert mine.dtype == theirs.dtype == np.float64
            assert mine.tobytes() == theirs.tobytes()

    def test_memory_is_three_buffers_and_a_product(self, rng):
        # 16 float32 layers against 5 held days: the kernel holds its three
        # float64 buffers of the block and one product at a time, never a
        # float64 copy of a block or of the gathered days (a fifth and a
        # sixth). A float64 block (1.9 MB) outweighs the buffers numpy
        # casts float32 inputs in (8,192 float64 values each)
        grid = make_grid(100, 150)
        pred, truth = ((280.0 + rng.standard_normal((16, 100, 150)))
                       .astype(np.float32) for _ in range(2))
        day_mean = 280.0 + rng.standard_normal((5, 100, 150))
        rows = np.repeat(np.arange(4), 4)
        w = latitude_weights(grid)
        tracemalloc.start()
        try:
            block_scores(pred, truth, (day_mean, rows), w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 8 * pred.size

    def test_inputs_select_scores(self, rng):
        grid = make_grid(3, 4)
        w = latitude_weights(grid)
        pred, other, clim = (rng.standard_normal((2, 3, 4)) for _ in range(3))
        assert [s is None for s in block_scores(pred, other, None, w)] == \
            [False, False, True, True]
        assert [s is None for s in block_scores(
            pred, other, one_day_a_layer(clim), w)] == \
            [False, False, False, False]
