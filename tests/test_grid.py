from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import T0, make_field, make_grid
from wxverify.errors import NonFiniteValue, TargetOutsideDomain
from wxverify.grid import (EARTH_RADIUS_KM, GeoGrid, GridField, VariableId,
                           all_finite, bilinear_weights, derive_wind_speed,
                           haversine_km, haversine_km_grid, latitude_weights)


@st.composite
def odd_float_arrays(draw):
    """float32 or float64 arrays of 0-3 dimensions, empty ones included,
    of ordinary values and of NaN, infinities and the largest finite
    values of the dtype at random places."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    shape = tuple(draw(st.lists(st.integers(0, 5), max_size=3)))
    info = np.finfo(dtype)
    special = st.sampled_from([np.nan, -np.nan, np.inf, -np.inf, info.max,
                               -info.max, info.tiny, 0.0, -0.0])
    ordinary = st.floats(-1e6, 1e6, width=32 if dtype is np.float32 else 64)
    values = draw(st.lists(st.one_of(ordinary, special),
                           min_size=math.prod(shape),
                           max_size=math.prod(shape)))
    array = np.array(values, dtype=dtype).reshape(shape)
    if array.ndim > 1 and draw(st.booleans()):
        array = array.T  # not C-contiguous
    return array


class TestAllFinite:
    @settings(max_examples=400, deadline=None)
    @given(odd_float_arrays())
    def test_matches_isfinite_all(self, values):
        assert all_finite(values) is bool(np.isfinite(values).all())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("odd, want", [
        (np.nan, False), (np.inf, False), (-np.inf, False),
        ("max", True), (None, True)])
    def test_one_odd_value_in_a_block(self, dtype, odd, want):
        values = np.full((3, 4, 5), 280.0, dtype=dtype)
        if odd is not None:
            values[2, 3, 1] = np.finfo(dtype).max if odd == "max" else odd
        assert all_finite(values) is want
        assert all_finite(values[:0]) is True


class TestGeoGrid:
    def test_standard_quarter_degree_layout(self):
        grid = GeoGrid.regular_global(0.25)
        assert grid.n_lat == 721
        assert grid.n_lon == 1440
        assert grid.wraps_lon
        assert grid.lat_deg[0] == 90.0
        assert grid.lat_deg[-1] == -90.0
        assert grid.lon_deg[0] == 0.0

    def test_rejects_increasing_latitudes(self):
        with pytest.raises(ValueError):
            GeoGrid(np.array([-10.0, 0.0, 10.0]), np.array([0.0, 90.0]))

    def test_rejects_longitudes_outside_range(self):
        with pytest.raises(ValueError):
            GeoGrid(np.array([10.0, 0.0]), np.array([-30.0, 0.0]))

    def test_partial_longitude_span_does_not_wrap(self):
        grid = make_grid(4, 8, wrap=False)
        assert not grid.wraps_lon

    def test_equality_is_by_coordinates(self):
        assert make_grid(4, 8) == make_grid(4, 8)
        assert make_grid(4, 8) != make_grid(4, 16)


class TestGridField:
    def test_rejects_nan(self):
        grid = make_grid(2, 4)
        values = np.zeros(grid.shape)
        values[0, 0] = np.nan
        with pytest.raises(NonFiniteValue):
            GridField(grid, VariableId.T2M, T0, 0, values)

    def test_rejects_bad_lead(self):
        grid = make_grid(2, 4)
        with pytest.raises(ValueError):
            GridField(grid, VariableId.T2M, T0, 7, np.zeros(grid.shape))

    def test_values_read_only(self):
        field = GridField(make_grid(2, 4), VariableId.T2M, T0, 0,
                          np.zeros((2, 4)))
        with pytest.raises(ValueError):
            field.values[0, 0] = 1.0

    def test_ws10_is_derived(self):
        grid = make_grid(2, 4)
        u = make_field(grid, np.full(grid.shape, 3.0), VariableId.U10)
        v = make_field(grid, np.full(grid.shape, 4.0), VariableId.V10)
        ws = derive_wind_speed(u, v)
        assert ws.variable is VariableId.WS10
        np.testing.assert_allclose(ws.values, 5.0)


class TestLatitudeWeights:
    def test_three_row_hand_values(self):
        # rows at +45, 0, -45: w = 3*cos(45)/(1 + 2*cos(45)) on the flanks
        grid = GeoGrid(np.array([45.0, 0.0, -45.0]), np.array([0.0, 180.0]))
        w = latitude_weights(grid)
        c = math.cos(math.radians(45.0))
        expected = np.array([3 * c / (1 + 2 * c), 3 / (1 + 2 * c),
                             3 * c / (1 + 2 * c)])
        np.testing.assert_allclose(w, expected, rtol=1e-15)
        np.testing.assert_allclose(w[:2], [0.8787, 1.2426], atol=5e-5)

    def test_single_equator_row(self):
        grid = GeoGrid(np.array([0.0]), np.array([0.0, 120.0, 240.0]))
        np.testing.assert_array_equal(latitude_weights(grid), [1.0])

    def test_poles_get_zero_weight(self):
        grid = GeoGrid(np.array([90.0, 0.0, -90.0]), np.array([0.0, 180.0]))
        w = latitude_weights(grid)
        assert w[0] == 0.0 and w[2] == 0.0

    def test_symmetric_grid_symmetric_weights(self):
        grid = make_grid(9, 4, lat_top=80.0, lat_bottom=-80.0)
        w = latitude_weights(grid)
        np.testing.assert_allclose(w, w[::-1], rtol=0, atol=1e-15)

    @given(st.integers(2, 80), st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_sum_equals_n_lat(self, n_lat, seed):
        rng = np.random.default_rng(seed)
        lats = np.sort(rng.uniform(-89.9, 89.9, size=n_lat))[::-1]
        if len(np.unique(lats)) != n_lat:
            return
        grid = GeoGrid(lats, np.array([0.0, 180.0]))
        w = latitude_weights(grid)
        assert abs(w.sum() - n_lat) <= 1e-12 * n_lat
        assert np.all(w >= 0.0)


def nodes(grid: GeoGrid) -> list[tuple[float, float]]:
    """Every node of ``grid`` as a (lat, lon) point, row by row."""
    return [(float(la), float(lo)) for la in grid.lat_deg
            for lo in grid.lon_deg]


class TestRegridBilinear:
    """Bilinear weights to every node of another grid."""

    def test_identity_target_is_bitwise_equal(self, rng):
        grid = make_grid(7, 12)
        values = rng.standard_normal(grid.shape)
        out = bilinear_weights(grid, nodes(grid)).apply(values)
        assert np.array_equal(out, values.reshape(-1))

    def test_constant_field_stays_constant(self):
        src = make_grid(9, 16)
        dst = make_grid(5, 10, lat_top=40.0, lat_bottom=-40.0)
        out = bilinear_weights(src, nodes(dst)).apply(np.full(src.shape, 7.25))
        np.testing.assert_allclose(out, 7.25, rtol=1e-14)

    def test_planar_field_reproduced(self):
        # bilinear interpolation is exact on functions linear in each axis
        src = GeoGrid(np.linspace(60, -60, 49),
                      np.arange(72) * 5.0)
        a, b = 0.7, 0.013
        values = a * src.lat_deg[:, None] + b * src.lon_deg[None, :]
        dst = GeoGrid(np.linspace(55.3, -54.7, 23), np.linspace(3.1, 350.0, 31))
        out = bilinear_weights(src, nodes(dst)).apply(values)
        out = out.reshape(dst.shape)
        expected = a * dst.lat_deg[:, None] + b * dst.lon_deg[None, :]
        # stay off the wrap seam: the plane is discontinuous at lon 355->0
        interior = dst.lon_deg <= 355.0
        np.testing.assert_allclose(out[:, interior],
                                   expected[:, interior], atol=1e-9)

    def test_output_within_corner_bounds(self, rng):
        src = make_grid(6, 9)
        dst = make_grid(11, 17, lat_top=55.0, lat_bottom=-55.0)
        values = rng.standard_normal(src.shape)
        out = bilinear_weights(src, nodes(dst)).apply(values)
        assert out.min() >= values.min() - 1e-12
        assert out.max() <= values.max() + 1e-12

    def test_target_latitude_outside_raises(self, rng):
        src = make_grid(4, 8, lat_top=30.0, lat_bottom=-30.0)
        dst = make_grid(4, 8, lat_top=50.0, lat_bottom=-50.0)
        with pytest.raises(TargetOutsideDomain):
            bilinear_weights(src, nodes(dst))

    def test_wrap_cell_interpolates_across_seam(self):
        src = make_grid(3, 4)  # lons 0, 90, 180, 270
        values = np.tile([0.0, 1.0, 2.0, 1.0], (3, 1))
        dst = GeoGrid(src.lat_deg, np.array([315.0]))
        out = bilinear_weights(src, nodes(dst)).apply(values)
        np.testing.assert_allclose(out, 0.5, atol=1e-12)

    def test_regrid_idempotent_on_own_grid(self, rng):
        grid = make_grid(5, 8)
        weights = bilinear_weights(grid, nodes(grid))
        once = weights.apply(rng.standard_normal(grid.shape))
        twice = weights.apply(once.reshape(grid.shape))
        assert np.array_equal(once, twice)


class TestInterpToStations:
    """Bilinear weights to scattered (lat, lon) points."""

    def test_station_on_node_gets_node_value(self, rng):
        grid = make_grid(5, 8)
        values = rng.standard_normal(grid.shape)
        pts = [(float(grid.lat_deg[2]), float(grid.lon_deg[3]))]
        out = bilinear_weights(grid, pts).apply(values)
        assert out[0] == values[2, 3]

    def test_cell_center_is_corner_mean(self):
        grid = GeoGrid(np.array([10.0, 0.0]), np.array([0.0, 10.0]))
        values = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = bilinear_weights(grid, [(5.0, 5.0)]).apply(values)
        assert out[0] == pytest.approx(2.5, abs=1e-14)

    def test_constant_field_constant_everywhere(self, rng):
        grid = make_grid(5, 8)
        values = np.full(grid.shape, 3.5)
        pts = [(float(la), float(lo)) for la, lo in
               zip(rng.uniform(-59, 59, 20), rng.uniform(0, 359.9, 20))]
        np.testing.assert_allclose(
            bilinear_weights(grid, pts).apply(values), 3.5, rtol=1e-14)

    def test_all_nodes_reproduced(self, rng):
        grid = make_grid(4, 6)
        values = rng.standard_normal(grid.shape)
        out = bilinear_weights(grid, nodes(grid)).apply(values)
        np.testing.assert_array_equal(out, values.reshape(-1))

    def test_station_outside_latitude_span(self, rng):
        grid = make_grid(4, 8)
        with pytest.raises(TargetOutsideDomain):
            bilinear_weights(grid, [(75.0, 10.0)])


@st.composite
def grids_points_stacks(draw):
    """A wrapping or regional grid, points on its nodes, on its edges,
    inside and outside its span, and a stack of fields on it."""
    n_lat, n_lon = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    lat_top = draw(st.sampled_from([90.0, 61.25, 10.0, -30.0]))
    lat_step = draw(st.floats(0.25, (lat_top + 90.0) / max(n_lat - 1, 1)))
    lats = lat_top - lat_step * np.arange(n_lat)
    if n_lon > 1 and draw(st.booleans()):
        lon_step = 360.0 / n_lon
        lon_start = draw(st.sampled_from([0.0, lon_step / 2]))
    else:
        lon_start = draw(st.sampled_from([0.0, 100.5, 350.0]))
        lon_step = draw(st.floats(0.25, (359.0 - lon_start) / n_lon))
    lons = lon_start + lon_step * np.arange(n_lon)
    grid = GeoGrid(lats, lons)
    lat_values = [float(x) for x in lats]
    lon_values = [float(x) for x in lons] + [float(x) - 360.0 for x in lons]
    if grid.wraps_lon:  # between the last column and the first, 360 on
        lon_values += [0.0, 359.999, float(lons[-1]) + lon_step / 2]
    points = draw(st.lists(st.tuples(
        st.one_of(st.sampled_from(lat_values),
                  st.floats(float(lats[-1]), float(lats[0]))),
        st.one_of(st.sampled_from(lon_values),
                  st.floats(float(lons[0]), float(lons[-1])))),
        min_size=1, max_size=6))
    if draw(st.booleans()):  # anywhere, often outside the span
        points.insert(draw(st.integers(0, len(points))), draw(st.tuples(
            st.one_of(st.sampled_from([lat_top + 1e-9, -90.0, 90.0]),
                      st.floats(-90.0, 90.0)),
            st.floats(-400.0, 400.0))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = 280.0 + 10.0 * rng.standard_normal((draw(st.integers(1, 3)),
                                                n_lat, n_lon))
    return grid, points, stack


class TestBilinearWeights:
    @settings(max_examples=300, deadline=None)
    @given(grids_points_stacks())
    def test_stack_equals_per_field_and_scalar_oracle(self, case):
        grid, points, stack = case
        want = [[oracles.bilinear_point(grid.lat_deg, grid.lon_deg,
                                        grid.wraps_lon, layer, lat, lon)
                 for lat, lon in points] for layer in stack]
        if None in want[0]:
            with pytest.raises(TargetOutsideDomain) as raised:
                bilinear_weights(grid, points)
            # the first point outside the span, in point order
            assert raised.value.point == want[0].index(None)
            return
        weights = bilinear_weights(grid, points)
        got = weights.apply(stack)
        assert got.shape == (len(stack), len(points))
        for k, layer in enumerate(stack):
            per_field = weights.apply(layer)
            assert got[k].tobytes() == per_field.tobytes()
            assert got[k].tobytes() == np.array(want[k]).tobytes()

    def test_apply_rejects_values_of_another_shape(self):
        weights = bilinear_weights(make_grid(3, 4), [(0.0, 10.0)])
        with pytest.raises(ValueError):
            weights.apply(np.zeros((4, 3)))

    def test_no_points(self):
        weights = bilinear_weights(make_grid(3, 4), [])
        assert weights.apply(np.zeros((2, 3, 4))).shape == (2, 0)


class TestHaversine:
    def test_zero_for_identical_points(self):
        assert haversine_km((12.5, 40.0), (12.5, 40.0)) == 0.0

    def test_zero_modulo_360_longitude(self):
        assert haversine_km((10.0, 359.0), (10.0, -1.0)) == 0.0

    def test_antipodal_equator(self):
        d = haversine_km((0.0, 0.0), (0.0, 180.0))
        assert d == pytest.approx(math.pi * EARTH_RADIUS_KM, abs=1e-9)

    def test_quarter_circumference(self):
        d = haversine_km((0.0, 0.0), (0.0, 90.0))
        assert d == pytest.approx(math.pi * EARTH_RADIUS_KM / 2.0, abs=1e-9)

    def test_symmetry(self, rng):
        for _ in range(25):
            a = (rng.uniform(-90, 90), rng.uniform(0, 360))
            b = (rng.uniform(-90, 90), rng.uniform(0, 360))
            assert haversine_km(a, b) == haversine_km(b, a)

    def test_triangle_inequality(self, rng):
        for _ in range(200):
            pts = [(rng.uniform(-90, 90), rng.uniform(0, 360))
                   for _ in range(3)]
            ab = haversine_km(pts[0], pts[1])
            bc = haversine_km(pts[1], pts[2])
            ac = haversine_km(pts[0], pts[2])
            assert ac <= ab + bc + 1e-9

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            haversine_km((float("nan"), 0.0), (0.0, 0.0))


@st.composite
def box_selections(draw, n_lat: int, n_lon: int):
    """Rows as a slice or ascending indices, and columns as a slice, a
    range that wraps across the last column to the first, or ascending
    indices."""
    top = draw(st.integers(0, n_lat - 1))
    bottom = draw(st.integers(top, n_lat - 1))
    rows = draw(st.sampled_from([
        slice(top, bottom + 1), np.arange(top, bottom + 1),
        np.unique([top, bottom, (top + bottom) // 2])]))
    left = draw(st.integers(0, n_lon - 1))
    width = draw(st.integers(1, n_lon))
    wrapped = np.arange(left, left + width) % n_lon
    cols = draw(st.sampled_from([
        slice(left, min(left + width, n_lon)),
        np.sort(wrapped),  # two ranges across the seam, in grid order
        np.unique(draw(st.lists(st.integers(0, n_lon - 1), min_size=1,
                                max_size=12)))]))
    return rows, cols


class TestHaversineGrid:
    @given(data=st.data(),
           resolution=st.sampled_from([0.25, 2.0, 7.5]),
           lat0=st.one_of(st.floats(-90.0, 90.0),
                          st.sampled_from([90.0, -90.0, 89.9, -89.75])),
           lon0=st.floats(-180.0, 359.999))
    @settings(max_examples=60, deadline=None)
    def test_selected_nodes_have_the_bits_of_the_whole_grid(
            self, data, resolution, lat0, lon0):
        grid = GeoGrid.regular_global(resolution)
        rows, cols = data.draw(box_selections(grid.n_lat, grid.n_lon))
        full = haversine_km_grid(lat0, lon0, grid)
        got = haversine_km_grid(lat0, lon0, grid, rows, cols)
        want = full[rows][:, cols]
        assert got.shape == want.shape
        assert np.array_equal(got, want) and got.tobytes() == want.tobytes()

    def test_whole_grid_by_default(self):
        grid = make_grid(7, 12)
        d = haversine_km_grid(10.0, 350.0, grid)
        assert d.shape == grid.shape
        i, j = 3, 5
        assert d[i, j] == pytest.approx(haversine_km(
            (10.0, 350.0), (grid.lat_deg[i], grid.lon_deg[j])), rel=1e-12)
