from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_field, make_grid
from wxverify.errors import NonFiniteValue, TargetOutsideDomain
from wxverify.grid import (EARTH_RADIUS_KM, GeoGrid, VariableId,
                           bilinear_weights, derive_wind_speed, haversine_km,
                           interp_to_stations, latitude_weights,
                           regrid_bilinear)


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
            make_field(grid, values)

    def test_rejects_bad_lead(self):
        grid = make_grid(2, 4)
        with pytest.raises(ValueError):
            make_field(grid, np.zeros(grid.shape), lead_hours=7)

    def test_values_read_only(self):
        field = make_field(make_grid(2, 4), np.zeros((2, 4)))
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


class TestRegridBilinear:
    def test_identity_target_is_bitwise_equal(self, rng):
        grid = make_grid(7, 12)
        field = make_field(grid, rng.standard_normal(grid.shape))
        out = regrid_bilinear(field, grid)
        assert np.array_equal(out.values, field.values)

    def test_constant_field_stays_constant(self):
        src = make_grid(9, 16)
        dst = make_grid(5, 10, lat_top=40.0, lat_bottom=-40.0)
        field = make_field(src, np.full(src.shape, 7.25))
        out = regrid_bilinear(field, dst)
        np.testing.assert_allclose(out.values, 7.25, rtol=1e-14)

    def test_planar_field_reproduced(self):
        # bilinear interpolation is exact on functions linear in each axis
        src = GeoGrid(np.linspace(60, -60, 49),
                      np.arange(72) * 5.0)
        a, b = 0.7, 0.013
        values = a * src.lat_deg[:, None] + b * src.lon_deg[None, :]
        field = make_field(src, values)
        dst = GeoGrid(np.linspace(55.3, -54.7, 23), np.linspace(3.1, 350.0, 31))
        out = regrid_bilinear(field, dst)
        expected = a * dst.lat_deg[:, None] + b * dst.lon_deg[None, :]
        # stay off the wrap seam: the plane is discontinuous at lon 355->0
        interior = dst.lon_deg <= 355.0
        np.testing.assert_allclose(out.values[:, interior],
                                   expected[:, interior], atol=1e-9)

    def test_output_within_corner_bounds(self, rng):
        src = make_grid(6, 9)
        dst = make_grid(11, 17, lat_top=55.0, lat_bottom=-55.0)
        field = make_field(src, rng.standard_normal(src.shape))
        out = regrid_bilinear(field, dst)
        assert out.values.min() >= field.values.min() - 1e-12
        assert out.values.max() <= field.values.max() + 1e-12

    def test_target_latitude_outside_raises(self, rng):
        src = make_grid(4, 8, lat_top=30.0, lat_bottom=-30.0)
        dst = make_grid(4, 8, lat_top=50.0, lat_bottom=-50.0)
        field = make_field(src, rng.standard_normal(src.shape))
        with pytest.raises(TargetOutsideDomain):
            regrid_bilinear(field, dst)

    def test_wrap_cell_interpolates_across_seam(self):
        src = make_grid(3, 4)  # lons 0, 90, 180, 270
        values = np.tile([0.0, 1.0, 2.0, 1.0], (3, 1))
        field = make_field(src, values)
        dst = GeoGrid(src.lat_deg, np.array([315.0]))
        out = regrid_bilinear(field, dst)
        np.testing.assert_allclose(out.values[:, 0], 0.5, atol=1e-12)

    def test_regrid_idempotent_on_own_grid(self, rng):
        grid = make_grid(5, 8)
        field = make_field(grid, rng.standard_normal(grid.shape))
        once = regrid_bilinear(field, grid)
        twice = regrid_bilinear(once, grid)
        assert np.array_equal(once.values, twice.values)


class TestInterpToStations:
    def test_station_on_node_gets_node_value(self, rng):
        grid = make_grid(5, 8)
        field = make_field(grid, rng.standard_normal(grid.shape))
        pts = [(float(grid.lat_deg[2]), float(grid.lon_deg[3]))]
        out = interp_to_stations(field, pts)
        assert out[0] == field.values[2, 3]

    def test_cell_center_is_corner_mean(self):
        grid = GeoGrid(np.array([10.0, 0.0]), np.array([0.0, 10.0]))
        field = make_field(grid, np.array([[1.0, 2.0], [3.0, 4.0]]))
        out = interp_to_stations(field, [(5.0, 5.0)])
        assert out[0] == pytest.approx(2.5, abs=1e-14)

    def test_constant_field_constant_everywhere(self, rng):
        grid = make_grid(5, 8)
        field = make_field(grid, np.full(grid.shape, 3.5))
        pts = [(float(la), float(lo)) for la, lo in
               zip(rng.uniform(-59, 59, 20), rng.uniform(0, 359.9, 20))]
        np.testing.assert_allclose(interp_to_stations(field, pts), 3.5,
                                   rtol=1e-14)

    def test_all_nodes_reproduced(self, rng):
        grid = make_grid(4, 6)
        field = make_field(grid, rng.standard_normal(grid.shape))
        pts = [(float(la), float(lo)) for la in grid.lat_deg
               for lo in grid.lon_deg]
        out = interp_to_stations(field, pts)
        np.testing.assert_array_equal(out, field.values.reshape(-1))

    def test_station_outside_latitude_span(self, rng):
        grid = make_grid(4, 8)
        field = make_field(grid, rng.standard_normal(grid.shape))
        with pytest.raises(TargetOutsideDomain):
            interp_to_stations(field, [(75.0, 10.0)])


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
            with pytest.raises(TargetOutsideDomain) as stacked:
                bilinear_weights(grid, points)
            with pytest.raises(TargetOutsideDomain) as single:
                interp_to_stations(make_field(grid, stack[0]), points)
            assert str(stacked.value) == str(single.value)
            return
        got = bilinear_weights(grid, points).apply(stack)
        assert got.shape == (len(stack), len(points))
        for k, layer in enumerate(stack):
            per_field = interp_to_stations(make_field(grid, layer), points)
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
