from __future__ import annotations

import numpy as np
import pytest

import oracles
from conftest import make_field, make_grid
from wxverify.errors import EmptyBand
from wxverify.grid import GeoGrid
from wxverify.spectra import latitude_circumference_m, midlatitude_spectrum


def row_block(row_values, lat=45.0):
    """Single-row grid holding one zonal circle of data."""
    n = len(row_values)
    grid = GeoGrid(np.array([lat]), np.arange(n) * (360.0 / n))
    return make_field(grid, np.reshape(row_values, (1, n)))


def row_spectrum(row_values, lat=45.0):
    """Energy spectrum of one zonal circle at ``lat``, inside the
    mid-latitude band: the band spectrum of a one-row grid."""
    return midlatitude_spectrum(row_block(row_values, lat), 0).energy


class TestZonalSpectrumRow:
    def test_constant_row_is_dc_only(self):
        c = 2.75
        s = row_spectrum(np.full(16, c))
        c_i = latitude_circumference_m(45.0)
        assert s[0] == pytest.approx(c_i * c * c, rel=1e-12)
        np.testing.assert_allclose(s[1:], 0.0, atol=1e-9 * c_i * c * c)

    @pytest.mark.parametrize("n_lon", [15, 64, 144])
    def test_pure_cosine_concentrates_at_its_wavenumber(self, n_lon):
        amp = 3.0
        j = np.arange(n_lon)
        s = row_spectrum(amp * np.cos(2 * np.pi * 3 * j / n_lon))
        c_i = latitude_circumference_m(45.0)
        # |F_3| = amp/2, so S_3 = 2 * C_i * amp^2 / 4
        assert s[3] == pytest.approx(c_i * amp * amp / 2.0, rel=1e-10)
        others = np.delete(s, 3)
        assert np.all(np.abs(others) <= 1e-10 * c_i * amp * amp)

    def test_matches_direct_dft_oracle(self, rng):
        values = rng.standard_normal(31)
        s = row_spectrum(values)
        expected = oracles.zonal_spectrum_direct(values,
                                                 latitude_circumference_m(45.0))
        np.testing.assert_allclose(s, expected, rtol=1e-10, atol=1e-12)

    def test_parseval_odd_row(self, rng):
        values = 5.0 + rng.standard_normal(45)
        s = row_spectrum(values)
        c_i = latitude_circumference_m(45.0)
        assert s.sum() / c_i == pytest.approx(
            oracles.mean_square_loop(values), rel=1e-10)

    def test_energy_nonnegative(self, rng):
        for _ in range(20):
            assert np.all(row_spectrum(rng.standard_normal(24)) >= 0.0)

    def test_shift_invariance(self, rng):
        values = rng.standard_normal(36)
        s0 = row_spectrum(values)
        s1 = row_spectrum(np.roll(values, 7))
        np.testing.assert_allclose(s1, s0, rtol=1e-12, atol=1e-20)

    def test_energy_linearity_for_disjoint_harmonics(self):
        n = 48
        j = np.arange(n)
        h2 = 1.7 * np.sin(2 * np.pi * 2 * j / n)
        h5 = 0.9 * np.cos(2 * np.pi * 5 * j / n)
        s_sum = row_spectrum(h2 + h5)
        s2 = row_spectrum(h2)
        s5 = row_spectrum(h5)
        np.testing.assert_allclose(s_sum, s2 + s5, rtol=1e-10, atol=1e-8)

    def test_length_is_half_plus_one(self, rng):
        for n in (8, 9, 24, 25):
            assert row_spectrum(rng.standard_normal(n)).size == n // 2 + 1


class TestMidlatitudeSpectrum:
    def test_lat_constant_rows_dc_only(self):
        grid = make_grid(7, 12, lat_top=62.0, lat_bottom=-62.0)
        per_row = 200.0 + 10.0 * np.arange(7)
        spec = midlatitude_spectrum(
            make_field(grid, np.tile(per_row[:, None], (1, 12))), 0)
        inside = np.abs(grid.lat_deg)
        rows = np.nonzero((inside > 30.0) & (inside < 60.0))[0]
        expected_dc = np.mean([
            latitude_circumference_m(grid.lat_deg[r]) * per_row[r] ** 2
            for r in rows])
        assert spec.energy[0] == pytest.approx(expected_dc, rel=1e-12)
        np.testing.assert_allclose(spec.energy[1:], 0.0,
                                   atol=1e-9 * expected_dc)

    def test_single_qualifying_row(self, rng):
        grid = GeoGrid(np.array([45.0, 10.0]), np.arange(16) * 22.5)
        values = rng.standard_normal((2, 16))
        spec = midlatitude_spectrum(make_field(grid, values), 0)
        np.testing.assert_array_equal(spec.energy, row_spectrum(values[0]))

    def test_band_bounds_are_strict(self, rng):
        grid = GeoGrid(np.array([60.0, 30.0]), np.arange(8) * 45.0)
        block = make_field(grid, rng.standard_normal((2, 8)))
        with pytest.raises(EmptyBand):
            midlatitude_spectrum(block, 0)

    def test_two_rows_average(self, rng):
        grid = GeoGrid(np.array([45.0, -45.0]), np.arange(32) * 11.25)
        j = np.arange(32)
        north = 2.0 * np.cos(2 * np.pi * 2 * j / 32)
        south = 3.0 * np.cos(2 * np.pi * 5 * j / 32)
        spec = midlatitude_spectrum(
            make_field(grid, np.stack([north, south])), 0)
        s_n = row_spectrum(north)
        s_s = row_spectrum(south, lat=-45.0)
        np.testing.assert_allclose(spec.energy, (s_n + s_s) / 2.0, rtol=1e-12)
        assert spec.energy[2] == pytest.approx(s_n[2] / 2.0, rel=1e-10)
        assert spec.energy[5] == pytest.approx(s_s[5] / 2.0, rel=1e-10)

    def test_hemispheres_both_contribute(self, rng):
        grid = make_grid(13, 16, lat_top=66.0, lat_bottom=-66.0)
        values = rng.standard_normal((13, 16))
        spec = midlatitude_spectrum(make_field(grid, values), 0)
        inside = np.abs(grid.lat_deg)
        rows = np.nonzero((inside > 30.0) & (inside < 60.0))[0]
        assert rows.size >= 4  # both hemispheres represented
        manual = np.mean([row_spectrum(values[r], grid.lat_deg[r])
                          for r in rows], axis=0)
        np.testing.assert_allclose(spec.energy, manual, rtol=1e-15)
