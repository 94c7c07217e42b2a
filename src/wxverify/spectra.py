"""Zonal energy spectra with mid-latitude band averaging.

Per latitude row i the longitudinal DFT is F_k = (1/n_lon) * sum_j x_j
exp(-2*pi*i*k*j/n_lon) and the energy spectrum is

    S_0 = C_i |F_0|^2,    S_k = 2 C_i |F_k|^2  for k > 0,

with C_i = 2*pi*R*cos(lat_i) the physical circumference of the latitude
circle (R in metres, so energies carry unit^2 * m). The factor 2
accounts for negative frequencies; it is applied verbatim to every
k > 0, including the Nyquist bin on even n_lon, so Parseval checks must
use odd n_lon or inputs without Nyquist energy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyBand
from .grid import EARTH_RADIUS_KM, FieldBlock, cos_lat

#: Mid-latitude band bounds (strict inequalities on |lat|), degrees.
MIDLATITUDE_BAND = (30.0, 60.0)


def latitude_circumference_m(lat_deg):
    """C_i = 2*pi*R*cos(lat) in metres, of one latitude (a float) or of
    an array of them (an array); zero at the poles."""
    c = 2.0 * np.pi * EARTH_RADIUS_KM * 1000.0 \
        * cos_lat(np.asarray(lat_deg, dtype=np.float64))
    return float(c) if np.ndim(lat_deg) == 0 else c


@dataclass(frozen=True)
class ZonalSpectrum:
    """Band-averaged zonal energy spectrum."""

    energy: np.ndarray

    def __post_init__(self):
        e = np.ascontiguousarray(self.energy, dtype=np.float64)
        if e.ndim != 1:
            raise ValueError("energy must be 1-D")
        if np.any(e < 0.0) or not np.all(np.isfinite(e)):
            raise ValueError("energies must be finite and non-negative")
        e.setflags(write=False)
        object.__setattr__(self, "energy", e)

    @property
    def wavenumbers(self) -> np.ndarray:
        return np.arange(self.energy.size)


def _row_spectra(lat_deg: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Energy spectra of the float64 latitude rows ``values`` at
    latitudes ``lat_deg``, one per row, from one ``rfft`` over the
    rows."""
    c = latitude_circumference_m(lat_deg)
    coeff = np.fft.rfft(values, axis=1) / values.shape[1]
    s = (coeff.real ** 2 + coeff.imag ** 2) * c[:, None]
    s[:, 1:] *= 2.0
    return s


def midlatitude_spectrum(block: FieldBlock, i: int) -> ZonalSpectrum:
    """Unweighted mean of per-row spectra of layer ``i`` of ``block`` over
    rows with b0 < |lat| < b1, the :data:`MIDLATITUDE_BAND`.

    Only the band's rows are widened to float64. Both hemispheres
    contribute; rows are averaged in grid (north-to-south) order, so the
    reduction is deterministic. Raises :class:`EmptyBand` when no row
    qualifies.
    """
    b0, b1 = MIDLATITUDE_BAND
    lat = block.grid.lat_deg
    abs_lat = np.abs(lat)
    rows = np.nonzero((abs_lat > b0) & (abs_lat < b1))[0]
    if rows.size == 0:
        raise EmptyBand(f"no grid row with {b0} < |lat| < {b1}")
    values = block.values[i, rows].astype(np.float64, copy=False)
    return ZonalSpectrum(np.mean(_row_spectra(lat[rows], values), axis=0))
