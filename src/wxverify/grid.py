"""Spherical lat-lon grid geometry.

Grid descriptors, normalized latitude area weights, bilinear regridding
and grid-to-station interpolation (sharing one kernel), and great-circle
distance. Grids are oriented north-to-south in rows and 0..360 eastward
in columns; readers normalize foreign orientations at ingestion.

All types are immutable after construction and every operation is pure,
so everything here is safe to call from concurrent workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import GridMismatch, NonFiniteValue, TargetOutsideDomain

#: Mean spherical Earth radius in km, shared by distances and spectra.
EARTH_RADIUS_KM = 6371.0

#: Kilometres per degree of a great circle (pi * R / 180).
KM_PER_DEG = EARTH_RADIUS_KM * math.pi / 180.0


class VariableId(Enum):
    """Atmospheric variables with their canonical SI units.

    WS10 is derived as sqrt(u10^2 + v10^2); it exists in memory only and
    is never stored on disk (see :mod:`wxverify.fileio`).
    """

    T2M = ("t2m", "K")
    U10 = ("u10", "m/s")
    V10 = ("v10", "m/s")
    D2M = ("d2m", "K")
    MSL = ("msl", "Pa")
    WS10 = ("ws10", "m/s")
    Z500 = ("z500", "m2/s2")
    T850 = ("t850", "K")
    Q700 = ("q700", "kg/kg")
    U850 = ("u850", "m/s")

    def __init__(self, key: str, unit: str):
        self.key = key
        self.unit = unit

    @property
    def derived(self) -> bool:
        return self is VariableId.WS10

    @classmethod
    def from_key(cls, key: str) -> "VariableId":
        for member in cls:
            if member.key == key:
                return member
        raise ValueError(f"unknown variable key {key!r}")


def normalize_lon(lon):
    """Map longitudes given in [-180, 180) (or any real) into [0, 360)."""
    return np.asarray(lon, dtype=np.float64) % 360.0


def cos_lat(lat_deg: np.ndarray) -> np.ndarray:
    """Cosine of latitude with an exact zero at the poles."""
    c = np.cos(np.deg2rad(np.asarray(lat_deg, dtype=np.float64)))
    return np.where(np.abs(lat_deg) == 90.0, 0.0, c)


@dataclass(frozen=True, eq=False)
class GeoGrid:
    """Regular lat-lon raster descriptor.

    ``lat_deg`` is strictly decreasing (north to south), ``lon_deg``
    strictly increasing in [0, 360). ``wraps_lon`` is computed at
    construction: true when the longitudes are uniformly spaced and
    cover the full circle.
    """

    lat_deg: np.ndarray
    lon_deg: np.ndarray
    wraps_lon: bool = field(init=False)

    def __post_init__(self):
        lat = np.ascontiguousarray(self.lat_deg, dtype=np.float64)
        lon = np.ascontiguousarray(self.lon_deg, dtype=np.float64)
        if lat.ndim != 1 or lat.size == 0:
            raise ValueError("lat_deg must be a non-empty 1-D array")
        if lon.ndim != 1 or lon.size == 0:
            raise ValueError("lon_deg must be a non-empty 1-D array")
        if not (np.all(np.isfinite(lat)) and np.all(np.isfinite(lon))):
            raise ValueError("grid coordinates must be finite")
        if np.any(np.abs(lat) > 90.0):
            raise ValueError("latitudes must lie in [-90, 90]")
        if np.any(lon < 0.0) or np.any(lon >= 360.0):
            raise ValueError("longitudes must lie in [0, 360)")
        if lat.size > 1 and not np.all(np.diff(lat) < 0.0):
            raise ValueError("latitudes must be strictly decreasing (north to south)")
        if lon.size > 1 and not np.all(np.diff(lon) > 0.0):
            raise ValueError("longitudes must be strictly increasing")
        wraps = False
        if lon.size > 1:
            steps = np.diff(lon)
            uniform = np.allclose(steps, steps[0], rtol=0.0, atol=1e-9)
            wraps = bool(uniform and abs(lon.size * steps[0] - 360.0) <= 1e-6)
        lat.setflags(write=False)
        lon.setflags(write=False)
        object.__setattr__(self, "lat_deg", lat)
        object.__setattr__(self, "lon_deg", lon)
        object.__setattr__(self, "wraps_lon", wraps)

    @property
    def n_lat(self) -> int:
        return self.lat_deg.size

    @property
    def n_lon(self) -> int:
        return self.lon_deg.size

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_lat, self.n_lon)

    def is_uniform(self) -> bool:
        """True when both axes are uniformly spaced (required by file IO)."""
        ok = True
        if self.n_lat > 1:
            d = np.diff(self.lat_deg)
            ok = ok and bool(np.allclose(d, d[0], rtol=0.0, atol=1e-9))
        if self.n_lon > 1:
            d = np.diff(self.lon_deg)
            ok = ok and bool(np.allclose(d, d[0], rtol=0.0, atol=1e-9))
        return ok

    @classmethod
    def uniform(cls, lat_start: float, lat_step: float, n_lat: int,
                lon_start: float, lon_step: float, n_lon: int) -> "GeoGrid":
        """Build a uniform grid; ``lat_step`` must be negative (N to S)."""
        if lat_step >= 0 and n_lat > 1:
            raise ValueError("lat_step must be negative (north-to-south rows)")
        lat = lat_start + lat_step * np.arange(n_lat, dtype=np.float64)
        lon = lon_start + lon_step * np.arange(n_lon, dtype=np.float64)
        return cls(lat, lon)

    @classmethod
    def regular_global(cls, resolution_deg: float = 0.25) -> "GeoGrid":
        """Global grid from 90N to 90S; 0.25 deg gives the 721x1440 layout."""
        n_lat = round(180.0 / resolution_deg) + 1
        n_lon = round(360.0 / resolution_deg)
        return cls.uniform(90.0, -resolution_deg, n_lat, 0.0, resolution_deg, n_lon)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GeoGrid):
            return NotImplemented
        if self is other:  # fields read through one FieldSource share grids
            return True
        return (np.array_equal(self.lat_deg, other.lat_deg)
                and np.array_equal(self.lon_deg, other.lon_deg))

    def __hash__(self) -> int:
        return hash((self.lat_deg.tobytes(), self.lon_deg.tobytes()))

    def __repr__(self) -> str:
        return (f"GeoGrid(n_lat={self.n_lat}, n_lon={self.n_lon}, "
                f"lat=[{self.lat_deg[0]}..{self.lat_deg[-1]}], "
                f"lon=[{self.lon_deg[0]}..{self.lon_deg[-1]}], "
                f"wraps_lon={self.wraps_lon})")


@dataclass(frozen=True, eq=False)
class GridField:
    """A single-variable, single-valid-time 2-D field on a :class:`GeoGrid`.

    Values are float64 in SI units, row-major, shape (n_lat, n_lon).
    Construction rejects non-finite entries, so downstream metrics never
    see NaN/Inf.
    """

    grid: GeoGrid
    variable: VariableId
    valid_time: datetime
    lead_hours: int
    values: np.ndarray

    def __post_init__(self):
        if self.valid_time.tzinfo is None:
            raise ValueError("valid_time must be timezone-aware UTC")
        vt = self.valid_time.astimezone(timezone.utc)
        lead = int(self.lead_hours)
        if lead != self.lead_hours or lead < 0:
            raise ValueError("lead_hours must be a non-negative integer")
        if lead % 6 != 0:
            raise ValueError("lead_hours must be a multiple of 6")
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        if vals.shape != self.grid.shape:
            raise ValueError(f"values shape {vals.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(vals)):
            raise NonFiniteValue(f"{self.variable.key} field contains NaN/Inf")
        vals.setflags(write=False)
        object.__setattr__(self, "valid_time", vt)
        object.__setattr__(self, "lead_hours", lead)
        object.__setattr__(self, "values", vals)

    def with_values(self, values: np.ndarray) -> "GridField":
        return GridField(self.grid, self.variable, self.valid_time,
                         self.lead_hours, values)

    def at(self, valid_time: datetime, lead_hours: int) -> "GridField":
        """Same values stamped with a different valid time and lead."""
        return GridField(self.grid, self.variable, valid_time, lead_hours, self.values)


def derive_wind_speed(u10: GridField, v10: GridField) -> GridField:
    """WS10 = sqrt(u10^2 + v10^2); computed, never stored."""
    if u10.variable is not VariableId.U10 or v10.variable is not VariableId.V10:
        raise GridMismatch("derive_wind_speed expects (U10, V10) fields")
    if u10.grid != v10.grid or u10.valid_time != v10.valid_time \
            or u10.lead_hours != v10.lead_hours:
        raise GridMismatch("U10/V10 fields disagree on grid or time")
    speed = np.hypot(u10.values, v10.values)
    return GridField(u10.grid, VariableId.WS10, u10.valid_time, u10.lead_hours, speed)


def latitude_weights(grid: GeoGrid) -> np.ndarray:
    """Normalized area weights w_i = n_lat * cos(lat_i) / sum_k cos(lat_k).

    The returned vector has mean exactly 1 (up to rounding); pole rows
    get weight 0.
    """
    c = cos_lat(grid.lat_deg)
    total = c.sum()
    if total <= 0.0:
        raise ValueError("grid has no row with positive cos(latitude)")
    return grid.n_lat * c / total


def _bracket(ascending: np.ndarray, x: np.ndarray, axis_name: str):
    """Cell index and fractional position of each x along an ascending axis."""
    lo, hi = ascending[0], ascending[-1]
    bad = (x < lo) | (x > hi)
    if np.any(bad):
        worst = float(np.asarray(x)[bad].flat[0])
        raise TargetOutsideDomain(
            f"{axis_name} {worst} outside source span [{lo}, {hi}]")
    n = ascending.size
    if n == 1:
        z = np.zeros_like(x, dtype=np.intp)
        return z, np.zeros_like(x, dtype=np.float64)
    j = np.clip(np.searchsorted(ascending, x, side="right") - 1, 0, n - 2)
    t = (x - ascending[j]) / (ascending[j + 1] - ascending[j])
    return j, t


def _bracket_lon(grid: GeoGrid, lon: np.ndarray):
    """Longitude cell indices (j0, j1) and fraction, honoring the wrap."""
    lon = normalize_lon(lon)
    lons = grid.lon_deg
    n = lons.size
    if not grid.wraps_lon:
        j0, t = _bracket(lons, lon, "longitude")
        j1 = np.minimum(j0 + 1, n - 1)
        return j0, j1, t
    ext = np.append(lons, lons[0] + 360.0)
    x = np.where(lon < lons[0], lon + 360.0, lon)
    j0 = np.clip(np.searchsorted(ext, x, side="right") - 1, 0, n - 1)
    t = (x - ext[j0]) / (ext[j0 + 1] - ext[j0])
    j1 = (j0 + 1) % n
    return j0, j1, t


def _bracket_lat(grid: GeoGrid, lat: np.ndarray):
    """Row indices (i0, i1) and fraction for north-to-south row ordering."""
    asc = grid.lat_deg[::-1]
    k, t = _bracket(asc, lat, "latitude")
    n = grid.n_lat
    if n == 1:
        return k, k, t
    # ascending cell [k, k+1] maps to descending rows (n-1-k, n-2-k);
    # keep the fraction measured from the southern row.
    i_south = n - 1 - k
    i_north = n - 2 - k
    return i_south, i_north, t


def _blend(v00, v01, v10, v11, ty, tx):
    """The one bilinear kernel: ``v00``/``v01`` are the southern row's
    western/eastern corners, ``v10``/``v11`` the northern row's."""
    return ((1.0 - ty) * ((1.0 - tx) * v00 + tx * v01)
            + ty * ((1.0 - tx) * v10 + tx * v11))


def regrid_bilinear(field: GridField, target: GeoGrid) -> GridField:
    """Bilinear interpolation of ``field`` onto ``target``.

    Exactly reproduces source values at coincident nodes; each output
    value is a convex combination of the four enclosing source values.
    Longitude wraps when the source covers the full circle.

    Raises :class:`TargetOutsideDomain` when a target latitude (or, for
    non-wrapping sources, longitude) lies outside the source span.
    """
    i0, i1, ty = _bracket_lat(field.grid, target.lat_deg)
    j0, j1, tx = _bracket_lon(field.grid, target.lon_deg)
    i0, i1, ty = i0[:, None], i1[:, None], ty[:, None]
    j0, j1, tx = j0[None, :], j1[None, :], tx[None, :]
    v = field.values
    out = _blend(v[i0, j0], v[i0, j1], v[i1, j0], v[i1, j1], ty, tx)
    return GridField(target, field.variable, field.valid_time,
                     field.lead_hours, out)


@dataclass(frozen=True, eq=False)
class BilinearWeights:
    """Bilinear interpolation from one grid to fixed (lat, lon) points.

    Each point's enclosing rows (``i0`` south, ``i1`` north), columns
    (``j0``, ``j1``) and fractions (``ty`` from the southern row, ``tx``
    from the western column) are bracketed once, by
    :func:`bilinear_weights`. :meth:`apply` then evaluates the kernel of
    :func:`regrid_bilinear` on any stack of fields on ``grid``.
    """

    grid: GeoGrid
    i0: np.ndarray
    i1: np.ndarray
    j0: np.ndarray
    j1: np.ndarray
    ty: np.ndarray
    tx: np.ndarray

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Values at the points of a ``(..., n_lat, n_lon)`` stack on
        ``grid``, shaped ``(..., n_points)``."""
        v = np.asarray(values, dtype=np.float64)
        if v.shape[-2:] != self.grid.shape:
            raise ValueError(f"values shape {v.shape} does not end with "
                             f"grid shape {self.grid.shape}")
        i0, i1, j0, j1 = self.i0, self.i1, self.j0, self.j1
        return _blend(v[..., i0, j0], v[..., i0, j1], v[..., i1, j0],
                      v[..., i1, j1], self.ty, self.tx)


def bilinear_weights(grid: GeoGrid, points: Sequence[tuple[float, float]]
                     ) -> BilinearWeights:
    """Bracket (lat, lon) points on ``grid`` once for :class:`BilinearWeights`.

    Raises :class:`TargetOutsideDomain` when a latitude (or, for a
    non-wrapping grid, a longitude) lies outside the grid's span.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        pts = pts.reshape(0, 2)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("stations must be a sequence of (lat, lon) pairs")
    i0, i1, ty = _bracket_lat(grid, pts[:, 0])
    j0, j1, tx = _bracket_lon(grid, pts[:, 1])
    return BilinearWeights(grid, i0, i1, j0, j1, ty, tx)


def interp_to_stations(field: GridField,
                       stations: Sequence[tuple[float, float]]) -> np.ndarray:
    """Bilinear values of ``field`` at (lat, lon) points.

    Uses the same kernel as :func:`regrid_bilinear`, evaluated pointwise.
    To interpolate many fields on one grid, bracket the points once with
    :func:`bilinear_weights` instead.
    """
    return bilinear_weights(field.grid, stations).apply(field.values)


def haversine_km(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Great-circle distance in km between two (lat, lon) points in degrees.

    Symmetric, non-negative, and exactly zero when the coordinates agree
    (longitudes compared mod 360).
    """
    lat1, lon1 = a
    lat2, lon2 = b
    for c in (lat1, lon1, lat2, lon2):
        if not math.isfinite(c):
            raise ValueError("haversine_km requires finite coordinates")
    dlat = math.radians(lat2 - lat1)
    # |difference| folded into [0, 180]; the abs keeps the result exactly
    # symmetric in its arguments.
    dlon_deg = abs(lon2 - lon1) % 360.0
    if dlon_deg > 180.0:
        dlon_deg = 360.0 - dlon_deg
    dlon = math.radians(dlon_deg)
    h = (math.sin(dlat / 2.0) ** 2
         + math.cos(math.radians(lat1)) * math.cos(math.radians(lat2))
         * math.sin(dlon / 2.0) ** 2)
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


def haversine_km_grid(lat0: float, lon0: float, grid: GeoGrid) -> np.ndarray:
    """Distances in km from one point to every node of ``grid`` (vectorized)."""
    dlat = np.deg2rad(grid.lat_deg - lat0)
    dlon = np.deg2rad((grid.lon_deg - lon0) % 360.0)
    h = (np.sin(dlat / 2.0) ** 2)[:, None] \
        + (math.cos(math.radians(lat0)) * np.cos(np.deg2rad(grid.lat_deg)))[:, None] \
        * (np.sin(dlon / 2.0) ** 2)[None, :]
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(h)))
