"""Spherical lat-lon grid geometry.

Grid descriptors, normalized latitude area weights, bilinear
interpolation to fixed points (bracketed once, applied to any stack of
fields), and great-circle distance. Grids are oriented north-to-south in
rows and 0..360 eastward in columns; readers normalize foreign
orientations at ingestion.

All types are immutable after construction and every operation is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta, timezone
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import GridMismatch, NonFiniteValue, TargetOutsideDomain

#: Mean spherical Earth radius in km, shared by distances and spectra.
EARTH_RADIUS_KM = 6371.0

#: Kilometres per degree of a great circle (pi * R / 180).
KM_PER_DEG = EARTH_RADIUS_KM * math.pi / 180.0

#: The step of the 6-hourly cadence: between the valid times of
#: consecutive layers of a series or stack, and between consecutive leads.
SIX_HOURS = timedelta(hours=6)


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


def all_finite(values: np.ndarray) -> bool:
    """``np.isfinite(values).all()`` without its bool array the size of
    ``values``: NaN propagates through both reductions and an infinity
    is the min or the max. True for an empty array."""
    return values.size == 0 or bool(np.isfinite(values.min())
                                    and np.isfinite(values.max()))


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
        if not resolution_deg > 0:
            raise ValueError(f"resolution_deg must be positive, got "
                             f"{resolution_deg!r}")
        n_lat = round(180.0 / resolution_deg) + 1
        n_lon = round(360.0 / resolution_deg)
        return cls.uniform(90.0, -resolution_deg, n_lat, 0.0, resolution_deg, n_lon)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GeoGrid):
            return NotImplemented
        if self is other:  # fields read on one sidecar geometry share grids
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


# kept only as field_for's return type: bench/layer_trace.py wraps both
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


@dataclass(frozen=True, eq=False)
class FieldBlock:
    """Layers of one variable on one grid, each with its valid time and
    lead: what is read, generated, scored and written.

    ``values`` is a C-contiguous (k, n_lat, n_lon) array of finite
    values: float32 as stored and as the synthetic forecasts make them,
    float64 holding float32-exact values in generated truth, or float64
    for a derived WS10 block (:func:`derive_wind_speed`). Layer i is
    valid at ``valid_times[i]`` with lead ``lead_hours[i]``. The reader
    (:class:`~wxverify.fileio.FieldSource`) and the generator
    (:mod:`wxverify.harness`) make them so, and construction does not
    scan the values again. Kernels that compute in float64 widen the
    chunk or layer they use.
    """

    grid: GeoGrid
    variable: VariableId
    valid_times: tuple[datetime, ...]
    lead_hours: tuple[int, ...]
    values: np.ndarray


def derive_wind_speed(u10: FieldBlock, v10: FieldBlock) -> FieldBlock:
    """WS10 = sqrt(u10^2 + v10^2) of a U10 and a V10 block, in float64;
    computed, never stored."""
    if u10.variable is not VariableId.U10 or v10.variable is not VariableId.V10:
        raise GridMismatch("derive_wind_speed expects (U10, V10) blocks")
    if u10.grid != v10.grid or u10.valid_times != v10.valid_times \
            or u10.lead_hours != v10.lead_hours:
        raise GridMismatch("U10/V10 blocks disagree on grid or time")
    return replace(u10, variable=VariableId.WS10,
                   values=np.hypot(u10.values, v10.values, dtype=np.float64))


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


def _bracket(ascending: np.ndarray, x: np.ndarray):
    """Cell index and fractional position of each x along an ascending
    axis, and the mask of the x outside the axis's span (whose cells are
    clipped to the nearest)."""
    outside = (x < ascending[0]) | (x > ascending[-1])
    n = ascending.size
    if n == 1:
        z = np.zeros_like(x, dtype=np.intp)
        return z, np.zeros_like(x, dtype=np.float64), outside
    j = np.clip(np.searchsorted(ascending, x, side="right") - 1, 0, n - 2)
    t = (x - ascending[j]) / (ascending[j + 1] - ascending[j])
    return j, t, outside


def _bracket_lon(grid: GeoGrid, lon: np.ndarray):
    """Longitude cell indices (j0, j1), fraction and outside mask (never
    set on a wrapping grid), honoring the wrap."""
    lons = grid.lon_deg
    n = lons.size
    if not grid.wraps_lon:
        j0, t, outside = _bracket(lons, lon)
        j1 = np.minimum(j0 + 1, n - 1)
        return j0, j1, t, outside
    ext = np.append(lons, lons[0] + 360.0)
    x = np.where(lon < lons[0], lon + 360.0, lon)
    j0 = np.clip(np.searchsorted(ext, x, side="right") - 1, 0, n - 1)
    t = (x - ext[j0]) / (ext[j0 + 1] - ext[j0])
    j1 = (j0 + 1) % n
    return j0, j1, t, np.zeros(lon.shape, dtype=bool)


def _bracket_lat(grid: GeoGrid, lat: np.ndarray):
    """Row indices (i0, i1), fraction and outside mask for north-to-south
    row ordering."""
    k, t, outside = _bracket(grid.lat_deg[::-1], lat)
    n = grid.n_lat
    if n == 1:
        return k, k, t, outside
    # ascending cell [k, k+1] maps to descending rows (n-1-k, n-2-k);
    # keep the fraction measured from the southern row.
    i_south = n - 1 - k
    i_north = n - 2 - k
    return i_south, i_north, t, outside


@dataclass(frozen=True, eq=False)
class BilinearWeights:
    """Bilinear interpolation from one grid to fixed (lat, lon) points.

    Each point's enclosing rows (``i0`` south, ``i1`` north), columns
    (``j0``, ``j1``) and fractions (``ty`` from the southern row, ``tx``
    from the western column) are bracketed once, by
    :func:`bilinear_weights`. :meth:`apply` then evaluates the bilinear
    kernel on any stack of fields on ``grid``. Each value is a convex
    combination of its four enclosing grid values and reproduces a grid
    value exactly at a node; longitude wraps on a full-circle grid.
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
        ``grid``, shaped ``(..., n_points)``, in float64: only the
        gathered corner values are widened, not the stack."""
        v = np.asarray(values)
        if v.shape[-2:] != self.grid.shape:
            raise ValueError(f"values shape {v.shape} does not end with "
                             f"grid shape {self.grid.shape}")
        i0, i1, j0, j1, ty, tx = (self.i0, self.i1, self.j0, self.j1,
                                  self.ty, self.tx)
        south = (1.0 - tx) * v[..., i0, j0] + tx * v[..., i0, j1]
        north = (1.0 - tx) * v[..., i1, j0] + tx * v[..., i1, j1]
        return (1.0 - ty) * south + ty * north


def bilinear_weights(grid: GeoGrid, points: Sequence[tuple[float, float]]
                     ) -> BilinearWeights:
    """Bracket (lat, lon) points on ``grid`` once for :class:`BilinearWeights`.

    Raises :class:`TargetOutsideDomain` when a latitude (or, for a
    non-wrapping grid, a longitude) lies outside the grid's span, naming
    the first such point's coordinate; its ``point`` is that point's
    index.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        pts = pts.reshape(0, 2)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("stations must be a sequence of (lat, lon) pairs")
    lat, lon = pts[:, 0], normalize_lon(pts[:, 1])
    i0, i1, ty, lat_outside = _bracket_lat(grid, lat)
    j0, j1, tx, lon_outside = _bracket_lon(grid, lon)
    outside = lat_outside | lon_outside
    if outside.any():
        k = int(np.argmax(outside))
        if lat_outside[k]:
            axis, value, span = "latitude", lat[k], grid.lat_deg[::-1]
        else:
            axis, value, span = "longitude", lon[k], grid.lon_deg
        raise TargetOutsideDomain(f"{axis} {float(value)} outside source "
                                  f"span [{span[0]}, {span[-1]}]", k)
    return BilinearWeights(grid, i0, i1, j0, j1, ty, tx)


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


def haversine_km_grid(lat0: float, lon0: float, grid: GeoGrid,
                      rows=slice(None), cols=slice(None)) -> np.ndarray:
    """Distances in km from one point to the nodes of ``grid`` (vectorized),
    or only to those of ``rows`` by ``cols`` (each a slice or index array).

    The latitude and longitude terms are computed over the whole axes and
    selected before they are combined, so each node's distance has the
    same bits whatever the selection.
    """
    dlat = np.deg2rad(grid.lat_deg - lat0)
    dlon = np.deg2rad((grid.lon_deg - lon0) % 360.0)
    lat_term = np.sin(dlat / 2.0) ** 2
    cos_term = math.cos(math.radians(lat0)) * np.cos(np.deg2rad(grid.lat_deg))
    lon_term = np.sin(dlon / 2.0) ** 2
    h = lat_term[rows, None] + cos_term[rows, None] * lon_term[None, cols]
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(h)))
