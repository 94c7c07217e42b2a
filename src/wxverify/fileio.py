"""Bit-exact readers and writers.

Gridded fields, field stacks, extreme thresholds and daily-mean
climatologies are all stored the same way: a flat little-endian
``(layers, n_lat, n_lon)`` payload plus a JSON sidecar (`<path>.json`)
carrying the magic, dtype, geometry and CRC-32s of the payload, written
and read by one codec. A field file (RBGRID1) holds one field; a stack
(RBSTACK1) holds a 6-hourly series of one variable with one CRC-32 per
layer, so one layer is read with a seek and checked alone. Uniform grids
only; orientation is normalized to north-to-south rows and [0, 360)
eastward columns on read. Threshold and climatology payloads carry a
365-deep day axis (climatology payloads are float64 so that
through-disk evaluation stays bit-identical to in-memory evaluation).

Commands read stored arrays through one run-scoped :class:`FieldSource`,
which resolves manifest paths, picks the layout from the sidecar's
magic, parses each stack's sidecar once and validates each grid
geometry once per run.

Writers stream to a temp file and rename, so a file is either complete
or absent. Serialization is canonical: rewriting what was just read
produces byte-identical files. Readers are total over the typed error
hierarchy in :mod:`wxverify.errors` - fuzzed input yields a typed error,
never a raw parser traceback.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import zlib
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .climatology import DAYS_PER_YEAR, DailyMeanClimatology, ThresholdField
from .cyclones import LEAD_STEP, TRUTH_SOURCE, StormFix, StormTrack
from .errors import (ChecksumMismatch, DuplicateObservation,
                     HeaderPayloadShapeMismatch, InvalidHeader, ManifestError,
                     NonFiniteValue, NonMonotoneTime, NonUniformGrid,
                     UnknownStation, WxVerifyError)
from .extremes import EventSegment
from .grid import GeoGrid, GridField, VariableId, derive_wind_speed
from .harness import year_times
from .stations import (Station, StationTable, WindowOverflow,
                       epoch_microseconds, six_hour_times, table_from_columns)

GRID_MAGIC = "RBGRID1"
STACK_MAGIC = "RBSTACK1"
THRESH_MAGIC = "RBTHRESH1"
CLIM_MAGIC = "RBCLIM1"

_TIME_FORMAT = "%Y-%m-%dT%H:%M:%SZ"


def format_time(when: datetime) -> str:
    return when.astimezone(timezone.utc).strftime(_TIME_FORMAT)


def parse_time(text: str) -> datetime:
    """Parse ISO-8601 UTC timestamps ('Z' or explicit offset)."""
    try:
        cleaned = text.strip()
        if cleaned.endswith("Z"):
            cleaned = cleaned[:-1] + "+00:00"
        when = datetime.fromisoformat(cleaned)
        if when.tzinfo is None:
            when = when.replace(tzinfo=timezone.utc)
        return when.astimezone(timezone.utc)
    except (ValueError, OverflowError) as exc:
        raise InvalidHeader(f"bad timestamp {text!r}: {exc}") from exc


def _atomic_write_bytes(path: Path, payload: bytes):
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(payload)
    os.replace(tmp, path)


def _canonical_json(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode("utf-8")


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.name + ".json")


def _load_sidecar(path: Path, *magics: str) -> dict:
    """The parsed sidecar of ``path``, whose magic is one of ``magics``."""
    sidecar = _sidecar_path(path)
    try:
        header = json.loads(sidecar.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise InvalidHeader(f"sidecar missing: {sidecar}") from None
    except OSError as exc:
        raise InvalidHeader(f"cannot read sidecar {sidecar}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InvalidHeader(f"unparseable sidecar {sidecar}: {exc}") from exc
    if not isinstance(header, dict) or header.get("magic") not in magics:
        raise InvalidHeader(f"{sidecar}: expected magic {magics[0]!r}")
    return header


def _header_value(header: dict, key: str, kind, path: Path):
    if key not in header:
        raise InvalidHeader(f"{path}: sidecar missing key {key!r}")
    value = header[key]
    try:
        if kind is int:
            out = int(value)
            if out != value:
                raise ValueError("not an integer")
            return out
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidHeader(f"{path}: bad {key!r} value {value!r}") from exc


def _header_variable(header: dict, path: Path) -> VariableId:
    try:
        return VariableId.from_key(_header_value(header, "variable", str, path))
    except ValueError as exc:
        raise InvalidHeader(f"{path}: {exc}") from exc


def _grid_header_geometry(header: dict, path: Path):
    n_lat = _header_value(header, "n_lat", int, path)
    n_lon = _header_value(header, "n_lon", int, path)
    lat_start = _header_value(header, "lat_start", float, path)
    lat_step = _header_value(header, "lat_step", float, path)
    lon_start = _header_value(header, "lon_start", float, path)
    lon_step = _header_value(header, "lon_step", float, path)
    if n_lat < 1 or n_lon < 1:
        raise InvalidHeader(f"{path}: non-positive grid shape")
    if not all(map(math.isfinite, (lat_start, lat_step, lon_start, lon_step))):
        raise InvalidHeader(f"{path}: non-finite grid geometry")
    return n_lat, n_lon, lat_start, lat_step, lon_start, lon_step


def _oriented_grid(geometry: tuple, path: Path) -> tuple[GeoGrid, bool, int]:
    """Engine-convention grid of a sidecar geometry, plus how to orient
    the payload onto it: flip the rows, then roll the columns left."""
    n_lat, n_lon, lat_start, lat_step, lon_start, lon_step = geometry
    flip_rows = lat_step > 0  # south-to-north file
    if flip_rows:
        lat_start = lat_start + lat_step * (n_lat - 1)
        lat_step = -lat_step
    lons = (lon_start + lon_step * np.arange(n_lon)) % 360.0
    lon_shift = 0
    if n_lon > 1 and not np.all(np.diff(lons) > 0):
        lon_shift = int(np.argmin(lons))
        lons = np.roll(lons, -lon_shift)
    if lon_step > 0 and (lon_shift == 0
                         or abs(n_lon * lon_step - 360.0) <= 1e-6):
        # first longitude plus k steps, whatever the stored start: the
        # form _write_store stores, so a written grid reads back bit for bit
        lons = lons[0] + lon_step * np.arange(n_lon)
    try:
        grid = GeoGrid(lat_start + lat_step * np.arange(n_lat), lons)
    except ValueError as exc:
        raise InvalidHeader(f"{path}: {exc}") from exc
    return grid, flip_rows, lon_shift


def _cached_grid(geometry: tuple, path: Path, geometries: dict | None
                 ) -> tuple[GeoGrid, bool, int]:
    """:func:`_oriented_grid`, built and validated once per geometry key.

    Floats are keyed on their exact bits, so ``-0.0`` and ``0.0`` never
    share an entry. A geometry that fails validation is never cached.
    """
    if geometries is None:
        return _oriented_grid(geometry, path)
    n_lat, n_lon, *starts_and_steps = geometry
    key = (n_lat, n_lon, *(x.hex() for x in starts_and_steps))
    entry = geometries.get(key)
    if entry is None:
        # concurrent readers that both missed end up sharing one entry
        entry = geometries.setdefault(key, _oriented_grid(geometry, path))
    return entry


# --- stored arrays: grids, stacks, thresholds, climatologies -----------------

_DTYPES = {"f32le": np.dtype("<f4"), "f64le": np.dtype("<f8")}

#: Valid-time step between consecutive layers of an RBSTACK1 store.
STACK_STEP = timedelta(hours=6)


def _stored_step(axis: np.ndarray, single: float) -> float:
    """The step to store for a uniform grid ``axis`` (``single`` when it
    has one point): the shortest decimal rounding of its mean step with
    which ``axis[0] + step * k``, as the reader rebuilds it, gives the axis
    back bit for bit; the first difference when no rounding does."""
    if axis.size == 1:
        return single
    k = np.arange(axis.size)
    mean = (axis[-1] - axis[0]) / (axis.size - 1)
    for digits in range(1, 18):
        step = float(f"{mean:.{digits}g}")
        if np.array_equal(axis[0] + step * k, axis):
            return step
    return float(axis[1] - axis[0])


def _write_store(path: Path, magic: str, grid: GeoGrid, layers, dtype: str,
                 extra: dict, per_layer: bool = False) -> Path:
    """Stream ``layers`` over ``grid`` to a payload, then write a sidecar.

    ``layers`` is a ``(layers, n_lat, n_lon)`` array or any iterable of
    ``(n_lat, n_lon)`` layers; it is written one layer at a time, so a
    generator is never held in memory whole. The sidecar holds ``extra``
    (read after the last layer), the magic, dtype, uniform geometry and
    the payload's CRC-32: one over the whole payload (``checksum``) or,
    with ``per_layer``, one per layer (``checksums``, with ``n_layers``).
    """
    if not grid.is_uniform():
        raise NonUniformGrid("file format stores uniformly spaced grids only")
    lat_step = _stored_step(grid.lat_deg, -1.0)
    lon_step = _stored_step(grid.lon_deg, 1.0)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    crc, checksums = 0, []
    try:
        with open(tmp, "wb") as fh:
            for layer in layers:
                blob = np.ascontiguousarray(layer, dtype=_DTYPES[dtype]).tobytes()
                fh.write(blob)
                if per_layer:
                    checksums.append(zlib.crc32(blob))
                else:
                    crc = zlib.crc32(blob, crc)
    except BaseException:
        tmp.unlink(missing_ok=True)  # a store is either complete or absent
        raise
    os.replace(tmp, path)
    header = dict(extra, magic=magic, dtype=dtype,
                  n_lat=grid.n_lat, n_lon=grid.n_lon,
                  lat_start=float(grid.lat_deg[0]), lat_step=lat_step,
                  lon_start=float(grid.lon_deg[0]), lon_step=lon_step)
    if per_layer:
        header.update(n_layers=len(checksums), checksums=checksums)
    else:
        header["checksum"] = crc
    _atomic_write_bytes(_sidecar_path(path), _canonical_json(header))
    return path


@dataclass(frozen=True)
class _Store:
    """A store's checked sidecar: the layout of its payload."""

    path: Path
    dtype: np.dtype
    n_layers: int
    #: (n_lat, n_lon, lat_start, lat_step, lon_start, lon_step) as stored
    geometry: tuple
    #: one CRC-32 per layer (a stack), or one over the whole payload
    checksums: tuple[int, ...]
    #: the run's geometry cache (see :func:`_cached_grid`), or None
    geometries: dict | None

    def read(self, start: int, count: int) -> tuple[GeoGrid, np.ndarray]:
        """The engine-convention grid, and layers ``start .. start +
        count`` as float64 ``(count, n_lat, n_lon)`` oriented as the grid
        is: rows flipped, then columns rolled.

        The payload's length is checked against the sidecar before
        anything is read, and the grid is built only after that, so a
        sidecar cannot make the reader allocate more than the payload
        holds. Only the requested layers are read, and only the CRC-32s
        that cover them are checked; a whole-payload CRC is only ever
        read whole. Finiteness is the caller's check (see :func:`_build`).
        """
        path = self.path
        n_lat, n_lon = self.geometry[:2]
        layer_bytes = self.dtype.itemsize * n_lat * n_lon
        try:
            with open(path, "rb") as fh:
                size = os.fstat(fh.fileno()).st_size
                n_bytes = layer_bytes * self.n_layers
                if size != n_bytes:
                    raise HeaderPayloadShapeMismatch(
                        f"{path}: payload is {size} bytes, header implies "
                        f"{n_bytes}")
                fh.seek(start * layer_bytes)
                blob = fh.read(count * layer_bytes)
        except FileNotFoundError:
            raise InvalidHeader(f"payload missing: {path}") from None
        except OSError as exc:
            raise InvalidHeader(f"cannot read payload {path}: {exc}") from exc
        per_crc = self.n_layers // len(self.checksums)
        chunk = per_crc * layer_bytes
        view = memoryview(blob)
        for i, k in enumerate(range(start // per_crc, (start + count) // per_crc)):
            if zlib.crc32(view[i * chunk:(i + 1) * chunk]) != self.checksums[k]:
                where = f" in layer {k}" if len(self.checksums) > 1 else ""
                raise ChecksumMismatch(f"{path}: CRC-32 mismatch{where}")
        grid, flip_rows, lon_shift = _cached_grid(self.geometry, path,
                                                  self.geometries)
        # an f64le payload is used in place; only f32le is widened (one copy)
        layers = np.frombuffer(blob, dtype=self.dtype) \
            .astype(np.float64, copy=False).reshape(count, n_lat, n_lon)
        if flip_rows:
            layers = layers[:, ::-1]
        if lon_shift:
            layers = np.roll(layers, -lon_shift, axis=2)
        return grid, layers


def _parse_store(path: Path, header: dict, dtype: str, n_layers: int | None,
                 geometries: dict | None) -> _Store:
    """Check a loaded sidecar's dtype, geometry and checksums.

    ``n_layers`` is the layer count the magic implies, with one CRC-32
    over the whole payload; None for a stack, whose sidecar gives
    ``n_layers`` and one CRC-32 per layer.
    """
    if header.get("dtype") != dtype:
        raise InvalidHeader(f"{path}: unsupported dtype {header.get('dtype')!r}")
    geometry = _grid_header_geometry(header, path)
    if n_layers is None:
        n_layers = _header_value(header, "n_layers", int, path)
        checksums = header.get("checksums")
        if n_layers < 1 or not isinstance(checksums, list) \
                or len(checksums) != n_layers \
                or not all(type(c) is int for c in checksums):
            raise InvalidHeader(f"{path}: a stack needs n_layers >= 1 and "
                                f"one integer CRC-32 per layer")
    else:
        checksums = [_header_value(header, "checksum", int, path)]
    return _Store(path, _DTYPES[dtype], n_layers, geometry, tuple(checksums),
                  geometries)


def _read_store(path: Path, header: dict, dtype: str, n_layers: int,
                geometries: dict | None) -> tuple[GeoGrid, np.ndarray]:
    """Grid and every checked, oriented layer of a whole-payload store."""
    return _parse_store(path, header, dtype, n_layers, geometries) \
        .read(0, n_layers)


def _day_layers(header: dict, path: Path, stacks: int) -> int:
    """Layer count of ``stacks`` stacked 365-day axes, checked against
    the sidecar's ``n_days``."""
    if _header_value(header, "n_days", int, path) != DAYS_PER_YEAR:
        raise InvalidHeader(f"{path}: expected a {DAYS_PER_YEAR}-day axis")
    return stacks * DAYS_PER_YEAR


def _build(path: Path, cls, *args):
    """``cls(*args)`` over a read payload, with its errors typed and naming
    ``path``. The type checks finiteness, so the payload is scanned once."""
    try:
        return cls(*args)
    except NonFiniteValue as exc:
        raise NonFiniteValue(f"{path}: payload contains NaN/Inf") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidHeader(f"{path}: {exc}") from exc


def write_grid(field: GridField, path: str | os.PathLike) -> Path:
    """Write one field as f32le payload + JSON sidecar; returns the path.

    Derived variables (WS10) are never stored.
    """
    _check_storable(field)
    return _write_store(Path(path), GRID_MAGIC, field.grid, field.values[None],
                        "f32le", {
                            "variable": field.variable.key,
                            "unit": field.variable.unit,
                            "valid_time": format_time(field.valid_time),
                            "lead_hours": field.lead_hours,
                        })


def _check_storable(field: GridField):
    if field.variable.derived:
        raise WxVerifyError(
            f"{field.variable.key} is derived; compute it, do not store it")


def read_grid(path: str | os.PathLike, geometries: dict | None = None
              ) -> GridField:
    """Read a field written by :func:`write_grid`; round-trip is lossless.

    ``geometries`` is an optional cache of validated grids shared across
    reads (see :class:`FieldSource`); without it every read builds and
    validates its own grid.
    """
    path = Path(path)
    return _grid_field(path, _load_sidecar(path, GRID_MAGIC), geometries)


def _grid_field(path: Path, header: dict, geometries: dict | None
                ) -> GridField:
    """The field of an RBGRID1 store whose sidecar is ``header``."""
    grid, layers = _read_store(path, header, "f32le", 1, geometries)
    return _build(path, GridField, grid, _header_variable(header, path),
                  parse_time(_header_value(header, "valid_time", str, path)),
                  _header_value(header, "lead_hours", int, path), layers[0])


def write_stack(fields: Iterable[GridField], path: str | os.PathLike) -> Path:
    """Write a 6-hourly series of one variable as one RBSTACK1 store.

    Layer k is valid ``6 k`` hours after the first and has lead
    ``lead_0 + k * lead_step``, where ``lead_step`` is the lead
    difference of the first two layers: 0 for truth, 6 for a forecast.
    Every layer shares the first layer's grid and variable; a field that
    does not continue the series raises :class:`WxVerifyError` and leaves
    no file behind. ``fields`` is streamed, one layer at a time, so a
    generator of a year of fields is never held in memory whole. Derived
    variables (WS10) are never stored.
    """
    path = Path(path)
    fields = iter(fields)
    first = next(fields, None)
    if first is None:
        raise WxVerifyError(f"{path}: a stack needs at least one field")
    _check_storable(first)
    extra = {"variable": first.variable.key, "unit": first.variable.unit,
             "valid_time": format_time(first.valid_time),
             "time_step_hours": STACK_STEP // timedelta(hours=1),
             "lead_hours": first.lead_hours, "lead_step_hours": 0}

    def layers():
        yield first.values
        for k, field in enumerate(fields, start=1):
            if k == 1:
                extra["lead_step_hours"] = field.lead_hours - first.lead_hours
            if (field.grid != first.grid or field.variable is not first.variable
                    or field.valid_time != first.valid_time + k * STACK_STEP
                    or field.lead_hours != first.lead_hours
                    + k * extra["lead_step_hours"]):
                raise WxVerifyError(
                    f"{path}: {field.variable.key} field at "
                    f"{format_time(field.valid_time)} (lead "
                    f"{field.lead_hours} h) does not continue the stack as "
                    f"layer {k}")
            yield field.values
    return _write_store(path, STACK_MAGIC, first.grid, layers(), "f32le",
                        extra, per_layer=True)


@dataclass(frozen=True)
class _Stack:
    """A parsed RBSTACK1 sidecar: the store, its variable and layer times."""

    store: _Store
    variable: VariableId
    first_time: datetime
    first_lead: int
    lead_step: int

    @classmethod
    def parse(cls, path: Path, header: dict, geometries: dict | None
              ) -> "_Stack":
        store = _parse_store(path, header, "f32le", None, geometries)
        if _header_value(header, "time_step_hours", int, path) != \
                STACK_STEP // timedelta(hours=1):
            raise InvalidHeader(f"{path}: unsupported time_step_hours "
                                f"{header['time_step_hours']!r}")
        first_time = parse_time(_header_value(header, "valid_time", str, path))
        try:
            first_time + (store.n_layers - 1) * STACK_STEP
        except OverflowError as exc:
            raise InvalidHeader(f"{path}: layer times run past year 9999") \
                from exc
        return cls(store, _header_variable(header, path), first_time,
                   _header_value(header, "lead_hours", int, path),
                   _header_value(header, "lead_step_hours", int, path))

    def index(self, when: datetime) -> int:
        """The layer valid at ``when``; a time the stack does not hold
        raises :class:`ManifestError` naming the store and the time."""
        k, rest = divmod(when - self.first_time, STACK_STEP)
        if rest or not 0 <= k < self.store.n_layers:
            raise ManifestError(
                f"{self.store.path} holds no layer valid at "
                f"{format_time(when)}: its {self.store.n_layers} layers "
                f"start at {format_time(self.first_time)}, every 6 h")
        return k

    def fields(self, start: int, count: int) -> list[GridField]:
        """Layers ``start .. start + count`` as fields, in one read."""
        path = self.store.path
        grid, layers = self.store.read(start, count)
        return [_build(path, GridField, grid, self.variable,
                       self.first_time + k * STACK_STEP,
                       self.first_lead + k * self.lead_step, layers[i])
                for i, k in enumerate(range(start, start + count))]

    def field_at(self, when: datetime, lead_hours: int | None) -> GridField:
        """The layer valid at ``when``; with ``lead_hours``, it must carry
        that lead."""
        k = self.index(when)
        lead = self.first_lead + k * self.lead_step
        if lead_hours is not None and lead != lead_hours:
            raise ManifestError(
                f"{self.store.path}: the layer valid at {format_time(when)} "
                f"has lead {lead} h, not {lead_hours} h")
        return self.fields(k, 1)[0]


def read_stack(path: str | os.PathLike, geometries: dict | None = None
               ) -> list[GridField]:
    """Every layer of a store written by :func:`write_stack`, in one read;
    the round trip is lossless."""
    path = Path(path)
    stack = _Stack.parse(path, _load_sidecar(path, STACK_MAGIC), geometries)
    return stack.fields(0, stack.store.n_layers)


def write_thresholds(thresholds: ThresholdField, grid: GeoGrid,
                     path: str | os.PathLike) -> Path:
    """Persist heat/cold thresholds with a 365-deep day axis (f32le)."""
    if thresholds.n_locations != grid.n_lat * grid.n_lon:
        raise ValueError("threshold location axis does not match grid size")
    return _write_store(
        Path(path), THRESH_MAGIC, grid,
        np.stack([thresholds.tau_heat, thresholds.tau_cold]), "f32le", {
            "n_days": DAYS_PER_YEAR,
            "years": list(thresholds.years),
            "half_window": thresholds.half_window,
            "q_heat": thresholds.q_heat,
            "q_cold": thresholds.q_cold,
            "percentile_method": "linear",
        })


def read_thresholds(path: str | os.PathLike, geometries: dict | None = None
                    ) -> tuple[ThresholdField, GeoGrid]:
    """Thresholds written by :func:`write_thresholds` and their grid; the
    location axis is the row-major flattening of that grid."""
    path = Path(path)
    header = _load_sidecar(path, THRESH_MAGIC)
    grid, layers = _read_store(path, header, "f32le",
                               _day_layers(header, path, 2), geometries)
    heat, cold = layers.reshape(2, DAYS_PER_YEAR, grid.n_lat * grid.n_lon)
    thresholds = _build(path, ThresholdField, heat, cold,
                        tuple(_header_value(header, "years", list, path)),
                        _header_value(header, "half_window", int, path),
                        _header_value(header, "q_heat", float, path),
                        _header_value(header, "q_cold", float, path))
    return thresholds, grid


def write_daily_climatology(clim: DailyMeanClimatology,
                            path: str | os.PathLike) -> Path:
    """Persist a per-calendar-day mean climatology (f64le, lossless)."""
    return _write_store(Path(path), CLIM_MAGIC, clim.grid, clim.day_mean,
                        "f64le", {
                            "variable": clim.variable.key,
                            "unit": clim.variable.unit,
                            "n_days": DAYS_PER_YEAR,
                            "years": list(clim.years),
                        })


def read_daily_climatology(path: str | os.PathLike,
                           geometries: dict | None = None
                           ) -> DailyMeanClimatology:
    """A climatology written by :func:`write_daily_climatology`."""
    path = Path(path)
    header = _load_sidecar(path, CLIM_MAGIC)
    grid, layers = _read_store(path, header, "f64le",
                               _day_layers(header, path, 1), geometries)
    return _build(path, DailyMeanClimatology, grid,
                  _header_variable(header, path), layers,
                  tuple(_header_value(header, "years", list, path)))


# --- CSV interfaces ----------------------------------------------------------

_BESTTRACK_COLUMNS = ["storm_id", "iso_time", "lat", "lon", "mslp_hpa", "wind_ms"]


def read_besttrack(path: str | os.PathLike) -> list[StormTrack]:
    """Best-track CSV -> truth tracks, grouped by storm and time-validated.

    Rows of one storm must already be in strictly increasing 6-hour
    order; violations raise :class:`NonMonotoneTime`. Implausible MSLP
    raises :class:`UnitOutOfRange` (via :class:`StormFix`).
    """
    path = Path(path)
    by_storm: dict[str, list[StormFix]] = {}
    order: list[str] = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or \
                    [c.strip() for c in reader.fieldnames] != _BESTTRACK_COLUMNS:
                raise InvalidHeader(
                    f"{path}: expected columns {','.join(_BESTTRACK_COLUMNS)}")
            for lineno, row in enumerate(reader, start=2):
                try:
                    storm_id = row["storm_id"].strip()
                    fix = StormFix(
                        time=parse_time(row["iso_time"]),
                        lat=float(row["lat"]),
                        lon=float(row["lon"]) % 360.0,
                        min_mslp_pa=float(row["mslp_hpa"]) * 100.0,
                        max_wind_ms=float(row["wind_ms"]),
                    )
                except (TypeError, ValueError, AttributeError, KeyError) as exc:
                    raise InvalidHeader(f"{path}:{lineno}: bad row: {exc}") from exc
                if storm_id not in by_storm:
                    by_storm[storm_id] = []
                    order.append(storm_id)
                fixes = by_storm[storm_id]
                if fixes and fix.time != fixes[-1].time + LEAD_STEP:
                    raise NonMonotoneTime(
                        f"{path}:{lineno}: storm {storm_id} fix at "
                        f"{format_time(fix.time)} breaks the strictly "
                        f"increasing 6-hour cadence")
                fixes.append(fix)
    except OSError as exc:
        raise InvalidHeader(f"cannot read {path}: {exc}") from exc
    tracks = []
    for storm_id in order:
        fixes = by_storm[storm_id]
        tracks.append(StormTrack(storm_id, TRUTH_SOURCE, fixes[0].time,
                                 tuple(fixes), tuple([True] * len(fixes))))
    return tracks


def write_tracks_csv(tracks: Sequence[StormTrack], path: str | os.PathLike) -> Path:
    """Track output CSV: best-track schema plus source and tracked flags."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["storm_id,iso_time,lat,lon,mslp_hpa,wind_ms,source,init_time,"
             "lead_hours,tracked"]
    for track in tracks:
        source = track.source.name if track.source.init_source is None \
            else f"{track.source.name}:{track.source.init_source}"
        for k, flag in enumerate(track.tracked_mask):
            fix = track.fix_at_lead(k)
            when = track.init_time + k * LEAD_STEP
            if fix is None:
                lines.append(f"{track.storm_id},{format_time(when)},,,,,"
                             f"{source},{format_time(track.init_time)},{6 * k},0")
            else:
                lines.append(
                    f"{track.storm_id},{format_time(fix.time)},{fix.lat!r},"
                    f"{fix.lon!r},{fix.min_mslp_pa / 100.0!r},{fix.max_wind_ms!r},"
                    f"{source},{format_time(track.init_time)},{6 * k},1")
    _atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))
    return path


def write_segments_csv(segments: Sequence[EventSegment],
                       path: str | os.PathLike) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["location,kind,start_day,end_day"]
    for seg in segments:
        lines.append(f"{seg.location},{seg.kind.value},{seg.start_day},{seg.end_day}")
    _atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))
    return path


_STATION_META_COLUMNS = ["id", "lat", "lon", "elev_m"]
_STATION_OBS_COLUMNS = ["station_id", "iso_time", "variable", "value_si"]


def read_station_csvs(meta_path: str | os.PathLike, obs_path: str | os.PathLike,
                      times: Sequence[datetime] | None = None) -> StationTable:
    """Station metadata + raw observation CSVs -> 6-hourly station table.

    Raw records are window-averaged onto the target times (derived from
    the observation span when not given). Observations for unlisted
    stations raise :class:`UnknownStation`; duplicated (station, time,
    variable) rows raise :class:`DuplicateObservation`.
    """
    meta_path, obs_path = Path(meta_path), Path(obs_path)
    stations: list[Station] = []
    for lineno, row in _csv_rows(meta_path, _STATION_META_COLUMNS):
        try:
            stations.append(Station(station_id=row[0].strip(),
                                    lat=float(row[1]),
                                    lon=float(row[2]) % 360.0,
                                    elevation_m=float(row[3])))
        except (TypeError, ValueError, AttributeError) as exc:
            raise InvalidHeader(f"{meta_path}:{lineno}: bad row: {exc}") from exc
    index = {s.station_id: si for si, s in enumerate(stations)}
    if len(index) != len(stations):
        raise InvalidHeader(f"{meta_path}: duplicate station ids")

    # Each distinct timestamp and variable string is parsed once per read.
    parsed_times: dict[str, tuple[datetime, int]] = {}
    # variable -> (its key, station indexes, times in µs, values); every
    # spelling of a variable in the file maps to its one entry
    columns: dict[VariableId, tuple[str, list, list, list]] = {}
    spellings: dict[str, tuple[str, list, list, list]] = {}
    seen: set[tuple[int, int, str]] = set()
    for lineno, row in _csv_rows(obs_path, _STATION_OBS_COLUMNS):
        try:
            sid = row[0].strip()
            parsed = parsed_times.get(row[1])
            if parsed is None:
                when = parse_time(row[1])
                parsed = parsed_times[row[1]] = (when, epoch_microseconds(when))
            column = spellings.get(row[2])
            if column is None:
                variable = VariableId.from_key(row[2].strip())
                column = spellings[row[2]] = columns.setdefault(
                    variable, (variable.key, [], [], []))
            value = float(row[3])
        except (TypeError, ValueError, AttributeError) as exc:
            raise InvalidHeader(f"{obs_path}:{lineno}: bad row: {exc}") from exc
        if not math.isfinite(value):
            raise NonFiniteValue(f"{obs_path}:{lineno}: non-finite value "
                                 f"{row[3].strip()!r}")
        si = index.get(sid)
        if si is None:
            raise UnknownStation(f"{obs_path}:{lineno}: station {sid!r} "
                                 f"not in {meta_path.name}")
        var_key, sites, times_us, values = column
        key = (si, parsed[1], var_key)
        if key in seen:
            raise DuplicateObservation(
                f"{obs_path}:{lineno}: duplicate observation "
                f"({sid}, {format_time(parsed[0])}, {var_key})")
        seen.add(key)
        sites.append(si)
        times_us.append(parsed[1])
        values.append(value)

    if times is None:
        if not parsed_times:
            times = []
        else:
            stamps = [when for when, _ in parsed_times.values()]
            times = six_hour_times(min(stamps) - timedelta(minutes=15),
                                   max(stamps) + timedelta(minutes=15))
    times = list(times)
    try:
        return table_from_columns(
            stations,
            {variable: column[1:] for variable, column in columns.items()},
            times)
    except WindowOverflow as exc:
        raise NonFiniteValue(
            f"{obs_path}: the mean of the records of station "
            f"{stations[exc.station_index].station_id} within 15 min of "
            f"{format_time(times[exc.time_index])} is beyond the float "
            f"range") from exc


def _csv_rows(path: Path, columns: list[str]):
    """(line number, row) of every data row of a CSV whose header, with
    spaces stripped, is ``columns``. Rows are read by position and padded
    with None to the header's width; data rows count from line 2, and
    blank rows are skipped and not counted."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [c.strip() for c in header] != columns:
                raise InvalidHeader(
                    f"{path}: expected columns {','.join(columns)}")
            lineno = 1
            for row in reader:
                if not row:
                    continue
                lineno += 1
                if len(row) < len(columns):
                    row += [None] * (len(columns) - len(row))
                yield lineno, row
    except OSError as exc:
        raise InvalidHeader(f"cannot read {path}: {exc}") from exc


# --- run manifest ------------------------------------------------------------

@dataclass(frozen=True)
class RunManifest:
    """Evaluation run description: inputs, models, leads, and regions.

    Patterns are formatted with ``variable`` (key string), ``time``
    (the valid time, compact UTC %Y%m%d%H), ``year`` (of the valid
    time), and for model patterns ``init`` (compact UTC) and ``lead``
    (int hours), then resolved against the manifest directory. A
    pattern may leave a key out: ``truth/{variable}/{year}.rbs`` names
    one RBSTACK1 store per truth year, ``{time}`` one RBGRID1 file per
    field.
    """

    path: Path
    variables: tuple[VariableId, ...]
    init_times: tuple[datetime, ...]
    max_lead_hours: int
    truth_pattern: str
    models: Mapping[str, str]
    climatology_pattern: str | None
    thresholds_path: str | None
    history_years: tuple[int, ...]
    history_pattern: str | None
    regions: Mapping[str, tuple[float, float, float, float] | None]
    sha256: str

    @property
    def root(self) -> Path:
        return self.path.parent

    @property
    def thresholds_file(self) -> Path | None:
        """The resolved thresholds path, or None when none is declared."""
        if self.thresholds_path is None:
            return None
        return self.root / self.thresholds_path

    @property
    def lead_hours(self) -> tuple[int, ...]:
        return tuple(range(0, self.max_lead_hours + 1, 6))

    def _fmt(self, pattern: str, **kwargs) -> Path:
        try:
            rel = pattern.format(**kwargs)
        except (KeyError, IndexError, ValueError) as exc:
            raise ManifestError(f"bad pattern {pattern!r}: {exc}") from exc
        return self.root / rel

    def truth_path(self, variable: VariableId, when: datetime) -> Path:
        return self._fmt(self.truth_pattern, variable=variable.key,
                         **_valid_time_keys(when))

    def model_path(self, model: str, init: datetime, variable: VariableId,
                   lead_hours: int) -> Path:
        return self._fmt(self.models[model], variable=variable.key,
                         init=_compact(init), lead=lead_hours,
                         **_valid_time_keys(init + timedelta(hours=lead_hours)))

    def climatology_path(self, variable: VariableId) -> Path:
        if self.climatology_pattern is None:
            raise ManifestError("manifest declares no climatology")
        return self._fmt(self.climatology_pattern, variable=variable.key)

    def history_path(self, variable: VariableId, when: datetime) -> Path:
        if self.history_pattern is None:
            raise ManifestError("manifest declares no history")
        return self._fmt(self.history_pattern, variable=variable.key,
                         **_valid_time_keys(when))


def _compact(when: datetime) -> str:
    return when.astimezone(timezone.utc).strftime("%Y%m%d%H")


def _valid_time_keys(when: datetime) -> dict:
    return {"time": _compact(when), "year": when.astimezone(timezone.utc).year}


class FieldSource:
    """The one way a run reads the stored arrays its manifest names.

    A command creates one per run. Every read goes through the
    module-level codec with a geometry cache held here, so a
    :class:`GeoGrid` is built and validated once per distinct sidecar
    geometry instead of once per file; fields, thresholds and
    climatologies that share a geometry share one grid object.

    A truth, model or history path may name either layout; the magic of
    its sidecar decides. An RBGRID1 file is the one field it holds. An
    RBSTACK1 store holds a 6-hourly series, and the layer valid at the
    requested time is read with one seek: its sidecar is parsed once per
    run and kept here, and only that layer's CRC-32 is checked. Safe to
    share between threads. Derived WS10 is computed from U10 and V10
    here and nowhere else.
    """

    def __init__(self, manifest: RunManifest):
        self.manifest = manifest
        # geometry key -> (GeoGrid, flip_rows, lon_shift); see _cached_grid
        self._geometries: dict[tuple, tuple[GeoGrid, bool, int]] = {}
        # store path -> its parsed RBSTACK1 sidecar
        self._stacks: dict[Path, _Stack] = {}

    def read(self, path: str | os.PathLike) -> GridField:
        return read_grid(path, self._geometries)

    def _resolve(self, path: Path) -> _Stack | dict:
        """The parsed stack at ``path``, or the sidecar of the RBGRID1
        field there."""
        stack = self._stacks.get(path)
        if stack is not None:
            return stack
        header = _load_sidecar(path, GRID_MAGIC, STACK_MAGIC)
        if header["magic"] == GRID_MAGIC:
            return header
        return self._stacks.setdefault(
            path, _Stack.parse(path, header, self._geometries))

    def _at(self, path: Path, when: datetime, lead_hours: int | None
            ) -> GridField:
        found = self._resolve(path)
        if isinstance(found, _Stack):
            return found.field_at(when, lead_hours)
        return _grid_field(path, found, self._geometries)

    def _field(self, path_of, variable: VariableId, when: datetime,
               lead_hours: int | None) -> GridField:
        if variable.derived:
            return derive_wind_speed(
                self._at(path_of(VariableId.U10), when, lead_hours),
                self._at(path_of(VariableId.V10), when, lead_hours))
        return self._at(path_of(variable), when, lead_hours)

    def truth(self, variable: VariableId, when: datetime) -> GridField:
        return self._field(lambda v: self.manifest.truth_path(v, when),
                           variable, when, None)

    def model(self, name: str, init: datetime, variable: VariableId,
              lead_hours: int) -> GridField:
        return self._field(
            lambda v: self.manifest.model_path(name, init, v, lead_hours),
            variable, init + timedelta(hours=lead_hours), lead_hours)

    def history(self, variable: VariableId, year: int) -> list[GridField]:
        """Every 6-hourly history field of one calendar year; from an
        RBSTACK1 store in one read."""
        times = year_times(year)
        found = self._resolve(self.manifest.history_path(variable, times[0]))
        if isinstance(found, _Stack):
            start = found.index(times[0])
            found.index(times[-1])  # the whole year is in the stack
            return found.fields(start, len(times))
        return [self.read(self.manifest.history_path(variable, when))
                for when in times]

    def climatologies(self) -> dict[VariableId, DailyMeanClimatology]:
        """Daily-mean climatology of each stored variable; empty when the
        manifest declares none."""
        clims: dict[VariableId, DailyMeanClimatology] = {}
        if self.manifest.climatology_pattern is None:
            return clims
        for variable in self.manifest.variables:
            if variable.derived:
                continue
            path = self.manifest.climatology_path(variable)
            if not path.exists():
                raise ManifestError(
                    f"climatology file {path} has not been built; run "
                    f"`wxverify build-climatology --manifest "
                    f"{self.manifest.path}` first")
            clims[variable] = read_daily_climatology(path, self._geometries)
        return clims

    def thresholds(self) -> tuple[ThresholdField, GeoGrid] | None:
        """Stored extreme thresholds and their grid; None when the manifest
        names no thresholds file or it has not been built."""
        path = self.manifest.thresholds_file
        if path is None or not path.exists():
            return None
        return read_thresholds(path, self._geometries)


def manifest_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_manifest(path: str | os.PathLike,
                  require: Sequence[str] = ("truth", "models")) -> RunManifest:
    """Load and validate a manifest JSON document.

    ``require`` names the sections whose referenced files must exist:
    any of "truth", "models", "climatology", "thresholds", "history".
    The first missing file is reported by path.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ManifestError(f"manifest not found: {path}") from None
    except OSError as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ManifestError(f"unparseable manifest {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ManifestError(f"unparseable manifest {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ManifestError(f"{path}: manifest must be a JSON object")

    def need(key, kind):
        if key not in doc:
            raise ManifestError(f"{path}: missing key {key!r}")
        value = doc[key]
        if not isinstance(value, kind):
            raise ManifestError(f"{path}: key {key!r} has wrong type")
        return value

    try:
        variables = tuple(VariableId.from_key(v) for v in need("variables", list))
    except ValueError as exc:
        raise ManifestError(f"{path}: {exc}") from exc
    init_times = tuple(parse_time(t) for t in need("init_times", list))
    max_lead = doc.get("max_lead_hours", 240)  # 40 six-hour steps
    if not isinstance(max_lead, int) or max_lead < 0 or max_lead % 6:
        raise ManifestError(f"{path}: max_lead_hours must be a non-negative "
                            f"multiple of 6")
    truth_pattern = need("truth_pattern", str)
    models_doc = need("models", dict)
    models = {}
    for name, spec in sorted(models_doc.items()):
        if isinstance(spec, str):
            models[name] = spec
        elif isinstance(spec, dict) and isinstance(spec.get("pattern"), str):
            models[name] = spec["pattern"]
        else:
            raise ManifestError(f"{path}: model {name!r} needs a path pattern")

    clim = doc.get("climatology", {})
    if not isinstance(clim, dict):
        raise ManifestError(f"{path}: climatology section must be an object")
    climatology_pattern = clim.get("daily_mean_pattern")
    thresholds_path = clim.get("thresholds_path")
    history_pattern = clim.get("history_pattern")
    history_years = clim.get("history_years", [])
    if not isinstance(history_years, list) or not all(
            isinstance(y, int) and not isinstance(y, bool)
            for y in history_years):
        raise ManifestError(f"{path}: climatology history_years must be a "
                            f"list of integer years")
    history_years = tuple(history_years)

    regions_doc = doc.get("regions", {"global": None})
    regions: dict[str, tuple[float, float, float, float] | None] = {}
    if not isinstance(regions_doc, dict):
        raise ManifestError(f"{path}: regions must be an object")
    for name, box in regions_doc.items():
        if box is None:
            regions[name] = None
        else:
            try:
                lat_min, lat_max, lon_min, lon_max = (float(x) for x in box)
            except (TypeError, ValueError) as exc:
                raise ManifestError(
                    f"{path}: region {name!r} needs [lat_min, lat_max, "
                    f"lon_min, lon_max]") from exc
            regions[name] = (lat_min, lat_max, lon_min, lon_max)
    if not regions:
        regions = {"global": None}

    manifest = RunManifest(
        path=path,
        variables=variables,
        init_times=init_times,
        max_lead_hours=max_lead,
        truth_pattern=truth_pattern,
        models=models,
        climatology_pattern=climatology_pattern,
        thresholds_path=thresholds_path,
        history_years=history_years,
        history_pattern=history_pattern,
        regions=regions,
        sha256=manifest_sha256(path),
    )
    _check_manifest_files(manifest, require)
    return manifest


def _check_manifest_files(manifest: RunManifest, require: Sequence[str]):
    plain = [v for v in manifest.variables if not v.derived]
    if "truth" in require:
        needed = set()
        for init in manifest.init_times:
            for lead in manifest.lead_hours:
                needed.add(init + timedelta(hours=lead))
        for variable in plain:
            for when in sorted(needed):
                p = manifest.truth_path(variable, when)
                if not p.exists():
                    raise ManifestError(f"missing truth file: {p}")
    if "models" in require:
        for model in manifest.models:
            for init in manifest.init_times:
                for variable in plain:
                    for lead in manifest.lead_hours:
                        p = manifest.model_path(model, init, variable, lead)
                        if not p.exists():
                            raise ManifestError(f"missing model file: {p}")
    if "climatology" in require:
        if manifest.climatology_pattern is None:
            raise ManifestError("manifest declares no climatology section")
        for variable in plain:
            p = manifest.climatology_path(variable)
            if not p.exists():
                raise ManifestError(f"missing climatology file: {p}")
    if "thresholds" in require:
        p = manifest.thresholds_file
        if p is None:
            raise ManifestError("manifest declares no thresholds path")
        if not p.exists():
            raise ManifestError(f"missing thresholds file: {p}")
    if "history" in require:
        if manifest.history_pattern is None or not manifest.history_years:
            raise ManifestError("manifest declares no history section")
        # Existence of the full 6-hourly history is checked lazily by the
        # consumer; probing every file here would dominate load time.
        first = datetime(manifest.history_years[0], 1, 1, tzinfo=timezone.utc)
        for variable in plain:
            p = manifest.history_path(variable, first)
            if not p.exists():
                raise ManifestError(f"missing history file: {p}")
