"""Bit-exact readers and writers.

Gridded fields, field stacks, extreme thresholds and daily-mean
climatologies are all stored the same way: a flat little-endian
``(layers, n_lat, n_lon)`` payload plus a JSON sidecar (`<path>.json`)
carrying the magic, dtype, geometry and CRC-32s of the payload, written
and read by one codec. A stack (RBSTACK1) holds a 6-hourly series of one
variable with one CRC-32 per layer, so a span of layers is read with one
seek and checked alone. A field file (RBGRID1) reads as a stack of one
layer, whose one CRC-32 covers the whole payload; so both layouts are
read, and checked against the valid time and lead asked for, by the same
code. Uniform grids only; orientation is normalized to north-to-south
rows and [0, 360) eastward columns on read. Threshold and climatology payloads
carry a 365-deep day axis (climatology payloads are float64 so that
through-disk evaluation stays bit-identical to in-memory evaluation),
with one CRC-32 per day layer, so a run reads only its days. Thresholds
are written a chunk of locations at a time as they are built
(:func:`write_thresholds`).

A :class:`RunManifest` formats each distinct path its patterns name
once, and keeps it: its load check, every read of a :class:`FieldSource`
and ``synth`` share that one cache. Commands read stored arrays through
one run-scoped :class:`FieldSource`, which resolves manifest paths to
stores, parses each store's sidecar once, checks at every read that the
store holds the variable it is read for and is on the grid it is paired
with, and reads blocks of layers (:class:`~wxverify.grid.FieldBlock`)
with one read per stack. A block of a scoring command holds at most one
chunk, :data:`wxverify.metrics.CHUNK_BYTES` counted at 8 bytes a point
(:meth:`FieldSource.block_layers`), and so do the climatology days read
next to it. Every store, whatever reads it, builds and validates its
grid through one memo (:func:`_oriented_grid`), so a grid is built once
per distinct sidecar geometry, not once per file. A block holds the
float32 values as stored; the kernels that compute in float64 widen the
block or layer they work on. A history is read in blocks of whole
calendar days of one year, each at most one chunk of the stored layers
(one day at least), and the daily extremes a build reduces it to are
spilled to a scratch file (:class:`SpilledHistory`).

Writers stream to a temp file and rename it into place
(:func:`wxverify.report.publishing`), so a file is either complete or
absent. Serialization is canonical: rewriting what was just read
produces byte-identical files. Readers are total over the typed error
hierarchy in :mod:`wxverify.errors` - fuzzed input yields a typed error,
never a raw parser traceback.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import os
import re
import string
import tempfile
import warnings
import zlib
from dataclasses import dataclass
from datetime import MAXYEAR, MINYEAR, datetime, timedelta, timezone
from itertools import groupby
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from . import metrics
from .climatology import (DAYS_PER_YEAR, SYNOPTIC_HOURS, DailyMeanClimatology,
                          ThresholdBuild, ThresholdField, calendar_day_index,
                          day_span, threshold_chunk, year_times)
from .errors import (ChecksumMismatch, DuplicateObservation, GridMismatch,
                     HeaderPayloadShapeMismatch, InvalidHeader, ManifestError,
                     NonFiniteValue, NonMonotoneTime, NonUniformGrid,
                     UnitOutOfRange, UnknownStation, WxVerifyError)
from .grid import (SIX_HOURS, FieldBlock, GeoGrid, VariableId, all_finite,
                   derive_wind_speed)
from .report import canonical_json, publish, publishing, text_lines

if TYPE_CHECKING:
    from .cyclones import StormTrack
    from .extremes import EventKind
    from .stations import Station, StationTable

GRID_MAGIC = "RBGRID1"
STACK_MAGIC = "RBSTACK1"
THRESH_MAGIC = "RBTHRESH1"
CLIM_MAGIC = "RBCLIM1"

_TIME_FORMAT = "%Y-%m-%dT%H:%M:%SZ"


def format_time(when: datetime) -> str:
    return when.astimezone(timezone.utc).strftime(_TIME_FORMAT)


def parse_time(text: str) -> datetime:
    """Parse an ISO-8601 timestamp to UTC: 'Z', an explicit offset, or
    none, which means UTC."""
    if not isinstance(text, str):
        raise InvalidHeader(f"bad timestamp {text!r}: not a string")
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


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.name + ".json")


def _load_sidecar(path: Path, *magics: str) -> tuple[dict, bytes]:
    """The parsed sidecar of ``path``, whose magic is one of ``magics``,
    and the bytes it was parsed from."""
    sidecar = _sidecar_path(path)
    try:
        raw = sidecar.read_bytes()
        header = json.loads(raw.decode("utf-8"))
    except FileNotFoundError:
        raise InvalidHeader(f"sidecar missing: {sidecar}") from None
    except OSError as exc:
        raise InvalidHeader(f"cannot read sidecar {sidecar}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InvalidHeader(f"unparseable sidecar {sidecar}: {exc}") from exc
    if not isinstance(header, dict) or header.get("magic") not in magics:
        raise InvalidHeader(f"{sidecar}: expected magic {magics[0]!r}")
    return header, raw


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


def _grid_header_geometry(header: dict, path: Path) -> tuple:
    """The sidecar's ``(n_lat, n_lon, lat_start, lat_step, lon_start,
    lon_step)``, its floats as :meth:`float.hex`: the key of
    :func:`_oriented_grid`."""
    n_lat = _header_value(header, "n_lat", int, path)
    n_lon = _header_value(header, "n_lon", int, path)
    lat_start = _header_value(header, "lat_start", float, path)
    lat_step = _header_value(header, "lat_step", float, path)
    lon_start = _header_value(header, "lon_start", float, path)
    lon_step = _header_value(header, "lon_step", float, path)
    if n_lat < 1 or n_lon < 1:
        raise InvalidHeader(f"{path}: non-positive grid shape")
    floats = (lat_start, lat_step, lon_start, lon_step)
    if not all(map(math.isfinite, floats)):
        raise InvalidHeader(f"{path}: non-finite grid geometry")
    return (n_lat, n_lon, *(x.hex() for x in floats))


@functools.lru_cache(maxsize=64)
def _oriented_grid(geometry: tuple) -> tuple[GeoGrid, bool, int]:
    """Engine-convention grid of a sidecar geometry
    (:func:`_grid_header_geometry`), plus how to orient the payload onto
    it: flip the rows, then roll the columns left.

    The memo keys the geometry's floats on their exact bits, as
    :meth:`float.hex` gives them, so ``-0.0`` and ``0.0`` never share an
    entry. A geometry that fails validation raises ValueError and is
    never cached.
    """
    n_lat, n_lon, *floats = geometry
    lat_start, lat_step, lon_start, lon_step = map(float.fromhex, floats)
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
    grid = GeoGrid(lat_start + lat_step * np.arange(n_lat), lons)
    return grid, flip_rows, lon_shift


# --- stored arrays: grids, stacks, thresholds, climatologies -----------------

_DTYPES = {"f32le": np.dtype("<f4"), "f64le": np.dtype("<f8")}


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


def _geometry(grid: GeoGrid) -> dict:
    """The sidecar keys of a uniform ``grid``; any other raises
    :class:`NonUniformGrid`."""
    if not grid.is_uniform():
        raise NonUniformGrid("file format stores uniformly spaced grids only")
    return dict(n_lat=grid.n_lat, n_lon=grid.n_lon,
                lat_start=float(grid.lat_deg[0]),
                lat_step=_stored_step(grid.lat_deg, -1.0),
                lon_start=float(grid.lon_deg[0]),
                lon_step=_stored_step(grid.lon_deg, 1.0))


def _write_store(path: Path, magic: str, grid: GeoGrid, chunks, dtype: str,
                 extra: dict) -> Path:
    """Stream ``chunks`` over ``grid`` to a payload, then publish a
    sidecar.

    ``chunks`` is any iterable of ``(k, n_lat, n_lon)`` arrays, each
    written with one ``write``, so a generator of chunks is never held in
    memory whole. The sidecar holds ``extra`` (read after the last chunk),
    the magic, dtype, uniform geometry and one CRC-32 per layer
    (``checksums``, with ``n_layers``); an RBGRID1 sidecar holds its one
    layer's as ``checksum``.
    """
    geometry = _geometry(grid)
    layer_bytes = _DTYPES[dtype].itemsize * grid.n_lat * grid.n_lon
    checksums = []
    with publishing(path) as tmp, open(tmp, "wb") as fh:
        for chunk in chunks:
            blob = memoryview(np.ascontiguousarray(
                chunk, dtype=_DTYPES[dtype])).cast("B")
            fh.write(blob)
            checksums.extend(zlib.crc32(blob[at:at + layer_bytes])
                             for at in range(0, len(blob), layer_bytes))
            del chunk, blob  # released before the next chunk is made
    crcs = dict(checksum=checksums[0]) if magic == GRID_MAGIC \
        else dict(n_layers=len(checksums), checksums=checksums)
    publish(_sidecar_path(path), canonical_json(
        dict(extra, magic=magic, dtype=dtype, **geometry, **crcs)))
    return path


@dataclass(frozen=True)
class _Store:
    """A store's checked sidecar: the layout of its payload."""

    path: Path
    dtype: np.dtype
    n_layers: int
    #: the sidecar's geometry (see :func:`_grid_header_geometry`)
    geometry: tuple
    #: one CRC-32 per layer
    checksums: tuple[int, ...]

    def oriented(self) -> tuple[GeoGrid, bool, int]:
        """:func:`_oriented_grid` of the geometry, errors naming the store."""
        try:
            return _oriented_grid(self.geometry)
        except ValueError as exc:
            raise InvalidHeader(f"{self.path}: {exc}") from exc

    def read(self, start: int, count: int) -> tuple[GeoGrid, np.ndarray]:
        """The engine-convention grid, and layers ``start .. start +
        count`` in the stored dtype, ``(count, n_lat, n_lon)`` oriented as
        the grid is: rows flipped, then columns rolled.

        The payload's length is checked against the sidecar before
        anything is read, and the grid is built (:meth:`oriented`) only
        after that, so a sidecar cannot make the reader allocate more
        than the payload holds. Only the requested layers are read, and
        the CRC-32 of each is checked. Finiteness is the caller's check
        (see :func:`_build` and :meth:`_Stack.block`).
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
        view = memoryview(blob)
        for i, k in enumerate(range(start, start + count)):
            if zlib.crc32(view[i * layer_bytes:(i + 1) * layer_bytes]) \
                    != self.checksums[k]:
                where = f" in layer {k}" if self.n_layers > 1 else ""
                raise ChecksumMismatch(f"{path}: CRC-32 mismatch{where}")
        grid, flip_rows, lon_shift = self.oriented()
        layers = np.frombuffer(blob, dtype=self.dtype) \
            .reshape(count, n_lat, n_lon)
        if flip_rows:
            layers = layers[:, ::-1]
        if lon_shift:
            layers = np.roll(layers, -lon_shift, axis=2)
        return grid, layers


def _parse_store(path: Path, header: dict, dtype: str, n_layers: int | None
                 ) -> _Store:
    """Check a loaded sidecar's dtype, geometry and checksums.

    ``n_layers`` is the layer count the magic implies; None for a stack,
    whose sidecar gives ``n_layers``. A sidecar carries ``n_layers`` and
    one CRC-32 per layer (``checksums``); an RBGRID1 field's may carry
    its one layer's as ``checksum`` instead. A climatology or threshold
    sidecar with one ``checksum`` over its whole payload is a layout no
    longer read: ``build-climatology`` rewrites it.
    """
    if header.get("dtype") != dtype:
        raise InvalidHeader(f"{path}: unsupported dtype {header.get('dtype')!r}")
    geometry = _grid_header_geometry(header, path)
    if n_layers == 1 and "checksums" not in header:  # an RBGRID1 field
        checksums = [_header_value(header, "checksum", int, path)]
    elif n_layers and "checksum" in header and "checksums" not in header:
        raise InvalidHeader(
            f"{path}: one checksum over the whole payload is no longer "
            f"read; rerun build-climatology to rewrite it")
    else:
        stored = _header_value(header, "n_layers", int, path)
        checksums = header.get("checksums")
        if stored < 1 or n_layers not in (None, stored) \
                or not isinstance(checksums, list) \
                or len(checksums) != stored \
                or not all(type(c) is int for c in checksums):
            raise InvalidHeader(
                f"{path}: per-layer checksums need n_layers = "
                f"{'>= 1' if n_layers is None else n_layers} and one "
                f"integer CRC-32 per layer")
        n_layers = stored
    return _Store(path, _DTYPES[dtype], n_layers, geometry, tuple(checksums))


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


def write_grid(block: FieldBlock, path: str | os.PathLike) -> Path:
    """Write a block of one layer as an RBGRID1 f32le payload + JSON
    sidecar; returns the path. A block of any other layer count raises
    :class:`WxVerifyError` naming ``path``, and writes nothing.

    Derived variables (WS10) are never stored.
    """
    path = Path(path)
    if len(block.valid_times) != 1:
        raise WxVerifyError(f"{path}: a field file holds one layer, not "
                            f"{len(block.valid_times)}")
    _check_storable(block)
    return _write_store(path, GRID_MAGIC, block.grid, [block.values],
                        "f32le", {
                            "variable": block.variable.key,
                            "unit": block.variable.unit,
                            "valid_time": format_time(block.valid_times[0]),
                            "lead_hours": block.lead_hours[0],
                        })


def _check_storable(block: FieldBlock):
    if block.variable.derived:
        raise WxVerifyError(
            f"{block.variable.key} is derived; compute it, do not store it")


def write_stack(chunks: Iterable[FieldBlock], path: str | os.PathLike
                ) -> Path:
    """Write a 6-hourly series of one variable as one RBSTACK1 store.

    ``chunks`` yields the series in order, as blocks of consecutive
    layers (:class:`FieldBlock`). Layer k is valid ``6 k`` hours after
    the first and has lead ``lead_0 + k * lead_step``, where
    ``lead_step`` is the lead difference of the first two layers: 0 for
    truth, 6 for a forecast. Every layer shares the first layer's grid
    and variable; a layer that does not continue the series raises
    :class:`WxVerifyError` naming it and leaves no file behind.
    ``chunks`` is streamed with one write per chunk, so a generator of a
    year of chunks is never held in memory whole. Derived variables
    (WS10) are never stored.
    """
    path = Path(path)
    chunks = iter(chunks)
    first = next(chunks, None)
    if first is None:
        raise WxVerifyError(f"{path}: a stack needs at least one field")
    _check_storable(first)
    grid, variable = first.grid, first.variable
    first_time = first.valid_times[0]
    first_lead = first.lead_hours[0]
    extra = {"variable": variable.key, "unit": variable.unit,
             "valid_time": format_time(first_time),
             "time_step_hours": SIX_HOURS // timedelta(hours=1),
             "lead_hours": first_lead, "lead_step_hours": 0}

    def layers(chunk):
        k = 0
        while chunk is not None:
            values = chunk.values
            same = chunk.grid == grid and chunk.variable is variable
            for when, lead in zip(chunk.valid_times, chunk.lead_hours):
                if k == 1:
                    extra["lead_step_hours"] = lead - first_lead
                if k and (not same or when != first_time + k * SIX_HOURS
                          or lead != first_lead
                          + k * extra["lead_step_hours"]):
                    raise WxVerifyError(
                        f"{path}: {chunk.variable.key} field at "
                        f"{format_time(when)} (lead {lead} h) does not "
                        f"continue the stack as layer {k}")
                k += 1
            yield values
            del values, chunk  # released before the next chunk is made
            chunk = next(chunks, None)

    stream = layers(first)
    del first  # a chunk is held only until the next one is written
    return _write_store(path, STACK_MAGIC, grid, stream, "f32le", extra)


@dataclass(frozen=True)
class _Stack:
    """A parsed RBSTACK1 or RBGRID1 sidecar: the store, its variable and
    layer times. An RBGRID1 file is a stack of one layer with lead step 0."""

    magics = (GRID_MAGIC, STACK_MAGIC)  # of the sidecars parse takes
    store: _Store
    variable: VariableId
    first_time: datetime
    first_lead: int
    lead_step: int

    @classmethod
    def parse(cls, path: Path, header: dict) -> "_Stack":
        one_field = header["magic"] == GRID_MAGIC
        store = _parse_store(path, header, "f32le", 1 if one_field else None)
        step = SIX_HOURS // timedelta(hours=1)
        if not one_field and \
                _header_value(header, "time_step_hours", int, path) != step:
            raise InvalidHeader(f"{path}: unsupported time_step_hours "
                                f"{header['time_step_hours']!r}")
        first_time = parse_time(_header_value(header, "valid_time", str, path))
        try:
            first_time + (store.n_layers - 1) * SIX_HOURS
        except OverflowError as exc:
            raise InvalidHeader(f"{path}: layer times run past year 9999") \
                from exc
        first_lead = _header_value(header, "lead_hours", int, path)
        lead_step = 0 if one_field \
            else _header_value(header, "lead_step_hours", int, path)
        last_lead = first_lead + (store.n_layers - 1) * lead_step
        if first_lead % 6 or lead_step % 6 or min(first_lead, last_lead) < 0:
            raise InvalidHeader(f"{path}: layer leads must be non-negative "
                                f"multiples of 6 h")
        return cls(store, _header_variable(header, path), first_time,
                   first_lead, lead_step)

    def index(self, when: datetime) -> int:
        """The layer valid at ``when``; a time the stack does not hold
        raises :class:`ManifestError` naming the store and the time."""
        k, rest = divmod(when - self.first_time, SIX_HOURS)
        if rest or not 0 <= k < self.store.n_layers:
            raise ManifestError(
                f"{self.store.path} holds no layer valid at "
                f"{format_time(when)}: its {self.store.n_layers} layers "
                f"start at {format_time(self.first_time)}, every 6 h")
        return k

    def block(self, times: Sequence[datetime], leads: Sequence[int | None]
              ) -> FieldBlock:
        """The layers valid at ascending ``times``, from one read of the
        span they cover, as the float32 values stored; where ``leads``
        gives a lead, the layer must carry it. A 6-hourly run of times
        the stack holds is placed by the divmod of its first time."""
        path = self.store.path
        first = self.index(times[0])
        ks = range(first, first + len(times))
        valid_times = tuple(self.first_time + k * SIX_HOURS for k in ks)
        if ks[-1] >= self.store.n_layers or valid_times != tuple(times):
            # any other times: one divmod each, which names the first time
            # the stack does not hold
            ks = [self.index(when) for when in times]
            valid_times = tuple(self.first_time + k * SIX_HOURS for k in ks)
        layer_leads = tuple(self.first_lead + k * self.lead_step for k in ks)
        for when, lead, want in zip(times, layer_leads, leads):
            if want is not None and lead != want:
                raise ManifestError(
                    f"{path}: the layer valid at {format_time(when)} has "
                    f"lead {lead} h, not {want} h")
        lo, hi = min(ks), max(ks)
        grid, layers = self.store.read(lo, hi - lo + 1)
        if list(ks) != list(range(lo, hi + 1)):
            layers = layers[[k - lo for k in ks]]
        # no copy unless the payload was reoriented or layers were picked
        values = np.ascontiguousarray(layers)
        if not all_finite(values):
            raise NonFiniteValue(f"{path}: payload contains NaN/Inf")
        return FieldBlock(grid, self.variable, valid_times, layer_leads,
                          values)


#: Bytes of each write of a threshold payload: the columns of one day
#: layer that a group of locations holds (see :func:`write_thresholds`).
#: The group holds 730 such rows, so this trades the writer's memory
#: (2.9 MiB at a page a row) against the count of writes (one a row).
THRESHOLD_WRITE_BYTES = 4096


def write_thresholds(thresholds: ThresholdBuild, grid: GeoGrid,
                     path: str | os.PathLike) -> Path:
    """Persist heat/cold thresholds with a 365-deep day axis (f32le): the
    heat thresholds of each calendar day, then the cold ones, with one
    CRC-32 per day layer, so that a run reads only its days.

    ``thresholds`` is a :class:`ThresholdBuild`, whose chunks of
    locations are computed as they are written (or any object with its
    ``chunks()`` and header fields). The float32 thresholds of the chunks
    fill a group of :data:`THRESHOLD_WRITE_BYTES` worth of locations;
    each full group goes to its columns of every layer of a preallocated
    temporary payload, one ``os.pwrite`` a layer, so a write holds one
    group and never a whole layer of the year. The CRC-32 of each layer
    runs over its groups in location order. The payload is renamed into
    place once complete; a build that fails leaves no file behind.
    """
    path = Path(path)
    n_loc = grid.n_lat * grid.n_lon
    if thresholds.n_locations != n_loc:
        raise ValueError("threshold location axis does not match grid size")
    geometry = _geometry(grid)
    dtype = _DTYPES["f32le"]
    width = min(n_loc, max(1, THRESHOLD_WRITE_BYTES // dtype.itemsize))
    group = np.empty((2, DAYS_PER_YEAR, width), dtype)
    layers = group.reshape(2 * DAYS_PER_YEAR, width)
    checksums = [0] * len(layers)

    def write_group(fd: int, first: int, count: int):
        for k, layer in enumerate(layers[:, :count]):
            checksums[k] = zlib.crc32(layer, checksums[k])
            if os.pwrite(fd, layer, (k * n_loc + first) * dtype.itemsize) \
                    != layer.nbytes:
                raise OSError("short write")

    with publishing(path) as tmp, open(tmp, "wb") as fh:
        fd = fh.fileno()
        os.ftruncate(fd, len(layers) * n_loc * dtype.itemsize)
        held = 0  # locations in the group, which starts at done - held
        done = 0
        # chunks follow on from location 0 to the last
        for start, stop, heat, cold in thresholds.chunks():
            while done < stop:
                take = min(stop - done, width - held)
                cols = slice(done - start, done - start + take)
                group[0, :, held:held + take] = heat[:, cols]
                group[1, :, held:held + take] = cold[:, cols]
                held += take
                done += take
                if held == width or done == n_loc:
                    write_group(fd, done - held, held)
                    held = 0
    publish(_sidecar_path(path), canonical_json(dict(
        magic=THRESH_MAGIC, dtype="f32le", **geometry,
        n_layers=len(checksums), checksums=checksums,
        n_days=DAYS_PER_YEAR,
        years=list(thresholds.years),
        half_window=thresholds.half_window,
        q_heat=thresholds.q_heat,
        q_cold=thresholds.q_cold,
        percentile_method="linear")))
    return path


def _read_days(store: _Store, first: int, n_days: int
               ) -> tuple[GeoGrid, list[np.ndarray]]:
    """The grid, and the ``(n_days, n_lat, n_lon)`` layers of the run of
    ``n_days`` calendar days from ``first`` (see
    :func:`~wxverify.climatology.day_span`) of each 365-day axis that
    ``store`` stacks: one read of each axis's run, or two when the run
    crosses Dec 31, each checking the CRC-32 of every day it reads. The
    two parts of a run across Dec 31 are copied into one array of the
    run as each is read, so the read holds the run and one part."""
    head = min(n_days, DAYS_PER_YEAR - first)
    out = []
    for axis in range(0, store.n_layers, DAYS_PER_YEAR):
        grid, layers = store.read(axis + first, head)
        if head < n_days:
            run = np.empty((n_days, *layers.shape[1:]), store.dtype)
            run[:head] = layers
            del layers  # released before the second part is read
            run[head:] = store.read(axis, n_days - head)[1]
            layers = run
        out.append(layers)
    return grid, out


def read_thresholds(path: str | os.PathLike, days: Iterable[int]
                    ) -> tuple[ThresholdField, GeoGrid, str]:
    """Thresholds written by :func:`write_thresholds` of the calendar
    ``days``, their grid, built through the memo :func:`_oriented_grid`,
    and the hex SHA-256 of the sidecar read; the location axis is the
    row-major flattening of that grid.

    Only the shortest run of consecutive calendar days that holds
    ``days`` is read (see :func:`_read_days`), and finiteness and heat >=
    cold are checked on the days read. The sidecar holds the build's
    parameters and the CRC-32 of every day layer, and every day read is
    checked against its CRC-32, so its digest vouches for the thresholds
    that are read without reading the whole payload.
    """
    path = Path(path)
    header, raw = _load_sidecar(path, THRESH_MAGIC)
    store = _parse_store(path, header, "f32le", _day_layers(header, path, 2))
    first, n_days = day_span(days)
    grid, (heat, cold) = _read_days(store, first, n_days)
    n_loc = grid.n_lat * grid.n_lon
    thresholds = _build(path, ThresholdField, heat.reshape(n_days, n_loc),
                        cold.reshape(n_days, n_loc),
                        tuple(_header_value(header, "years", list, path)),
                        _header_value(header, "half_window", int, path),
                        _header_value(header, "q_heat", float, path),
                        _header_value(header, "q_cold", float, path), first)
    return thresholds, grid, sha256(raw).hexdigest()


def write_daily_climatology(parts: Iterable[DailyMeanClimatology],
                            path: str | os.PathLike) -> Path:
    """Persist a full-year per-calendar-day mean climatology (f64le,
    lossless) with one CRC-32 per day, so that a run reads and checks
    only the days it needs.

    ``parts`` are consecutive runs of days from day 0 that together hold
    all 365, on one grid, of one variable and over the same years (one
    part of all 365 days, or the blocks of a build); each is written as
    it comes, so a generator of parts is never held whole. Parts that do
    not hold the year so raise ValueError and leave no file behind.
    """
    parts = iter(parts)
    first = next(parts, None)
    if first is None or first.first_day:
        raise ValueError("only a climatology of all 365 days is stored")
    grid, variable, years = first.grid, first.variable, first.years

    def day_means(part):
        at = 0
        while part is not None:
            if part.first_day != at or part.grid != grid \
                    or part.variable is not variable or part.years != years:
                raise ValueError(
                    "only a climatology of all 365 days is stored, in runs "
                    "of days that follow on, of one grid, variable and years")
            at += part.day_mean.shape[0]
            yield part.day_mean
            del part  # released before the next part is made
            part = next(parts, None)
        if at != DAYS_PER_YEAR:
            raise ValueError("only a climatology of all 365 days is stored")

    stream = day_means(first)
    del first  # a part is held only until the next one is written
    return _write_store(Path(path), CLIM_MAGIC, grid, stream, "f64le", {
        "variable": variable.key,
        "unit": variable.unit,
        "n_days": DAYS_PER_YEAR,
        "years": list(years),
    })


@dataclass(frozen=True)
class _Climatology:
    """A parsed RBCLIM1 sidecar: the store, its variable and years."""

    magics = (CLIM_MAGIC,)  # of the sidecars parse takes
    store: _Store
    variable: VariableId
    years: tuple

    @classmethod
    def parse(cls, path: Path, header: dict) -> "_Climatology":
        return cls(_parse_store(path, header, "f64le",
                                _day_layers(header, path, 1)),
                   _header_variable(header, path),
                   tuple(_header_value(header, "years", list, path)))

    def days(self, days: Iterable[int]) -> DailyMeanClimatology:
        """The shortest run of consecutive calendar days that holds
        ``days`` (see :func:`~wxverify.climatology.day_span`), on a grid
        built through the memo :func:`_oriented_grid`: one read, or two
        when the run crosses Dec 31 (see :func:`_read_days`)."""
        first, n_days = day_span(days)
        grid, (layers,) = _read_days(self.store, first, n_days)
        return _build(self.store.path, DailyMeanClimatology, grid,
                      self.variable, layers, self.years, first)


def read_daily_climatology(path: str | os.PathLike,
                           times: Iterable[datetime]) -> DailyMeanClimatology:
    """A climatology written by :func:`write_daily_climatology`, of the
    shortest run of consecutive calendar days that holds the day of each
    of ``times``, each day read checked against its CRC-32 (see
    :meth:`_Climatology.days`)."""
    path = Path(path)
    return _Climatology.parse(path, _load_sidecar(path, CLIM_MAGIC)[0]).days(
        calendar_day_index(when) for when in times)


# --- CSV interfaces ----------------------------------------------------------

_BESTTRACK_COLUMNS = ["storm_id", "iso_time", "lat", "lon", "mslp_hpa", "wind_ms"]


def read_besttrack(path: str | os.PathLike) -> tuple[list[StormTrack], str]:
    """Best-track CSV -> truth tracks, grouped by storm and time-validated,
    and the hex SHA-256 of the bytes parsed, which are read once.

    Rows of one storm must already be in strictly increasing 6-hour
    order; violations raise :class:`NonMonotoneTime`. Implausible MSLP
    raises :class:`UnitOutOfRange` (via :class:`StormFix`). A UTF-8
    byte-order mark before the header is skipped.
    """
    from .cyclones import TRUTH_SOURCE, StormFix, StormTrack
    path = Path(path)
    try:
        raw = path.read_bytes()
        text = raw.decode("utf-8-sig")
    except OSError as exc:
        raise InvalidHeader(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidHeader(f"{path}: not UTF-8 text: {exc.reason} "
                            f"(byte 0x{exc.object[exc.start]:02x})") from exc
    by_storm: dict[str, list[StormFix]] = {}
    reader = csv.DictReader(io.StringIO(text, newline=""))
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
        fixes = by_storm.setdefault(storm_id, [])
        if fixes and fix.time != fixes[-1].time + SIX_HOURS:
            raise NonMonotoneTime(
                f"{path}:{lineno}: storm {storm_id} fix at "
                f"{format_time(fix.time)} breaks the strictly "
                f"increasing 6-hour cadence")
        fixes.append(fix)
    tracks = [StormTrack(storm_id, TRUTH_SOURCE, fixes[0].time, tuple(fixes),
                         tuple([True] * len(fixes)))
              for storm_id, fixes in by_storm.items()]
    return tracks, sha256(raw).hexdigest()


def write_tracks_csv(tracks: Sequence[StormTrack], path: str | os.PathLike) -> Path:
    """Track output CSV: best-track schema plus source and tracked flags."""
    lines = ["storm_id,iso_time,lat,lon,mslp_hpa,wind_ms,source,init_time,"
             "lead_hours,tracked"]
    for track in tracks:
        tail = f"{track.source},{format_time(track.init_time)}"
        for k, flag in enumerate(track.tracked_mask):
            fix = track.fix_at_lead(k)
            when = track.init_time + k * SIX_HOURS
            if fix is None:
                lines.append(f"{track.storm_id},{format_time(when)},,,,,"
                             f"{tail},{6 * k},0")
            else:
                lines.append(
                    f"{track.storm_id},{format_time(fix.time)},{fix.lat!r},"
                    f"{fix.lon!r},{fix.min_mslp_pa / 100.0!r},{fix.max_wind_ms!r},"
                    f"{tail},{6 * k},1")
    return publish(path, text_lines(lines))


def write_segments_csv(
        runs: Sequence[tuple[EventKind, tuple[np.ndarray, np.ndarray,
                                              np.ndarray]]],
        path: str | os.PathLike) -> Path:
    """One ``location,kind,start_day,end_day`` line per run of each
    ``(kind, (location, start_day, end_day))`` entry, in the given order."""
    lines = ["location,kind,start_day,end_day"]
    for kind, (location, start, end) in runs:
        lines.extend(f"{loc},{kind.value},{first},{last}" for loc, first, last
                     in zip(location.tolist(), start.tolist(), end.tolist()))
    return publish(path, text_lines(lines))


_STATION_META_COLUMNS = ["id", "lat", "lon", "elev_m"]
_STATION_OBS_COLUMNS = ["station_id", "iso_time", "variable", "value_si"]
#: Starting width in bytes of each text column of the station CSVs; a
#: column with a field that fills its width is read again at twice it,
#: up to :data:`_MAX_TEXT_WIDTH`.
_TEXT_WIDTHS = {"id": 16, "station_id": 16, "iso_time": 32, "variable": 8}
#: Every row takes its column's width, so one long field would cost that
#: much memory in every row: a text field may hold one byte less than this.
_MAX_TEXT_WIDTH = 128
# How np.loadtxt reports a row (counted from 1 without blank lines) whose
# field count is not the dtype's (numpy >= 1.23).
_FIELD_COUNT = re.compile(r"requires \d+ columns but (\d+) were found "
                          r"at row (\d+)")
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


def read_station_csvs(meta_path: str | os.PathLike, obs_path: str | os.PathLike,
                      times: Sequence[datetime]) -> StationTable:
    """Station metadata + raw observation CSVs -> 6-hourly station table
    at ``times`` (the run's valid times, on 00/06/12/18 UTC).

    Both files are read by numpy's C parser into columns, which are
    checked and mapped as whole arrays. Raw records are window-averaged
    onto ``times``. The first faulty data row of a file raises its typed
    error, naming the path and line: a field count other than the
    header's, a bad time, variable or value (:class:`InvalidHeader`), a
    non-finite value or station coordinate (:class:`NonFiniteValue`), an
    unlisted station (:class:`UnknownStation`), or a repeated (station,
    time, variable) (:class:`DuplicateObservation`).
    """
    from .stations import WindowOverflow, table_from_columns
    meta_path, obs_path = Path(meta_path), Path(obs_path)
    stations = _read_station_meta(meta_path)
    columns = _read_station_obs(obs_path, meta_path.name, stations)
    times = list(times)
    try:
        return table_from_columns(stations, columns, times)
    except WindowOverflow as exc:
        raise NonFiniteValue(
            f"{obs_path}: the mean of the records of station "
            f"{stations[exc.station_index].station_id} within 15 min of "
            f"{format_time(times[exc.time_index])} is beyond the float "
            f"range") from exc


def _read_station_obs(path: Path, meta_name: str, stations: Sequence[Station]
                      ) -> dict:
    """The records of an observation CSV as variable -> (station index,
    epoch microseconds, value), each in file order."""
    rows, cut = _csv_columns(path, _STATION_OBS_COLUMNS)
    n_rows = len(rows["station_id"])
    raw_ids, raw_times = rows["station_id"], rows["iso_time"]
    station = _station_index(raw_ids, stations)
    when_us, bad_time = _epoch_times(raw_times)
    variables, var_code = _variable_codes(rows["variable"])
    value, bad_value = _floats(rows["value_si"])
    # the checks of one row, in the order its first failure is reported
    checks = [bad_time, var_code < 0, bad_value,
              ~(np.isfinite(value) | bad_value), station < 0,
              _repeats(var_code, station, when_us)]
    firsts = [int(np.argmax(check)) if check.any() else n_rows
              for check in checks]
    k = min(firsts)
    if k < n_rows:
        lineno = k + 2
        kind = firsts.index(k)
        if kind == 0:
            try:
                parse_time(_text(raw_times[k]))
            except InvalidHeader as exc:
                raise InvalidHeader(f"{path}:{lineno}: {exc}") from exc
        if kind in (1, 2):
            try:
                if kind == 1:
                    VariableId.from_key(_text(rows["variable"][k]).strip())
                float(_text(rows["value_si"][k]))
            except ValueError as exc:
                raise InvalidHeader(
                    f"{path}:{lineno}: bad row: {exc}") from exc
        if kind == 3:
            # the value as spelt: read the column again, as Python text
            text = _loadtxt(path, _STATION_OBS_COLUMNS, np.dtype(object),
                            k + 1, usecols=3)[k]
            raise NonFiniteValue(f"{path}:{lineno}: non-finite value "
                                 f"{_text(text).strip()!r}")
        sid = _text(raw_ids[k]).strip()
        if kind == 4:
            raise UnknownStation(f"{path}:{lineno}: station {sid!r} "
                                 f"not in {meta_name}")
        when = _EPOCH + timedelta(microseconds=int(when_us[k]))
        raise DuplicateObservation(
            f"{path}:{lineno}: duplicate observation "
            f"({sid}, {format_time(when)}, {variables[var_code[k]].key})")
    if cut is not None:
        raise cut
    columns = {}
    for code, variable in enumerate(variables):
        mine = var_code == code
        columns[variable] = (station[mine], when_us[mine], value[mine])
    return columns


def _read_station_meta(path: Path) -> list[Station]:
    """The stations of a metadata CSV, in file order; ids must be unique
    once stripped of spaces, coordinates finite and latitudes within
    +-90 degrees."""
    from .stations import Station
    rows, cut = _csv_columns(path, _STATION_META_COLUMNS)
    coords = [_floats(rows[name]) for name in _STATION_META_COLUMNS[1:]]
    (lat, _), (lon, _), (elev, _) = coords
    failed = np.logical_or.reduce([bad for _, bad in coords])
    finite = np.isfinite(lat) & np.isfinite(lon)
    bad = failed | ~finite | (np.abs(lat) > 90.0)
    if bad.any():
        k = int(np.argmax(bad))
        if failed[k]:
            try:
                for name in _STATION_META_COLUMNS[1:]:
                    float(_text(rows[name][k]))
            except ValueError as exc:
                raise InvalidHeader(f"{path}:{k + 2}: bad row: {exc}") from exc
        # the column at fault: lat, unless lon alone is non-finite
        place = 2 if math.isfinite(lat[k]) and not finite[k] else 1
        # the coordinate as spelt: read the column again, as Python text
        text = _text(_loadtxt(path, _STATION_META_COLUMNS, np.dtype(object),
                              k + 1, usecols=place)[k]).strip()
        if not finite[k]:
            raise NonFiniteValue(f"{path}:{k + 2}: non-finite "
                                 f"{_STATION_META_COLUMNS[place]} {text!r}")
        raise UnitOutOfRange(f"{path}:{k + 2}: lat {text!r} is outside "
                             f"[-90, 90] degrees")
    if cut is not None:
        raise cut
    stations = [Station(_text(raw).strip(), la, lo % 360.0, el)
                for raw, la, lo, el in zip(rows["id"].tolist(), lat.tolist(),
                                           lon.tolist(), elev.tolist())]
    if len({s.station_id for s in stations}) != len(stations):
        raise InvalidHeader(f"{path}: duplicate station ids")
    return stations


def _csv_columns(path: Path, columns: list[str]
                 ) -> tuple[dict[str, np.ndarray], InvalidHeader | None]:
    """The data rows of a CSV whose header, with spaces stripped, is
    ``columns``, read by ``np.loadtxt`` into one array per column.

    Fields are split as :mod:`csv` splits them: a quoted field may hold
    commas, doubled quotes and line breaks (each read as ``\n``); blank
    lines are skipped and not counted; the header is the first line.
    The columns of :data:`_TEXT_WIDTHS` hold each field's bytes. The
    others are floats as numpy parses them, or, when numpy cannot parse
    one of them, each field as Python text (see :func:`_floats`). A row
    whose field count is not the header's, or with a text field of
    :data:`_MAX_TEXT_WIDTH` bytes or more, ends the arrays before it; it
    comes back as the error to raise when no earlier row is at fault.
    """
    widths = {name: _TEXT_WIDTHS[name] for name in columns
              if name in _TEXT_WIDTHS}
    # a float numpy cannot parse: read the float columns again on their
    # own as Python text, each field at its own length (S1 keeps their
    # place, so that the field count is still checked)
    floats_as_text = False
    cut, max_rows = None, None
    while True:
        dtype = np.dtype([(name, f"S{widths[name]}" if name in widths
                           else "S1" if floats_as_text else np.float64)
                          for name in columns])
        try:
            rows = _loadtxt(path, columns, dtype, max_rows)
        except ValueError as exc:
            match = _FIELD_COUNT.search(str(exc))
            if match is not None:
                found, row = map(int, match.groups())
                cut = InvalidHeader(f"{path}:{row + 1}: expected "
                                    f"{len(columns)} fields, got {found}")
                max_rows = row - 1
            elif not floats_as_text:
                floats_as_text = True
            else:
                raise InvalidHeader(f"{path}: {exc}") from exc
            continue
        # a field as wide as its column may have been cut short
        octets = rows.view(np.uint8).reshape(rows.size, dtype.itemsize)
        full = {name: octets[:, dtype.fields[name][1] + width - 1] != 0
                for name, width in widths.items()}
        full = {name: mask for name, mask in full.items() if mask.any()}
        grow = [name for name in full if widths[name] < _MAX_TEXT_WIDTH]
        if grow:
            for name in grow:
                widths[name] = min(2 * widths[name], _MAX_TEXT_WIDTH)
            continue
        if full:
            k = min(int(np.argmax(mask)) for mask in full.values())
            cut = InvalidHeader(f"{path}:{k + 2}: a field is longer than "
                                f"{_MAX_TEXT_WIDTH - 1} bytes")
            rows = rows[:k]
        found = {name: rows[name] for name in columns}
        if floats_as_text:
            for place, name in enumerate(columns):
                if name not in widths:
                    found[name] = _loadtxt(path, columns, np.dtype(object),
                                           rows.size, usecols=place)
        return found, cut


def _loadtxt(path: Path, columns: list[str], dtype: np.dtype,
             max_rows: int | None, usecols: int | None = None) -> np.ndarray:
    """The data rows of a CSV whose header, with spaces stripped, is
    ``columns`` (at most ``max_rows``; only column ``usecols`` if given).
    A UTF-8 byte-order mark before the header is skipped."""
    try:
        with open(path, encoding="utf-8-sig", errors="surrogateescape",
                  newline="") as fh:
            try:
                header = next(csv.reader([fh.readline()]), None)
            except csv.Error:
                header = None
        if header is None or [c.strip() for c in header] != columns:
            raise InvalidHeader(f"{path}: expected columns {','.join(columns)}")
        if max_rows == 0:
            return np.zeros(0, dtype=dtype)
        with warnings.catch_warnings():
            # no data rows, or blank lines not counted in max_rows
            warnings.simplefilter("ignore", UserWarning)
            # numpy reads a path in chunks (a file object line by line);
            # latin-1 hands it each byte as one character, so a text
            # field comes back as the file's (UTF-8) bytes
            return np.loadtxt(path, dtype=dtype, delimiter=",", quotechar='"',
                              comments=None, skiprows=1, ndmin=1,
                              max_rows=max_rows, usecols=usecols,
                              encoding="latin-1")
    except OSError as exc:
        raise InvalidHeader(f"cannot read {path}: {exc}") from exc


def _text(raw: bytes | str) -> str:
    """A field's bytes (or Python text as ``np.loadtxt`` reads it, one
    character a byte) as the text a UTF-8 reader sees; bytes that are not
    UTF-8 survive as lone surrogates."""
    if isinstance(raw, str):
        raw = raw.encode("latin-1")
    return raw.decode("utf-8", "surrogateescape")


def _runs(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of each run of equal neighbours of a 1-D array."""
    starts = np.flatnonzero(np.concatenate(
        ([True], column[1:] != column[:-1]))) if column.size \
        else np.zeros(0, dtype=np.intp)
    return starts, np.diff(starts, append=column.size)


def _distinct(column: np.ndarray) -> tuple[list, np.ndarray]:
    """The distinct values of a 1-D array, and the index of each element's
    value among them; a run of equal neighbours is compared once."""
    starts, lengths = _runs(column)
    values, inverse = np.unique(column[starts], return_inverse=True)
    return values.tolist(), np.repeat(inverse.ravel(), lengths)


def _floats(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The values of a float column of :func:`_csv_columns` and the mask
    of fields that ``float()`` rejects (NaN there). A column of Python
    text is parsed once per distinct spelling."""
    if column.dtype.kind == "f":
        return column, np.zeros(column.shape, dtype=bool)
    spellings, inverse = _distinct(column)
    parsed = np.full(len(spellings), np.nan)
    bad = np.zeros(len(spellings), dtype=bool)
    for k, raw in enumerate(spellings):
        try:
            parsed[k] = float(_text(raw))
        except ValueError:
            bad[k] = True
    return parsed[inverse], bad[inverse]


def _station_index(raw_ids: np.ndarray, stations: Sequence[Station]
                   ) -> np.ndarray:
    """Index among ``stations`` of each raw id once stripped of spaces;
    -1 for an id not listed."""
    if not stations:
        return np.full(raw_ids.shape, -1, dtype=np.intp)
    keys = np.array([s.station_id.encode("utf-8", "surrogateescape")
                     for s in stations], dtype=np.bytes_)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    raw_ids = np.ascontiguousarray(raw_ids)  # a column of the rows: strided
    pos = np.minimum(np.searchsorted(keys, raw_ids), keys.size - 1)
    hit = keys[pos] == raw_ids
    index = np.where(hit, order[pos], -1)
    # ids with spaces around them, or not listed: one lookup per spelling
    miss = np.flatnonzero(~hit)
    if miss.size:
        listed = {s.station_id: si for si, s in enumerate(stations)}
        spellings, inverse = _distinct(raw_ids[miss])
        index[miss] = np.array([listed.get(_text(raw).strip(), -1)
                                for raw in spellings], dtype=np.intp)[inverse]
    return index


def _epoch_times(raw_times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Epoch microseconds of each time field and the mask of fields that
    :func:`parse_time` rejects (0 there); each distinct spelling is
    parsed once."""
    from .stations import epoch_microseconds
    spellings, inverse = _distinct(raw_times)
    parsed = np.zeros(len(spellings), dtype=np.int64)
    failed = np.zeros(len(spellings), dtype=bool)
    for k, raw in enumerate(spellings):
        try:
            parsed[k] = epoch_microseconds(parse_time(_text(raw)))
        except InvalidHeader:
            failed[k] = True
    return parsed[inverse], failed[inverse]


def _variable_codes(raw_variables: np.ndarray
                    ) -> tuple[list[VariableId], np.ndarray]:
    """The variables of a column and each field's index among them; -1
    for a field that is no variable key once stripped of spaces."""
    spellings, inverse = _distinct(raw_variables)
    variables: list[VariableId] = []
    codes = []
    for raw in spellings:
        try:
            variable = VariableId.from_key(_text(raw).strip())
        except ValueError:
            codes.append(-1)
            continue
        if variable not in variables:
            variables.append(variable)
        codes.append(variables.index(variable))
    return variables, np.array(codes, dtype=np.intp)[inverse]


def _repeats(var_code: np.ndarray, station: np.ndarray,
             when_us: np.ndarray) -> np.ndarray:
    """Mask of the rows whose (variable, station, time) an earlier row
    already has."""
    if not when_us.size:
        return np.zeros(0, dtype=bool)
    _, rank = _distinct(when_us)
    key = ((var_code + 1) * (int(station.max()) + 2) + station + 1) \
        * (int(rank.max()) + 1) + rank
    order = np.argsort(key, kind="stable")
    key = key[order]
    repeat = np.zeros(key.size, dtype=bool)
    repeat[order[1:][key[1:] == key[:-1]]] = True
    return repeat


# --- run manifest ------------------------------------------------------------

#: The keys a manifest pattern may use.
_KEYS = ("variable", "time", "year", "init", "lead")


@functools.lru_cache(maxsize=64)
def _pattern_keys(pattern: str | None) -> tuple[bool, ...]:
    """For each key of :data:`_KEYS`, whether ``pattern`` uses it: the
    keys whose values tell its paths apart. All of them when the pattern
    does not parse or nests a field in a format spec, so that each
    distinct set of values is formatted and a bad pattern still raises
    the manifest's own error."""
    try:
        parsed = list(string.Formatter().parse(pattern))
    except (TypeError, ValueError):
        return (True,) * len(_KEYS)
    if any(spec and "{" in spec for _, _, spec, _ in parsed):
        return (True,) * len(_KEYS)  # a nested field in a format spec
    names = {name.partition(".")[0].partition("[")[0]
             for _, name, _, _ in parsed if name is not None}
    return tuple(key in names for key in _KEYS)


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

    Every path is resolved by :meth:`_paths`, which formats each distinct
    path once per manifest and keeps it here, so the load check, every
    read of a :class:`FieldSource` and ``synth`` share one cache.
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

    @functools.cached_property
    def lead_hours(self) -> tuple[int, ...]:
        return tuple(range(0, self.max_lead_hours + 1, 6))

    @functools.cached_property
    def valid_times(self) -> tuple[datetime, ...]:
        """The sorted, distinct valid times of every init time and lead."""
        return tuple(sorted({init + timedelta(hours=lead)
                             for init in self.init_times
                             for lead in self.lead_hours}))

    @functools.cached_property
    def _formatted(self) -> dict[tuple, Path]:
        """(pattern, values of the keys it uses) -> its path; see
        :meth:`_paths`."""
        return {}

    def _paths(self, key: str, pattern: str | None, variable: VariableId,
               times: Sequence[datetime | None], leads: Sequence[int | None],
               init: datetime | None = None) -> list[Path]:
        """The paths the manifest's ``key``, ``pattern``, names for
        ``variable`` valid at each of ``times``, from ``init`` at each of
        ``leads``: the one resolver of the manifest's patterns. A path is
        formatted once for each distinct value of the keys the pattern
        uses (see :func:`_pattern_keys`) and kept on the manifest."""
        uses_variable, uses_time, uses_year, uses_init, uses_lead = \
            _pattern_keys(pattern)
        formatted = self._formatted
        var = variable if uses_variable else None
        ini = init if uses_init else None
        paths = []
        for when, lead in zip(times, leads):
            at = (pattern, var, ini, when if uses_time else None,
                  when.astimezone(timezone.utc).year
                  if uses_year and when is not None else None,
                  lead if uses_lead else None)
            path = formatted.get(at)
            if path is None:
                values = {"variable": variable.key}
                if when is not None:
                    utc = when.astimezone(timezone.utc)
                    values.update(time=utc.strftime("%Y%m%d%H"),
                                  year=utc.year)
                if init is not None:
                    values["init"] = init.astimezone(timezone.utc).strftime(
                        "%Y%m%d%H")
                if lead is not None:
                    values["lead"] = lead
                path = formatted[at] = self._fmt(key, pattern, values)
            paths.append(path)
        return paths

    def _fmt(self, key: str, pattern: str, values: dict) -> Path:
        try:
            rel = pattern.format_map(values)
        except (KeyError, IndexError, ValueError, AttributeError,
                TypeError) as exc:
            raise ManifestError(f"{self.path}: bad {key} pattern "
                                f"{pattern!r}: {exc}") from exc
        return self.root / rel

    def truth_path(self, variable: VariableId, when: datetime) -> Path:
        return self._paths("truth_pattern", self.truth_pattern, variable,
                           [when], [None])[0]

    def model_path(self, model: str, init: datetime, variable: VariableId,
                   lead_hours: int) -> Path:
        return self._paths(f"models.{model}", self.models[model], variable,
                           [init + timedelta(hours=lead_hours)], [lead_hours],
                           init)[0]

    def climatology_path(self, variable: VariableId) -> Path:
        if self.climatology_pattern is None:
            raise ManifestError(
                f"{self.path}: manifest declares no climatology")
        return self._paths("climatology.daily_mean_pattern",
                           self.climatology_pattern, variable, [None],
                           [None])[0]

    def history_path(self, variable: VariableId, when: datetime) -> Path:
        if self.history_pattern is None:
            raise ManifestError(f"{self.path}: manifest declares no history")
        return self._paths("climatology.history_pattern",
                           self.history_pattern, variable, [when], [None])[0]


def layer_runs(hours: Sequence[int], max_layers: int) -> list[list[int]]:
    """Ascending ``hours`` (lead hours, or hours past a first valid time)
    cut into runs whose 6-hourly span, first to last, holds at most
    ``max_layers`` layers: a run ends before the first value 6 x
    ``max_layers`` hours past its own first. Each run is one block read of
    a stack (see :meth:`FieldSource.block_layers`)."""
    runs: list[list[int]] = []
    for hour in hours:
        if runs and (hour - runs[-1][0]) // 6 < max_layers:
            runs[-1].append(hour)
        else:
            runs.append([hour])
    return runs


class FieldSource:
    """The one way a run reads the stored arrays its manifest names.

    A command creates one per run. Every read goes through the
    module-level codec, whose grids come from one memo
    (:func:`_oriented_grid`), so a :class:`GeoGrid` is built and
    validated once per distinct sidecar geometry instead of once per
    file; fields, thresholds and climatologies that share a geometry
    share one grid object.

    A truth, model or history path may name an RBSTACK1 store or an
    RBGRID1 file, which reads as a stack of one layer. Every store, a
    stack or a climatology, is opened by :meth:`_open`, which parses its
    sidecar once per run and rejects a store of another variable than
    the one read, or on another grid than the ``grid`` a read is paired
    with, whatever the command and role. A block of its layers
    (or days) is read with one seek, checking only the CRC-32s of the
    layers read and that each layer is valid at the time, and carries
    the lead, asked for. Fields are blocks of one layer, and a history
    year is a run of blocks of whole days. A block a command reads holds
    at most one chunk (:meth:`block_layers`, :meth:`history_days`).
    Derived WS10 is computed from U10 and V10 here and nowhere else.
    """

    def __init__(self, manifest: RunManifest):
        self.manifest = manifest
        # store path -> its parsed sidecar, a _Stack or a _Climatology
        self._opened: dict[Path, _Stack | _Climatology] = {}

    def _open(self, path: Path, variable: VariableId,
              grid: GeoGrid | None = None, kind=_Stack):
        """The parsed sidecar of the ``kind`` store (:class:`_Stack` or
        :class:`_Climatology`) at ``path``; :class:`GridMismatch` naming
        it unless it holds ``variable`` and, given ``grid``, is on it. Its
        grid is built only on the shape of ``grid``, one a read has built,
        so a sidecar cannot make the check allocate more than a read."""
        opened = self._opened.get(path)
        if not isinstance(opened, kind):
            opened = self._opened[path] = kind.parse(
                path, _load_sidecar(path, *kind.magics)[0])
        if opened.variable is not variable:
            raise GridMismatch(f"variable mismatch: {path} holds "
                               f"{opened.variable.key}, not {variable.key}")
        if grid is None:
            return opened
        n_lat, n_lon = opened.store.geometry[:2]
        if (n_lat, n_lon) != grid.shape:
            held = f"a {n_lat} x {n_lon} grid"
        elif (held := opened.store.oriented()[0]) == grid:
            return opened
        raise GridMismatch(f"grid mismatch: {path} is on {held}, not {grid}")

    def _block(self, variable: VariableId, times: Sequence[datetime],
               leads: Sequence[int | None], key: str, pattern: str | None,
               grid: GeoGrid | None = None, init: datetime | None = None
               ) -> FieldBlock:
        """The layers of ``variable`` valid at ascending ``times``, each
        from the store the manifest's ``key``, ``pattern``, names for its
        time, ``init`` and lead (see :meth:`RunManifest._paths`), each
        on ``grid``, or else on the first's: one read per stack. A stored
        variable's block holds the float32 values stored; a derived one
        is computed in float64 (:func:`~wxverify.grid.derive_wind_speed`)."""
        if variable.derived:
            u10 = self._block(VariableId.U10, times, leads, key, pattern,
                              grid, init)
            return derive_wind_speed(u10, self._block(
                VariableId.V10, times, leads, key, pattern, u10.grid, init))
        parts, start = [], 0
        for path, run in groupby(self.manifest._paths(key, pattern, variable,
                                                      times, leads, init)):
            stop = start + sum(1 for _ in run)
            parts.append(self._open(path, variable, grid).block(
                times[start:stop], leads[start:stop]))
            grid, start = parts[0].grid, stop
        if len(parts) == 1:
            return parts[0]
        return FieldBlock(grid, variable,
                          tuple(t for part in parts for t in part.valid_times),
                          tuple(h for part in parts for h in part.lead_hours),
                          np.concatenate([part.values for part in parts]))

    def truth_block(self, variable: VariableId, times: Sequence[datetime],
                    grid: GeoGrid | None = None) -> FieldBlock:
        """Truth of ``variable`` at ascending ``times``; a span that
        crosses into the next truth year reads one block of each stack."""
        return self._block(variable, times, [None] * len(times),
                           "truth_pattern", self.manifest.truth_pattern, grid)

    def model_block(self, name: str, init: datetime, variable: VariableId,
                    leads: Sequence[int], grid: GeoGrid | None = None
                    ) -> FieldBlock:
        """Forecast ``name`` from ``init`` at ascending lead hours."""
        return self._block(variable,
                           [init + timedelta(hours=lead) for lead in leads],
                           leads, f"models.{name}", self.manifest.models[name],
                           grid, init)

    def block_layers(self, variable: VariableId) -> int:
        """How many layers of ``variable``, at 8 bytes a point, fit in
        one chunk (:func:`wxverify.metrics.chunk_count`), on the grid of
        its truth at the first init time: the most layers, or climatology
        days, a block of a scoring command holds. 8 bytes a point is the
        widest block a run builds (a derived float64 WS10 block, or the
        float64 climatology days)."""
        if variable.derived:
            variable = VariableId.U10
        truth = self._open(self.manifest.truth_path(
            variable, self.manifest.init_times[0]), variable)
        n_lat, n_lon = truth.store.geometry[:2]
        return metrics.chunk_count(8 * n_lat * n_lon)

    def history_days(self, variable: VariableId) -> int:
        """How many whole days of ``variable``'s stored layers fit in one
        chunk (:func:`wxverify.metrics.chunk_count`), on the grid of its
        first history year: the calendar days of a block of
        :meth:`history`."""
        if variable.derived:
            variable = VariableId.U10
        first = datetime(self.manifest.history_years[0], 1, 1,
                         tzinfo=timezone.utc)
        store = self._open(self.manifest.history_path(variable, first),
                           variable).store
        n_lat, n_lon = store.geometry[:2]
        return metrics.chunk_count(
            len(SYNOPTIC_HOURS) * store.dtype.itemsize * n_lat * n_lon)

    def history(self, variable: VariableId, year: int, days: range,
                grid: GeoGrid | None = None) -> FieldBlock:
        """The history fields of ``variable`` on the calendar days
        ``days`` of ``year``: every 6-hourly time from 00Z of the first
        day, Feb 29 of a leap year with Feb 28 (see
        :func:`~wxverify.climatology.year_times`), so the blocks of
        consecutive runs of days read every layer of the year once. One
        read per stack."""
        times = year_times(year, days)
        return self._block(variable, times, [None] * len(times),
                           "climatology.history_pattern",
                           self.manifest.history_pattern, grid)

    def climatology(self, variable: VariableId, days: Iterable[int],
                    grid: GeoGrid | None = None
                    ) -> DailyMeanClimatology | None:
        """The daily-mean climatology of ``variable`` on the shortest run
        of consecutive calendar days that holds ``days``, read by the day
        (see :meth:`_Climatology.days`); None for a derived variable or
        when the manifest declares no climatology. The store is opened
        as a stack is (:meth:`_open`)."""
        if self.manifest.climatology_pattern is None or variable.derived:
            return None
        return self._open(_built(self.manifest, "climatology",
                                 self.manifest.climatology_path(variable),
                                 "daily_mean_pattern"),
                          variable, grid, _Climatology).days(days)

    def thresholds(self, days: Iterable[int]
                   ) -> tuple[ThresholdField, GeoGrid, str]:
        """The extreme thresholds ``build-climatology`` stored, of the
        calendar ``days``, their grid and the digest of their sidecar (see
        :func:`read_thresholds`); ManifestError when the manifest names no
        thresholds file or it has not been built."""
        return read_thresholds(
            _built(self.manifest, "thresholds", self.manifest.thresholds_file,
                   "thresholds_path"), days)


class SpilledHistory:
    """The daily max and min of a run's history years, spilled to disk as
    a build reduces them (:meth:`write`), and read back by
    :class:`~wxverify.climatology.ThresholdBuild` a chunk of locations
    at a time (:meth:`chunks`).

    The scratch file is a ``tempfile.TemporaryFile`` in ``directory``,
    which has no name to leave behind; it is made at the first write and
    closed when the ``with`` block is left. It holds one chunk of
    locations after another, the last padded to the length of the
    others, and each chunk is laid out ``(n_years, 365, 2, step)``: each
    day's max, then its min. So a chunk is one read, and the file takes
    about ``n_years * 2 * 365 * n_locations`` values of disk. A chunk is
    as many of the default threshold kernel's chunks of locations
    (:func:`~wxverify.climatology.threshold_chunk`) as make each write of
    a block of days to it at least ``io.DEFAULT_BUFFER_SIZE`` bytes: one
    kernel chunk at a time on a coarse grid, more where a block holds few
    days of many locations, so that the writes do not shrink to a few
    hundred bytes each. The kernel cuts its own chunks inside each chunk
    of the file, so the two sizes need not divide.
    """

    def __init__(self, directory: str | os.PathLike, years: Sequence[int]):
        self.directory = Path(directory)
        self.years = tuple(years)
        self._file = None

    def __enter__(self) -> "SpilledHistory":
        return self

    def __exit__(self, *exc_info):
        if self._file is not None:
            self._file.close()

    def _offset(self, chunk: int, y: int, row: int) -> int:
        """Byte offset of calendar row ``row`` of year ``y`` in a chunk."""
        return (((chunk * len(self.years) + y) * DAYS_PER_YEAR + row)
                * 2 * self.step * self.dtype.itemsize)

    def write(self, y: int, rows: slice, day_max: np.ndarray,
              day_min: np.ndarray):
        """Spill the ``(n_rows, n_locations)`` daily max and min of the
        calendar rows ``rows`` of history year ``y`` (an index into
        ``years``), in their dtype: one write per chunk of locations. The
        first write lays the file out."""
        n_rows = rows.stop - rows.start
        if self._file is None:
            self.n_locations = day_max.shape[1]
            self.dtype = day_max.dtype
            kernel = threshold_chunk(len(self.years), self.dtype.itemsize)
            piece = max(1, n_rows) * 2 * kernel * self.dtype.itemsize
            self.step = min(self.n_locations,
                            kernel * -(-io.DEFAULT_BUFFER_SIZE // piece))
            self._n_chunks = -(-self.n_locations // self.step)
        width = self._n_chunks * self.step
        padded = np.zeros((n_rows, 2, width), self.dtype)
        padded[:, 0, :self.n_locations] = day_max
        padded[:, 1, :self.n_locations] = day_min
        by_chunk = np.ascontiguousarray(padded.reshape(
            n_rows, 2, self._n_chunks, self.step).transpose(2, 0, 1, 3))
        try:
            if self._file is None:
                self.directory.mkdir(parents=True, exist_ok=True)
                self._file = tempfile.TemporaryFile(dir=self.directory)
            fd = self._file.fileno()
            for chunk, values in enumerate(by_chunk):
                if os.pwrite(fd, values, self._offset(chunk, y, rows.start)) \
                        != values.nbytes:
                    raise OSError("short write")
        except OSError as exc:
            size = 2 * DAYS_PER_YEAR * len(self.years) * width \
                * self.dtype.itemsize
            raise WxVerifyError(
                f"{self.directory}: cannot spill the daily extremes of the "
                f"history ({size} bytes) there: {exc}") from exc

    def chunks(self):
        """Yield ``(start, daily_max, daily_min)`` for each chunk of the
        file in order: the ``(n_years, 365, n)`` daily max and min of
        locations ``start .. start + n``, from one read into one buffer,
        which the next chunk reuses, so they hold only until the next is
        asked for."""
        slab = np.empty((len(self.years), DAYS_PER_YEAR, 2, self.step),
                        self.dtype)
        for chunk in range(self._n_chunks):
            self._file.seek(self._offset(chunk, 0, 0))
            if self._file.readinto(slab) != slab.nbytes:
                raise WxVerifyError(f"{self.directory}: the spilled daily "
                                    f"extremes of the history are short")
            start = chunk * self.step
            held = slab[..., :min(self.step, self.n_locations - start)]
            yield start, held[:, :, 0], held[:, :, 1]


@functools.cache
def _sha256_type():
    """The SHA-256 constructor of :func:`sha256`."""
    for name in ("_sha2", "_sha256"):  # Python 3.12+, then 3.10 and 3.11
        try:
            return __import__(name).sha256
        except ImportError:
            pass
    import hashlib  # maps OpenSSL
    return hashlib.sha256


def sha256(data: bytes = b""):
    """A SHA-256 hash object over ``data``: the interpreter's built-in one,
    as :mod:`random` takes its SHA-512, so that no scoring command maps
    the OpenSSL library that importing :mod:`hashlib` maps (about 3.5 MiB
    of resident memory on Linux); :mod:`hashlib`'s only when the
    interpreter has none. The digests are the same. The built-in is
    several times slower on large inputs, so every digest a command takes
    covers a few KB: the manifest, the thresholds sidecar, the best
    track."""
    return _sha256_type()(data)


def load_manifest(path: str | os.PathLike,
                  require: Sequence[str] = ("truth", "models")) -> RunManifest:
    """Load and validate a manifest JSON document.

    ``require`` names the sections whose referenced files must exist:
    any of "truth", "models", "history", "climatology" (the built
    climatology of every stored variable, when the manifest declares
    one) and "thresholds" (the built thresholds, which the manifest must
    declare). The first missing file is reported by path.
    """
    path = Path(path)
    # one read: the digest is of the bytes parsed
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        raise ManifestError(f"manifest not found: {path}") from None
    except OSError as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
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

    def distinct(key, values, entries):
        """``values``, parsed from the list ``entries`` under ``key``; an
        entry that repeats an earlier one raises ManifestError."""
        seen = set()
        for value, entry in zip(values, entries):
            if value in seen:
                raise ManifestError(
                    f"{path}: {key} lists {entry!r} more than once")
            seen.add(value)
        return values

    variable_keys = need("variables", list)
    try:
        variables = tuple(VariableId.from_key(v) for v in variable_keys)
    except ValueError as exc:
        raise ManifestError(f"{path}: {exc}") from exc
    variables = distinct("variables", variables, variable_keys)
    init_times = need("init_times", list)
    if not all(isinstance(t, str) for t in init_times):
        raise ManifestError(f"{path}: init_times must be a list of ISO-8601 "
                            f"time strings")
    try:
        parsed = tuple(parse_time(t) for t in init_times)
    except InvalidHeader as exc:
        raise ManifestError(f"{path}: init_times: {exc}") from exc
    init_times = distinct("init_times", parsed, init_times)
    max_lead = doc.get("max_lead_hours", 240)  # 40 six-hour steps
    if type(max_lead) is not int or max_lead < 0 or max_lead % 6:
        raise ManifestError(f"{path}: max_lead_hours must be a non-negative "
                            f"multiple of 6")
    for init in init_times:
        try:
            init + timedelta(hours=max_lead)
        except OverflowError:
            raise ManifestError(
                f"{path}: init_times entry {format_time(init)} plus "
                f"max_lead_hours {max_lead} runs past year {MAXYEAR}") \
                from None
    truth_pattern = need("truth_pattern", str)
    models_doc = need("models", dict)
    models = {}
    for name, spec in sorted(models_doc.items()):
        if not isinstance(spec, str):
            raise ManifestError(f"{path}: model {name!r} needs a path pattern")
        models[name] = spec

    clim = doc.get("climatology", {})
    if not isinstance(clim, dict):
        raise ManifestError(f"{path}: climatology section must be an object")
    for key in ("daily_mean_pattern", "thresholds_path", "history_pattern"):
        if clim.get(key) is not None and not isinstance(clim[key], str):
            raise ManifestError(f"{path}: climatology {key} must be a string")
    climatology_pattern = clim.get("daily_mean_pattern")
    thresholds_path = clim.get("thresholds_path")
    history_pattern = clim.get("history_pattern")
    history_years = clim.get("history_years", [])
    if not isinstance(history_years, list) or not all(
            isinstance(y, int) and not isinstance(y, bool)
            for y in history_years):
        raise ManifestError(f"{path}: climatology history_years must be a "
                            f"list of integer years")
    history_years = distinct("climatology history_years",
                             tuple(history_years), history_years)
    for year in history_years:
        # a year's 6-hourly times run up to 00Z Jan 1 of the next year
        if not MINYEAR <= year < MAXYEAR:
            raise ManifestError(
                f"{path}: climatology history_years lists {year}; a history "
                f"year must lie in {MINYEAR}..{MAXYEAR - 1}")

    regions_doc = doc.get("regions", {"global": None})
    regions: dict[str, tuple[float, float, float, float] | None] = {}
    if not isinstance(regions_doc, dict):
        raise ManifestError(f"{path}: regions must be an object")
    for name, box in regions_doc.items():
        if box is not None and not (
                isinstance(box, list) and len(box) == 4
                and all(type(x) in (int, float) and math.isfinite(x)
                        for x in box)
                and box[0] <= box[1] and box[2] <= box[3]):
            raise ManifestError(
                f"{path}: regions.{name} must be null or [lat_min, lat_max, "
                f"lon_min, lon_max], finite numbers with lat_min <= lat_max "
                f"and lon_min <= lon_max")
        regions[name] = None if box is None else tuple(map(float, box))
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
        sha256=sha256(raw).hexdigest(),
    )
    _check_manifest_files(manifest, require)
    return manifest


def _built(manifest: RunManifest, kind: str, path: Path | None, key: str
           ) -> Path:
    """``path``, the ``kind`` file that ``build-climatology`` writes where
    the manifest's climatology ``key`` says; ManifestError when the
    manifest declares no such path or the file has not been built."""
    if path is None:
        raise ManifestError(
            f"{manifest.path}: manifest declares no climatology {key}")
    if not path.exists():
        raise ManifestError(
            f"{kind} file {path} has not been built; run "
            f"`wxverify build-climatology --manifest {manifest.path}` first")
    return path


def _check_manifest_files(manifest: RunManifest, require: Sequence[str]):
    plain = [v for v in manifest.variables if not v.derived]
    if ("truth" in require or "models" in require) \
            and not manifest.init_times:
        raise ManifestError(f"{manifest.path}: init_times is empty; a run "
                            f"needs at least one init time")
    # each distinct path is checked once, in the order of the layers that
    # name it
    checked: set[Path] = set()

    def check(kind: str, path: Path):
        if path not in checked:
            if not path.exists():
                raise ManifestError(f"missing {kind} file: {path}")
            checked.add(path)

    times, leads = manifest.valid_times, manifest.lead_hours
    if "truth" in require:
        for variable in plain:
            for path in manifest._paths("truth_pattern", manifest.truth_pattern,
                                        variable, times, [None] * len(times)):
                check("truth", path)
    if "models" in require:
        for model, pattern in manifest.models.items():
            for init in manifest.init_times:
                for variable in plain:
                    for path in manifest._paths(
                            f"models.{model}", pattern, variable,
                            [init + timedelta(hours=lead) for lead in leads],
                            leads, init):
                        check("model", path)
    if "history" in require:
        if manifest.history_pattern is None or not manifest.history_years:
            raise ManifestError(
                f"{manifest.path}: manifest declares no history section")
        # Existence of the full 6-hourly history is checked lazily by the
        # consumer; probing every file here would dominate load time.
        first = datetime(manifest.history_years[0], 1, 1, tzinfo=timezone.utc)
        for variable in plain:
            p = manifest.history_path(variable, first)
            if not p.exists():
                raise ManifestError(f"missing history file: {p}")
    if "climatology" in require and manifest.climatology_pattern is not None:
        for variable in plain:
            _built(manifest, "climatology", manifest.climatology_path(variable),
                   "daily_mean_pattern")
    if "thresholds" in require:
        _built(manifest, "thresholds", manifest.thresholds_file,
               "thresholds_path")
