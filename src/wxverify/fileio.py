"""Bit-exact store readers, the run manifest, and the one field source
every command reads through.

Gridded fields, field stacks, extreme thresholds and daily-mean
climatologies are all stored the same way: a flat little-endian
``(layers, n_lat, n_lon)`` payload plus a JSON sidecar (`<path>.json`)
carrying the magic, dtype, geometry and CRC-32s of the payload, read by
one codec here and written by :mod:`wxverify.writers`. A stack
(RBSTACK1) holds a 6-hourly series of one variable with one CRC-32 per
layer, so a span of layers is read with one seek and checked alone. A
field file (RBGRID1) reads as a stack of one layer, whose one CRC-32
covers the whole payload; so both layouts are read, and checked against
the valid time and lead asked for, by the same code. Uniform grids
only; orientation is normalized to north-to-south rows and [0, 360)
eastward columns on read. Threshold and climatology payloads carry a
365-deep day axis (climatology payloads are float64 so that
through-disk evaluation stays bit-identical to in-memory evaluation),
with one CRC-32 per day layer, so a run reads only its days.

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
(one day at least).

This module is what every scoring command loads of the file layer. The
store writers (:mod:`wxverify.writers`), the station CSV reader
(:mod:`wxverify.stationio`) and the event commands' CSV files
(:mod:`wxverify.eventio`) live apart, so that a command compiles only
the code it runs. Readers are total over the typed error hierarchy in
:mod:`wxverify.errors` - fuzzed input yields a typed error, never a raw
parser traceback.
"""

from __future__ import annotations

import functools
import json
import math
import os
import string
import zlib
from dataclasses import dataclass
from datetime import MAXYEAR, MINYEAR, datetime, timedelta, timezone
from itertools import groupby
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import metrics
from .climatology import (DAYS_PER_YEAR, SYNOPTIC_HOURS, DailyMeanClimatology,
                          ThresholdField, day_span, year_times)
from .errors import (ChecksumMismatch, GridMismatch,
                     HeaderPayloadShapeMismatch, InvalidHeader, ManifestError,
                     NonFiniteValue)
from .grid import (SIX_HOURS, FieldBlock, GeoGrid, VariableId, all_finite,
                   derive_wind_speed)

GRID_MAGIC = "RBGRID1"
STACK_MAGIC = "RBSTACK1"
THRESH_MAGIC = "RBTHRESH1"
CLIM_MAGIC = "RBCLIM1"

def format_time(when: datetime) -> str:
    """``when`` in UTC to the second, as ``YYYY-MM-DDTHH:MM:SSZ`` with a
    four-digit year, which :func:`parse_time` reads back."""
    utc = when.astimezone(timezone.utc).replace(tzinfo=None)
    return utc.isoformat(timespec="seconds") + "Z"


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
        # form a writer stores, so a written grid reads back bit for bit
        lons = lons[0] + lon_step * np.arange(n_lon)
    grid = GeoGrid(lat_start + lat_step * np.arange(n_lat), lons)
    return grid, flip_rows, lon_shift


# --- stored arrays: grids, stacks, thresholds, climatologies -----------------

_DTYPES = {"f32le": np.dtype("<f4"), "f64le": np.dtype("<f8")}


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


def _build(path: Path, cls, *args):
    """``cls(*args)`` over a read payload, with its errors typed and naming
    ``path``. The type checks finiteness, so the payload is scanned once."""
    try:
        return cls(*args)
    except NonFiniteValue as exc:
        raise NonFiniteValue(f"{path}: payload contains NaN/Inf") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidHeader(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class _Stack:
    """A parsed RBSTACK1 or RBGRID1 sidecar: the store, its variable and
    layer times. An RBGRID1 file is a stack of one layer with lead step 0."""

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


@dataclass(frozen=True)
class _Days:
    """A parsed RBCLIM1 or RBTHRESH1 sidecar: the store of one 365-day
    axis (a climatology) or of two (the heat, then the cold thresholds,
    which are of T2M), its variable and years."""

    store: _Store
    variable: VariableId
    years: tuple
    #: of thresholds, the build's half_window, q_heat and q_cold, and the
    #: hex SHA-256 of the sidecar bytes parsed; () of a climatology
    build: tuple = ()

    @classmethod
    def parse(cls, path: Path, header: dict, raw: bytes) -> "_Days":
        if _header_value(header, "n_days", int, path) != DAYS_PER_YEAR:
            raise InvalidHeader(f"{path}: expected a {DAYS_PER_YEAR}-day axis")
        if header["magic"] == CLIM_MAGIC:
            return cls(_parse_store(path, header, "f64le", DAYS_PER_YEAR),
                       _header_variable(header, path),
                       tuple(_header_value(header, "years", list, path)))
        return cls(_parse_store(path, header, "f32le", 2 * DAYS_PER_YEAR),
                   VariableId.T2M,
                   tuple(_header_value(header, "years", list, path)),
                   (_header_value(header, "half_window", int, path),
                    _header_value(header, "q_heat", float, path),
                    _header_value(header, "q_cold", float, path),
                    sha256(raw).hexdigest()))

    def days(self, days: Iterable[int]
             ) -> tuple[int, GeoGrid, list[np.ndarray]]:
        """The first day of the shortest run of consecutive calendar days
        that holds ``days`` (see :func:`~wxverify.climatology.day_span`),
        the grid, built through the memo :func:`_oriented_grid`, and the
        run's layers of each axis: one read of each, or two when the run
        crosses Dec 31 (see :func:`_read_days`)."""
        first, n_days = day_span(days)
        return (first, *_read_days(self.store, first, n_days))


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

    def check_leads(self, values: Sequence[int] | None,
                    default: Sequence[int], flag: str, hours_of
                    ) -> tuple[int, ...]:
        """``values`` of the option ``flag`` (``default`` when None), not
        empty, none repeated and none with lead hours ``hours_of(value)``
        off the manifest's 6-hourly lead grid; ManifestError naming
        ``flag`` otherwise."""
        values = tuple(default if values is None else values)
        if not values:
            raise ManifestError(f"{flag}: empty lead list")
        on_grid = set(self.lead_hours)
        for k, value in enumerate(values):
            if value in values[:k]:
                raise ManifestError(f"{flag} lists {value} more than once")
            hours = hours_of(value)
            if not on_grid.issuperset(hours):
                span = f"{hours[0]}..{hours[-1]}" if len(hours) > 1 \
                    else hours[0]
                raise ManifestError(
                    f"{flag} value {value} ({span} h) is outside the "
                    f"manifest lead grid (0..{self.max_lead_hours} h, every "
                    f"6 h)")
        return values

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
    stack, a climatology or the thresholds, is opened by :meth:`_open`,
    which parses its sidecar once per run and rejects a store of another
    variable than the one read, or on another grid than the ``grid`` a
    read is paired with, whatever the command and role. A block of its
    layers (or days) is read with one seek, checking only the CRC-32s of
    the layers read and that each layer is valid at the time, and
    carries the lead, asked for. Fields are blocks of one layer, and a history
    year is a run of blocks of whole days. A block a command reads holds
    at most one chunk (:meth:`block_layers`, :meth:`history_days`).
    Derived WS10 is computed from U10 and V10 here and nowhere else.
    """

    def __init__(self, manifest: RunManifest):
        self.manifest = manifest
        # (store path, magic asked for) -> its parsed sidecar
        self._opened: dict[tuple[Path, str | None], _Stack | _Days] = {}

    def _open(self, path: Path, variable: VariableId,
              grid: GeoGrid | None = None, magic: str | None = None):
        """The parsed sidecar of the store at ``path``: a :class:`_Stack`
        of an RBSTACK1 or RBGRID1 store, or given the ``magic`` of a
        365-day store (RBCLIM1 or RBTHRESH1), a :class:`_Days`;
        :class:`GridMismatch` naming it unless it holds ``variable`` and,
        given ``grid``, is on it. Its grid is built only on the shape of
        ``grid``, one a read has built, so a sidecar cannot make the check
        allocate more than a read."""
        opened = self._opened.get((path, magic))
        if opened is None:
            magics = (magic,) if magic else (GRID_MAGIC, STACK_MAGIC)
            header, raw = _load_sidecar(path, *magics)
            opened = self._opened[path, magic] = \
                _Days.parse(path, header, raw) if magic \
                else _Stack.parse(path, header)
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
        (see :meth:`_Days.days`); None for a derived variable or when the
        manifest declares no climatology. The store is opened as a stack
        is (:meth:`_open`)."""
        if self.manifest.climatology_pattern is None or variable.derived:
            return None
        path = _built(self.manifest, "climatology",
                      self.manifest.climatology_path(variable),
                      "daily_mean_pattern")
        stored = self._open(path, variable, grid, CLIM_MAGIC)
        first, grid, (layers,) = stored.days(days)
        return _build(path, DailyMeanClimatology, grid, variable, layers,
                      stored.years, first)

    def thresholds(self, days: Iterable[int]
                   ) -> tuple[ThresholdField, GeoGrid, str]:
        """The extreme thresholds of T2M that ``build-climatology`` stored,
        on the shortest run of consecutive calendar days that holds
        ``days``, read by the day (see :meth:`_Days.days`), their grid and
        the hex SHA-256 of their sidecar; ManifestError when the manifest
        names no thresholds file or it has not been built. The location
        axis is the row-major flattening of the grid. The store is opened
        as a stack is (:meth:`_open`). The sidecar holds the build's
        parameters and the CRC-32 of every day, and each day read is
        checked against its CRC-32, so the digest vouches for the days
        read without reading the whole payload."""
        path = _built(self.manifest, "thresholds",
                      self.manifest.thresholds_file, "thresholds_path")
        stored = self._open(path, VariableId.T2M, magic=THRESH_MAGIC)
        first, grid, (heat, cold) = stored.days(days)
        *build, digest = stored.build
        return _build(path, ThresholdField, heat.reshape(len(heat), -1),
                      cold.reshape(len(cold), -1), stored.years, *build,
                      first), grid, digest


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
