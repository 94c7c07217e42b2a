"""Bit-exact readers and writers.

Gridded fields live in a flat little-endian float32 payload plus a JSON
sidecar (`<path>.json`) carrying geometry, time metadata, and a CRC-32
of the payload. Uniform grids only; orientation is normalized to
north-to-south rows and [0, 360) eastward columns on read. Threshold and
daily-climatology stores reuse the same layout with a 365-deep day axis
(climatology payloads are float64 so that through-disk evaluation stays
bit-identical to in-memory evaluation).

Commands read fields through one run-scoped :class:`FieldSource`, which
resolves manifest paths and validates each grid geometry once per run.

Writers create a temp file and rename, so a file is either complete or
absent. Serialization is canonical: rewriting what was just read
produces byte-identical files. Readers are total over the typed error
hierarchy in :mod:`wxverify.errors` - fuzzed input yields a typed error,
never a raw parser traceback.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import zlib
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Mapping, Sequence

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
from .stations import Station, StationTable, six_hour_times, table_from_records

GRID_MAGIC = "RBGRID1"
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
    except ValueError as exc:
        raise InvalidHeader(f"bad timestamp {text!r}: {exc}") from exc
    if when.tzinfo is None:
        when = when.replace(tzinfo=timezone.utc)
    return when.astimezone(timezone.utc)


def _atomic_write_bytes(path: Path, payload: bytes):
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(payload)
    os.replace(tmp, path)


def _canonical_json(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode("utf-8")


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.name + ".json")


def _load_sidecar(path: Path, magic: str) -> dict:
    sidecar = _sidecar_path(path)
    try:
        header = json.loads(sidecar.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise InvalidHeader(f"sidecar missing: {sidecar}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InvalidHeader(f"unparseable sidecar {sidecar}: {exc}") from exc
    if not isinstance(header, dict) or header.get("magic") != magic:
        raise InvalidHeader(f"{sidecar}: expected magic {magic!r}")
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


def _uniform_steps(grid: GeoGrid) -> tuple[float, float]:
    if not grid.is_uniform():
        raise NonUniformGrid("file format stores uniformly spaced grids only")
    lat_step = float(grid.lat_deg[1] - grid.lat_deg[0]) if grid.n_lat > 1 else -1.0
    lon_step = float(grid.lon_deg[1] - grid.lon_deg[0]) if grid.n_lon > 1 else 1.0
    return lat_step, lon_step


def _read_payload(path: Path, header: dict, n_values: int, dtype: str) -> np.ndarray:
    """Checked payload as float64; finiteness is the caller's check."""
    try:
        blob = path.read_bytes()
    except FileNotFoundError:
        raise InvalidHeader(f"payload missing: {path}") from None
    item = 4 if dtype == "f32le" else 8
    if len(blob) != item * n_values:
        raise HeaderPayloadShapeMismatch(
            f"{path}: payload is {len(blob)} bytes, header implies {item * n_values}")
    checksum = _header_value(header, "checksum", int, path)
    if zlib.crc32(blob) != checksum:
        raise ChecksumMismatch(f"{path}: CRC-32 mismatch")
    np_dtype = "<f4" if dtype == "f32le" else "<f8"
    return np.frombuffer(blob, dtype=np_dtype).astype(np.float64)


def _require_finite(values: np.ndarray, path: Path) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise NonFiniteValue(f"{path}: payload contains NaN/Inf")
    return values


def _grid_header_geometry(header: dict, path: Path):
    n_lat = _header_value(header, "n_lat", int, path)
    n_lon = _header_value(header, "n_lon", int, path)
    lat_start = _header_value(header, "lat_start", float, path)
    lat_step = _header_value(header, "lat_step", float, path)
    lon_start = _header_value(header, "lon_start", float, path)
    lon_step = _header_value(header, "lon_step", float, path)
    if n_lat < 1 or n_lon < 1:
        raise InvalidHeader(f"{path}: non-positive grid shape")
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


def write_grid(field: GridField, path: str | os.PathLike) -> Path:
    """Write one field as f32le payload + JSON sidecar; returns the path.

    Derived variables (WS10) are never stored.
    """
    if field.variable.derived:
        raise WxVerifyError(
            f"{field.variable.key} is derived; compute it, do not store it")
    path = Path(path)
    lat_step, lon_step = _uniform_steps(field.grid)
    payload = np.ascontiguousarray(field.values, dtype="<f4").tobytes()
    header = {
        "magic": GRID_MAGIC,
        "variable": field.variable.key,
        "unit": field.variable.unit,
        "valid_time": format_time(field.valid_time),
        "lead_hours": field.lead_hours,
        "n_lat": field.grid.n_lat,
        "n_lon": field.grid.n_lon,
        "lat_start": float(field.grid.lat_deg[0]),
        "lat_step": lat_step,
        "lon_start": float(field.grid.lon_deg[0]),
        "lon_step": lon_step,
        "dtype": "f32le",
        "checksum": zlib.crc32(payload),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write_bytes(path, payload)
    _atomic_write_bytes(_sidecar_path(path), _canonical_json(header))
    return path


def read_grid(path: str | os.PathLike, geometries: dict | None = None
              ) -> GridField:
    """Read a field written by :func:`write_grid`; round-trip is lossless.

    ``geometries`` is an optional cache of validated grids shared across
    reads (see :class:`FieldSource`); without it every read builds and
    validates its own grid.
    """
    path = Path(path)
    header = _load_sidecar(path, GRID_MAGIC)
    if header.get("dtype") != "f32le":
        raise InvalidHeader(f"{path}: unsupported dtype {header.get('dtype')!r}")
    geometry = _grid_header_geometry(header, path)
    n_lat, n_lon = geometry[:2]
    values = _read_payload(path, header, n_lat * n_lon, "f32le")
    grid, flip_rows, lon_shift = _cached_grid(geometry, path, geometries)
    grid_values = values.reshape(n_lat, n_lon)
    if flip_rows:
        grid_values = grid_values[::-1]
    if lon_shift:
        grid_values = np.roll(grid_values, -lon_shift, axis=1)
    try:
        variable = VariableId.from_key(_header_value(header, "variable", str, path))
    except ValueError as exc:
        raise InvalidHeader(f"{path}: {exc}") from exc
    valid_time = parse_time(_header_value(header, "valid_time", str, path))
    lead_hours = _header_value(header, "lead_hours", int, path)
    try:
        # GridField checks finiteness; the payload is not scanned twice
        return GridField(grid, variable, valid_time, lead_hours, grid_values)
    except NonFiniteValue as exc:
        raise NonFiniteValue(f"{path}: payload contains NaN/Inf") from exc
    except ValueError as exc:
        raise InvalidHeader(f"{path}: {exc}") from exc


def _write_stack(path: Path, magic: str, layers: np.ndarray, dtype: str,
                 extra: dict):
    np_dtype = "<f4" if dtype == "f32le" else "<f8"
    payload = np.ascontiguousarray(layers, dtype=np_dtype).tobytes()
    header = dict(extra)
    header.update({
        "magic": magic,
        "dtype": dtype,
        "checksum": zlib.crc32(payload),
    })
    path.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write_bytes(path, payload)
    _atomic_write_bytes(_sidecar_path(path), _canonical_json(header))


def write_thresholds(thresholds: ThresholdField, grid: GeoGrid,
                     path: str | os.PathLike) -> Path:
    """Persist heat/cold thresholds with a 365-deep day axis (f32le)."""
    path = Path(path)
    if thresholds.n_locations != grid.n_lat * grid.n_lon:
        raise ValueError("threshold location axis does not match grid size")
    lat_step, lon_step = _uniform_steps(grid)
    stack = np.stack([thresholds.tau_heat, thresholds.tau_cold])
    _write_stack(path, THRESH_MAGIC, stack, "f32le", {
        "n_days": DAYS_PER_YEAR,
        "n_lat": grid.n_lat,
        "n_lon": grid.n_lon,
        "lat_start": float(grid.lat_deg[0]),
        "lat_step": lat_step,
        "lon_start": float(grid.lon_deg[0]),
        "lon_step": lon_step,
        "years": list(thresholds.years),
        "half_window": thresholds.half_window,
        "q_heat": thresholds.q_heat,
        "q_cold": thresholds.q_cold,
        "percentile_method": "linear",
    })
    return path


def read_thresholds(path: str | os.PathLike) -> tuple[ThresholdField, GeoGrid]:
    path = Path(path)
    header = _load_sidecar(path, THRESH_MAGIC)
    n_lat = _header_value(header, "n_lat", int, path)
    n_lon = _header_value(header, "n_lon", int, path)
    n_days = _header_value(header, "n_days", int, path)
    if n_days != DAYS_PER_YEAR:
        raise InvalidHeader(f"{path}: expected a {DAYS_PER_YEAR}-day axis")
    n_loc = n_lat * n_lon
    values = _require_finite(
        _read_payload(path, header, 2 * n_days * n_loc, "f32le"), path)
    stack = values.reshape(2, n_days, n_loc)
    lat_start = _header_value(header, "lat_start", float, path)
    lat_step = _header_value(header, "lat_step", float, path)
    lon_start = _header_value(header, "lon_start", float, path)
    lon_step = _header_value(header, "lon_step", float, path)
    try:
        grid = GeoGrid.uniform(lat_start, lat_step, n_lat, lon_start, lon_step, n_lon)
        thresholds = ThresholdField(
            stack[0], stack[1],
            tuple(_header_value(header, "years", list, path)),
            _header_value(header, "half_window", int, path),
            _header_value(header, "q_heat", float, path),
            _header_value(header, "q_cold", float, path))
    except ValueError as exc:
        raise InvalidHeader(f"{path}: {exc}") from exc
    return thresholds, grid


def write_daily_climatology(clim: DailyMeanClimatology,
                            path: str | os.PathLike) -> Path:
    """Persist a per-calendar-day mean climatology (f64le, lossless)."""
    path = Path(path)
    lat_step, lon_step = _uniform_steps(clim.grid)
    _write_stack(path, CLIM_MAGIC, clim.day_mean, "f64le", {
        "variable": clim.variable.key,
        "unit": clim.variable.unit,
        "n_days": DAYS_PER_YEAR,
        "n_lat": clim.grid.n_lat,
        "n_lon": clim.grid.n_lon,
        "lat_start": float(clim.grid.lat_deg[0]),
        "lat_step": lat_step,
        "lon_start": float(clim.grid.lon_deg[0]),
        "lon_step": lon_step,
        "years": list(clim.years),
    })
    return path


def read_daily_climatology(path: str | os.PathLike) -> DailyMeanClimatology:
    path = Path(path)
    header = _load_sidecar(path, CLIM_MAGIC)
    if header.get("dtype") != "f64le":
        raise InvalidHeader(f"{path}: unsupported dtype {header.get('dtype')!r}")
    n_lat = _header_value(header, "n_lat", int, path)
    n_lon = _header_value(header, "n_lon", int, path)
    n_days = _header_value(header, "n_days", int, path)
    if n_days != DAYS_PER_YEAR:
        raise InvalidHeader(f"{path}: expected a {DAYS_PER_YEAR}-day axis")
    values = _require_finite(
        _read_payload(path, header, n_days * n_lat * n_lon, "f64le"), path)
    lat_start = _header_value(header, "lat_start", float, path)
    lat_step = _header_value(header, "lat_step", float, path)
    lon_start = _header_value(header, "lon_start", float, path)
    lon_step = _header_value(header, "lon_step", float, path)
    try:
        grid = GeoGrid.uniform(lat_start, lat_step, n_lat, lon_start, lon_step, n_lon)
        variable = VariableId.from_key(_header_value(header, "variable", str, path))
        return DailyMeanClimatology(
            grid, variable, values.reshape(n_days, n_lat, n_lon),
            tuple(_header_value(header, "years", list, path)))
    except ValueError as exc:
        raise InvalidHeader(f"{path}: {exc}") from exc


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
    try:
        with open(meta_path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or \
                    [c.strip() for c in reader.fieldnames] != _STATION_META_COLUMNS:
                raise InvalidHeader(
                    f"{meta_path}: expected columns {','.join(_STATION_META_COLUMNS)}")
            for lineno, row in enumerate(reader, start=2):
                try:
                    stations.append(Station(
                        station_id=row["id"].strip(),
                        lat=float(row["lat"]),
                        lon=float(row["lon"]) % 360.0,
                        elevation_m=float(row["elev_m"])))
                except (TypeError, ValueError, AttributeError) as exc:
                    raise InvalidHeader(f"{meta_path}:{lineno}: bad row: {exc}") from exc
    except OSError as exc:
        raise InvalidHeader(f"cannot read {meta_path}: {exc}") from exc
    known = {s.station_id for s in stations}
    if len(known) != len(stations):
        raise InvalidHeader(f"{meta_path}: duplicate station ids")

    records: dict[VariableId, dict[str, list[tuple[datetime, float]]]] = {}
    seen: set[tuple[str, datetime, str]] = set()
    t_min: datetime | None = None
    t_max: datetime | None = None
    try:
        with open(obs_path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or \
                    [c.strip() for c in reader.fieldnames] != _STATION_OBS_COLUMNS:
                raise InvalidHeader(
                    f"{obs_path}: expected columns {','.join(_STATION_OBS_COLUMNS)}")
            for lineno, row in enumerate(reader, start=2):
                try:
                    sid = row["station_id"].strip()
                    when = parse_time(row["iso_time"])
                    variable = VariableId.from_key(row["variable"].strip())
                    value = float(row["value_si"])
                except (TypeError, ValueError, AttributeError) as exc:
                    raise InvalidHeader(f"{obs_path}:{lineno}: bad row: {exc}") from exc
                if sid not in known:
                    raise UnknownStation(f"{obs_path}:{lineno}: station {sid!r} "
                                         f"not in {meta_path.name}")
                key = (sid, when, variable.key)
                if key in seen:
                    raise DuplicateObservation(
                        f"{obs_path}:{lineno}: duplicate observation "
                        f"({sid}, {format_time(when)}, {variable.key})")
                seen.add(key)
                records.setdefault(variable, {}).setdefault(sid, []).append(
                    (when, value))
                t_min = when if t_min is None else min(t_min, when)
                t_max = when if t_max is None else max(t_max, when)
    except OSError as exc:
        raise InvalidHeader(f"cannot read {obs_path}: {exc}") from exc

    if times is None:
        if t_min is None:
            times = []
        else:
            times = six_hour_times(t_min - timedelta(minutes=15),
                                   t_max + timedelta(minutes=15))
    return table_from_records(stations, records, list(times))


# --- run manifest ------------------------------------------------------------

@dataclass(frozen=True)
class RunManifest:
    """Evaluation run description: inputs, models, leads, and regions.

    Patterns are formatted with ``variable`` (key string), ``time`` /
    ``init`` (compact UTC, %Y%m%d%H), and ``lead`` (int hours), then
    resolved against the manifest directory.
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
                         time=when.astimezone(timezone.utc).strftime("%Y%m%d%H"))

    def model_path(self, model: str, init: datetime, variable: VariableId,
                   lead_hours: int) -> Path:
        return self._fmt(self.models[model], variable=variable.key,
                         init=init.astimezone(timezone.utc).strftime("%Y%m%d%H"),
                         lead=lead_hours)

    def climatology_path(self, variable: VariableId) -> Path:
        if self.climatology_pattern is None:
            raise ManifestError("manifest declares no climatology")
        return self._fmt(self.climatology_pattern, variable=variable.key)

    def history_path(self, variable: VariableId, when: datetime) -> Path:
        if self.history_pattern is None:
            raise ManifestError("manifest declares no history")
        return self._fmt(self.history_pattern, variable=variable.key,
                         time=when.astimezone(timezone.utc).strftime("%Y%m%d%H"))


class FieldSource:
    """The one way a run reads the fields its manifest names.

    A command creates one per run. Every grid read goes through the
    module-level :func:`read_grid` with a geometry cache held here, so a
    :class:`GeoGrid` is built and validated once per distinct sidecar
    geometry instead of once per file; fields that share a geometry
    share one grid object. Safe to share between threads. Derived WS10
    is computed from U10 and V10 here and nowhere else.
    """

    def __init__(self, manifest: RunManifest):
        self.manifest = manifest
        # geometry key -> (GeoGrid, flip_rows, lon_shift); see _cached_grid
        self._geometries: dict[tuple, tuple[GeoGrid, bool, int]] = {}

    def read(self, path: str | os.PathLike) -> GridField:
        return read_grid(path, self._geometries)

    def _field(self, path_of, variable: VariableId) -> GridField:
        if variable.derived:
            return derive_wind_speed(self.read(path_of(VariableId.U10)),
                                     self.read(path_of(VariableId.V10)))
        return self.read(path_of(variable))

    def truth(self, variable: VariableId, when: datetime) -> GridField:
        return self._field(lambda v: self.manifest.truth_path(v, when),
                           variable)

    def model(self, name: str, init: datetime, variable: VariableId,
              lead_hours: int) -> GridField:
        return self._field(
            lambda v: self.manifest.model_path(name, init, v, lead_hours),
            variable)

    def history(self, variable: VariableId, year: int) -> list[GridField]:
        """Every 6-hourly history field of one calendar year."""
        return [self.read(self.manifest.history_path(variable, when))
                for when in year_times(year)]

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
            clims[variable] = read_daily_climatology(path)
        return clims


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
    if not path.exists():
        raise ManifestError(f"manifest not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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
        if manifest.thresholds_path is None:
            raise ManifestError("manifest declares no thresholds path")
        p = manifest.root / manifest.thresholds_path
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
