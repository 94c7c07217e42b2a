"""Synthetic truth generator and reference forecasters.

Everything here exists to make the verification formulas testable at
desk scale. A scenario fixes a seed, a grid, the years to generate, and
per-variable processes:

    value(t, i, j) = base
                   + seasonal_amp * sin(2*pi * (day365(t) - phase) / 365)
                   + diurnal_amp * sin(2*pi * hour(t) / 24 - pi/2)
                   + ar1_noise(t, i, j)
                   + injections (vortices on MSL/U10/V10, heat/cold
                     episodes on T2M)

The AR(1) noise has lag-1 correlation rho per 6-hour step and pointwise
standard deviation sigma; innovations are spatially smoothed white noise
(boxcar, wrapping in longitude). Every generated field is quantized to
float32-representable values so that the io round-trip is bitwise
lossless and on-disk evaluation matches in-memory evaluation exactly.

Identical seeds produce bitwise-identical streams. Truth is generated,
and forecasts are written, a chunk at a time: as many float64 layers as
:func:`wxverify.metrics.chunk_count` allows. ``write_run`` (the
``synth`` command) writes a whole synthetic run: truth and forecast
stacks, the manifest, the best track of any vortex and sampled stations.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass, replace
from datetime import MAXYEAR, MINYEAR, datetime, timedelta, timezone
from itertools import groupby
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from . import eventio, fileio, metrics, writers
from .climatology import calendar_day_index, year_times
from .cyclones import TRUTH_SOURCE, StormFix, StormTrack
from .errors import InvalidHeader, ManifestError
from .extremes import EventKind
from .grid import (KM_PER_DEG, SIX_HOURS, FieldBlock, GeoGrid, VariableId,
                   haversine_km_grid)
from .report import canonical_json, publish, publishing, text_lines


@dataclass(frozen=True)
class VariableProcess:
    """Seasonal cycle plus AR(1) red noise for one variable."""

    base: float
    seasonal_amp: float = 0.0
    seasonal_phase_days: float = 0.0
    diurnal_amp: float = 0.0
    ar1: float = 0.0
    noise_sigma: float = 0.0
    spatial_corr_points: int = 1

    def __post_init__(self):
        if not 0.0 <= self.ar1 < 1.0:
            raise ValueError("ar1 must lie in [0, 1)")
        if self.noise_sigma < 0.0:
            raise ValueError("noise_sigma must be non-negative")
        if self.spatial_corr_points < 1 or self.spatial_corr_points % 2 == 0:
            raise ValueError("spatial_corr_points must be odd and >= 1")


@dataclass(frozen=True)
class VortexSpec:
    """A Gaussian MSL depression with a rotating wind field.

    The depression is depth_pa * exp(-(d / efold_km)^2) below the MSL
    background; the center advects with constant (u, v) at the seed
    latitude. Tangential wind peaks at max_wind_ms at d = efold_km.
    """

    storm_id: str
    start_lat: float
    start_lon: float
    start_time: datetime
    n_steps: int
    depth_pa: float = 3000.0
    efold_km: float = 300.0
    u_ms: float = 0.0
    v_ms: float = 0.0
    max_wind_ms: float = 40.0

    def center_at(self, when: datetime) -> tuple[float, float] | None:
        """Closed-form center position; None outside the storm lifetime."""
        dt = (when - self.start_time) / SIX_HOURS
        if dt < 0 or dt > self.n_steps or dt != int(dt):
            return None
        seconds = (when - self.start_time).total_seconds()
        lat = self.start_lat + self.v_ms * seconds / (KM_PER_DEG * 1000.0)
        lon = (self.start_lon + self.u_ms * seconds
               / (KM_PER_DEG * 1000.0 * math.cos(math.radians(self.start_lat)))) % 360.0
        return (lat, lon)


@dataclass(frozen=True)
class PlantedEpisode:
    """A heat or cold episode added on top of the generated T2M series."""

    kind: EventKind
    year: int
    lat_index: int
    lon_index: int
    start_day: int  # 1-based calendar day
    n_days: int
    amplitude_k: float

    def covers(self, when: datetime) -> bool:
        if when.year != self.year:
            return False
        day = calendar_day_index(when) + 1
        return self.start_day <= day < self.start_day + self.n_days


@dataclass(frozen=True)
class SyntheticScenario:
    seed: int
    grid: GeoGrid
    years: tuple[int, ...]
    processes: Mapping[VariableId, VariableProcess]
    vortices: tuple[VortexSpec, ...] = ()
    episodes: tuple[PlantedEpisode, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "years", tuple(int(y) for y in self.years))
        object.__setattr__(self, "processes", dict(self.processes))
        object.__setattr__(self, "vortices", tuple(self.vortices))
        object.__setattr__(self, "episodes", tuple(self.episodes))
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not self.years:
            raise ValueError("scenario needs at least one year")
        for k, year in enumerate(self.years):
            if not MINYEAR <= year <= MAXYEAR:
                raise ValueError(f"scenario year {year} is not in "
                                 f"{MINYEAR}..{MAXYEAR}")
            if year in self.years[:k]:
                raise ValueError(f"scenario years list {year} more than once")

    @property
    def variables(self) -> tuple[VariableId, ...]:
        return tuple(sorted(self.processes, key=lambda v: v.key))


def seasonal_value(process: VariableProcess, when: datetime) -> float:
    """Closed-form seasonal + diurnal cycle, without noise or injections."""
    day = calendar_day_index(when) + 1
    seasonal = process.seasonal_amp * math.sin(
        2.0 * math.pi * (day - process.seasonal_phase_days) / 365.0)
    diurnal = process.diurnal_amp * math.sin(
        2.0 * math.pi * when.hour / 24.0 - math.pi / 2.0)
    return process.base + seasonal + diurnal


def _zonal_boxcar(values: np.ndarray, width: int,
                  out: np.ndarray | None = None) -> np.ndarray:
    """The boxcar of ``width`` along the last axis of ``values``, wrapped:
    longitude shifts -w/2 .. w/2 added in that order to zeros, then
    divided once by ``width``, into ``out`` (new float64 when None).
    Width 1 returns ``values`` itself."""
    if width == 1:
        return values
    half = width // 2
    n_lon = values.shape[-1]
    # column c of padded is column (c - half) % n_lon of values, so
    # columns j of shift s are padded[..., half - s + j]
    padded = np.take(values, np.arange(-half, n_lon + half), axis=-1,
                     mode="wrap")
    out = np.empty(values.shape) if out is None else out
    out[...] = 0.0
    for s in range(-half, half + 1):
        out += padded[..., half - s:half - s + n_lon]
    out /= width
    return out


def _boxcar(width: int, most: int, shape: tuple[int, int]
            ) -> Callable[[np.ndarray], None]:
    """Separable boxcar of ``width`` that smooths each ``(n_lat, n_lon)``
    layer of a chunk of at most ``most`` layers of ``shape`` in place:
    wrapped in longitude, clamped in latitude. Its buffer of longitude
    sums is allocated once, here.

    Each point adds its neighbours in the order a one-layer boxcar does:
    the longitude pass (:func:`_zonal_boxcar`), then latitude shifts,
    divided by the rows in range. So a chunk smooths bit for bit as its
    layers do one at a time.
    """
    if width == 1:
        return lambda noise: None
    half = width // 2
    n_lat, n_lon = shape
    summed = np.empty((most, n_lat, n_lon))
    # latitude shift s adds row i + s to rows lo .. hi; a shift by as many
    # rows as the grid has, or more, adds none
    rows = [(max(0, -s), min(n_lat, n_lat - s), s)
            for s in range(-half, half + 1) if abs(s) < n_lat]
    counts = np.zeros(n_lat)
    for lo, hi, _ in rows:
        counts[lo:hi] += 1

    def smooth(noise: np.ndarray) -> None:
        k = len(noise)
        out = _zonal_boxcar(noise, width, summed[:k])
        noise[...] = 0.0
        for lo, hi, s in rows:
            noise[:, lo:hi] += out[:, lo + s:hi + s]
        noise /= counts[:, None]
    return smooth


def _innovation_scale(width: int) -> float:
    # A separable width-w boxcar shrinks the std of unit white noise to
    # 1/w (interior rows); rescale to keep innovations near unit variance.
    return float(width)


def _vortex_msl_delta(spec: VortexSpec, grid: GeoGrid, when: datetime) -> np.ndarray | None:
    center = spec.center_at(when)
    if center is None:
        return None
    d = haversine_km_grid(center[0], center[1], grid)
    return -spec.depth_pa * np.exp(-((d / spec.efold_km) ** 2))


def _vortex_wind(spec: VortexSpec, grid: GeoGrid, when: datetime):
    center = spec.center_at(when)
    if center is None:
        return None
    lat0, lon0 = center
    dy = (grid.lat_deg - lat0) * KM_PER_DEG
    dlon = (grid.lon_deg - lon0 + 180.0) % 360.0 - 180.0
    dx = dlon * KM_PER_DEG * math.cos(math.radians(lat0))
    dxg, dyg = np.meshgrid(dx, dy)
    r = np.hypot(dxg, dyg)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = r / spec.efold_km
        speed = spec.max_wind_ms * x * np.exp(1.0 - x)
        u = np.where(r > 0, -speed * dyg / r, 0.0)
        v = np.where(r > 0, speed * dxg / r, 0.0)
    return u, v


def _inject(scenario: SyntheticScenario, variable: VariableId,
            when: datetime, values: np.ndarray) -> None:
    """Add the vortices and planted episodes valid at ``when`` to the
    ``(n_lat, n_lon)`` layer ``values``, in place."""
    if variable is VariableId.MSL:
        for spec in scenario.vortices:
            delta = _vortex_msl_delta(spec, scenario.grid, when)
            if delta is not None:
                values += delta
    if variable in (VariableId.U10, VariableId.V10):
        for spec in scenario.vortices:
            wind = _vortex_wind(spec, scenario.grid, when)
            if wind is not None:
                values += wind[0] if variable is VariableId.U10 else wind[1]
    if variable is VariableId.T2M:
        for ep in scenario.episodes:
            if ep.covers(when):
                sign = 1.0 if ep.kind is EventKind.HEATWAVE else -1.0
                values[ep.lat_index, ep.lon_index] += sign * ep.amplitude_k


#: How many chunks of noise the helper thread of
#: :func:`generate_variable_series` may have drawn beyond the one in use.
DRAWN_AHEAD = 2


def _drawn_ahead(rng: np.random.Generator, shapes: Sequence[tuple[int, ...]]
                 ) -> Iterator[np.ndarray]:
    """``rng.standard_normal(shape)`` for each of ``shapes`` in turn, drawn
    on one private helper thread at most :data:`DRAWN_AHEAD` draws ahead
    of the caller. numpy releases the interpreter lock while it draws, so
    the draws overlap the caller's work on the chunk before.

    Only the helper touches ``rng``, and it draws in order, so the values
    are those of the same calls made in line. An exception raised by a
    draw is raised here, at that draw. However this generator ends
    (exhausted, closed or raising), it cancels the draws not yet started,
    drops those not handed out, and joins the helper before it returns.
    """
    helper = ThreadPoolExecutor(max_workers=1)
    try:
        drawing: deque = deque()  # futures of the draws not yet handed out
        for shape in shapes:
            drawing.append(helper.submit(rng.standard_normal, shape))
            if len(drawing) > DRAWN_AHEAD:
                yield drawing.popleft().result()
        while drawing:
            yield drawing.popleft().result()
    finally:
        helper.shutdown(wait=True, cancel_futures=True)


def generate_variable_series(scenario: SyntheticScenario, variable: VariableId
                             ) -> Iterator[FieldBlock]:
    """Deterministic 6-hourly truth stream for one variable, in chunks.

    Each chunk is a :class:`FieldBlock` of consecutive layers of one year,
    as many float64 layers as one chunk holds
    (:func:`wxverify.metrics.chunk_count`), drawn with one
    call to the random generator and smoothed in one pass; it holds the
    values its layers would have drawn and smoothed one at a time. Fields are
    float32-quantized; the AR state is carried across years.

    The draws run on a helper thread (:func:`_drawn_ahead`), at most
    :data:`DRAWN_AHEAD` chunks ahead; everything else runs on the caller's
    thread. Closing the stream, or an error in it, joins the helper.
    """
    process = scenario.processes[variable]
    var_index = scenario.variables.index(variable)
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=scenario.seed, spawn_key=(var_index,)))
    grid = scenario.grid
    width = process.spatial_corr_points
    scale = _innovation_scale(width)
    rho = process.ar1
    coef = math.sqrt(1.0 - rho * rho) * process.noise_sigma
    per_chunk = metrics.chunk_count(8 * grid.n_lat * grid.n_lon)
    smooth = _boxcar(width, per_chunk, grid.shape)
    chunks = [tuple(times[start:start + per_chunk])
              for times in map(year_times, scenario.years)
              for start in range(0, len(times), per_chunk)]
    state = None  # the AR(1) noise of the layer before
    rho_state = np.empty(grid.shape)
    last = np.empty(grid.shape)
    with closing(_drawn_ahead(rng, [(len(chunk_times),) + grid.shape
                                    for chunk_times in chunks])) as draws:
        for chunk_times, values in zip(chunks, draws):
            smooth(values)
            values *= scale
            # the series opens at sigma * innovation; every later layer is
            # rho * (the layer before) + coef * innovation
            first = 0
            if state is None:
                values[0] *= process.noise_sigma
                state, first = values[0], 1
            values[first:] *= coef
            for layer in values[first:]:
                layer += np.multiply(state, rho, out=rho_state)
                state = layer
            last[...] = state
            state = last
            values += np.array([seasonal_value(process, when)
                                for when in chunk_times])[:, None, None]
            for when, layer in zip(chunk_times, values):
                _inject(scenario, variable, when, layer)
            values[...] = values.astype(np.float32)
            yield FieldBlock(grid, variable, chunk_times,
                             (0,) * len(chunk_times), values)
            del values, layer  # released before the next chunk is taken


def make_besttrack(scenario: SyntheticScenario) -> list[StormTrack]:
    """Analytic best tracks of the scenario's planted vortices.

    Intensity uses the closed-form minimum (seasonal MSL background
    minus depth; exact when MSL noise is off) and the vortex's peak
    tangential wind.
    """
    msl_process = scenario.processes.get(
        VariableId.MSL, VariableProcess(base=101000.0))
    tracks = []
    for spec in scenario.vortices:
        fixes = []
        for k in range(spec.n_steps + 1):
            when = spec.start_time + k * SIX_HOURS
            center = spec.center_at(when)
            if center is None:
                break
            fixes.append(StormFix(when, center[0], center[1],
                                  seasonal_value(msl_process, when) - spec.depth_pa,
                                  spec.max_wind_ms))
        tracks.append(StormTrack(spec.storm_id, TRUTH_SOURCE, spec.start_time,
                                 tuple(fixes), tuple([True] * len(fixes))))
    return tracks


def smoothing_width(kernel_width: int, lead_hours: int) -> int:
    """Boxcar width at a given lead: grows as 2*steps + 1, capped."""
    return min(kernel_width, 2 * (lead_hours // 6) + 1)


def smoothed_forecast(init: FieldBlock, leads: Sequence[int],
                      kernel_width: int) -> Iterator[FieldBlock]:
    """Persistence with lead-growing zonal smoothing, from the one-layer
    block ``init``: float32 blocks of as many leads as one chunk holds
    at 8 bytes a point (:func:`wxverify.metrics.chunk_count`).

    Mimics the spatial-smoothing signature of squared-error-trained
    models: high-wavenumber energy is attenuated by the boxcar transfer
    function and depressions lose depth, so tracked storms come out
    under-intensified. Width 1 is persistence: every lead repeats the
    init layer. The layer is widened to float64 once, smoothed in
    float64 and rounded to float32; the width does not fall as the lead
    grows, so over ascending ``leads`` each width is smoothed once.
    """
    if kernel_width < 1 or kernel_width % 2 == 0:
        raise ValueError("kernel_width must be odd and >= 1")
    if len(init.valid_times) != 1:
        raise ValueError("the init must be a block of one layer")
    layer = init.values[0].astype(np.float64)
    width, smoothed = 0, None  # the last width smoothed, and its layer
    step = metrics.chunk_count(8 * init.grid.n_lat * init.grid.n_lon)
    for at in range(0, len(leads), step):
        part = [int(lead) for lead in leads[at:at + step]]
        if any(lead % 6 for lead in part):
            raise ValueError("leads must be multiples of 6 hours")
        values = np.empty((len(part), *init.grid.shape), np.float32)
        for k, lead in enumerate(part):
            if (at_lead := smoothing_width(kernel_width, lead)) != width:
                width = at_lead
                smoothed = _zonal_boxcar(layer, width).astype(np.float32)
            values[k] = smoothed
        yield FieldBlock(init.grid, init.variable, tuple(
            init.valid_times[0] + timedelta(hours=lead) for lead in part),
            tuple(part), values)


# --- scenario JSON -----------------------------------------------------------

#: The JSON name of each type a parsed document holds.
_JSON_TYPES = {dict: "an object", list: "an array", str: "a string",
               int: "a number", float: "a number", bool: "a boolean",
               type(None): "null"}


def _typed(value, kind: type, name: str):
    """``value``, which must be a JSON object (``kind`` dict) or array
    (list); a value of another type raises :class:`InvalidHeader` naming
    it as ``name``."""
    if not isinstance(value, kind):
        raise InvalidHeader(
            f"bad scenario document: {name} must be {_JSON_TYPES[kind]}, "
            f"not {_JSON_TYPES.get(type(value), type(value).__name__)}")
    return value


def _objects(doc: dict, key: str) -> list[dict]:
    """The objects of the array ``doc[key]``, none when it is absent."""
    return [_typed(entry, dict, f"{key}[{i}]") for i, entry in
            enumerate(_typed(doc.get(key, []), list, key))]


def scenario_from_dict(doc: dict) -> SyntheticScenario:
    """A scenario from its parsed JSON document. A missing key, a section
    of the wrong JSON type or a bad value raises :class:`InvalidHeader`
    naming it."""
    _typed(doc, dict, "the document")
    try:
        grid_doc = _typed(doc["grid"], dict, "grid")
        if "resolution_deg" in grid_doc:
            grid = GeoGrid.regular_global(float(grid_doc["resolution_deg"]))
        else:
            grid = GeoGrid.uniform(
                float(grid_doc["lat_start"]), float(grid_doc["lat_step"]),
                int(grid_doc["n_lat"]), float(grid_doc["lon_start"]),
                float(grid_doc["lon_step"]), int(grid_doc["n_lon"]))
        processes = {}
        for key, p in _typed(doc["processes"], dict, "processes").items():
            p = _typed(p, dict, f"processes.{key}")
            processes[VariableId.from_key(key)] = VariableProcess(
                base=float(p["base"]),
                seasonal_amp=float(p.get("seasonal_amp", 0.0)),
                seasonal_phase_days=float(p.get("seasonal_phase_days", 0.0)),
                diurnal_amp=float(p.get("diurnal_amp", 0.0)),
                ar1=float(p.get("ar1", 0.0)),
                noise_sigma=float(p.get("noise_sigma", 0.0)),
                spatial_corr_points=int(p.get("spatial_corr_points", 1)))
        vortices = tuple(
            VortexSpec(
                storm_id=str(v["storm_id"]),
                start_lat=float(v["start_lat"]),
                start_lon=float(v["start_lon"]) % 360.0,
                start_time=fileio.parse_time(v["start_time"]),
                n_steps=int(v["n_steps"]),
                depth_pa=float(v.get("depth_pa", 3000.0)),
                efold_km=float(v.get("efold_km", 300.0)),
                u_ms=float(v.get("u_ms", 0.0)),
                v_ms=float(v.get("v_ms", 0.0)),
                max_wind_ms=float(v.get("max_wind_ms", 40.0)))
            for v in _objects(doc, "vortices"))
        episodes = tuple(
            PlantedEpisode(
                kind=EventKind(e["kind"]),
                year=int(e["year"]),
                lat_index=int(e["lat_index"]),
                lon_index=int(e["lon_index"]),
                start_day=int(e["start_day"]),
                n_days=int(e["n_days"]),
                amplitude_k=float(e["amplitude_k"]))
            for e in _objects(doc, "episodes"))
        return SyntheticScenario(
            seed=int(doc["seed"]),
            grid=grid,
            years=tuple(int(y) for y in _typed(doc["years"], list, "years")),
            processes=processes,
            vortices=vortices,
            episodes=episodes)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise InvalidHeader(f"bad scenario document: {exc}") from exc


def load_scenario(path: str | Path) -> SyntheticScenario:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InvalidHeader(f"cannot load scenario {path}: {exc}") from exc
    try:
        return scenario_from_dict(doc)
    except InvalidHeader as exc:
        raise InvalidHeader(f"{path}: {exc}") from exc


# --- synthetic runs on disk --------------------------------------------------

def _model_specs(models: str) -> dict[str, tuple[str, int]]:
    """Model name -> (kind, parameter) of a comma list of persistence,
    perfect, smoothed[:width] and lagged[:hours]: the boxcar width
    (persistence is width 1) or the lag (perfect is lag 0). A width must
    be an odd integer >= 1 and a lag a non-negative multiple of 6 hours;
    any other token raises ManifestError naming it."""
    specs: dict[str, tuple[str, int]] = {}
    for token in models.split(","):
        token = token.strip()
        if not token:
            continue
        if token in ("persistence", "perfect"):
            specs[token] = (token, int(token == "persistence"))
            continue
        kind, colon, param = token.partition(":")
        if kind not in ("smoothed", "lagged"):
            raise ManifestError(f"unknown synthetic model {token!r}")
        try:
            value = int(param) if colon else 9 if kind == "smoothed" else 48
        except ValueError:
            value = None
        if kind == "smoothed" and (value is None or value < 1
                                   or value % 2 == 0):
            raise ManifestError(f"synthetic model {token!r}: the width must "
                                f"be an odd integer >= 1")
        if kind == "lagged" and (value is None or value < 0 or value % 6):
            raise ManifestError(f"synthetic model {token!r}: the lag must be "
                                f"a non-negative multiple of 6 hours")
        specs[f"{kind}{value}"] = (kind, value)
    return specs


def _within(chunk: FieldBlock, lo: datetime, hi: datetime) -> FieldBlock:
    """The layers of ``chunk`` valid from ``lo`` to ``hi``."""
    a = bisect_left(chunk.valid_times, lo)
    b = bisect_right(chunk.valid_times, hi)
    return FieldBlock(chunk.grid, chunk.variable, chunk.valid_times[a:b],
                      chunk.lead_hours[a:b], chunk.values[a:b])


def _write_truth(scenario: SyntheticScenario, manifest: fileio.RunManifest,
                 keep: set[datetime] | None) -> None:
    """Generate truth and write one stack per (variable, year) at the
    manifest's truth path, streamed a chunk of layers at a time.

    With ``keep``, each year's stack holds the contiguous 6-hourly span
    from the year's first to its last kept time; years without a kept
    time are not written.
    """
    spans: dict[int, list[datetime]] = {}  # year -> [first, last] kept
    for when in sorted(keep or ()):
        spans.setdefault(when.year, [when, when])[1] = when
    for variable in scenario.variables:
        # closed, and its helper thread joined, even if a write raises
        with closing(generate_variable_series(scenario, variable)) as chunks:
            for year, year_chunks in groupby(
                    chunks, key=lambda c: c.valid_times[0].year):
                if keep is not None:
                    if year not in spans:
                        continue
                    lo, hi = spans[year]
                    year_chunks = (part for part in (_within(c, lo, hi)
                                                     for c in year_chunks)
                                   if part.valid_times)
                writers.write_stack(year_chunks, manifest.truth_path(
                    variable, datetime(year, 1, 1, tzinfo=timezone.utc)))


def _lagged_forecast(source: fileio.FieldSource, variable: VariableId,
                     init: datetime, leads: Sequence[int], lag: int,
                     step: int) -> Iterator[FieldBlock]:
    """The forecast from ``init`` whose every lead is the truth ``lag``
    hours before its valid time: one truth block per ``step`` leads."""
    for at in range(0, len(leads), step):
        part = leads[at:at + step]
        truth = source.truth_block(variable, [
            init + timedelta(hours=lead - lag) for lead in part])
        yield replace(truth, lead_hours=tuple(part), valid_times=tuple(
            init + timedelta(hours=lead) for lead in part))


def _check_years(scenario: SyntheticScenario, init_times: Sequence[datetime],
                 max_lead_hours: int, lag: int):
    """ManifestError naming the scenario's ``years`` and the first time
    outside them that a run reads truth at: from ``lag`` hours (the
    largest lag of its models) before each init to ``max_lead_hours``
    after it."""
    years = scenario.years
    for init in init_times:
        needs = (f"which --inits {fileio.format_time(init)} needs with "
                 f"--max-lead-hours {max_lead_hours}"
                 + (f" and a model lagged {lag} h" if lag else ""))
        try:
            first = init - timedelta(hours=lag)
            last = init + timedelta(hours=max_lead_hours)
        except OverflowError:
            raise ManifestError(f"years {list(years)} do not hold the times "
                                f"{needs}: they run past the calendar") \
                from None
        for year in range(first.year, last.year + 1):
            if year not in years:
                when = max(first, datetime(year, 1, 1, tzinfo=timezone.utc))
                raise ManifestError(
                    f"years {list(years)} do not hold "
                    f"{fileio.format_time(when)}, {needs}; list its year in "
                    f"the scenario, or change those options")


def write_run(scenario_path: str | Path, out_dir: str | Path, *,
              seed: int | None = None, inits: str | None = None,
              max_lead_hours: int = 240, models: str | None = None,
              truth_span: str = "full", stations: int = 0) -> Path:
    """Write a manifest, then truth and forecasts at the paths it names,
    any best track and ``stations`` stations under ``out_dir``; returns
    the manifest path. ``inits`` and ``models`` are comma lists, as the
    ``synth`` options are. A bad scenario or option raises before
    anything is written."""
    scenario = load_scenario(scenario_path)
    if seed is not None:
        if seed < 0:
            raise ManifestError(f"--seed must be non-negative, got {seed}")
        scenario = replace(scenario, seed=seed)
    if max_lead_hours < 0 or max_lead_hours % 6:
        raise ManifestError(f"--max-lead-hours must be a non-negative "
                            f"multiple of 6, got {max_lead_hours}")
    n_points = scenario.grid.n_lat * scenario.grid.n_lon
    if not 0 <= stations <= n_points:
        raise ManifestError(f"--stations must lie in 0..{n_points}, the "
                            f"grid points, got {stations}")
    init_times = [fileio.parse_time(t) for t in inits.split(",")] if inits \
        else [datetime(scenario.years[-1], 7, 1, tzinfo=timezone.utc)]
    for k, init in enumerate(init_times):
        if init in init_times[:k]:
            raise ManifestError(f"--inits lists {fileio.format_time(init)} "
                                f"more than once")
        if init.hour % 6 or init.minute or init.second or init.microsecond:
            raise ManifestError(f"--inits lists {fileio.format_time(init)}; "
                                f"an init must be at 00, 06, 12 or 18 UTC")
    model_specs = _model_specs(models or "persistence")
    _check_years(scenario, init_times, max_lead_hours, max(
        (lag for kind, lag in model_specs.values() if kind == "lagged"),
        default=0))
    leads = list(range(0, max_lead_hours + 1, 6))
    keep: set[datetime] | None = None
    if truth_span == "run":
        if any(kind == "lagged" for kind, _ in model_specs.values()):
            raise ManifestError("lagged models need --truth-span full")
        keep = {init + timedelta(hours=lead)
                for init in init_times for lead in leads}

    out_dir = Path(out_dir)
    truth_pattern = "truth/{variable}/{year}.rbs"
    model_patterns = {
        name: f"models/{name}/{{init}}/{{variable}}.rbs"
        for name in sorted(model_specs)}
    history_years = list(scenario.years[:-1] or scenario.years)
    climatology_doc = {
        "daily_mean_pattern": "clim/{variable}.rbc",
        "history_pattern": truth_pattern,
        "history_years": history_years,
    }
    if len(history_years) >= 2:  # threshold construction needs >= 2 years
        climatology_doc["thresholds_path"] = "clim/thresholds.rbt"
    manifest_doc = {
        "variables": [v.key for v in scenario.variables],
        "init_times": [fileio.format_time(t) for t in init_times],
        "max_lead_hours": max_lead_hours,
        "truth_pattern": truth_pattern,
        "models": model_patterns,
        "climatology": climatology_doc,
        "regions": {"global": None},
    }
    manifest_path = publish(out_dir / "manifest.json",
                            canonical_json(manifest_doc))
    # keep the generating process parameters next to the outputs
    publish(out_dir / "scenario.json", Path(scenario_path).read_bytes())

    # truth is written at the manifest's paths, and forecasts are built
    # from it, read back through the manifest like any other run
    source = fileio.FieldSource(fileio.load_manifest(manifest_path, require=()))
    _write_truth(scenario, source.manifest, keep)
    for name, (kind, param) in sorted(model_specs.items()):
        for init in init_times:
            for variable in scenario.variables:
                if kind in ("persistence", "smoothed"):  # from the init
                    blocks = smoothed_forecast(
                        source.truth_block(variable, [init]), leads, param)
                else:  # perfect, or lagged: truth from `param` hours earlier
                    blocks = _lagged_forecast(
                        source, variable, init, leads, param,
                        source.block_layers(variable))
                writers.write_stack(blocks, source.manifest.model_path(
                    name, init, variable, leads[0]))

    if scenario.vortices:
        eventio.write_besttrack(make_besttrack(scenario),
                                out_dir / "besttrack.csv")

    if stations:
        _write_station_csvs(scenario, source, stations)
    return manifest_path


def _write_station_csvs(scenario: SyntheticScenario,
                        source: fileio.FieldSource, n_stations: int) -> None:
    """Sample synthetic stations at grid nodes; observations equal truth."""
    out_dir = source.manifest.root
    grid = scenario.grid
    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=scenario.seed, spawn_key=(10_001,)))
    flat = rng.choice(grid.n_lat * grid.n_lon, size=n_stations, replace=False)
    flat.sort()
    meta_lines = ["id,lat,lon,elev_m"]
    sites = []
    for idx in flat:
        i, j = divmod(int(idx), grid.n_lon)
        sid = f"SYN{idx:05d}"
        sites.append((sid, i, j))
        meta_lines.append(f"{sid},{float(grid.lat_deg[i])!r},"
                          f"{float(grid.lon_deg[j])!r},0.0")
    publish(out_dir / "stations_meta.csv", text_lines(meta_lines))

    ids, rows, cols = zip(*sites)
    valid_times = source.manifest.valid_times
    stamps = dict(zip(valid_times, map(fileio.format_time, valid_times)))
    first = valid_times[0]
    hours = [(when - first) // timedelta(hours=1) for when in valid_times]
    with publishing(out_dir / "stations_obs.csv") as tmp, \
            open(tmp, "wb") as fh:
        fh.write(b"station_id,iso_time,variable,value_si\n")
        for variable in scenario.variables:
            if variable.derived:
                continue
            for run in fileio.layer_runs(hours,
                                         source.block_layers(variable)):
                times = [first + timedelta(hours=h) for h in run]
                values = source.truth_block(variable, times).values
                fh.write("".join(
                    f"{sid},{stamps[when]},{variable.key},{value!r}\n"
                    for when, row in zip(times,
                                         values[:, rows, cols].tolist())
                    for sid, value in zip(ids, row)).encode())
