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

Identical seeds produce bitwise-identical streams. ``write_run`` (the
``synth`` command) writes a whole synthetic run: truth and forecast
stacks, the manifest, the best track of any vortex and sampled stations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta, timezone
from itertools import groupby
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from . import fileio
from .climatology import SIX_HOURS, calendar_day_index, year_times
from .cyclones import TRUTH_SOURCE, StormFix, StormTrack
from .errors import InvalidHeader, ManifestError
from .extremes import EventKind
from .grid import KM_PER_DEG, GeoGrid, GridField, VariableId, haversine_km_grid


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
        if not self.years:
            raise ValueError("scenario needs at least one year")

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


def _boxcar_smooth(noise: np.ndarray, width: int) -> np.ndarray:
    """Separable boxcar: wrapped in longitude, clamped in latitude."""
    if width == 1:
        return noise
    half = width // 2
    out = np.zeros_like(noise)
    for s in range(-half, half + 1):
        out += np.roll(noise, s, axis=1)
    out /= width
    lat_acc = np.zeros_like(out)
    counts = np.zeros(noise.shape[0])
    for s in range(-half, half + 1):
        lo = max(0, -s)
        hi = min(noise.shape[0], noise.shape[0] - s)
        lat_acc[lo:hi] += out[lo + s:hi + s]
        counts[lo:hi] += 1
    return lat_acc / counts[:, None]


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


def generate_variable_series(scenario: SyntheticScenario, variable: VariableId
                             ) -> Iterator[GridField]:
    """Deterministic 6-hourly truth stream for one variable.

    Fields are float32-quantized; the AR state is carried across years.
    """
    process = scenario.processes[variable]
    var_index = scenario.variables.index(variable)
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=scenario.seed, spawn_key=(var_index,)))
    shape = scenario.grid.shape
    width = process.spatial_corr_points
    scale = _innovation_scale(width)

    def innovation():
        return _boxcar_smooth(rng.standard_normal(shape), width) * scale

    state = process.noise_sigma * innovation()
    rho = process.ar1
    first = True
    for year in scenario.years:
        for when in year_times(year):
            if not first:
                state = rho * state + math.sqrt(1.0 - rho * rho) \
                    * process.noise_sigma * innovation()
            first = False
            values = np.full(shape, seasonal_value(process, when)) + state
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
            quantized = np.asarray(values, dtype=np.float32).astype(np.float64)
            yield GridField(scenario.grid, variable, when, 0, quantized)


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


def persistence_forecast(init: GridField, leads: Sequence[int]) -> list[GridField]:
    """The identity baseline: every lead repeats the init field."""
    out = []
    for lead in leads:
        if lead % 6:
            raise ValueError("leads must be multiples of 6 hours")
        out.append(init.at(init.valid_time + timedelta(hours=int(lead)), int(lead)))
    return out


def _zonal_boxcar(values: np.ndarray, width: int) -> np.ndarray:
    if width == 1:
        return values
    half = width // 2
    out = np.zeros_like(values)
    for s in range(-half, half + 1):
        out += np.roll(values, s, axis=1)
    return out / width


def smoothing_width(kernel_width: int, lead_hours: int) -> int:
    """Boxcar width at a given lead: grows as 2*steps + 1, capped."""
    return min(kernel_width, 2 * (lead_hours // 6) + 1)


def smoothed_forecast(init: GridField, leads: Sequence[int],
                      kernel_width: int) -> list[GridField]:
    """Persistence with lead-growing zonal smoothing.

    Mimics the spatial-smoothing signature of squared-error-trained
    models: high-wavenumber energy is attenuated by the boxcar transfer
    function and depressions lose depth, so tracked storms come out
    under-intensified. Width 1 degenerates to persistence.
    """
    if kernel_width < 1 or kernel_width % 2 == 0:
        raise ValueError("kernel_width must be odd and >= 1")
    out = []
    for lead in leads:
        if lead % 6:
            raise ValueError("leads must be multiples of 6 hours")
        width = smoothing_width(kernel_width, int(lead))
        when = init.valid_time + timedelta(hours=int(lead))
        if width == 1:
            out.append(init.at(when, int(lead)))
            continue
        smoothed = _zonal_boxcar(init.values, width)
        quantized = np.asarray(smoothed, dtype=np.float32).astype(np.float64)
        out.append(GridField(init.grid, init.variable, when, int(lead), quantized))
    return out


# --- scenario JSON -----------------------------------------------------------

def scenario_from_dict(doc: dict) -> SyntheticScenario:
    try:
        grid_doc = doc["grid"]
        if "resolution_deg" in grid_doc:
            grid = GeoGrid.regular_global(float(grid_doc["resolution_deg"]))
        else:
            grid = GeoGrid.uniform(
                float(grid_doc["lat_start"]), float(grid_doc["lat_step"]),
                int(grid_doc["n_lat"]), float(grid_doc["lon_start"]),
                float(grid_doc["lon_step"]), int(grid_doc["n_lon"]))
        processes = {}
        for key, p in doc["processes"].items():
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
                start_time=datetime.fromisoformat(
                    v["start_time"].replace("Z", "+00:00")),
                n_steps=int(v["n_steps"]),
                depth_pa=float(v.get("depth_pa", 3000.0)),
                efold_km=float(v.get("efold_km", 300.0)),
                u_ms=float(v.get("u_ms", 0.0)),
                v_ms=float(v.get("v_ms", 0.0)),
                max_wind_ms=float(v.get("max_wind_ms", 40.0)))
            for v in doc.get("vortices", []))
        episodes = tuple(
            PlantedEpisode(
                kind=EventKind(e["kind"]),
                year=int(e["year"]),
                lat_index=int(e["lat_index"]),
                lon_index=int(e["lon_index"]),
                start_day=int(e["start_day"]),
                n_days=int(e["n_days"]),
                amplitude_k=float(e["amplitude_k"]))
            for e in doc.get("episodes", []))
        return SyntheticScenario(
            seed=int(doc["seed"]),
            grid=grid,
            years=tuple(int(y) for y in doc["years"]),
            processes=processes,
            vortices=vortices,
            episodes=episodes)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidHeader(f"bad scenario document: {exc}") from exc


def load_scenario(path: str | Path) -> SyntheticScenario:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InvalidHeader(f"cannot load scenario {path}: {exc}") from exc
    return scenario_from_dict(doc)


# --- synthetic runs on disk --------------------------------------------------

def _model_specs(models: str) -> dict[str, tuple[str, int]]:
    """Model name -> (kind, parameter) of a comma list of persistence,
    perfect, smoothed[:width] and lagged[:hours]."""
    specs: dict[str, tuple[str, int]] = {}
    for token in models.split(","):
        token = token.strip()
        if not token:
            continue
        if token == "persistence":
            specs[token] = ("persistence", 0)
        elif token == "perfect":
            specs[token] = ("perfect", 0)
        elif token.startswith("smoothed"):
            width = int(token.split(":", 1)[1]) if ":" in token else 9
            specs[f"smoothed{width}"] = ("smoothed", width)
        elif token.startswith("lagged"):
            lag = int(token.split(":", 1)[1]) if ":" in token else 48
            if lag % 6:
                raise ManifestError("lag must be a multiple of 6 hours")
            specs[f"lagged{lag}"] = ("lagged", lag)
        else:
            raise ManifestError(f"unknown synthetic model {token!r}")
    return specs


def _write_truth(scenario: SyntheticScenario, out_dir: Path,
                 truth_pattern: str, keep: set[datetime] | None) -> None:
    """Generate truth and write one stack per (variable, year), streamed.

    With ``keep``, each year's stack holds the contiguous 6-hourly span
    from the year's first to its last kept time; years without a kept
    time are not written.
    """
    spans: dict[int, list[datetime]] = {}  # year -> [first, last] kept
    for when in sorted(keep or ()):
        spans.setdefault(when.year, [when, when])[1] = when
    for variable in scenario.variables:
        series = generate_variable_series(scenario, variable)
        for year, fields in groupby(series, key=lambda f: f.valid_time.year):
            if keep is not None:
                if year not in spans:
                    continue
                lo, hi = spans[year]
                fields = (f for f in fields if lo <= f.valid_time <= hi)
            fileio.write_stack(fields, out_dir / truth_pattern.format(
                variable=variable.key, year=year))


def write_run(scenario_path: str | Path, out_dir: str | Path, *,
              seed: int | None = None, inits: str | None = None,
              max_lead_hours: int = 240, models: str | None = None,
              truth_span: str = "full", stations: int = 0) -> Path:
    """Write truth, forecasts, a manifest, any best track and ``stations``
    stations under ``out_dir``; returns the manifest path. ``inits`` and
    ``models`` are comma lists, as the ``synth`` options are."""
    scenario = load_scenario(scenario_path)
    if seed is not None:
        scenario = replace(scenario, seed=seed)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    leads = list(range(0, max_lead_hours + 1, 6))
    init_times = [fileio.parse_time(t) for t in inits.split(",")] if inits \
        else [datetime(scenario.years[-1], 7, 1, tzinfo=timezone.utc)]
    model_specs = _model_specs(models or "persistence")

    keep: set[datetime] | None = None
    if truth_span == "run":
        if any(kind == "lagged" for kind, _ in model_specs.values()):
            raise ManifestError("lagged models need --truth-span full")
        keep = {init + timedelta(hours=lead)
                for init in init_times for lead in leads}
    truth_pattern = "truth/{variable}/{year}.rbs"
    _write_truth(scenario, out_dir, truth_pattern, keep)

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
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_bytes(
        (json.dumps(manifest_doc, sort_keys=True, indent=2) + "\n").encode())
    # keep the generating process parameters next to the outputs
    (out_dir / "scenario.json").write_bytes(Path(scenario_path).read_bytes())

    # forecasts are built from the truth just written, read back through
    # the manifest like any other run
    source = fileio.FieldSource(fileio.load_manifest(manifest_path, require=()))
    for name, (kind, param) in sorted(model_specs.items()):
        for init in init_times:
            for variable in scenario.variables:
                if kind == "persistence":
                    fields = persistence_forecast(source.truth(variable, init),
                                                  leads)
                elif kind == "smoothed":
                    fields = smoothed_forecast(source.truth(variable, init),
                                               leads, param)
                else:  # perfect, or lagged: truth from `param` hours earlier
                    fields = [source.truth(variable,
                                           init + timedelta(hours=lead - param))
                              .at(init + timedelta(hours=lead), lead)
                              for lead in leads]
                fileio.write_stack(fields, source.manifest.model_path(
                    name, init, variable, leads[0]))

    if scenario.vortices:
        lines = ["storm_id,iso_time,lat,lon,mslp_hpa,wind_ms"]
        for track in make_besttrack(scenario):
            for fix in track.fixes:
                lines.append(f"{track.storm_id},{fileio.format_time(fix.time)},"
                             f"{fix.lat!r},{fix.lon!r},"
                             f"{fix.min_mslp_pa / 100.0!r},{fix.max_wind_ms!r}")
        (out_dir / "besttrack.csv").write_bytes(
            ("\n".join(lines) + "\n").encode())

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
    flat = rng.choice(grid.n_lat * grid.n_lon, size=min(
        n_stations, grid.n_lat * grid.n_lon), replace=False)
    flat.sort()
    meta_lines = ["id,lat,lon,elev_m"]
    sites = []
    for idx in flat:
        i, j = divmod(int(idx), grid.n_lon)
        sid = f"SYN{idx:05d}"
        sites.append((sid, i, j))
        meta_lines.append(f"{sid},{float(grid.lat_deg[i])!r},"
                          f"{float(grid.lon_deg[j])!r},0.0")
    (out_dir / "stations_meta.csv").write_bytes(
        ("\n".join(meta_lines) + "\n").encode())

    obs_lines = ["station_id,iso_time,variable,value_si"]
    for variable in scenario.variables:
        if variable.derived:
            continue
        for when in source.manifest.valid_times:
            field = source.truth(variable, when)
            for sid, i, j in sites:
                obs_lines.append(
                    f"{sid},{fileio.format_time(when)},{variable.key},"
                    f"{float(field.values[i, j])!r}")
    (out_dir / "stations_obs.csv").write_bytes(
        ("\n".join(obs_lines) + "\n").encode())
