"""Minimum-pressure cyclone tracking and track/intensity verification.

The tracker walks a forecast's MSL, U10 and V10 blocks (see
:class:`~wxverify.grid.FieldBlock`) at 6-hour cadence, every storm of
one init together and one run of leads at a time
(:class:`StormTracker`): at each lead
the storm center is the grid point of minimum mean sea-level pressure
within a great-circle search radius of the previous center (of the seed
at the first step). Tracking terminates, permanently, when no point in
the search disc is below the pressure cutoff. Maximum 10-m wind is taken
within a second radius of the center. Each disc is searched only inside
the lat/lon index box that holds it, never over the whole grid.

Verification follows the homogeneous-sample convention: per-lead scores
average only over the (storm, init) units successfully tracked by every
compared model and covered by the truth record. Position error is the
great-circle distance between centers; intensity errors are model minus
truth, reported in hPa for pressure (positive pressure bias means an
under-intensified storm).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Mapping, Sequence

import numpy as np

from .errors import MissingFix, SeedOutsideDomain, UnitOutOfRange
from .grid import (EARTH_RADIUS_KM, SIX_HOURS, FieldBlock, GeoGrid,
                   haversine_km, haversine_km_grid)

#: Plausibility band for minimum sea-level pressure, Pa (exclusive).
MSLP_BAND_PA = (85000.0, 105000.0)


@dataclass(frozen=True)
class StormFix:
    """One storm observation or analysis: position and intensity."""

    time: datetime
    lat: float
    lon: float
    min_mslp_pa: float
    max_wind_ms: float

    def __post_init__(self):
        if self.time.tzinfo is None:
            raise ValueError("fix time must be timezone-aware UTC")
        object.__setattr__(self, "time", self.time.astimezone(timezone.utc))
        for name in ("lat", "lon", "min_mslp_pa", "max_wind_ms"):
            object.__setattr__(self, name, float(getattr(self, name)))
        lo, hi = MSLP_BAND_PA
        if not lo < self.min_mslp_pa < hi:
            raise UnitOutOfRange(
                f"MSLP {self.min_mslp_pa} Pa outside plausibility band "
                f"({lo}, {hi})")
        if not self.max_wind_ms >= 0.0:
            raise UnitOutOfRange(f"max wind {self.max_wind_ms} must be >= 0")

    @property
    def position(self) -> tuple[float, float]:
        return (self.lat, self.lon)


#: The source name of best-track truth.
TRUTH_SOURCE = "truth"


@dataclass(frozen=True)
class StormTrack:
    """Time-ordered fixes for one storm from one source: ``truth``
    (:data:`TRUTH_SOURCE`) or a model's name.

    ``tracked_mask[k]`` says whether a fix exists at lead step k (6-hour
    steps from ``init_time``). Fixes are contiguous from lead 0: once
    the tracker loses a storm the loss is terminal.
    """

    storm_id: str
    source: str
    init_time: datetime
    fixes: tuple[StormFix, ...]
    tracked_mask: tuple[bool, ...]

    def __post_init__(self):
        if self.init_time.tzinfo is None:
            raise ValueError("init_time must be timezone-aware UTC")
        object.__setattr__(self, "init_time", self.init_time.astimezone(timezone.utc))
        object.__setattr__(self, "fixes", tuple(self.fixes))
        object.__setattr__(self, "tracked_mask", tuple(bool(b) for b in self.tracked_mask))
        n_fixes = len(self.fixes)
        if sum(self.tracked_mask) != n_fixes:
            raise ValueError("tracked_mask must flag exactly one lead per fix")
        if not all(self.tracked_mask[:n_fixes]):
            raise ValueError("tracked leads must be a contiguous prefix")
        for k, fix in enumerate(self.fixes):
            if fix.time != self.init_time + k * SIX_HOURS:
                raise ValueError(
                    f"fix {k} at {fix.time} breaks the 6-hour cadence from "
                    f"{self.init_time}")

    def fix_at_lead(self, lead_step: int) -> StormFix | None:
        if 0 <= lead_step < len(self.fixes):
            return self.fixes[lead_step]
        return None

    def fix_at_time(self, when: datetime) -> StormFix | None:
        delta = when - self.init_time
        steps, rem = divmod(delta, SIX_HOURS)
        if rem or steps < 0:
            return None
        return self.fix_at_lead(int(steps))


@dataclass(frozen=True)
class TrackerConfig:
    """Tracker defaults; the search radius covers 6-hour motion up to
    roughly 20 m/s."""

    search_radius_km: float = 450.0
    wind_radius_km: float = 250.0
    mslp_cutoff_pa: float = 100500.0


def _index_box(grid: GeoGrid, lat0: float, lon0: float, radius_km: float,
               steps: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns, each in ascending grid order, of the lat/lon index
    box that holds every node within ``radius_km`` of (lat0, lon0).

    A node of the disc lies within r/R of lat0 in latitude and, unless
    the disc reaches a pole, within asin(sin(r/R) / cos(lat0)) of lon0 in
    longitude; both bounds are widened by one grid step (``steps``, of
    latitude and longitude) for rounding. Every column is taken when the
    widened rows reach a pole. Longitude offsets are folded into [0, 180],
    so on a wrapping grid a box across 0/360 degrees holds the columns of
    both ends, still in ascending order.
    """
    lat_step, lon_step = steps
    angle = radius_km / EARTH_RADIUS_KM
    reach = math.degrees(angle) + lat_step
    rows = np.flatnonzero(np.abs(grid.lat_deg - lat0) <= reach)
    if abs(lat0) + reach >= 90.0:
        return rows, np.arange(grid.n_lon)
    half = math.degrees(math.asin(min(
        1.0, math.sin(angle) / math.cos(math.radians(lat0))))) + lon_step
    offset = (grid.lon_deg - lon0) % 360.0
    return rows, np.flatnonzero(np.minimum(offset, 360.0 - offset) <= half)


class _Storm:
    """One storm's tracker state, carried from one run of leads to the
    next: its centre, its fixes and whether it is lost."""

    def __init__(self, storm_id: str, center: tuple[float, float]):
        self.storm_id = storm_id
        self.center = center
        self.fixes: list[StormFix] = []
        self.lost = False

    def advance(self, msl: FieldBlock, u10: FieldBlock, v10: FieldBlock,
                steps: tuple[float, float], config: TrackerConfig):
        """Track through each layer of one run until the storm is lost."""
        if self.lost:
            return
        grid = msl.grid
        for k, when in enumerate(msl.valid_times):
            rows, cols = _index_box(grid, *self.center,
                                    config.search_radius_km, steps)
            pressure = msl.values[k][np.ix_(rows, cols)].astype(np.float64)
            below = (haversine_km_grid(*self.center, grid, rows, cols)
                     <= config.search_radius_km) \
                & (pressure < config.mslp_cutoff_pa)
            if not below.any():
                self.lost = True  # the loss is terminal
                return
            # The box's rows and columns ascend in grid order, so the first
            # minimum in C order is the whole grid's: equal minima break
            # toward the smallest row (northernmost), then the smallest
            # column, even across the seam (of 358 and 2 degrees E, 2
            # degrees E).
            flat = int(np.argmin(np.where(below, pressure, np.inf)))
            bi, bj = divmod(flat, cols.size)
            i, j = int(rows[bi]), int(cols[bj])
            self.center = (float(grid.lat_deg[i]), float(grid.lon_deg[j]))
            rows, cols = _index_box(grid, *self.center,
                                    config.wind_radius_km, steps)
            box = np.ix_(rows, cols)
            wind_speed = np.hypot(u10.values[k][box], v10.values[k][box],
                                  dtype=np.float64)
            near_center = haversine_km_grid(*self.center, grid, rows, cols) \
                <= config.wind_radius_km
            max_wind = float(wind_speed[near_center].max())
            self.fixes.append(StormFix(when, *self.center,
                                       float(pressure[bi, bj]), max_wind))


class StormTracker:
    """The storms seeded at one forecast init, tracked together through
    its MSL, U10 and V10 blocks one run of leads at a time.

    Each :meth:`advance` takes the next run: blocks whose leads continue
    6-hourly from the last run's (from 0 h at the first), with the U10
    and V10 blocks on the valid times and leads of MSL's and every block
    on the grid of the first, or ValueError is raised. Every storm
    carries its centre, its fixes and whether it is lost from one run to
    the next, so the tracks do not depend on how the leads are cut into
    runs, and a caller holds one run of blocks at a time. Each step
    searches only the index box that holds the search disc (see
    :func:`_index_box`), and takes the maximum wind only in the box that
    holds the wind disc: distances, MSL (widened, so the cutoff is
    compared in float64) and wind speed (in float64) are computed for the
    box's nodes alone. Seeds are best-track positions at init time; the
    first run raises :class:`SeedOutsideDomain` for the first seed
    outside its grid.
    """

    def __init__(self, seeds: Sequence[tuple[str, tuple[float, float]]], *,
                 source: str, config: TrackerConfig = TrackerConfig()):
        self.source = source
        self.config = config
        self._storms = [_Storm(storm_id, (float(lat), float(lon) % 360.0))
                        for storm_id, (lat, lon) in seeds]
        self._grid: GeoGrid | None = None
        self._steps = (0.0, 0.0)
        self._times: list[datetime] = []  # valid times of the leads so far

    def advance(self, msl: FieldBlock, u10: FieldBlock, v10: FieldBlock
                ) -> None:
        """Track every storm through the next run of leads."""
        grid, leads = msl.grid, msl.lead_hours
        first = 6 * len(self._times)
        if not leads or leads != tuple(range(first, first + 6 * len(leads),
                                             6)):
            raise ValueError(f"MSL leads are {leads}, expected {first}, "
                             f"{first + 6}, {first + 12}, ... h")
        if u10.grid != grid or v10.grid != grid \
                or (self._grid is not None and grid != self._grid):
            raise ValueError("tracker fields must share one grid")
        for wind in (u10, v10):
            if (wind.valid_times, wind.lead_hours) != (msl.valid_times, leads):
                raise ValueError(f"{wind.variable.key} valid times or leads "
                                 f"differ from MSL's")
        if self._grid is None:
            for storm in self._storms:
                lat, lon = storm.center
                if not (grid.lat_deg[-1] <= lat <= grid.lat_deg[0]):
                    raise SeedOutsideDomain(f"seed latitude {lat} outside grid")
                if not grid.wraps_lon and \
                        not (grid.lon_deg[0] <= lon <= grid.lon_deg[-1]):
                    raise SeedOutsideDomain(
                        f"seed longitude {lon} outside grid")
            self._grid = grid
            self._steps = tuple(float(np.abs(np.diff(axis)).max(initial=0.0))
                                for axis in (grid.lat_deg, grid.lon_deg))
        for storm in self._storms:
            storm.advance(msl, u10, v10, self._steps, self.config)
        self._times.extend(msl.valid_times)

    def tracks(self) -> list[StormTrack]:
        """Each storm's track over the leads advanced so far, in seed
        order."""
        if not self._times:
            raise ValueError("no run of leads has been tracked")
        n_leads = len(self._times)
        return [StormTrack(storm.storm_id, self.source, self._times[0],
                           tuple(storm.fixes),
                           tuple(k < len(storm.fixes) for k in range(n_leads)))
                for storm in self._storms]


def track_storm(msl: FieldBlock, u10: FieldBlock, v10: FieldBlock,
                seed: tuple[float, float], *, storm_id: str,
                source: str,
                config: TrackerConfig = TrackerConfig()) -> StormTrack:
    """Track one storm through a forecast's MSL, U10 and V10 blocks of
    leads 0, 6, 12, ... hours: the one-run, one-storm case of
    :class:`StormTracker`."""
    tracker = StormTracker([(storm_id, seed)], source=source, config=config)
    tracker.advance(msl, u10, v10)
    return tracker.tracks()[0]


TrackKey = tuple[str, datetime]  # (storm id, forecast init time)


def homogeneous_sample(model_tracks: Mapping[str, Mapping[TrackKey, StormTrack]],
                       truth_tracks: Mapping[str, StormTrack],
                       n_leads: int) -> list[frozenset[TrackKey]]:
    """Per-lead sets of (storm, init) units tracked by every model.

    A unit belongs to S_l when every model still tracks it at lead l and
    the truth record has a fix at the corresponding valid time. All
    models must cover the same unit list.
    """
    models = sorted(model_tracks)
    if not models:
        raise ValueError("no model tracks supplied")
    keys = set(model_tracks[models[0]])
    for m in models[1:]:
        if set(model_tracks[m]) != keys:
            raise ValueError(f"model {m} covers a different storm list")
    sample: list[frozenset[TrackKey]] = []
    for lead in range(n_leads):
        members = set()
        for key in keys:
            storm_id, init = key
            if not all(model_tracks[m][key].fix_at_lead(lead) is not None
                       for m in models):
                continue
            truth = truth_tracks.get(storm_id)
            if truth is None or truth.fix_at_time(init + lead * SIX_HOURS) is None:
                continue
            members.add(key)
        sample.append(frozenset(members))
    return sample


def _paired_fixes(tracks: Mapping[TrackKey, StormTrack],
                  truth_tracks: Mapping[str, StormTrack],
                  members: frozenset[TrackKey], lead: int):
    for key in sorted(members, key=lambda k: (k[0], k[1])):
        storm_id, init = key
        track = tracks.get(key)
        model_fix = track.fix_at_lead(lead) if track is not None else None
        if model_fix is None:
            raise MissingFix(f"model fix absent: storm {storm_id}, "
                             f"init {init.isoformat()}, lead step {lead}")
        truth = truth_tracks.get(storm_id)
        truth_fix = truth.fix_at_time(init + lead * SIX_HOURS) if truth else None
        if truth_fix is None:
            raise MissingFix(f"truth fix absent: storm {storm_id}, "
                             f"init {init.isoformat()}, lead step {lead}")
        yield model_fix, truth_fix


def track_dpe(tracks: Mapping[TrackKey, StormTrack],
              truth_tracks: Mapping[str, StormTrack],
              sample: Sequence[frozenset[TrackKey]]) -> list[float | None]:
    """Per-lead mean great-circle distance (km) between centers.

    None where the homogeneous sample is empty.
    """
    out: list[float | None] = []
    for lead, members in enumerate(sample):
        if not members:
            out.append(None)
            continue
        dists = [haversine_km(m.position, t.position)
                 for m, t in _paired_fixes(tracks, truth_tracks, members, lead)]
        out.append(sum(dists) / len(dists))
    return out


@dataclass(frozen=True)
class IntensityError:
    """Per-lead intensity errors; pressure in hPa, wind in m/s."""

    mae_mslp_hpa: float
    bias_mslp_hpa: float
    mae_wind_ms: float
    bias_wind_ms: float


def intensity_errors(tracks: Mapping[TrackKey, StormTrack],
                     truth_tracks: Mapping[str, StormTrack],
                     sample: Sequence[frozenset[TrackKey]]
                     ) -> list[IntensityError | None]:
    """Per-lead MAE and bias of min MSLP and max wind (model minus truth)."""
    out: list[IntensityError | None] = []
    for lead, members in enumerate(sample):
        if not members:
            out.append(None)
            continue
        dp = []
        dv = []
        for m, t in _paired_fixes(tracks, truth_tracks, members, lead):
            dp.append((m.min_mslp_pa - t.min_mslp_pa) / 100.0)
            dv.append(m.max_wind_ms - t.max_wind_ms)
        n = len(dp)
        out.append(IntensityError(
            mae_mslp_hpa=sum(abs(x) for x in dp) / n,
            bias_mslp_hpa=sum(dp) / n,
            mae_wind_ms=sum(abs(x) for x in dv) / n,
            bias_wind_ms=sum(dv) / n,
        ))
    return out
