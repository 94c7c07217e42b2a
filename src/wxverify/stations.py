"""Station observation pipeline: window aggregation, reference-field
quality control, and station-space verification.

Raw records are averaged into 6-hourly samples over a closed +-15 minute
window. QC compares each observation against a reference value
interpolated from gridded truth, in display units (Celsius for
temperatures, hPa for pressures, m/s for wind): when obs/ref exceeds the
variable's ratio bound the observation is replaced by the reference
value, bit-exactly. A non-positive display-unit reference leaves the
observation untouched and is counted as a warning in the QC report
rather than raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

from .climatology import calendar_day_index
from .errors import DegenerateAnomaly, NoValidPairs
from .grid import GridField, VariableId, interp_to_stations

WINDOW_HALF_WIDTH = timedelta(minutes=15)

#: Default ratio bounds r_v, applied in display units.
DEFAULT_QC_RATIOS: Mapping[VariableId, float] = {
    VariableId.T2M: 6.0,
    VariableId.D2M: 6.0,
    VariableId.MSL: 9000.0,
    VariableId.WS10: 7.0,
}


class QcFlag(Enum):
    RAW = "raw"
    REPLACED_BY_REFERENCE = "replaced_by_reference"
    ABSENT = "absent"


_FLAG_CODE = {QcFlag.ABSENT: 0, QcFlag.RAW: 1, QcFlag.REPLACED_BY_REFERENCE: 2}
_CODE_FLAG = {v: k for k, v in _FLAG_CODE.items()}


def to_display_units(variable: VariableId, value: float) -> float:
    """SI value in the display units the QC ratios are quoted in."""
    if variable in (VariableId.T2M, VariableId.D2M, VariableId.T850):
        return value - 273.15
    if variable is VariableId.MSL:
        return value / 100.0
    return value


@dataclass(frozen=True)
class Station:
    station_id: str
    lat: float
    lon: float
    elevation_m: float


@dataclass(frozen=True)
class QcThresholds:
    """Per-variable ratio bounds; every bound must exceed 1."""

    ratios: Mapping[VariableId, float]

    def __post_init__(self):
        for var, r in self.ratios.items():
            if not r > 1.0:
                raise ValueError(f"ratio bound for {var.key} must be > 1, got {r}")
        object.__setattr__(self, "ratios", dict(self.ratios))

    @classmethod
    def default(cls) -> "QcThresholds":
        return cls(DEFAULT_QC_RATIOS)


@dataclass(frozen=True)
class StationTable:
    """6-hourly station observations with QC flags.

    ``values`` and ``flags`` have shape (n_variables, n_times,
    n_stations); NaN values carry the ABSENT flag. Replaced values equal
    the stored reference bit-exactly by construction of
    :func:`apply_qc`.
    """

    stations: tuple[Station, ...]
    times: tuple[datetime, ...]
    variables: tuple[VariableId, ...]
    values: np.ndarray
    flags: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        flg = np.ascontiguousarray(self.flags, dtype=np.uint8)
        shape = (len(self.variables), len(self.times), len(self.stations))
        if vals.shape != shape or flg.shape != shape:
            raise ValueError(f"values/flags must have shape {shape}")
        norm_times = []
        for t in self.times:
            if t.tzinfo is None:
                raise ValueError(f"table time {t} must be timezone-aware UTC")
            t = t.astimezone(timezone.utc)
            if t.hour % 6 or t.minute or t.second or t.microsecond:
                raise ValueError(f"table time {t} not aligned to 00/06/12/18 UTC")
            norm_times.append(t)
        absent = flg == _FLAG_CODE[QcFlag.ABSENT]
        if not np.array_equal(absent, np.isnan(vals)):
            raise ValueError("ABSENT flags must coincide with NaN values")
        vals.setflags(write=False)
        flg.setflags(write=False)
        object.__setattr__(self, "stations", tuple(self.stations))
        object.__setattr__(self, "times", tuple(norm_times))
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "flags", flg)

    def variable_index(self, variable: VariableId) -> int:
        return self.variables.index(variable)

    def time_index(self, when: datetime) -> int:
        return self.times.index(when)

    def positions(self) -> list[tuple[float, float]]:
        return [(s.lat, s.lon) for s in self.stations]


def window_average(records: Iterable[tuple[datetime, float]],
                   target: datetime) -> float | None:
    """Mean of records within +-15 min of ``target`` (closed bounds).

    Returns None when the window is empty. The exactly-rounded sum makes
    the result independent of record order.
    """
    vals = [v for t, v in records if abs(t - target) <= WINDOW_HALF_WIDTH]
    if not vals:
        return None
    return math.fsum(vals) / len(vals)


@dataclass(frozen=True)
class QcOutcome:
    value: float
    flag: QcFlag
    nonpositive_reference: bool = False


def qc_ratio_filter(obs: float, reference: float, variable: VariableId,
                    thresholds: QcThresholds) -> QcOutcome:
    """Ratio test of one observation against its reference value.

    Both values are SI; the ratio is taken in display units. An
    observation whose ratio exceeds the variable's bound is replaced by
    the reference. Variables without a configured bound pass through
    untouched.
    """
    if not math.isfinite(reference):
        raise ValueError("reference value must be finite")
    bound = thresholds.ratios.get(variable)
    if bound is None:
        return QcOutcome(obs, QcFlag.RAW)
    ref_disp = to_display_units(variable, reference)
    if ref_disp <= 0.0:
        return QcOutcome(obs, QcFlag.RAW, nonpositive_reference=True)
    ratio = to_display_units(variable, obs) / ref_disp
    if ratio > bound:
        return QcOutcome(reference, QcFlag.REPLACED_BY_REFERENCE)
    return QcOutcome(obs, QcFlag.RAW)


@dataclass
class QcVariableCounts:
    raw: int = 0
    replaced: int = 0
    absent: int = 0
    nonpositive_reference: int = 0


@dataclass
class QcReport:
    """Per-variable QC outcome counts for the run report."""

    counts: dict[str, QcVariableCounts] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {var: {"raw": c.raw, "replaced": c.replaced, "absent": c.absent,
                      "nonpositive_reference": c.nonpositive_reference}
                for var, c in sorted(self.counts.items())}


def apply_qc(table: StationTable, reference: np.ndarray,
             thresholds: QcThresholds | None = None
             ) -> tuple[StationTable, QcReport]:
    """Ratio-QC every RAW observation against reference values.

    ``reference`` must be shaped like ``table.values`` and finite
    wherever an observation is present. Values already flagged
    REPLACED_BY_REFERENCE are left alone (they equal their reference, so
    retesting is a no-op), which makes QC idempotent.
    """
    if thresholds is None:
        thresholds = QcThresholds.default()
    ref = np.asarray(reference, dtype=np.float64)
    if ref.shape != table.values.shape:
        raise ValueError("reference array must match table shape")
    values = table.values.copy()
    flags = table.flags.copy()
    report = QcReport()
    for vi, variable in enumerate(table.variables):
        counts = QcVariableCounts()
        for ti in range(len(table.times)):
            for si in range(len(table.stations)):
                code = flags[vi, ti, si]
                if code == _FLAG_CODE[QcFlag.ABSENT]:
                    counts.absent += 1
                    continue
                if code == _FLAG_CODE[QcFlag.REPLACED_BY_REFERENCE]:
                    counts.replaced += 1
                    continue
                outcome = qc_ratio_filter(values[vi, ti, si], ref[vi, ti, si],
                                          variable, thresholds)
                if outcome.nonpositive_reference:
                    counts.nonpositive_reference += 1
                if outcome.flag is QcFlag.REPLACED_BY_REFERENCE:
                    values[vi, ti, si] = outcome.value
                    flags[vi, ti, si] = _FLAG_CODE[QcFlag.REPLACED_BY_REFERENCE]
                    counts.replaced += 1
                else:
                    counts.raw += 1
        report.counts[variable.key] = counts
    return StationTable(table.stations, table.times, table.variables,
                        values, flags), report


@dataclass(frozen=True)
class StationClimatology:
    """Per-calendar-day mean per station (serves station-space ACC)."""

    station_ids: tuple[str, ...]
    day_mean: np.ndarray  # (365, n_stations)

    def __post_init__(self):
        dm = np.ascontiguousarray(self.day_mean, dtype=np.float64)
        if dm.ndim != 2 or dm.shape != (365, len(self.station_ids)):
            raise ValueError("day_mean must have shape (365, n_stations)")
        if not np.all(np.isfinite(dm)):
            raise ValueError("day_mean must be finite")
        dm.setflags(write=False)
        object.__setattr__(self, "station_ids", tuple(self.station_ids))
        object.__setattr__(self, "day_mean", dm)


def station_climatology_from_grid(day_mean_fields: Sequence[GridField],
                                  stations: Sequence[Station]) -> StationClimatology:
    """Interpolate a 365-day grid climatology to station locations."""
    if len(day_mean_fields) != 365:
        raise ValueError("expected one climatology field per calendar day")
    pts = [(s.lat, s.lon) for s in stations]
    dm = np.stack([interp_to_stations(f, pts) for f in day_mean_fields])
    return StationClimatology(tuple(s.station_id for s in stations), dm)


@dataclass(frozen=True)
class StationScores:
    rmse: float
    bias: float
    acc: float | None
    n_pairs: int


def station_scores(forecasts: Sequence[GridField], table: StationTable,
                   variable: VariableId,
                   clim: StationClimatology | None = None) -> StationScores:
    """Unweighted RMSE / bias (and ACC when a climatology is given) over
    all (station, time) pairs with an observation present.

    Each forecast field is interpolated to the station locations and
    paired with the table row at its valid time; stations absent at a
    timestamp are skipped pairwise. Raises :class:`NoValidPairs` when
    nothing pairs up.
    """
    vi = table.variable_index(variable)
    positions = table.positions()
    diffs: list[np.ndarray] = []
    fc_anom: list[np.ndarray] = []
    ob_anom: list[np.ndarray] = []
    for fc in forecasts:
        if fc.variable is not variable:
            raise ValueError(f"forecast variable {fc.variable.key} != {variable.key}")
        ti = table.time_index(fc.valid_time)
        obs_row = table.values[vi, ti]
        present = ~np.isnan(obs_row)
        if not present.any():
            continue
        fc_row = interp_to_stations(fc, positions)
        diffs.append(fc_row[present] - obs_row[present])
        if clim is not None:
            day = calendar_day_index(fc.valid_time)
            c = clim.day_mean[day][present]
            fc_anom.append(fc_row[present] - c)
            ob_anom.append(obs_row[present] - c)
    if not diffs:
        raise NoValidPairs(f"no paired (station, time) samples for {variable.key}")
    d = np.concatenate(diffs)
    rmse = math.sqrt(float(np.mean(d * d)))
    bias = float(np.mean(d))
    acc_value: float | None = None
    if clim is not None:
        fa = np.concatenate(fc_anom)
        oa = np.concatenate(ob_anom)
        n1 = float(np.mean(fa * fa))
        n2 = float(np.mean(oa * oa))
        if math.sqrt(max(n1, 0.0)) < 1e-30 or math.sqrt(max(n2, 0.0)) < 1e-30:
            raise DegenerateAnomaly("station anomaly field is (near-)constant zero")
        acc_value = float(np.mean(fa * oa)) / (math.sqrt(n1) * math.sqrt(n2))
    return StationScores(rmse, bias, acc_value, int(d.size))


def six_hour_times(start: datetime, end: datetime) -> list[datetime]:
    """All 00/06/12/18 UTC timestamps covering [start, end]."""
    start = start.astimezone(timezone.utc)
    end = end.astimezone(timezone.utc)
    first = start.replace(minute=0, second=0, microsecond=0)
    first -= timedelta(hours=first.hour % 6)
    if first < start:
        first += timedelta(hours=6)
    out = []
    t = first
    while t <= end:
        out.append(t)
        t += timedelta(hours=6)
    return out


def table_from_records(stations: Sequence[Station],
                       records: Mapping[VariableId,
                                        Mapping[str, list[tuple[datetime, float]]]],
                       times: Sequence[datetime]) -> StationTable:
    """Window-average raw records onto a 6-hourly grid of target times.

    ``records`` maps variable -> station id -> raw (time, value) list.
    Stations without a valid record in a window are ABSENT there.
    """
    variables = tuple(sorted(records, key=lambda v: v.key))
    shape = (len(variables), len(times), len(stations))
    values = np.full(shape, np.nan)
    flags = np.full(shape, _FLAG_CODE[QcFlag.ABSENT], dtype=np.uint8)
    for vi, variable in enumerate(variables):
        per_station = records[variable]
        for si, st in enumerate(stations):
            recs = per_station.get(st.station_id, [])
            if not recs:
                continue
            for ti, target in enumerate(times):
                avg = window_average(recs, target)
                if avg is not None:
                    values[vi, ti, si] = avg
                    flags[vi, ti, si] = _FLAG_CODE[QcFlag.RAW]
    return StationTable(tuple(stations), tuple(times), variables, values, flags)
