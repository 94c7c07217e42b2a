"""Station observation pipeline: window aggregation, reference-field
quality control, and station-space verification.

Raw records are averaged into 6-hourly samples over a closed +-15 minute
window, every (station, time) of a variable in one array pass; the mean
of several records is exactly rounded (``math.fsum``). QC compares each
observation against a reference value interpolated from gridded truth,
one variable at a time over whole arrays, in display units (Celsius for
temperatures, hPa for pressures, m/s for wind): when obs/ref exceeds the
variable's ratio bound the observation is replaced by the reference
value, bit-exactly. A non-positive display-unit reference leaves the
observation untouched and is counted as a warning in the QC report
rather than raised. Gridded fields are interpolated to the stations with
bilinear weights bracketed once per grid (:class:`StationInterpolator`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .climatology import DailyMeanClimatology, calendar_day_index
from .errors import DegenerateAnomaly, NoValidPairs
from .grid import (BilinearWeights, GeoGrid, GridField, VariableId,
                   bilinear_weights)

WINDOW_HALF_WIDTH = timedelta(minutes=15)

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)
_HALF_WIDTH_US = WINDOW_HALF_WIDTH // _MICROSECOND

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

    def select(self, variables: Sequence[VariableId]) -> "StationTable":
        """The table of ``variables`` only, in that order."""
        rows = [self.variable_index(v) for v in variables]
        return StationTable(self.stations, self.times, tuple(variables),
                            self.values[rows], self.flags[rows])

    def time_index(self, when: datetime) -> int:
        return self.times.index(when)


def epoch_microseconds(when: datetime) -> int:
    """Exact integer microseconds of an aware ``when`` since the Unix epoch."""
    return (when - _EPOCH) // _MICROSECOND


class WindowOverflow(OverflowError):
    """The exact mean of one window's records is beyond the float range.

    ``time_index`` and ``station_index`` locate the window among the
    targets and stations it was averaged for.
    """

    def __init__(self, time_index: int, station_index: int):
        super().__init__(f"window mean of station {station_index} at "
                         f"target {time_index} is beyond the float range")
        self.time_index = time_index
        self.station_index = station_index


def _window_means(station: Sequence[int], when_us: Sequence[int],
                  value: Sequence[float], n_stations: int,
                  targets_us: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Means of raw records within +-15 min (closed) of every target.

    Record ``k`` belongs to station index ``station[k]``, lies at
    ``when_us[k]`` and carries ``value[k]``; times share one integer
    microsecond scale with ``targets_us``. Returns ``(means, counts)``,
    shaped (n_targets, n_stations); ``means`` is NaN where the count is 0.
    A window whose exact mean is beyond the float range raises
    :class:`WindowOverflow`.
    """
    station = np.asarray(station, dtype=np.int64)
    when_us = np.asarray(when_us, dtype=np.int64)
    value = np.asarray(value, dtype=np.float64)
    targets = np.asarray(targets_us, dtype=np.int64)
    first_us = targets - _HALF_WIDTH_US
    last_us = targets + _HALF_WIDTH_US
    # Rank every instant, so that one sorted int64 key orders the records
    # by station, then time, without overflow.
    instants = np.unique(np.concatenate([when_us, first_us, last_us]))
    key = station * instants.size + np.searchsorted(instants, when_us)
    order = np.argsort(key, kind="stable")
    key, value = key[order], value[order]
    base = np.arange(n_stations, dtype=np.int64) * instants.size
    start = np.searchsorted(
        key, base + np.searchsorted(instants, first_us)[:, None], side="left")
    stop = np.searchsorted(
        key, base + np.searchsorted(instants, last_us)[:, None], side="right")
    counts = stop - start
    means = np.full(counts.shape, np.nan)
    single = counts == 1
    # fsum([x]) / 1 is x itself, except that fsum turns -0.0 into 0.0
    means[single] = value[start[single]] + 0.0
    for ti, si in zip(*np.nonzero(counts > 1)):
        try:
            means[ti, si] = _exact_mean(
                value[start[ti, si]:stop[ti, si]].tolist())
        except OverflowError as exc:
            raise WindowOverflow(int(ti), int(si)) from exc
    return means, counts


def _exact_mean(window: list[float]) -> float:
    """Exactly-rounded sum of ``window``, divided by its length.

    ``math.fsum`` can overflow on an intermediate partial although the
    exact sum is finite, depending on the order of the values; the exact
    rational sum decides then, so that only a sum beyond the float range
    raises OverflowError, whatever the order.
    """
    try:
        total = math.fsum(window)
    except OverflowError:
        total = float(sum(map(Fraction, window), Fraction(0)))
    return total / len(window)


def window_average(records: Iterable[tuple[datetime, float]],
                   target: datetime) -> float | None:
    """Mean of records within +-15 min of ``target`` (closed bounds).

    Returns None when the window is empty. The exactly-rounded sum makes
    the result independent of record order.
    """
    records = list(records)
    means, counts = _window_means(
        [0] * len(records), [(t - target) // _MICROSECOND for t, _ in records],
        [v for _, v in records], 1, [0])
    return float(means[0, 0]) if counts[0, 0] else None


@dataclass(frozen=True)
class QcOutcome:
    value: float
    flag: QcFlag
    nonpositive_reference: bool = False


def _ratio_qc(variable: VariableId, obs: np.ndarray, reference: np.ndarray,
              thresholds: QcThresholds) -> tuple[np.ndarray, np.ndarray]:
    """Ratio test of an array of observations against their references.

    Returns the masks of the observations to replace and of the
    references that are non-positive in display units (both all False
    for a variable without a bound). Raises ValueError when any
    reference is not finite.
    """
    if not np.all(np.isfinite(reference)):
        raise ValueError("reference value must be finite")
    replace = np.zeros(reference.shape, dtype=bool)
    bound = thresholds.ratios.get(variable)
    if bound is None:
        return replace, replace.copy()
    ref_disp = to_display_units(variable, reference)
    positive = ref_disp > 0.0
    replace[positive] = (to_display_units(variable, obs[positive])
                         / ref_disp[positive]) > bound
    return replace, ~positive


def qc_ratio_filter(obs: float, reference: float, variable: VariableId,
                    thresholds: QcThresholds) -> QcOutcome:
    """Ratio test of one observation against its reference value.

    Both values are SI; the ratio is taken in display units. An
    observation whose ratio exceeds the variable's bound is replaced by
    the reference. Variables without a configured bound pass through
    untouched.
    """
    replace, nonpositive = _ratio_qc(
        variable, np.array([obs], dtype=np.float64),
        np.array([reference], dtype=np.float64), thresholds)
    if replace[0]:
        return QcOutcome(reference, QcFlag.REPLACED_BY_REFERENCE)
    return QcOutcome(obs, QcFlag.RAW, nonpositive_reference=bool(nonpositive[0]))


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
        absent = flags[vi] == _FLAG_CODE[QcFlag.ABSENT]
        replaced = flags[vi] == _FLAG_CODE[QcFlag.REPLACED_BY_REFERENCE]
        tested = ~(absent | replaced)
        replace, nonpositive = _ratio_qc(variable, values[vi][tested],
                                         ref[vi][tested], thresholds)
        hit = np.zeros_like(tested)
        hit[tested] = replace
        values[vi][hit] = ref[vi][hit]
        flags[vi][hit] = _FLAG_CODE[QcFlag.REPLACED_BY_REFERENCE]
        n_replace = int(replace.sum())
        report.counts[variable.key] = QcVariableCounts(
            raw=int(tested.sum()) - n_replace,
            replaced=int(replaced.sum()) + n_replace,
            absent=int(absent.sum()),
            nonpositive_reference=int(nonpositive.sum()))
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


class StationInterpolator:
    """Bilinear interpolation of gridded fields to one list of stations.

    The weights are bracketed once per distinct grid and reused for
    every field or stack on it; a field on another grid gets weights of
    its own. Grids are told apart by value, so grids shared through one
    :class:`~wxverify.fileio.FieldSource` cost one dict lookup.
    """

    def __init__(self, stations: Sequence[Station]):
        self.stations = tuple(stations)
        self._positions = [(s.lat, s.lon) for s in self.stations]
        self._weights: dict[GeoGrid, BilinearWeights] = {}

    def weights(self, grid: GeoGrid) -> BilinearWeights:
        found = self._weights.get(grid)
        if found is None:
            found = self._weights.setdefault(
                grid, bilinear_weights(grid, self._positions))
        return found

    def at_stations(self, field: GridField) -> np.ndarray:
        """``field`` interpolated to the stations, in station order."""
        return self.weights(field.grid).apply(field.values)


def station_climatology_from_grid(clim: DailyMeanClimatology,
                                  interpolator: StationInterpolator
                                  ) -> StationClimatology:
    """Interpolate a 365-day grid climatology to the stations, as one
    gather over the whole day stack."""
    day_mean = interpolator.weights(clim.grid).apply(clim.day_mean)
    return StationClimatology(
        tuple(s.station_id for s in interpolator.stations), day_mean)


@dataclass(frozen=True)
class StationScores:
    rmse: float
    bias: float
    acc: float | None
    n_pairs: int


def station_scores(forecasts: Sequence[GridField], table: StationTable,
                   variable: VariableId,
                   clim: StationClimatology | None = None,
                   interpolator: StationInterpolator | None = None
                   ) -> StationScores:
    """Unweighted RMSE / bias (and ACC when a climatology is given) over
    all (station, time) pairs with an observation present.

    Each forecast field is interpolated to the station locations and
    paired with the table row at its valid time; stations absent at a
    timestamp are skipped pairwise. Raises :class:`NoValidPairs` when
    nothing pairs up. Pass one ``interpolator`` for the table's stations
    to every call of a run, so that each grid is bracketed once.
    """
    vi = table.variable_index(variable)
    if interpolator is None:
        interpolator = StationInterpolator(table.stations)
    elif interpolator.stations != table.stations:
        raise ValueError("interpolator was built for other stations")
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
        fc_row = interpolator.at_stations(fc)
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


def table_from_columns(stations: Sequence[Station],
                       columns: Mapping[VariableId, tuple[Sequence[int],
                                                          Sequence[int],
                                                          Sequence[float]]],
                       times: Sequence[datetime]) -> StationTable:
    """Window-average raw records onto a 6-hourly grid of target times.

    ``columns`` maps variable -> (station index, time, value), one entry
    per raw record, with each time in :func:`epoch_microseconds`.
    Stations without a record in a window are ABSENT there.
    """
    variables = tuple(sorted(columns, key=lambda v: v.key))
    targets_us = [epoch_microseconds(t) for t in times]
    shape = (len(variables), len(times), len(stations))
    values = np.full(shape, np.nan)
    flags = np.full(shape, _FLAG_CODE[QcFlag.ABSENT], dtype=np.uint8)
    for vi, variable in enumerate(variables):
        values[vi], counts = _window_means(*columns[variable], len(stations),
                                           targets_us)
        flags[vi][counts > 0] = _FLAG_CODE[QcFlag.RAW]
    return StationTable(tuple(stations), tuple(times), variables, values, flags)


def table_from_records(stations: Sequence[Station],
                       records: Mapping[VariableId,
                                        Mapping[str, list[tuple[datetime, float]]]],
                       times: Sequence[datetime]) -> StationTable:
    """Window-average raw records onto a 6-hourly grid of target times.

    ``records`` maps variable -> station id -> raw (time, value) list.
    Stations without a valid record in a window are ABSENT there.
    """
    columns = {}
    for variable, per_station in records.items():
        index: list[int] = []
        when_us: list[int] = []
        value: list[float] = []
        for si, st in enumerate(stations):
            for when, v in per_station.get(st.station_id, []):
                index.append(si)
                when_us.append(epoch_microseconds(when))
                value.append(v)
        columns[variable] = (index, when_us, value)
    return table_from_columns(stations, columns, times)
