"""Station observation pipeline: window aggregation, reference-field
quality control, and station-space verification.

Raw records are averaged into 6-hourly samples over a closed +-15 minute
window, every (station, time) of a variable in one array pass
(:func:`table_from_columns`); the mean of several records is exactly
rounded (``math.fsum``). QC (:func:`apply_qc`) compares each
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
from typing import Mapping, Sequence

import numpy as np

from .climatology import calendar_day_index, day_rows
from .errors import TargetOutsideDomain
from .grid import (BilinearWeights, GeoGrid, VariableId, all_finite,
                   bilinear_weights)
from .metrics import acc

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
        object.__setattr__(self, "_time_rows",
                           {t: k for k, t in enumerate(norm_times)})

    def variable_index(self, variable: VariableId) -> int:
        return self.variables.index(variable)

    def select(self, variables: Sequence[VariableId]) -> "StationTable":
        """The table of ``variables`` only, in that order."""
        rows = [self.variable_index(v) for v in variables]
        return StationTable(self.stations, self.times, tuple(variables),
                            self.values[rows], self.flags[rows])

    def time_index(self, when: datetime) -> int:
        return self._time_rows[when]


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
        # imported here: about 5 ms, with decimal, for a rare overflow
        from fractions import Fraction
        total = float(sum(map(Fraction, window), Fraction(0)))
    return total / len(window)


def _ratio_qc(variable: VariableId, obs: np.ndarray, reference: np.ndarray,
              thresholds: QcThresholds) -> tuple[np.ndarray, np.ndarray]:
    """Ratio test of an array of observations against their references.

    Returns the masks of the observations to replace and of the
    references that are non-positive in display units (both all False
    for a variable without a bound). Raises ValueError when any
    reference is not finite.
    """
    if not all_finite(reference):
        raise ValueError("reference value must be finite")
    replace = np.zeros(reference.shape, dtype=bool)
    bound = thresholds.ratios.get(variable)
    if bound is None:
        return replace, replace.copy()
    ref_disp = to_display_units(variable, reference)
    positive = ref_disp > 0.0
    # a ratio past the float limit is inf, which exceeds every bound
    with np.errstate(over="ignore"):
        replace[positive] = (to_display_units(variable, obs[positive])
                             / ref_disp[positive]) > bound
    return replace, ~positive


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
             thresholds: QcThresholds) -> tuple[StationTable, QcReport]:
    """Ratio-QC every RAW observation against reference values.

    ``reference`` must be shaped like ``table.values`` and finite
    wherever an observation is present. Values already flagged
    REPLACED_BY_REFERENCE are left alone (they equal their reference, so
    retesting is a no-op), which makes QC idempotent.
    """
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


class StationInterpolator:
    """Bilinear interpolation of gridded stacks to one list of stations.

    The weights are bracketed once per distinct grid and reused for
    every stack on it; a stack on another grid gets weights of its own.
    Grids are told apart by value, so the grids that stores of one
    geometry share (see :class:`~wxverify.fileio.FieldSource`) cost one
    dict lookup.
    ``meta_path``, the metadata file the stations were read from, is
    named in the error of a station outside a grid.
    """

    def __init__(self, stations: Sequence[Station], meta_path=None):
        self.stations = tuple(stations)
        self.meta_path = meta_path
        self._positions = [(s.lat, s.lon) for s in self.stations]
        self._weights: dict[GeoGrid, BilinearWeights] = {}

    def weights(self, grid: GeoGrid) -> BilinearWeights:
        """The weights of the stations on ``grid``; a station outside its
        span raises :class:`TargetOutsideDomain` naming the first such
        station, its coordinates and the span."""
        found = self._weights.get(grid)
        if found is None:
            try:
                found = bilinear_weights(grid, self._positions)
            except TargetOutsideDomain as exc:
                station = self.stations[exc.point]
                lon_span = "every longitude" if grid.wraps_lon else \
                    f"longitude [{grid.lon_deg[0]}, {grid.lon_deg[-1]}]"
                where = "" if self.meta_path is None else f"{self.meta_path}: "
                raise TargetOutsideDomain(
                    f"{where}station {station.station_id} at lat "
                    f"{station.lat}, lon {station.lon} is outside the "
                    f"grid's span: latitude [{grid.lat_deg[-1]}, "
                    f"{grid.lat_deg[0]}], {lon_span}", exc.point) from exc
            self._weights[grid] = found
        return found


@dataclass(frozen=True)
class StationScores:
    rmse: float
    bias: float
    acc: float | None
    n_pairs: int


def station_scores(fc: np.ndarray, valid_times: Sequence[datetime],
                   table: StationTable, variable: VariableId,
                   clim: tuple[int, np.ndarray] | None
                   ) -> list[StationScores | None]:
    """Unweighted RMSE / bias (and ACC when a climatology is given) of each
    lead of the forecasts ``fc``, over all (init, station) pairs with an
    observation present; None for a lead where nothing pairs up.

    ``fc`` holds each init's forecasts over one run of leads at the
    table's stations, ``(n_inits, n_leads, n_stations)``, and
    ``valid_times`` the valid time of each (init, lead), init by init.
    Each forecast is paired with the table row at its valid time;
    stations absent at a timestamp are skipped pairwise. The pairs of a
    lead are taken init by init, in station order. ``clim`` is
    ``(first_day, day_mean)``: a
    :class:`~wxverify.climatology.DailyMeanClimatology`'s run of days
    from ``first_day``, interpolated once to the table's stations
    (``interpolator.weights(clim.grid).apply(clim.day_mean)``, shaped
    ``(n_days, n_stations)``). ACC is :func:`~wxverify.metrics.acc` of
    the station anomalies.
    """
    obs = table.values[table.variable_index(variable)][
        [table.time_index(when) for when in valid_times]].reshape(fc.shape)
    present = ~np.isnan(obs)
    if clim is not None:
        first_day, day_mean = clim
        day_mean = day_mean[day_rows(
            first_day, len(day_mean),
            [calendar_day_index(when) for when in valid_times])
        ].reshape(fc.shape)
    scores: list[StationScores | None] = []
    for i in range(fc.shape[1]):
        paired = present[:, i]
        f, o = fc[:, i][paired], obs[:, i][paired]
        if not f.size:
            scores.append(None)
            continue
        d = f - o
        rmse = math.sqrt(float(np.mean(d * d)))
        bias = float(np.mean(d))
        acc_value: float | None = None
        if clim is not None:
            c = day_mean[:, i][paired]
            acc_value = float(acc(f - c, o - c, np.mean))
        scores.append(StationScores(rmse, bias, acc_value, int(d.size)))
    return scores


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
