"""The station CSV reader of ``stations``: station metadata and raw
observations (:func:`read_station_csvs`), window-averaged onto the run's
6-hourly valid times.

Both files are parsed by numpy's C parser into columns, which are
checked and mapped as whole arrays; the first faulty data row of a file
raises its typed error naming the path and line. Only ``stations``
imports this module.
"""

from __future__ import annotations

import csv
import math
import os
import re
import warnings
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (DuplicateObservation, InvalidHeader, NonFiniteValue,
                     UnitOutOfRange, UnknownStation)
from .fileio import format_time, parse_time
from .grid import VariableId
from .stations import (Station, StationTable, WindowOverflow,
                       epoch_microseconds, table_from_columns)

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
