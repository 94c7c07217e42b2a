"""The CSV interfaces of the event commands: the best-track reader of
``cyclones`` (:func:`read_besttrack`) and writer of ``synth``
(:func:`write_besttrack`), the track writer of ``cyclones``
(:func:`write_tracks_csv`) and the event-segment writer of ``extremes``
(:func:`write_segments_csv`).

Only those commands import this module. Every CSV is published
through :func:`wxverify.report.publish`, and a bad best-track row raises
a typed error naming the file and line.
"""

from __future__ import annotations

import csv
import io
import os
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .errors import InvalidHeader, NonMonotoneTime
from .fileio import format_time, parse_time, sha256
from .grid import SIX_HOURS
from .report import publish, text_lines

if TYPE_CHECKING:
    import numpy as np

    from .cyclones import StormFix, StormTrack
    from .extremes import EventKind

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


def _fix_row(storm_id: str, fix: StormFix) -> str:
    """The best-track columns of one fix of storm ``storm_id``."""
    return (f"{storm_id},{format_time(fix.time)},{fix.lat!r},{fix.lon!r},"
            f"{fix.min_mslp_pa / 100.0!r},{fix.max_wind_ms!r}")


def write_besttrack(tracks: Sequence[StormTrack], path: str | os.PathLike
                    ) -> Path:
    """Best-track CSV of every fix of ``tracks``, as
    :func:`read_besttrack` reads it."""
    lines = [",".join(_BESTTRACK_COLUMNS)]
    lines.extend(_fix_row(track.storm_id, fix)
                 for track in tracks for fix in track.fixes)
    return publish(path, text_lines(lines))


def write_tracks_csv(tracks: Sequence[StormTrack], path: str | os.PathLike) -> Path:
    """Track output CSV: best-track schema plus source and tracked flags."""
    lines = [",".join([*_BESTTRACK_COLUMNS, "source", "init_time",
                       "lead_hours", "tracked"])]
    for track in tracks:
        tail = f"{track.source},{format_time(track.init_time)}"
        for k, flag in enumerate(track.tracked_mask):
            fix = track.fix_at_lead(k)
            when = track.init_time + k * SIX_HOURS
            if fix is None:
                lines.append(f"{track.storm_id},{format_time(when)},,,,,"
                             f"{tail},{6 * k},0")
            else:
                lines.append(f"{_fix_row(track.storm_id, fix)},{tail},"
                             f"{6 * k},1")
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
