"""Store writers, and the scratch file of a threshold build.

Each writer streams its chunks to a payload and publishes the sidecar
that :mod:`wxverify.fileio` reads back (see its docstring for the
layouts): one RBGRID1 field (:func:`write_grid`), an RBSTACK1 series
(:func:`write_stack`), the RBTHRESH1 extreme thresholds
(:func:`write_thresholds`) and the RBCLIM1 daily-mean climatology
(:func:`write_daily_climatology`). Grids are stored uniform, their steps
rounded so that the reader rebuilds each axis bit for bit. Every file is
published through :func:`wxverify.report.publishing`, so it is either
complete or absent. :class:`SpilledHistory` holds the daily extremes a
build reduces its history to until the thresholds are computed from
them.

Only ``synth`` and ``build-climatology`` write stores, so only they
import this module; the scoring commands read through
:mod:`wxverify.fileio` alone.
"""

from __future__ import annotations

import io
import os
import tempfile
import zlib
from datetime import timedelta
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .climatology import DAYS_PER_YEAR
from .errors import NonUniformGrid, WxVerifyError
from .fileio import (CLIM_MAGIC, GRID_MAGIC, STACK_MAGIC, THRESH_MAGIC,
                     _DTYPES, _sidecar_path, format_time)
from .grid import SIX_HOURS, FieldBlock, GeoGrid
from .report import canonical_json, publish, publishing

if TYPE_CHECKING:
    from .climatology import DailyMeanClimatology
    from .thresholds import ThresholdBuild


def _stored_step(axis: np.ndarray, single: float) -> float:
    """The step to store for a uniform grid ``axis`` (``single`` when it
    has one point): the shortest decimal rounding of its mean step with
    which ``axis[0] + step * k``, as the reader rebuilds it, gives the axis
    back bit for bit; the first difference when no rounding does."""
    if axis.size == 1:
        return single
    k = np.arange(axis.size)
    mean = (axis[-1] - axis[0]) / (axis.size - 1)
    for digits in range(1, 18):
        step = float(f"{mean:.{digits}g}")
        if np.array_equal(axis[0] + step * k, axis):
            return step
    return float(axis[1] - axis[0])


def _geometry(grid: GeoGrid) -> dict:
    """The sidecar keys of a uniform ``grid``; any other raises
    :class:`NonUniformGrid`."""
    if not grid.is_uniform():
        raise NonUniformGrid("file format stores uniformly spaced grids only")
    return dict(n_lat=grid.n_lat, n_lon=grid.n_lon,
                lat_start=float(grid.lat_deg[0]),
                lat_step=_stored_step(grid.lat_deg, -1.0),
                lon_start=float(grid.lon_deg[0]),
                lon_step=_stored_step(grid.lon_deg, 1.0))


def _write_store(path: Path, magic: str, grid: GeoGrid, chunks, dtype: str,
                 extra: dict) -> Path:
    """Stream ``chunks`` over ``grid`` to a payload, then publish a
    sidecar.

    ``chunks`` is any iterable of ``(k, n_lat, n_lon)`` arrays, each
    written with one ``write``, so a generator of chunks is never held in
    memory whole. The sidecar holds ``extra`` (read after the last chunk),
    the magic, dtype, uniform geometry and one CRC-32 per layer
    (``checksums``, with ``n_layers``); an RBGRID1 sidecar holds its one
    layer's as ``checksum``.
    """
    geometry = _geometry(grid)
    layer_bytes = _DTYPES[dtype].itemsize * grid.n_lat * grid.n_lon
    checksums = []
    with publishing(path) as tmp, open(tmp, "wb") as fh:
        for chunk in chunks:
            blob = memoryview(np.ascontiguousarray(
                chunk, dtype=_DTYPES[dtype])).cast("B")
            fh.write(blob)
            checksums.extend(zlib.crc32(blob[at:at + layer_bytes])
                             for at in range(0, len(blob), layer_bytes))
            del chunk, blob  # released before the next chunk is made
    crcs = dict(checksum=checksums[0]) if magic == GRID_MAGIC \
        else dict(n_layers=len(checksums), checksums=checksums)
    publish(_sidecar_path(path), canonical_json(
        dict(extra, magic=magic, dtype=dtype, **geometry, **crcs)))
    return path


def write_grid(block: FieldBlock, path: str | os.PathLike) -> Path:
    """Write a block of one layer as an RBGRID1 f32le payload + JSON
    sidecar; returns the path. A block of any other layer count raises
    :class:`WxVerifyError` naming ``path``, and writes nothing.

    Derived variables (WS10) are never stored.
    """
    path = Path(path)
    if len(block.valid_times) != 1:
        raise WxVerifyError(f"{path}: a field file holds one layer, not "
                            f"{len(block.valid_times)}")
    _check_storable(block)
    return _write_store(path, GRID_MAGIC, block.grid, [block.values],
                        "f32le", {
                            "variable": block.variable.key,
                            "unit": block.variable.unit,
                            "valid_time": format_time(block.valid_times[0]),
                            "lead_hours": block.lead_hours[0],
                        })


def _check_storable(block: FieldBlock):
    if block.variable.derived:
        raise WxVerifyError(
            f"{block.variable.key} is derived; compute it, do not store it")


def write_stack(chunks: Iterable[FieldBlock], path: str | os.PathLike
                ) -> Path:
    """Write a 6-hourly series of one variable as one RBSTACK1 store.

    ``chunks`` yields the series in order, as blocks of consecutive
    layers (:class:`FieldBlock`). Layer k is valid ``6 k`` hours after
    the first and has lead ``lead_0 + k * lead_step``, where
    ``lead_step`` is the lead difference of the first two layers: 0 for
    truth, 6 for a forecast. Every layer shares the first layer's grid
    and variable; a layer that does not continue the series raises
    :class:`WxVerifyError` naming it and leaves no file behind.
    ``chunks`` is streamed with one write per chunk, so a generator of a
    year of chunks is never held in memory whole. Derived variables
    (WS10) are never stored.
    """
    path = Path(path)
    chunks = iter(chunks)
    first = next(chunks, None)
    if first is None:
        raise WxVerifyError(f"{path}: a stack needs at least one field")
    _check_storable(first)
    grid, variable = first.grid, first.variable
    first_time = first.valid_times[0]
    first_lead = first.lead_hours[0]
    extra = {"variable": variable.key, "unit": variable.unit,
             "valid_time": format_time(first_time),
             "time_step_hours": SIX_HOURS // timedelta(hours=1),
             "lead_hours": first_lead, "lead_step_hours": 0}

    def layers(chunk):
        k = 0
        while chunk is not None:
            values = chunk.values
            same = chunk.grid == grid and chunk.variable is variable
            for when, lead in zip(chunk.valid_times, chunk.lead_hours):
                if k == 1:
                    extra["lead_step_hours"] = lead - first_lead
                if k and (not same or when != first_time + k * SIX_HOURS
                          or lead != first_lead
                          + k * extra["lead_step_hours"]):
                    raise WxVerifyError(
                        f"{path}: {chunk.variable.key} field at "
                        f"{format_time(when)} (lead {lead} h) does not "
                        f"continue the stack as layer {k}")
                k += 1
            yield values
            del values, chunk  # released before the next chunk is made
            chunk = next(chunks, None)

    stream = layers(first)
    del first  # a chunk is held only until the next one is written
    return _write_store(path, STACK_MAGIC, grid, stream, "f32le", extra)


#: Bytes of each write of a threshold payload: the columns of one day
#: layer that a group of locations holds (see :func:`write_thresholds`).
#: The group holds 730 such rows, so this trades the writer's memory
#: (2.9 MiB at a page a row) against the count of writes (one a row).
THRESHOLD_WRITE_BYTES = 4096


def write_thresholds(thresholds: ThresholdBuild, grid: GeoGrid,
                     path: str | os.PathLike) -> Path:
    """Persist heat/cold thresholds with a 365-deep day axis (f32le): the
    heat thresholds of each calendar day, then the cold ones, with one
    CRC-32 per day layer, so that a run reads only its days.

    ``thresholds`` is a :class:`ThresholdBuild`, whose chunks of
    locations are computed as they are written (or any object with its
    ``chunks()`` and header fields). The float32 thresholds of the chunks
    fill a group of :data:`THRESHOLD_WRITE_BYTES` worth of locations;
    each full group goes to its columns of every layer of a preallocated
    temporary payload, one ``os.pwrite`` a layer, so a write holds one
    group and never a whole layer of the year. The CRC-32 of each layer
    runs over its groups in location order. The payload is renamed into
    place once complete; a build that fails leaves no file behind.
    """
    path = Path(path)
    n_loc = grid.n_lat * grid.n_lon
    if thresholds.n_locations != n_loc:
        raise ValueError("threshold location axis does not match grid size")
    geometry = _geometry(grid)
    dtype = _DTYPES["f32le"]
    width = min(n_loc, max(1, THRESHOLD_WRITE_BYTES // dtype.itemsize))
    group = np.empty((2, DAYS_PER_YEAR, width), dtype)
    layers = group.reshape(2 * DAYS_PER_YEAR, width)
    checksums = [0] * len(layers)

    def write_group(fd: int, first: int, count: int):
        for k, layer in enumerate(layers[:, :count]):
            checksums[k] = zlib.crc32(layer, checksums[k])
            if os.pwrite(fd, layer, (k * n_loc + first) * dtype.itemsize) \
                    != layer.nbytes:
                raise OSError("short write")

    with publishing(path) as tmp, open(tmp, "wb") as fh:
        fd = fh.fileno()
        os.ftruncate(fd, len(layers) * n_loc * dtype.itemsize)
        held = 0  # locations in the group, which starts at done - held
        done = 0
        # chunks follow on from location 0 to the last
        for start, stop, heat, cold in thresholds.chunks():
            while done < stop:
                take = min(stop - done, width - held)
                cols = slice(done - start, done - start + take)
                group[0, :, held:held + take] = heat[:, cols]
                group[1, :, held:held + take] = cold[:, cols]
                held += take
                done += take
                if held == width or done == n_loc:
                    write_group(fd, done - held, held)
                    held = 0
    publish(_sidecar_path(path), canonical_json(dict(
        magic=THRESH_MAGIC, dtype="f32le", **geometry,
        n_layers=len(checksums), checksums=checksums,
        n_days=DAYS_PER_YEAR,
        years=list(thresholds.years),
        half_window=thresholds.half_window,
        q_heat=thresholds.q_heat,
        q_cold=thresholds.q_cold,
        percentile_method="linear")))
    return path


def write_daily_climatology(parts: Iterable[DailyMeanClimatology],
                            path: str | os.PathLike) -> Path:
    """Persist a full-year per-calendar-day mean climatology (f64le,
    lossless) with one CRC-32 per day, so that a run reads and checks
    only the days it needs.

    ``parts`` are consecutive runs of days from day 0 that together hold
    all 365, on one grid, of one variable and over the same years (one
    part of all 365 days, or the blocks of a build); each is written as
    it comes, so a generator of parts is never held whole. Parts that do
    not hold the year so raise ValueError and leave no file behind.
    """
    parts = iter(parts)
    first = next(parts, None)
    if first is None or first.first_day:
        raise ValueError("only a climatology of all 365 days is stored")
    grid, variable, years = first.grid, first.variable, first.years

    def day_means(part):
        at = 0
        while part is not None:
            if part.first_day != at or part.grid != grid \
                    or part.variable is not variable or part.years != years:
                raise ValueError(
                    "only a climatology of all 365 days is stored, in runs "
                    "of days that follow on, of one grid, variable and years")
            at += part.day_mean.shape[0]
            yield part.day_mean
            del part  # released before the next part is made
            part = next(parts, None)
        if at != DAYS_PER_YEAR:
            raise ValueError("only a climatology of all 365 days is stored")

    stream = day_means(first)
    del first  # a part is held only until the next one is written
    return _write_store(Path(path), CLIM_MAGIC, grid, stream, "f64le", {
        "variable": variable.key,
        "unit": variable.unit,
        "n_days": DAYS_PER_YEAR,
        "years": list(years),
    })


class SpilledHistory:
    """The daily max and min of a run's history years, spilled to disk as
    a build reduces them (:meth:`write`), and read back by
    :class:`~wxverify.thresholds.ThresholdBuild` a chunk of locations
    at a time (:meth:`chunks`).

    The scratch file is a ``tempfile.TemporaryFile`` in ``directory``,
    which has no name to leave behind; it is made at the first write and
    closed when the ``with`` block is left. It holds one chunk of
    locations after another, the last padded to the length of the
    others, and each chunk is laid out ``(n_years, 365, 2, step)``: each
    day's max, then its min. So a chunk is one read, and the file takes
    about ``n_years * 2 * 365 * n_locations`` values of disk. A chunk is
    as many of the default threshold kernel's chunks of locations
    (:func:`~wxverify.thresholds.threshold_chunk`) as make each write of
    a block of days to it at least ``io.DEFAULT_BUFFER_SIZE`` bytes: one
    kernel chunk at a time on a coarse grid, more where a block holds few
    days of many locations, so that the writes do not shrink to a few
    hundred bytes each. The kernel cuts its own chunks inside each chunk
    of the file, so the two sizes need not divide.
    """

    def __init__(self, directory: str | os.PathLike, years: Sequence[int]):
        self.directory = Path(directory)
        self.years = tuple(years)
        self._file = None

    def __enter__(self) -> "SpilledHistory":
        return self

    def __exit__(self, *exc_info):
        if self._file is not None:
            self._file.close()

    def _offset(self, chunk: int, y: int, row: int) -> int:
        """Byte offset of calendar row ``row`` of year ``y`` in a chunk."""
        return (((chunk * len(self.years) + y) * DAYS_PER_YEAR + row)
                * 2 * self.step * self.dtype.itemsize)

    def write(self, y: int, rows: slice, day_max: np.ndarray,
              day_min: np.ndarray):
        """Spill the ``(n_rows, n_locations)`` daily max and min of the
        calendar rows ``rows`` of history year ``y`` (an index into
        ``years``), in their dtype: one write per chunk of locations. The
        first write lays the file out."""
        n_rows = rows.stop - rows.start
        if self._file is None:
            from .thresholds import threshold_chunk
            self.n_locations = day_max.shape[1]
            self.dtype = day_max.dtype
            kernel = threshold_chunk(len(self.years), self.dtype.itemsize)
            piece = max(1, n_rows) * 2 * kernel * self.dtype.itemsize
            self.step = min(self.n_locations,
                            kernel * -(-io.DEFAULT_BUFFER_SIZE // piece))
            self._n_chunks = -(-self.n_locations // self.step)
        width = self._n_chunks * self.step
        padded = np.zeros((n_rows, 2, width), self.dtype)
        padded[:, 0, :self.n_locations] = day_max
        padded[:, 1, :self.n_locations] = day_min
        by_chunk = np.ascontiguousarray(padded.reshape(
            n_rows, 2, self._n_chunks, self.step).transpose(2, 0, 1, 3))
        try:
            if self._file is None:
                self.directory.mkdir(parents=True, exist_ok=True)
                self._file = tempfile.TemporaryFile(dir=self.directory)
            fd = self._file.fileno()
            for chunk, values in enumerate(by_chunk):
                if os.pwrite(fd, values, self._offset(chunk, y, rows.start)) \
                        != values.nbytes:
                    raise OSError("short write")
        except OSError as exc:
            size = 2 * DAYS_PER_YEAR * len(self.years) * width \
                * self.dtype.itemsize
            raise WxVerifyError(
                f"{self.directory}: cannot spill the daily extremes of the "
                f"history ({size} bytes) there: {exc}") from exc

    def chunks(self):
        """Yield ``(start, daily_max, daily_min)`` for each chunk of the
        file in order: the ``(n_years, 365, n)`` daily max and min of
        locations ``start .. start + n``, from one read into one buffer,
        which the next chunk reuses, so they hold only until the next is
        asked for."""
        slab = np.empty((len(self.years), DAYS_PER_YEAR, 2, self.step),
                        self.dtype)
        for chunk in range(self._n_chunks):
            self._file.seek(self._offset(chunk, 0, 0))
            if self._file.readinto(slab) != slab.nbytes:
                raise WxVerifyError(f"{self.directory}: the spilled daily "
                                    f"extremes of the history are short")
            start = chunk * self.step
            held = slab[..., :min(self.step, self.n_locations - start)]
            yield start, held[:, :, 0], held[:, :, 1]
