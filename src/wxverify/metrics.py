"""Latitude-weighted deterministic skill metrics.

All four metrics (WRMSE, bias, ACC and activity) reduce with the
normalized-area-weight spatial mean

    <a>_w = (1 / (n_lat * n_lon)) * sum_ij w_i * a(i, j)

where w comes from :func:`wxverify.grid.latitude_weights`.

One kernel, :func:`block_scores`, scores a block of k layers at once:
it forms the error ``pred - truth`` once for WRMSE and bias, and the
anomalies ``pred - clim`` and ``truth - clim`` once for ACC and
activity. ACC is one function, :func:`acc`, which station ACC
(:func:`wxverify.stations.station_scores`) calls with an unweighted
mean, so both share one formula and one degenerate-anomaly floor. Every
weighted mean is ``np.mean(w * x, axis=(1, 2))`` over a
C-contiguous ``(k, n_lat, n_lon)`` array. For such an array numpy merges
the two reduced axes into one contiguous run of ``n_lat * n_lon``
elements per layer and sums it exactly as it sums one contiguous
``(n_lat, n_lon)`` layer on its own, so layer i of a block scores
bit for bit what the layer alone scores. The kernel scores a block in
one pass, in three float64 buffers of its shape made once per call. It
forms the error and the anomalies straight into those buffers from the
blocks as stored, ``np.subtract(x, y, out=buf, dtype=np.float64)``:
blocks hold the float32 values as stored, and widening them inside the
ufunc is exact, so the buffers hold what subtracting widened copies
would. The climatology is the day means of the block's calendar days,
read next to its truth block, copied into a buffer by each layer's row
(``np.take``). As the buffers are C-contiguous, a block stored with
another axis order (Fortran order, or layers last) sums as a
C-contiguous one does. The summation order is fixed, so results are
bit-deterministic whatever the caller's loop order. The kernel takes
arrays and checks none of their pairing: that a store holds the
variable it is read for and is on the grid it is paired with is checked
where it is opened (:class:`wxverify.fileio.FieldSource`).

Every block a command holds is bounded by one budget,
:data:`CHUNK_BYTES`, turned into a count of layers, days or leads by
one rule, :func:`chunk_count`: a scoring command's blocks and
climatology days (:meth:`wxverify.fileio.FieldSource.block_layers`),
its station-space forecasts, the history blocks of ``build-climatology``
(:meth:`~wxverify.fileio.FieldSource.history_days`) and the chunks of
truth ``synth`` generates.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DegenerateAnomaly

#: Anomaly norms below this are treated as degenerate by :func:`acc`.
ANOMALY_NORM_FLOOR = 1e-30

#: The one bound on the bytes of a block a command holds: a scoring
#: block or run of climatology days counted at 8 bytes a point, a
#: station-space run of forecasts, a block of history days as stored and
#: a chunk of generated float64 truth. 512 KiB, where an 81 x 121 slice
#: takes 6 layers. Outputs do not depend on it.
CHUNK_BYTES = 2**19


def chunk_count(unit_bytes: int) -> int:
    """How many units of ``unit_bytes`` bytes fit in :data:`CHUNK_BYTES`,
    at least one."""
    return max(1, CHUNK_BYTES // unit_bytes)


class BlockScores(NamedTuple):
    """Per-layer scores of a block; ``acc`` and ``activity`` None without
    a climatology."""

    wrmse: np.ndarray
    bias: np.ndarray
    acc: np.ndarray | None
    activity: np.ndarray | None


def block_scores(pred: np.ndarray, truth: np.ndarray,
                 clim: tuple[np.ndarray, np.ndarray] | None,
                 weights: np.ndarray) -> BlockScores:
    """WRMSE and bias, and with ``clim`` ACC and activity, of each layer of
    ``(k, n_lat, n_lon)`` blocks, with per-row ``weights``. ``clim`` is
    ``(day_mean, rows)``: float64 ``(n_days, n_lat, n_lon)`` day means and
    the row of each layer's day among them, as
    :func:`~wxverify.climatology.day_rows` gives it (rows are not checked
    again). ACC is :func:`acc` of the layer's anomalies."""
    w = np.asarray(weights, dtype=np.float64)[:, None]
    # the error, then the days and truth anomalies; the forecast
    # anomalies; and the weighted values each mean sums
    first, second, scratch = np.empty((3, *pred.shape))

    def mean(x: np.ndarray) -> np.ndarray:
        """<x>_w of each layer: np.mean(w * x, axis=(1, 2))."""
        return np.mean(np.multiply(w, x, out=scratch), axis=(1, 2))

    err = np.subtract(pred, truth, out=first, dtype=np.float64)
    bias = mean(err)
    wrmse = np.sqrt(mean(np.multiply(err, err, out=err)))
    if clim is None:
        return BlockScores(wrmse, bias, None, None)
    day_mean, rows = clim
    # the rows are checked, so mode="clip" writes into the buffer unbuffered
    days = np.take(day_mean, rows, axis=0, out=first, mode="clip")
    ap = np.subtract(pred, days, out=second, dtype=np.float64)
    anomaly_acc = acc(ap, np.subtract(truth, days, out=days,
                                      dtype=np.float64), mean)
    centered = np.subtract(ap, mean(ap)[:, None, None], out=ap)
    return BlockScores(wrmse, bias, anomaly_acc,
                       np.sqrt(mean(np.multiply(centered, centered,
                                                out=centered))))


def acc(ap: np.ndarray, at: np.ndarray, mean) -> np.ndarray:
    """Anomaly correlation of forecast anomalies ``ap`` and truth anomalies
    ``at``, reduced by ``mean``: ``mean(ap at) / (sqrt(mean(ap ap))
    sqrt(mean(at at)))``, the cosine similarity, unclipped (|ACC| <= 1
    emerges numerically). Raises :class:`DegenerateAnomaly` when either
    norm ``sqrt(mean(a a))`` falls below ``ANOMALY_NORM_FLOOR`` for any
    reduced value. ``at`` is overwritten."""
    d1 = mean(ap * ap)
    d2 = mean(at * at)
    if np.any((np.sqrt(np.maximum(d1, 0.0)) < ANOMALY_NORM_FLOOR)
              | (np.sqrt(np.maximum(d2, 0.0)) < ANOMALY_NORM_FLOOR)):
        raise DegenerateAnomaly("anomaly field is (near-)constant zero")
    return mean(np.multiply(ap, at, out=at)) / (np.sqrt(d1) * np.sqrt(d2))
