"""Latitude-weighted deterministic skill metrics.

All four metrics reduce with the normalized-area-weight spatial mean

    <a>_w = (1 / (n_lat * n_lon)) * sum_ij w_i * a(i, j)

where w comes from :func:`wxverify.grid.latitude_weights`. Accumulation
is double precision with a fixed summation order, so results are
bit-deterministic regardless of how callers parallelize over
(variable, lead) tuples.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateAnomaly, GridMismatch
from .grid import GridField, latitude_weights

#: Weighted anomaly norms below this are treated as degenerate for ACC.
ANOMALY_NORM_FLOOR = 1e-30


def weighted_mean(values: np.ndarray, weights: np.ndarray) -> float:
    """<a>_w over a (n_lat, n_lon) array with per-row weights."""
    return float(np.mean(weights[:, None] * values))


def _resolve_weights(field: GridField, weights) -> np.ndarray:
    if weights is None:
        return latitude_weights(field.grid)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (field.grid.n_lat,):
        raise ValueError(f"weights shape {w.shape} != (n_lat,) = ({field.grid.n_lat},)")
    return w


def _check_pair(pred: GridField, truth: GridField, *, same_time: bool):
    if pred.grid != truth.grid:
        raise GridMismatch("fields are on different grids")
    if pred.variable is not truth.variable:
        raise GridMismatch(
            f"variable mismatch: {pred.variable.key} vs {truth.variable.key}")
    if same_time and pred.valid_time != truth.valid_time:
        raise GridMismatch(
            f"valid_time mismatch: {pred.valid_time} vs {truth.valid_time}")


def wrmse(pred: GridField, truth: GridField, weights=None) -> float:
    """Latitude-weighted root-mean-square error."""
    _check_pair(pred, truth, same_time=True)
    w = _resolve_weights(pred, weights)
    err = pred.values - truth.values
    return math.sqrt(weighted_mean(err * err, w))


def bias(pred: GridField, truth: GridField, weights=None) -> float:
    """Signed latitude-weighted mean forecast error, <pred - truth>_w."""
    _check_pair(pred, truth, same_time=True)
    w = _resolve_weights(pred, weights)
    return weighted_mean(pred.values - truth.values, w)


def acc(pred: GridField, truth: GridField, clim: GridField, weights=None) -> float:
    """Anomaly correlation coefficient against a climatological mean.

    Weighted cosine similarity of the anomaly fields (pred - clim) and
    (truth - clim). No clipping is applied; |ACC| <= 1 emerges
    numerically. Raises :class:`DegenerateAnomaly` when either weighted
    anomaly norm falls below ``ANOMALY_NORM_FLOOR``.
    """
    _check_pair(pred, truth, same_time=True)
    _check_pair(pred, clim, same_time=False)
    w = _resolve_weights(pred, weights)
    ap = pred.values - clim.values
    at = truth.values - clim.values
    d1 = weighted_mean(ap * ap, w)
    d2 = weighted_mean(at * at, w)
    if math.sqrt(max(d1, 0.0)) < ANOMALY_NORM_FLOOR \
            or math.sqrt(max(d2, 0.0)) < ANOMALY_NORM_FLOOR:
        raise DegenerateAnomaly("anomaly field is (near-)constant zero")
    num = weighted_mean(ap * at, w)
    return num / (math.sqrt(d1) * math.sqrt(d2))


def activity(pred: GridField, clim: GridField, weights=None) -> float:
    """Weighted spatial standard deviation of the predicted anomaly field."""
    _check_pair(pred, clim, same_time=False)
    w = _resolve_weights(pred, weights)
    a = pred.values - clim.values
    m = weighted_mean(a, w)
    centered = a - m
    return math.sqrt(weighted_mean(centered * centered, w))
