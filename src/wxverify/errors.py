"""Typed exceptions shared across the verification engine.

Every error raised by the engine derives from :class:`WxVerifyError`, so
callers (and the CLI) can distinguish engine failures from programming
errors. Readers in :mod:`wxverify.fileio` are total over this hierarchy:
malformed input produces a typed error, never a bare traceback from a
parsing library.
"""


class WxVerifyError(Exception):
    """Base class for all engine errors."""


# --- grid / metric errors ---------------------------------------------------

class GridMismatch(WxVerifyError):
    """Two fields that must share grid/variable/valid time do not."""


class TargetOutsideDomain(WxVerifyError):
    """Interpolation target lies outside the source grid span; ``point``
    is the index of the first such target, where known."""

    def __init__(self, message: str, point: int | None = None):
        super().__init__(message)
        self.point = point


class DegenerateAnomaly(WxVerifyError):
    """Anomaly field has (near-)zero weighted norm; correlation undefined."""


# --- spectra ----------------------------------------------------------------

class EmptyBand(WxVerifyError):
    """No grid row falls inside the requested latitude band."""


# --- climatology / extremes -------------------------------------------------

class InsufficientHistory(WxVerifyError):
    """Not enough historical samples to build a climatology or threshold."""


# --- cyclones ---------------------------------------------------------------

class SeedOutsideDomain(WxVerifyError):
    """Tracker seed position lies outside the field grid."""


class MissingFix(WxVerifyError):
    """A storm fix required by the homogeneous sample is absent."""


# --- io ---------------------------------------------------------------------

class ChecksumMismatch(WxVerifyError):
    """Payload CRC-32 does not match the sidecar checksum."""


class HeaderPayloadShapeMismatch(WxVerifyError):
    """Payload byte length disagrees with the sidecar shape."""


class NonFiniteValue(WxVerifyError):
    """A field or payload contains NaN or Inf."""


class InvalidHeader(WxVerifyError):
    """Sidecar or CSV header is malformed or carries the wrong magic."""


class NonUniformGrid(WxVerifyError):
    """The flat-binary format stores uniformly spaced grids only."""


class NonMonotoneTime(WxVerifyError):
    """Track fixes are not on a strictly increasing 6-hour cadence."""


class UnitOutOfRange(WxVerifyError):
    """A physical value lies outside its plausibility band."""


class UnknownStation(WxVerifyError):
    """Observation row references a station absent from the metadata."""


class DuplicateObservation(WxVerifyError):
    """Two observation rows share (station, time, variable)."""


class ManifestError(WxVerifyError):
    """Run manifest is malformed or references missing files."""


# --- stations ---------------------------------------------------------------

class NoValidPairs(WxVerifyError):
    """No (station, time) pair has both a forecast and an observation."""
