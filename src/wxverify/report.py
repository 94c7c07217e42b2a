"""Scorecard assembly, validation, and CSV export.

Scorecards are deterministic JSON documents: keys are sorted, floats are
serialized with repr round-tripping, and no wall-clock data is included,
so identical runs produce byte-identical files. Undefined scores are the
literal string "n/a", never 0.

The published contract is the JSON Schema shipped with the package
(`schema/scorecard.schema.json`). Every write enforces it through
:func:`validate_scorecard`, a plain-Python checker over the scorecard's
fixed row shapes - key sets, types, number versus "n/a", enums and
minimums - with the schema's (draft-07) type rules: a bool is neither a
number nor an integer, an integral float such as 1.0 is an integer, and
NaN and +-Inf are numbers. It accepts and rejects exactly the cards that
a JSON Schema validator does (the test suite checks this against
`jsonschema`), without that dependency at run time.

Every file the package writes - stores and their sidecars, CSVs,
scorecards and ``synth``'s run files - is published through
:func:`publishing`: written to a temp file beside it and renamed into
place, so a file is either complete or absent, and a path that cannot be
written is an input error naming it. This module loads no numpy, so
``wxverify report`` runs without it.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager, suppress
from functools import cache
from numbers import Number
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from .errors import WxVerifyError

if TYPE_CHECKING:
    from .spectra import ZonalSpectrum

SCHEMA_NAME = "wxverify-scorecard/v1"


# --- publishing files --------------------------------------------------------

@contextmanager
def publishing(path: str | os.PathLike) -> Iterator[Path]:
    """Yield the temp path ``<path>.tmp`` to write the file at ``path``
    into, after making its parent directories; rename it onto ``path``
    when the block ends, and remove it if the block raises. An OSError
    on the way becomes a :class:`WxVerifyError` naming ``path``."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        yield tmp
        os.replace(tmp, path)
    except BaseException as exc:
        with suppress(OSError):  # no temp file, or no directory to hold one
            tmp.unlink()
        if isinstance(exc, OSError):
            raise WxVerifyError(f"cannot write {path}: {exc}") from exc
        raise


def publish(path: str | os.PathLike, payload: bytes) -> Path:
    """Write ``payload`` to ``path`` through :func:`publishing`; returns
    the path."""
    with publishing(path) as tmp:
        tmp.write_bytes(payload)
    return Path(path)


def canonical_json(obj) -> bytes:
    """``obj`` as JSON with sorted keys, indented by 2, and a final
    newline: equal documents give equal bytes."""
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode("utf-8")


def text_lines(lines: Sequence[str]) -> bytes:
    """``lines`` as UTF-8 text, each ended by a newline."""
    return ("\n".join(lines) + "\n").encode("utf-8")


@cache
def scorecard_schema() -> dict:
    """The published JSON Schema of a scorecard."""
    # imported here: about 20 ms in a plain interpreter, for every command
    from importlib import resources
    ref = resources.files("wxverify").joinpath("schema/scorecard.schema.json")
    return json.loads(ref.read_text(encoding="utf-8"))


# --- checker ------------------------------------------------------------------
# A shape maps each key of an object to (check, what the value must be).

def _is_number(value) -> bool:
    return isinstance(value, Number) and not isinstance(value, bool)


def _integer(minimum: int) -> tuple[Callable, str]:
    def check(value) -> bool:
        if isinstance(value, float):
            return value.is_integer() and value >= minimum
        return (isinstance(value, int) and not isinstance(value, bool)
                and value >= minimum)
    return check, f"an integer >= {minimum}"


def _one_of(*names: str) -> tuple[Callable, str]:
    return (lambda value: isinstance(value, str) and value in names,
            f"one of {list(names)}")


_STRING = (lambda value: isinstance(value, str), "a string")
_COUNT = _integer(0)
_SCORE = (lambda value: _is_number(value)
          or (isinstance(value, str) and value == "n/a"),
          'a number or "n/a"')
_STRING_OR_NULL = (lambda value: value is None or isinstance(value, str),
                   "a string or null")
_NUMBER_OR_NULL = (lambda value: value is None or _is_number(value),
                   "a number or null")

_PROVENANCE = {
    "engine_version": _STRING,
    "manifest_sha256": _STRING,
    "thresholds_sha256": _STRING_OR_NULL,
    "besttrack_sha256": _STRING_OR_NULL,
    "gamma": _NUMBER_OR_NULL,
}
_ROW_SHAPES = {
    "grid_metrics": {
        "model": _STRING, "variable": _STRING, "lead_hours": _COUNT,
        "metric": _one_of("wrmse", "acc", "bias", "activity"),
        "value": _SCORE, "n_samples": _COUNT,
    },
    "spectra": {
        "model": _STRING, "variable": _STRING, "lead_hours": _COUNT,
        "csv": _STRING,
    },
    "event_scores": {
        "model": _STRING, "kind": _one_of("heatwave", "coldsurge"),
        "lead_days": _integer(1), "region": _STRING, "pod": _SCORE,
        "far": _SCORE, "csi": _SCORE, "tp": _COUNT, "fp": _COUNT,
        "fn": _COUNT,
    },
    "cyclone_scores": {
        "model": _STRING, "lead_hours": _COUNT, "n_storms": _COUNT,
        "dpe_km": _SCORE, "mslp_mae_hpa": _SCORE, "mslp_bias_hpa": _SCORE,
        "wind_mae_ms": _SCORE, "wind_bias_ms": _SCORE,
    },
    "station_scores": {
        "model": _STRING, "variable": _STRING, "lead_hours": _COUNT,
        "rmse": _SCORE, "bias": _SCORE, "acc": _SCORE, "n_pairs": _COUNT,
    },
}
_QC_COUNTS = {"raw": _COUNT, "replaced": _COUNT, "absent": _COUNT,
              "nonpositive_reference": _COUNT}
_TOP = {
    "schema": _one_of(SCHEMA_NAME),
    "command": _one_of("evaluate", "extremes", "cyclones", "stations"),
}


def _invalid(where: str, problem: str) -> WxVerifyError:
    return WxVerifyError(f"scorecard violates schema: {where}: {problem}")


def _check_object(obj, shape: dict, where: str, required=None):
    """``obj`` is a dict with every key of ``required`` (default: all of
    ``shape``), no key outside ``shape``, and valid values."""
    if not isinstance(obj, dict):
        raise _invalid(where, f"{obj!r} is not an object")
    if obj.keys() != shape.keys():
        unknown = [key for key in obj if key not in shape]
        if unknown:
            raise _invalid(where, f"unknown keys {sorted(map(repr, unknown))}")
        missing = [key for key in (shape if required is None else required)
                   if key not in obj]
        if missing:
            raise _invalid(where, f"missing keys {missing}")
    for key, value in obj.items():
        check, what = shape[key]
        if not check(value):
            raise _invalid(f"{where}.{key}", f"{value!r} is not {what}")


def validate_scorecard(card: dict):
    """Raise :class:`WxVerifyError` when ``card`` violates the schema."""
    if not isinstance(card, dict):
        raise _invalid("scorecard", f"{card!r} is not an object")
    for key in ("schema", "command", "provenance"):
        if key not in card:
            raise _invalid("scorecard", f"missing key {key!r}")
    for key, value in card.items():
        if key in _TOP:
            check, what = _TOP[key]
            if not check(value):
                raise _invalid(key, f"{value!r} is not {what}")
        elif key == "provenance":
            _check_object(value, _PROVENANCE, key,
                          required=("engine_version", "manifest_sha256"))
        elif key in _ROW_SHAPES:
            if not isinstance(value, list):
                raise _invalid(key, f"{value!r} is not an array")
            shape = _ROW_SHAPES[key]
            for i, row in enumerate(value):
                _check_object(row, shape, f"{key}[{i}]")
        elif key == "qc_report":
            if not isinstance(value, dict):
                raise _invalid(key, f"{value!r} is not an object")
            for variable, counts in value.items():
                _check_object(counts, _QC_COUNTS, f"{key}[{variable!r}]")
        else:
            raise _invalid("scorecard", f"unknown key {key!r}")


def na(value: float | None):
    """Serialize an undefined score as the literal "n/a"."""
    return "n/a" if value is None else value


def new_scorecard(command: str, manifest_sha256: str, *,
                  thresholds_sha256: str | None = None,
                  besttrack_sha256: str | None = None,
                  gamma: float | None = None) -> dict:
    from . import __version__
    provenance = {
        "engine_version": __version__,
        "manifest_sha256": manifest_sha256,
    }
    if thresholds_sha256 is not None:
        provenance["thresholds_sha256"] = thresholds_sha256
    if besttrack_sha256 is not None:
        provenance["besttrack_sha256"] = besttrack_sha256
    if gamma is not None:
        provenance["gamma"] = gamma
    return {
        "schema": SCHEMA_NAME,
        "command": command,
        "provenance": provenance,
    }


def dump_scorecard(card: dict) -> bytes:
    validate_scorecard(card)
    return canonical_json(card)


def write_scorecard(card: dict, path: str | Path) -> Path:
    return publish(path, dump_scorecard(card))


def write_spectrum_csv(spectrum: ZonalSpectrum, path: str | Path) -> Path:
    """Spectrum export: one (wavenumber, energy) row per line."""
    lines = ["k,energy"]
    for k, energy in zip(spectrum.wavenumbers, spectrum.energy):
        lines.append(f"{int(k)},{float(energy)!r}")
    return publish(path, text_lines(lines))


def flatten_scorecard_csv(card: dict, out_dir: str | Path) -> list[Path]:
    """Write one CSV per populated row section but spectra, its columns
    in the order of the section's row shape; returns the paths."""
    out_dir = Path(out_dir)
    written = []
    for section, shape in _ROW_SHAPES.items():
        rows: Sequence[dict] = card.get(section, [])
        if section == "spectra" or not rows:
            continue
        lines = [",".join(shape)]
        for row in rows:
            lines.append(",".join(
                repr(row[col]) if isinstance(row[col], float)
                else str(row[col]) for col in shape))
        written.append(publish(out_dir / f"{section}.csv", text_lines(lines)))
    return written
