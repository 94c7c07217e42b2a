"""Command-line surface: argument parsing and exit codes.

  synth              generate synthetic truth, forecasts, and a manifest
  build-climatology  daily-mean climatology + extreme thresholds from history
  evaluate           latitude-weighted grid metrics and zonal spectra
  extremes           heatwave / cold-surge categorical scores
  cyclones           tropical-cyclone track and intensity verification
  stations           station-space scores with QC report
  report             flatten a scorecard JSON into CSV tables

Each verification command is the one function of its own module,
``wxverify.pipeline_<command>``, that returns its scorecard, and
``synth`` is :func:`wxverify.harness.write_run`. This module parses the
arguments, writes the scorecard and prints one ``wrote`` line per file
written. It imports a command's module only after parsing, and that
module imports only what the command runs, so ``--help`` loads no layer
(nor numpy) and no command compiles another's code.

When :func:`main` is the process's entry point (``argv`` None, as for
``python -m wxverify.cli`` and the ``wxverify`` script), it freezes the
garbage collector once the outputs are written (:func:`gc.freeze`), so
that interpreter exit does not walk the heap the imports left; a call
with an argument list, as a library or test makes, leaves the collector
as it is.

Runs are deterministic: the same manifest and inputs produce
byte-identical scorecards. Exit codes: 0 success, 2 input error,
3 computation error (for example insufficient history).
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path
from typing import Sequence

from .errors import (DegenerateAnomaly, EmptyBand, GridMismatch,
                     InsufficientHistory, InvalidHeader, ManifestError,
                     MissingFix, NoValidPairs, SeedOutsideDomain,
                     TargetOutsideDomain, WxVerifyError)

#: Exit 3; every other WxVerifyError is an input error, exit 2.
COMPUTE_ERRORS = (InsufficientHistory, NoValidPairs, DegenerateAnomaly,
                  EmptyBand, MissingFix, GridMismatch, TargetOutsideDomain,
                  SeedOutsideDomain)


def _ints(text: str | None, flag: str) -> tuple[int, ...] | None:
    """A comma-separated integer list, or None when the flag is absent."""
    if text is None:
        return None
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ManifestError(f"{flag}: bad integer list {text!r}") from exc


def _report(scorecard: str, out: str) -> list[Path]:
    from . import report
    path = Path(scorecard)
    try:
        card = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InvalidHeader(f"cannot read scorecard {path}: {exc}") from exc
    report.validate_scorecard(card)
    return report.flatten_scorecard_csv(card, out)


def _run(args: argparse.Namespace) -> list[Path]:
    """Run the parsed command; returns the paths it wrote."""
    if args.command == "report":
        return _report(args.scorecard, args.out)
    if args.command == "synth":
        from .harness import write_run
        return [write_run(args.scenario, args.out, seed=args.seed,
                          inits=args.inits,
                          max_lead_hours=args.max_lead_hours,
                          models=args.models, truth_span=args.truth_span,
                          stations=args.stations)]
    if args.command == "build-climatology":
        from .pipeline_climatology import build_climatology
        return build_climatology(args.manifest)
    if args.command == "evaluate":
        from .pipeline_evaluate import evaluate
        card = evaluate(args.manifest, args.out, _ints(args.leads, "--leads"),
                        _ints(args.spectra_leads, "--spectra-leads"))
    elif args.command == "extremes":
        from .pipeline_extremes import extremes
        card = extremes(args.manifest, args.out,
                        _ints(args.lead_days, "--lead-days"), args.gamma)
    elif args.command == "cyclones":
        from .pipeline_cyclones import cyclones
        card = cyclones(args.manifest, args.out, args.besttrack,
                        _ints(args.lead_days, "--lead-days"),
                        search_radius_km=args.search_radius_km,
                        wind_radius_km=args.wind_radius_km,
                        mslp_cutoff_pa=args.mslp_cutoff_pa)
    else:
        from .pipeline_stations import stations
        card = stations(args.manifest, args.station_meta, args.station_obs)
    from .report import write_scorecard
    return [write_scorecard(card, Path(args.out) / "scorecard.json")]


# --- entry point -------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wxverify",
        description="Forecast verification engine (grid metrics, spectra, "
                    "extremes, cyclones, stations).")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str, *required: str):
        p = sub.add_parser(name, help=help)
        for flag in required:
            p.add_argument(flag, required=True)
        return p

    p = command("evaluate", "grid metrics and spectra", "--manifest", "--out")
    p.add_argument("--leads", help="comma-separated lead hours (default: all)")
    p.add_argument("--spectra-leads", help="comma-separated spectra lead hours")
    p.add_argument("--workers", type=int, default=None,
                   help="accepted and ignored; evaluate runs serially")

    p = command("extremes", "heatwave / cold-surge scores", "--manifest",
                "--out")
    p.add_argument("--lead-days", dest="lead_days",
                   help="comma-separated lead days (default 1,3,7,10)")
    p.add_argument("--gamma", type=float, default=0.5)

    p = command("cyclones", "TC track and intensity verification",
                "--manifest", "--besttrack", "--out")
    p.add_argument("--lead-days", dest="lead_days",
                   help="comma-separated lead days (default 1,3,5)")
    p.add_argument("--search-radius-km", type=float, default=450.0)
    p.add_argument("--wind-radius-km", type=float, default=250.0)
    p.add_argument("--mslp-cutoff-pa", type=float, default=100500.0)

    command("stations", "station scores with QC report", "--manifest",
            "--station-meta", "--station-obs", "--out")
    command("build-climatology",
            "daily means and extreme thresholds from history", "--manifest")

    p = command("synth", "generate synthetic truth and forecasts",
                "--scenario", "--out")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--inits", help="comma-separated init times (ISO-8601)")
    p.add_argument("--max-lead-hours", type=int, default=240)
    p.add_argument("--models",
                   help="comma list: persistence, perfect, smoothed[:width], "
                        "lagged[:hours]")
    p.add_argument("--truth-span", choices=("full", "run"), default="full",
                   help="write truth for whole years, or only run valid times")
    p.add_argument("--stations", type=int, default=0,
                   help="sample N synthetic stations at grid nodes")

    command("report", "flatten a scorecard into CSV tables", "--scorecard",
            "--out")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        written = _run(args)
    except COMPUTE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except WxVerifyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(f"wrote {path}")
    if argv is None:
        # the process ends here: its final collections would only walk
        # the objects the imports left behind
        gc.freeze()
    return 0


if __name__ == "__main__":
    sys.exit(main())
