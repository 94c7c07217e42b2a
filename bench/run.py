"""wxverify benchmark: synthetic workloads run command by command.

Usage (from the repository root):

    python3 bench/run.py --workload coarse-multiyear --seed 1 --seconds 25 --trace 0

The benchmark writes the workload's scenario, generates its inputs with
``wxverify synth --seed``, and then runs the user-facing subcommands as
separate processes, one at a time (a closed loop with one client), in
rounds until ``--seconds`` have passed. Each command's time is the
subprocess wall time, interpreter start included, scaled to the reference
host's speed by a fixed probe loop timed before and after it
(``HostSpeed``); its memory is the child's ``ru_maxrss`` from
``os.wait4``. Every end-to-end metric is the median over the rounds
(``setup_s`` over three synth runs).

With ``--trace 1`` the same commands run once untraced and once under
``layer_trace.py``, which records a span around every public layer
function; the per-layer metrics and the tracing overhead come from that.

Every run checks its outputs: exit codes, byte-identical outputs across
rounds, worker counts and tracing, and analytic oracles on the ``perfect``
and ``persistence`` models. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 3
MIN_ROUNDS = 5
# host_probe: a loop of PROBE_LOOPS steps took PROBE_REF_S on the
# reference machine (2 cores, Python 3.11) with no other load.
PROBE_LOOPS = 1_500_000
PROBE_REF_S = 0.100
KM_PER_DEG = 6371.0 * math.pi / 180.0

# --- workloads ---------------------------------------------------------------

COARSE_PROCESSES = {
    "t2m": {"base": 285.0, "seasonal_amp": 10.0, "diurnal_amp": 3.0,
            "ar1": 0.8, "noise_sigma": 1.5},
}
FINE_PROCESSES = {
    "u10": {"base": 2.0, "ar1": 0.7, "noise_sigma": 2.0,
            "spatial_corr_points": 5},
    "v10": {"base": -1.0, "ar1": 0.7, "noise_sigma": 2.0,
            "spatial_corr_points": 5},
    "msl": {"base": 101000.0, "ar1": 0.9, "noise_sigma": 150.0,
            "spatial_corr_points": 5},
}


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: dict
    inits: tuple[str, ...]
    models: str
    stations: int
    events: str  # the event-verification command: "extremes" or "cyclones"


WORKLOADS = {w.name: w for w in (
    # 5 degree global grid, two history years plus the evaluation year:
    # thousands of tiny files, so per-file and per-object cost dominates.
    Workload(
        name="coarse-multiyear",
        scenario={
            "grid": {"lat_start": 87.5, "lat_step": -5.0, "n_lat": 36,
                     "lon_start": 0.0, "lon_step": 5.0, "n_lon": 72},
            "years": [2023, 2024, 2025],
            "processes": COARSE_PROCESSES,
            "episodes": [{"kind": "heatwave", "year": 2025, "lat_index": 10,
                          "lon_index": 30, "start_day": 200, "n_days": 5,
                          "amplitude_k": 10.0}],
        },
        inits=("2025-07-18T00:00:00Z", "2025-07-19T00:00:00Z",
               "2025-07-20T00:00:00Z"),
        models="persistence,smoothed:9,perfect",
        stations=50,
        events="extremes"),
    # 0.5 degree regional slice with a translating vortex: few, large
    # fields, so numpy kernels, payload decode and the climatology stack
    # dominate. The vortex is 60 hPa deep, so the MSL noise cannot move
    # its grid minimum far enough to break the perfect-model DPE oracle.
    Workload(
        name="fine-slice",
        scenario={
            "grid": {"lat_start": 45.0, "lat_step": -0.5, "n_lat": 81,
                     "lon_start": 110.0, "lon_step": 0.5, "n_lon": 121},
            "years": [2025],
            "processes": FINE_PROCESSES,
            "vortices": [{"storm_id": "SYN01", "start_lat": 15.1,
                          "start_lon": 160.1,
                          "start_time": "2025-07-17T00:00:00Z",
                          "n_steps": 60, "u_ms": -5.0, "v_ms": 2.0,
                          "depth_pa": 6000.0}],
        },
        inits=("2025-07-18T00:00:00Z", "2025-07-19T00:00:00Z"),
        models="persistence,perfect",
        stations=200,
        events="cyclones"),
)}

END_TO_END = [("setup_s", "s"), ("build_climatology_s", "s"),
              ("evaluate_s", "s"), ("evaluate_w2_s", "s"), ("events_s", "s"),
              ("stations_s", "s"), ("pipeline_s", "s"), ("peak_rss_mb", "MB")]

# Per-layer metrics: "<command>.<span>.<kind>". The command "events" is
# the workload's event command (extremes or cyclones). A span is
# "<layer>.<function>" or a class hook; a bare "<layer>" is the sum over
# the layer's spans, and "event_layer" is the event command's own layer.
# Every time is measured on both workloads; only counts and ratios of the
# other workload's event command read 0. See README.md for each kind.
_COMMANDS = ("build_clim", "evaluate", "events", "stations")
PER_LAYER = (
    [f"{cmd}.{m}" for cmd in _COMMANDS for m in (
        "fileio.read_grid.calls", "fileio.read_grid.self_s",
        "fileio.read_grid.mb", "fileio.read_grid.distinct_frac",
        "grid.GeoGrid.builds", "grid.GeoGrid.self_s", "grid.GridField.self_s")]
    + [f"{cmd}.{m}" for cmd in ("evaluate", "stations") for m in (
        "fileio.read_daily_climatology.self_s",
        "fileio.read_daily_climatology.mb", "report.validate_scorecard.self_s")]
    + ["build_clim.fileio.write_daily_climatology.self_s",
       "build_clim.fileio.write_daily_climatology.mb",
       "build_clim.climatology.daily_means_from_fields.self_s",
       "build_clim.climatology.build_daily_mean_climatology.self_s",
       "build_clim.climatology.self_s",
       "evaluate.metrics.wrmse.self_s", "evaluate.metrics.bias.self_s",
       "evaluate.metrics.acc.self_s", "evaluate.metrics.activity.self_s",
       "evaluate.metrics.pairs",
       "evaluate.spectra.midlatitude_spectrum.calls",
       "evaluate.spectra.midlatitude_spectrum.self_s",
       "events.event_layer.self_s", "events.grid.self_s",
       "events.extremes.label_events.calls",
       "events.extremes.match_events.calls",
       "events.extremes.match_events.nonempty_frac",
       "events.cyclones.track_storm.calls",
       "events.cyclones.track_storm.tracked_frac",
       "events.grid.haversine_km_grid.calls",
       "stations.grid.interp_to_stations.calls",
       "stations.grid.interp_to_stations.self_s",
       "stations.stations.apply_qc.self_s",
       "stations.stations.station_scores.self_s",
       "stations.stations.station_climatology_from_grid.self_s",
       "stations.fileio.read_station_csvs.self_s",
       "synth.fileio.write_grid.calls", "synth.fileio.write_grid.self_s",
       "synth.fileio.write_grid.mb", "synth.harness.generate.self_s"]
    + [f"{cmd}.cli.self_s" for cmd in ("synth",) + _COMMANDS]
    + ["trace.overhead_frac"])
PER_LAYER_UNITS = {"calls": "count", "builds": "count", "pairs": "count",
                   "self_s": "s", "mb": "MB_computed", "distinct_frac": "ratio",
                   "nonempty_frac": "ratio", "tracked_frac": "ratio",
                   "overhead_frac": "ratio"}


# --- running commands --------------------------------------------------------

def host_probe() -> float:
    """Wall time of a fixed pure-Python loop: the host's current speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


class HostSpeed:
    """Scales command wall times to the reference host's uncontended speed.

    The host's cores are shared with other tenants, and its speed for
    interpreted code drifts by up to ±40 % over seconds to minutes (see
    README.md). ``host_probe`` runs before and after every command; a
    command's scaled time is its wall time times ``PROBE_REF_S`` over the
    mean of the two probes around it. The probes run between commands,
    never beside one, and use nothing from ``wxverify``.
    """

    def __init__(self):
        self.probes = [host_probe()]

    def scale(self, wall_s: float) -> float:
        before = self.probes[-1]
        self.probes.append(host_probe())
        return wall_s * PROBE_REF_S / ((before + self.probes[-1]) / 2)


@dataclass
class CommandResult:
    wall_s: float
    rss_mb: float
    scaled_s: float


@dataclass
class Tally:
    """Attempted and failed operations: commands plus output checks."""

    attempted: int = 0
    failed: int = 0

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAIL {what}", flush=True)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def run_command(argv: list[str], log: Path, tally: Tally,
                traced: Path | None = None,
                speed: HostSpeed | None = None) -> CommandResult:
    """Run one wxverify command as its own process; wait with os.wait4."""
    if traced is None:
        cmd = [sys.executable, "-m", "wxverify.cli", *argv]
    else:
        cmd = [sys.executable, str(BENCH_DIR / "layer_trace.py"), str(traced),
               "--", *argv]
    with open(log, "ab") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code  # reaped above; keep Popen from waiting again
    tally.check(code == 0, f"{argv[0]} exited {code} (log: {log})")
    scaled = speed.scale(wall) if speed is not None else wall
    return CommandResult(wall, usage.ru_maxrss * 1024 / 1e6, scaled)


def tree_digest(root: Path, pattern: str = "**/*") -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.glob(pattern) if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def tree_size(root: Path) -> tuple[int, int]:
    n_files = n_bytes = 0
    for path in root.rglob("*"):
        if path.is_file():
            n_files += 1
            n_bytes += path.stat().st_size
    return n_files, n_bytes


@dataclass(frozen=True)
class Step:
    """One command of a round: its metric, per-layer prefix and outputs."""

    metric: str
    name: str
    argv: list[str]
    out: Path | None  # output directory; None when it writes into the data


class Run:
    """One workload's directories, command lines and checks."""

    def __init__(self, workload: Workload, seed: int):
        self.w = workload
        self.seed = seed
        self.base = WORK / workload.name
        self.data = self.base / "data"
        self.out = self.base / "out"
        self.log = self.base / "commands.log"
        self.tally = Tally()
        self.speed: HostSpeed | None = None  # set to scale the timed runs

    def prepare(self):
        shutil.rmtree(self.base, ignore_errors=True)
        self.base.mkdir(parents=True)
        scenario = dict(self.w.scenario, seed=self.seed)
        (self.base / "scenario.json").write_text(json.dumps(scenario, indent=2))

    def synth(self, traced: Path | None = None) -> CommandResult:
        shutil.rmtree(self.data, ignore_errors=True)
        return run_command(
            ["synth", "--scenario", str(self.base / "scenario.json"),
             "--out", str(self.data), "--seed", str(self.seed),
             "--inits", ",".join(self.w.inits), "--max-lead-hours", "240",
             "--models", self.w.models, "--stations", str(self.w.stations)],
            self.log, self.tally, traced, self.speed)

    def synth_digest(self) -> str:
        """Digest of the small synth outputs; station obs sample the truth."""
        h = hashlib.sha256()
        for name in ("manifest.json", "stations_meta.csv", "stations_obs.csv",
                     "besttrack.csv"):
            path = self.data / name
            if path.exists():
                h.update(name.encode() + b"\0" + path.read_bytes())
        return h.hexdigest()

    def steps(self) -> list[Step]:
        """The commands of one round, in the order they run."""
        manifest = str(self.data / "manifest.json")
        out = self.out
        if self.w.events == "cyclones":
            events = ["cyclones", "--manifest", manifest,
                      "--besttrack", str(self.data / "besttrack.csv")]
        else:
            events = ["extremes", "--manifest", manifest]
        return [
            Step("build_climatology_s", "build_clim",
                 ["build-climatology", "--manifest", manifest], None),
            Step("evaluate_s", "evaluate",
                 ["evaluate", "--manifest", manifest,
                  "--out", str(out / "evaluate")], out / "evaluate"),
            Step("evaluate_w2_s", "evaluate_w2",
                 ["evaluate", "--manifest", manifest, "--workers", "2",
                  "--out", str(out / "evaluate_w2")], out / "evaluate_w2"),
            Step("events_s", "events",
                 events + ["--out", str(out / self.w.events)],
                 out / self.w.events),
            Step("stations_s", "stations",
                 ["stations", "--manifest", manifest,
                  "--station-meta", str(self.data / "stations_meta.csv"),
                  "--station-obs", str(self.data / "stations_obs.csv"),
                  "--out", str(out / "stations")], out / "stations"),
        ]

    def output_digest(self, step: Step) -> str:
        if step.out is None:
            # build-climatology: the sidecars carry each payload's CRC-32
            return tree_digest(self.data / "clim", "*.json")
        return tree_digest(step.out)

    def run_round(self, steps: list[Step], spans: Path | None = None
                  ) -> dict[str, CommandResult]:
        results = {}
        for step in steps:
            if step.out is not None:
                shutil.rmtree(step.out, ignore_errors=True)
            traced = spans / f"{step.name}.npz" if spans is not None else None
            results[step.metric] = run_command(step.argv, self.log,
                                               self.tally, traced, self.speed)
        return results


# --- output checks -----------------------------------------------------------

def _card(path: Path) -> dict:
    return json.loads((path / "scorecard.json").read_text())


def _is(value, target: float, tol: float = 0.0) -> bool:
    return isinstance(value, (int, float)) and abs(value - target) <= tol


def check_oracles(run: Run) -> None:
    """Analytic oracles: the perfect model equals truth, persistence at lead 0."""
    t = run.tally
    try:
        rows = _card(run.out / "evaluate")["grid_metrics"]
        perfect = [r for r in rows if r["model"] == "perfect"]
        t.check(bool(perfect) and all(
            _is(r["value"], 1.0, 1e-12) if r["metric"] == "acc"
            else r["metric"] == "activity" or _is(r["value"], 0.0)
            for r in perfect),
            "evaluate: perfect wrmse = bias = 0 and acc = 1")
        lead0 = [r for r in rows if r["model"] == "persistence"
                 and r["lead_hours"] == 0 and r["metric"] == "wrmse"]
        t.check(bool(lead0) and all(_is(r["value"], 0.0) for r in lead0),
                "evaluate: persistence wrmse = 0 at lead 0")

        card = _card(run.out / "stations")
        perfect = [r for r in card["station_scores"] if r["model"] == "perfect"]
        t.check(bool(perfect) and all(
            _is(r["rmse"], 0.0) and _is(r["bias"], 0.0)
            and _is(r["acc"], 1.0, 1e-12) for r in perfect),
            "stations: perfect rmse = bias = 0 and acc = 1")
        t.check(all(c["replaced"] == 0 for c in card["qc_report"].values()),
                "stations: QC replaced = 0")

        card = _card(run.out / run.w.events)
        if run.w.events == "extremes":
            perfect = [r for r in card["event_scores"] if r["model"] == "perfect"]
            t.check(any(r["tp"] > 0 for r in perfect) and all(
                r["fp"] == 0 and r["fn"] == 0
                and r["pod"] in (1, "n/a") and r["csi"] in (1, "n/a")
                and r["far"] in (0, "n/a") for r in perfect),
                "extremes: perfect pod = csi = 1 and far = 0")
        else:
            g = run.w.scenario["grid"]
            diagonal_km = KM_PER_DEG * math.hypot(g["lat_step"], g["lon_step"])
            perfect = [r for r in card["cyclone_scores"]
                       if r["model"] == "perfect"]
            t.check(bool(perfect) and all(
                r["n_storms"] > 0 and _is(r["dpe_km"], 0.0, diagonal_km)
                for r in perfect),
                f"cyclones: perfect n_storms > 0 and DPE < {diagonal_km:.1f} km")
    except (OSError, KeyError, TypeError, ValueError) as exc:
        t.check(False, f"scorecards unreadable: {exc!r}")


# --- per-layer metrics from spans --------------------------------------------

@dataclass
class SpanStats:
    calls: dict[str, int]
    self_s: dict[str, float]
    paths: dict[str, list[str]]
    counts: dict[str, int]
    cli_self_s: float


def load_spans(path: Path) -> SpanStats:
    with np.load(path) as z:
        names = [str(n) for n in z["names"]]
        name, parent = z["name"], z["parent"]
        dur = z["end"] - z["start"]
        extras = json.loads(str(z["extras"]))
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
    own = dur - covered
    calls = np.bincount(name, minlength=len(names))
    self_s = np.bincount(name, weights=own, minlength=len(names))
    return SpanStats(
        calls={n: int(calls[i]) for i, n in enumerate(names)},
        self_s={n: float(self_s[i]) for i, n in enumerate(names)},
        paths=extras["paths"], counts=extras["counts"],
        cli_self_s=extras["main_s"] - float(dur[~child].sum()))


def _file_mb(paths: list[str]) -> float:
    total = 0
    for p in paths:
        payload = Path(p)
        total += payload.stat().st_size
        total += payload.with_name(payload.name + ".json").stat().st_size
    return total / 1e6


def layer_value(stats: SpanStats, span: str, kind: str) -> float:
    if kind in ("calls", "builds"):
        return stats.calls.get(span, 0)
    if kind == "self_s" and "." not in span:
        return layer_totals(stats).get(span, 0.0)
    if kind == "self_s":
        return stats.self_s.get(span, 0.0)
    if kind == "pairs":
        return stats.calls.get("metrics.wrmse", 0)
    if kind == "mb":
        return _file_mb(stats.paths.get(span, []))
    if kind == "distinct_frac":
        paths = stats.paths.get(span, [])
        return len(set(paths)) / len(paths) if paths else 0.0
    if kind == "nonempty_frac":
        calls = stats.calls.get(span, 0)
        return stats.counts["match_nonempty"] / calls if calls else 0.0
    if kind == "tracked_frac":
        steps = stats.counts["track_steps"]
        return stats.counts["track_tracked"] / steps if steps else 0.0
    raise ValueError(f"unknown per-layer kind {kind!r}")


def per_layer_metrics(spans: dict[str, SpanStats], overhead: float,
                      event_layer: str) -> dict:
    """Every PER_LAYER metric from the spans of each traced command."""
    out = {}
    for metric in PER_LAYER:
        cmd, _, rest = metric.partition(".")
        span, _, kind = rest.rpartition(".")
        if metric == "trace.overhead_frac":
            value = overhead
        elif span == "cli":
            value = spans[cmd].cli_self_s
        else:
            span = event_layer if span == "event_layer" else span
            value = layer_value(spans[cmd], span, kind)
        out[metric] = {"value": value, "unit": PER_LAYER_UNITS[kind]}
    return out


def layer_totals(stats: SpanStats) -> dict[str, float]:
    totals: dict[str, float] = {"cli": stats.cli_self_s}
    for span, secs in stats.self_s.items():
        layer = span.split(".")[0]
        totals[layer] = totals.get(layer, 0.0) + secs
    return totals


# --- environment -------------------------------------------------------------

def environment(run: Run) -> dict:
    l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    n_files, n_bytes = tree_size(run.data)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "l3": l3.read_text().strip() if l3.exists() else "unknown",
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "jsonschema": importlib.metadata.version("jsonschema"),
        "free_disk_gb": round(shutil.disk_usage(ROOT).free / 1e9, 1),
        "workload_files": n_files,
        "workload_mb": round(n_bytes / 1e6, 1),
    }


# --- the two modes -----------------------------------------------------------

def measure(run: Run, seconds: float) -> dict[str, float]:
    """Three synth runs, then rounds; every metric is a median over them.

    Times are scaled to the reference host's speed (``HostSpeed``); the
    raw wall-time medians and the probes are printed beside them.
    """
    t = run.tally
    run.speed = HostSpeed()
    setup, setup_wall, synth_digests = [], [], []
    for _ in range(SETUP_REPEATS):
        r = run.synth()
        setup.append(r.scaled_s)
        setup_wall.append(r.wall_s)
        synth_digests.append(run.synth_digest())
    t.check(len(set(synth_digests)) == 1,
            "synth: identical outputs across repeats")
    print(f"setup: synth {' '.join(f'{s:.3f}' for s in setup_wall)} s wall,"
          f" {' '.join(f'{s:.3f}' for s in setup)} s scaled", flush=True)
    print("environment:", json.dumps(environment(run)), flush=True)

    steps = run.steps()
    samples: dict[str, list[float]] = {s.metric: [] for s in steps}
    samples.update(pipeline_s=[], peak_rss_mb=[])
    walls: dict[str, list[float]] = {s.metric: [] for s in steps}
    first: dict[str, str] = {}
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        results = run.run_round(steps)
        rounds += 1
        for m, r in results.items():
            samples[m].append(r.scaled_s)
            walls[m].append(r.wall_s)
        samples["pipeline_s"].append(sum(
            r.scaled_s for m, r in results.items() if m != "evaluate_w2_s"))
        samples["peak_rss_mb"].append(max(r.rss_mb for r in results.values()))
        print(f"round {rounds}: " + " ".join(
            f"{m}={r.wall_s:.3f}/{r.scaled_s:.3f}" for m, r in results.items())
            + " (wall/scaled s)", flush=True)
        digests = {s.metric: run.output_digest(s) for s in steps}
        if rounds == 1:
            first = digests
            check_oracles(run)
        else:
            for m, digest in digests.items():
                t.check(digest == first[m],
                        f"{m}: output identical to round 1 (round {rounds})")
        t.check(digests["evaluate_s"] == digests["evaluate_w2_s"],
                f"evaluate: 1 and 2 workers identical (round {rounds})")
    probes = run.speed.probes
    print(f"host probe: median {statistics.median(probes):.4f} s, range "
          f"{min(probes):.4f}-{max(probes):.4f} s over {len(probes)} probes,"
          f" reference {PROBE_REF_S:.4f} s", flush=True)
    print("wall medians: setup_s=" + f"{statistics.median(setup_wall):.4f} "
          + " ".join(f"{m}={statistics.median(v):.4f}"
                     for m, v in walls.items()), flush=True)
    metrics = {"setup_s": statistics.median(setup)}
    for m, values in samples.items():
        metrics[m] = statistics.median(values)
    return metrics


def traced(run: Run) -> dict:
    """One untraced and one traced pass; per-layer metrics from the spans."""
    t = run.tally
    spans_dir = run.base / "spans"
    spans_dir.mkdir()
    plain = {"synth": run.synth().wall_s}
    digest = run.synth_digest()
    traced_walls = {"synth": run.synth(spans_dir / "synth.npz").wall_s}
    t.check(run.synth_digest() == digest, "synth: traced output identical")

    steps = [s for s in run.steps() if s.metric != "evaluate_w2_s"]
    for step, r in zip(steps, run.run_round(steps).values()):
        plain[step.name] = r.wall_s
    digests = {s.name: run.output_digest(s) for s in steps}
    check_oracles(run)
    for step, r in zip(steps, run.run_round(steps, spans_dir).values()):
        traced_walls[step.name] = r.wall_s
        t.check(run.output_digest(step) == digests[step.name],
                f"{step.name}: traced output identical to untraced")
    overhead = sum(traced_walls.values()) / sum(plain.values()) - 1.0
    for name in plain:
        print(f"{name}: untraced {plain[name]:.3f} s, traced "
              f"{traced_walls[name]:.3f} s", flush=True)

    spans = {name: load_spans(spans_dir / f"{name}.npz")
             for name in traced_walls}
    for name, stats in spans.items():
        print(f"{name} self time by layer: " + " ".join(
            f"{layer}={secs:.3f}" for layer, secs in
            sorted(layer_totals(stats).items(), key=lambda kv: -kv[1])
            if secs > 0))
        for span, secs in sorted(stats.self_s.items(), key=lambda kv: -kv[1]):
            if secs >= 0.001:
                print(f"  {name}.{span}: calls {stats.calls[span]} "
                      f"self {secs:.4f} s")
    return per_layer_metrics(spans, overhead, run.w.events)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wxverify" / "cli.py").is_file():
        print(f"error: wxverify sources not found under {SRC}", file=sys.stderr)
        return 2

    run = Run(WORKLOADS[args.workload], args.seed)
    run.prepare()
    try:
        if args.trace:
            metrics = traced(run)
        else:
            measured = measure(run, args.seconds)
            metrics = {name: {"value": measured[name], "unit": unit}
                       for name, unit in END_TO_END}
        for name, m in metrics.items():
            print(f"{name:64s} {m['value']:>14.6g} {m['unit']}")
        t = run.tally
        print(f"failed_frac {t.failed}/{t.attempted}"
              f" = {t.failed / max(t.attempted, 1):.4f}")
        print(json.dumps({"correct": t.failed == 0, "attempted": t.attempted,
                          "failed": t.failed, "metrics": metrics}))
    finally:
        shutil.rmtree(run.base / "data", ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
