"""Run one wxverify command with a span around every public layer function.

Usage:
    python3 bench/layer_trace.py SPANS.npz -- <wxverify arguments>

The tracer wraps, from outside the program, every public function that
each layer module defines, plus three class hooks (``GeoGrid`` and
``GridField`` construction, ``DailyMeanClimatology.field_for``). It then
calls ``wxverify.cli.main(argv)`` and writes the spans when the command
returns. A span is (name, start, end, parent); self times are derived
from them afterwards by ``run.py``. Nothing inside ``wxverify`` changes,
so a traced command writes the same bytes as an untraced one.

Spans are kept on one stack, so traced commands must run single-threaded
(``evaluate`` without ``--workers``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

import numpy as np

LAYERS = ("fileio", "grid", "metrics", "spectra", "climatology", "extremes",
          "cyclones", "stations", "report", "harness")


class Tracer:
    """In-memory span recorder plus the few counters a ratio needs."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        # counters read by run.py: paths of each file-level call, and the
        # outcomes behind nonempty_frac and tracked_frac
        self.paths: dict[str, list[str]] = {}
        self.counts = {"match_nonempty": 0, "track_steps": 0,
                       "track_tracked": 0}
        self.main_s = 0.0

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, name: str, fn, probe=None):
        name_id = self._name_id(name)
        if inspect.isgeneratorfunction(fn):
            # time each step of the iteration, not the generator's creation
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = self._open(name_id)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if probe is not None:
                probe(self, name, args, result)
            return result
        return wrapper

    def save(self, path: str):
        extras = {"paths": self.paths, "counts": self.counts,
                  "main_s": self.main_s}
        np.savez(path, names=np.array(self.names, dtype=str),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 extras=np.array(json.dumps(extras)))


def _record_path(arg_index: int):
    def probe(tracer, name, args, result):
        tracer.paths.setdefault(name, []).append(str(args[arg_index]))
    return probe


def _probe_match(tracer, name, args, result):
    pred, truth = args[0], args[1]
    tracer.counts["match_nonempty"] += bool(len(pred) and len(truth))


def _probe_track(tracer, name, args, result):
    tracer.counts["track_steps"] += len(result.tracked_mask)
    tracer.counts["track_tracked"] += sum(result.tracked_mask)


PROBES = {
    "fileio.read_grid": _record_path(0),
    "fileio.write_grid": _record_path(1),
    "fileio.read_daily_climatology": _record_path(0),
    "fileio.write_daily_climatology": _record_path(1),
    "extremes.match_events": _probe_match,
    "cyclones.track_storm": _probe_track,
}

# Renamed spans: the generator's steps are the synthetic generation work.
SPAN_NAMES = {"harness.generate_variable_series": "harness.generate"}


def install(tracer: Tracer) -> None:
    """Wrap the layer functions and rebind every name bound to them."""
    import wxverify.cli  # noqa: F401  (imports every layer)
    from wxverify.climatology import DailyMeanClimatology
    from wxverify.grid import GeoGrid, GridField

    replaced = {}
    for layer in LAYERS:
        module = importlib.import_module(f"wxverify.{layer}")
        for attr, obj in vars(module).items():
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__):
                continue
            name = f"{layer}.{attr}"
            replaced[id(obj)] = tracer.wrap(SPAN_NAMES.get(name, name), obj,
                                            PROBES.get(name))
    # cli, stations and cyclones import functions by name: rebind every
    # module attribute that still points at an original function object
    for module_name, module in list(sys.modules.items()):
        if module_name != "wxverify" and not module_name.startswith("wxverify."):
            continue
        for attr, obj in list(vars(module).items()):
            if id(obj) in replaced and inspect.isfunction(obj):
                setattr(module, attr, replaced[id(obj)])

    for cls, method, name in ((GeoGrid, "__post_init__", "grid.GeoGrid"),
                              (GridField, "__post_init__", "grid.GridField"),
                              (DailyMeanClimatology, "field_for",
                               "climatology.DailyMeanClimatology.field_for")):
        setattr(cls, method, tracer.wrap(name, getattr(cls, method)))


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: layer_trace.py SPANS.npz -- <wxverify arguments>",
              file=sys.stderr)
        return 2
    out, command = argv[0], argv[2:]
    tracer = Tracer()
    install(tracer)
    from wxverify import cli
    start = time.perf_counter()
    try:
        return cli.main(command)
    finally:
        tracer.main_s = time.perf_counter() - start
        tracer.save(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
