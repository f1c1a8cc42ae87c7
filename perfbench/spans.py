"""In-memory span tracer that times calls into hyperthick's public functions.

The library itself is not instrumented. ``Tracer.install`` replaces each
public function listed in ``SPANNED`` (and the two methods ``StarShape.radial``
and ``DirectionGrid.iter_blocks``) with a wrapper that records a span, in every
``hyperthick`` module namespace that holds it, so calls between library
modules are timed too. ``uninstall`` restores the originals, which makes the
untraced passes of a traced run byte-for-byte the library's own code.

A span is ``[id, name, start, end, parent_id, task, self_s]``; self time is the
span's duration minus the durations of its direct children. Each thread keeps
its own stack of open spans, so a span's parent is the innermost span open on
the same thread; the first span a pool thread opens has no parent, and the
time its submitter spends waiting on the pool is the submitter's self time.

Run as a script, this file is the traced stand-in for the ``hyperthick``
console script: ``python3 perfbench/spans.py OUT.json <hyperthick args...>``
runs one CLI command under the tracer and writes its spans and counts to
OUT.json before exiting with the command's exit code.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict

# (module, attribute) -> span name. Functions are looked up on the module
# named here; the wrapper is installed wherever the same object is bound.
SPANNED = {
    ("geometry", "build_grid"): "geometry.build_grid",
    ("geometry", "unit_vectors"): "geometry.coords",
    ("geometry", "cartesian_to_spherical"): "geometry.coords",
    ("thickness", "average_thickness"): "thickness.reduce",
    ("thickness", "volume"): "thickness.reduce",
    ("thickness", "moment_vector"): "thickness.reduce",
    ("thickness", "centroid"): "thickness.reduce",
    ("thickness", "axis_section_average"): "thickness.reduce",
    ("thickness", "thickness_montecarlo"): "thickness.mc.sample",
    ("stationary", "radial_profile"): "stationary.radial_profile",
    ("stationary", "support_interval"): "stationary.support",
    ("stationary", "critical_support"): "stationary.support",
    ("properties", "body_properties"): "properties.body_properties",
    ("analysis", "sphere_optimality_test"): "analysis.sphere_optimality",
    ("analysis", "nullvector_recover"): "analysis.nullvector",
    ("analysis", "stationarity_residual"): "analysis.stationarity_residual",
    ("analysis", "dumbbell_thickness"): "analysis.dumbbell",
    ("cli", "parse_shape"): "cli.command",
}


class Tracer:
    """Collects spans and counters while installed; costs nothing when not."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.task = None
        self._local = threading.local()
        self._lock = threading.Lock()  # Counter updates are read-modify-write
        self._ids = itertools.count()
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        """This thread's open spans, innermost last: [span_id, name, start, child_time]."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> None:
        self._stack().append([next(self._ids), name, time.perf_counter(), 0.0])

    def end(self) -> None:
        t1 = time.perf_counter()
        stack = self._stack()
        span_id, name, t0, child = stack.pop()
        dur = t1 - t0
        parent = stack[-1][0] if stack else None
        if stack:
            stack[-1][3] += dur
        self.spans.append([span_id, name, t0, t1, parent, self.task, dur - child])

    def inside(self, name: str) -> bool:
        return any(frame[1] == name for frame in self._stack())

    def count(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def merge(self, doc: dict) -> None:
        """Add spans and counts recorded by a traced child process."""
        ids = {span[0]: next(self._ids) for span in doc["spans"]}
        for span_id, name, t0, t1, parent, _, self_s in doc["spans"]:
            self.spans.append([ids[span_id], name, t0, t1, ids.get(parent), self.task, self_s])
        self.counts.update(doc["counts"])

    # -- aggregation -------------------------------------------------------

    def self_time(self) -> dict:
        out = defaultdict(float)
        for span in self.spans:
            out[span[1]] += span[6]
        return out

    def inclusive_time(self) -> dict:
        """Duration per name, counting only spans not nested in one of the same name."""
        by_id = {span[0]: span for span in self.spans}
        out = defaultdict(float)
        for span in self.spans:
            parent = by_id.get(span[4])
            nested = False
            while parent is not None:
                if parent[1] == span[1]:
                    nested = True
                    break
                parent = by_id.get(parent[4])
            if not nested:
                out[span[1]] += span[3] - span[2]
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        from hyperthick import geometry, thickness

        mods = [m for k, m in sys.modules.items() if k == "hyperthick" or k.startswith("hyperthick.")]
        for (mod_name, attr), span_name in SPANNED.items():
            owner = sys.modules.get(f"hyperthick.{mod_name}")
            if owner is None:
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(orig, span_name)
            for mod in mods:
                if getattr(mod, attr, None) is orig:
                    self._patch(mod, attr, wrapped)
        self._patch(thickness.StarShape, "radial", self._wrap_radial(thickness.StarShape.radial))
        self._patch(thickness.StarShape, "indicator", self._wrap_indicator(thickness.StarShape.indicator))
        self._patch(
            geometry.DirectionGrid, "iter_blocks",
            self._wrap_iter_blocks(geometry.DirectionGrid.iter_blocks),
        )

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn, name):
        counter = COUNTERS.get(name)

        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(calls)
            if counter is not None:
                counter(self, args, kwargs)
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        return wrapper

    def _wrap_radial(self, fn):
        @functools.wraps(fn)
        def radial(shape, angles):
            if not self.inside("thickness.radial"):
                a = getattr(angles, "shape", None)
                self.count("thickness.radial.evals", a[0] if a and len(a) == 2 else 1)
            self.begin("thickness.radial")
            try:
                return fn(shape, angles)
            finally:
                self.end()

        return radial

    def _wrap_indicator(self, fn):
        @functools.wraps(fn)
        def indicator(shape, *args, **kwargs):
            self.begin("thickness.indicator")
            try:
                body = fn(shape, *args, **kwargs)
            finally:
                self.end()
            inner = body.contains

            def contains(points):
                self.begin("thickness.mc.contains")
                try:
                    inside = inner(points)
                finally:
                    self.end()
                self.count("thickness.mc.hits", int(inside.sum()))
                return inside

            return dataclasses.replace(body, contains=contains)

        return indicator

    def _wrap_iter_blocks(self, fn):
        @functools.wraps(fn)
        def iter_blocks(grid, *args, **kwargs):
            gen = fn(grid, *args, **kwargs)
            while True:
                self.begin("geometry.iter_blocks")
                try:
                    block = next(gen)
                except StopIteration:
                    return
                finally:
                    self.end()
                self.count("geometry.nodes", block[1].shape[0])
                yield block

        return iter_blocks


def _count_coords(tracer, args, kwargs):
    arr = args[0] if args else next(iter(kwargs.values()))
    shape = getattr(arr, "shape", None)
    tracer.count("geometry.coords.points", shape[0] if shape and len(shape) == 2 else 1)


def _count_mc(tracer, args, kwargs):
    samples = args[2] if len(args) > 2 else kwargs["samples"]
    tracer.count("thickness.mc.samples", samples)


def _count_profile(tracer, args, kwargs):
    params = args[0] if args else kwargs["params"]
    theta = args[1] if len(args) > 1 else kwargs["theta"]
    size = getattr(theta, "size", 1)
    key = "stationary.newton_points" if params.k >= 3 else "stationary.closed_points"
    tracer.count(key, size)


# work counted at a span boundary, besides the call count every span gets
COUNTERS = {
    "geometry.coords": _count_coords,
    "thickness.mc.sample": _count_mc,
    "stationary.radial_profile": _count_profile,
}


def _cli_main(argv: list[str]) -> int:
    out_path, args = argv[0], argv[1:]
    from hyperthick.cli import main

    tracer = Tracer()
    tracer.install()
    code = 0
    tracer.begin("cli.command")
    try:
        main(args=args, prog_name="hyperthick")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        tracer.end()
        tracer.uninstall()
        tracer.dump(out_path)
    return code


if __name__ == "__main__":
    sys.exit(_cli_main(sys.argv[1:]))
