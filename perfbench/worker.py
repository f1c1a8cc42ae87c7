"""One benchmark process: set up a workload, then run it in a closed loop.

    python3 perfbench/worker.py --workload W --seed S --mode setup|run|trace
                                --seconds T

Set-up (timed from the first line of this file) imports hyperthick, draws
the seeded inputs and prepares the references. ``setup`` mode stops there;
``run`` mode repeats whole cycles of the workload's tasks, one at a time,
until ``--seconds`` have passed; ``trace`` mode alternates untraced and traced
cycles for the same time. The last line of stdout is one JSON object.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402  (imports hyperthick)
from spans import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# run.py reports the latency with 10 samples beyond it as the tail; with at
# least 21 latencies that is at or above the median. A workload of few long
# tasks (cli) would otherwise hop between two and three cycles from run to run,
# and its tail percentile with it.
MIN_TASKS = 21


def corrupt(out: dict) -> dict:
    """Distort every checked float output, as a broken library would."""

    def bad(v):
        if isinstance(v, float) or (isinstance(v, np.ndarray) and v.dtype.kind == "f"):
            return 0.5 * v - 0.5
        if isinstance(v, list):
            return [bad(x) for x in v]
        if isinstance(v, dict):
            return {k: bad(x) for k, x in v.items()}
        return v

    return {k: (v if k.startswith("_") else bad(v)) for k, v in out.items()}


class Runner:
    def __init__(self, tasks, ctx, corrupt_outputs=False):
        self.tasks = tasks
        self.ctx = ctx
        self.corrupt = corrupt_outputs
        self.latencies_ms = []
        self.failures = []
        self.attempted = 0
        # diagnostic key -> {task index: value}; every cycle repeats the same
        # inputs, so each task contributes one value
        self.diagnostics = {}

    def cycle(self) -> None:
        for index, task in enumerate(self.tasks):
            self.attempted += 1
            if self.ctx.tracer is not None:
                self.ctx.tracer.task = self.attempted
            t0 = time.perf_counter()
            try:
                out = task.call(self.ctx)
            except Exception as exc:  # a raising task is a failed task
                self.latencies_ms.append((time.perf_counter() - t0) * 1e3)
                self.failures.append(f"{task.name}: {type(exc).__name__}: {exc}")
                continue
            self.latencies_ms.append((time.perf_counter() - t0) * 1e3)
            for key, value in out.items():
                if key.startswith("_"):
                    self.diagnostics.setdefault(key, {})[index] = value
            if self.corrupt:
                out = corrupt(out)
            try:
                bad = [str(c) for c in task.check(out) if not c.ok]
            except Exception:
                bad = [traceback.format_exc(limit=2)]
            if bad:
                self.failures.append(f"{task.name}: {'; '.join(bad[:3])}")


def blas_threads():
    """Thread count of the BLAS numpy loaded, or None if it cannot be asked."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "blas" in line.lower() and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "MKL_Get_Max_Threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def layer_metrics(tracer: Tracer, runner: Runner, executions: int) -> dict:
    """Per-task self time and counts of each layer over the traced cycles."""
    selfs, incl, counts = tracer.self_time(), tracer.inclusive_time(), tracer.counts
    per = 1.0 / executions
    out = {}
    for name in ("geometry.build_grid", "geometry.iter_blocks", "geometry.coords", "thickness.radial",
                 "thickness.reduce", "thickness.mc.sample", "stationary.radial_profile",
                 "stationary.support", "properties.body_properties", "analysis.sphere_optimality",
                 "analysis.nullvector", "analysis.stationarity_residual", "analysis.dumbbell"):
        out[name + ".s"] = selfs.get(name, 0.0) * per
    for name in ("thickness.mc.contains", "thickness.indicator"):
        out[name + ".s"] = incl.get(name, 0.0) * per
    out["cli.command_s"] = incl.get("cli.command", 0.0) * per
    for name in ("geometry.build_grid.calls", "geometry.nodes", "geometry.coords.points",
                 "thickness.radial.evals", "thickness.mc.samples", "stationary.newton_points",
                 "stationary.closed_points", "properties.body_properties.calls"):
        out[name] = counts.get(name, 0) * per
    samples = counts.get("thickness.mc.samples", 0)
    out["thickness.mc.hit_ratio"] = counts.get("thickness.mc.hits", 0) / samples if samples else 0.0
    diag = {key: list(values.values()) for key, values in runner.diagnostics.items()}
    # z has the known mean 0, so its sd is the root mean square
    z = np.asarray(diag.get("_z", []))
    out["thickness.mc.z_sd"] = float(np.sqrt(np.mean(z * z))) if z.size else 0.0
    rel = diag.get("_rel_err", [])
    out["thickness.mc.rel_err"] = float(np.median(rel)) if rel else 0.0
    ident = diag.get("_identity_rel", [])
    out["properties.identity_rel_max"] = float(max(ident)) if ident else 0.0
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--corrupt", action="store_true", help="distort outputs (self-test)")
    args = ap.parse_args(argv)

    scratch = os.path.join(ROOT, ".bench_out", args.workload)
    os.makedirs(scratch, exist_ok=True)
    ctx = workloads.Context(scratch=scratch)
    specs = workloads.specs(args.workload, args.seed)
    tasks = [workloads.build(spec, ctx) for spec in specs]
    setup_s = time.perf_counter() - T_START
    result = {
        "setup_s": setup_s,
        "inputs_sha256": hashlib.sha256(json.dumps(specs, sort_keys=True).encode()).hexdigest(),
        "tasks_per_cycle": len(tasks),
    }
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    runner = Runner(tasks, ctx, args.corrupt)
    if args.workload in ("sections", "stationary"):
        # One checked warm-up cycle outside the timing: a first stationary
        # cycle ran 1.3 times as long as later ones. A montecarlo cycle
        # takes 7 s and its first ran no slower; each cli task is a cold
        # process anyway.
        runner.cycle()
        runner.latencies_ms.clear()
    tracer = Tracer()
    plain_cycle_s, traced_s, traced_cpu_s, traced_cycles = [], 0.0, 0.0, 0
    start = time.perf_counter()
    while True:
        traced = args.mode == "trace" and len(plain_cycle_s) > traced_cycles
        t0 = time.perf_counter()
        if traced:
            c0 = cpu_seconds()
            ctx.tracer = tracer
            tracer.install()
            try:
                runner.cycle()
            finally:
                tracer.uninstall()
                ctx.tracer = None
            traced_s += time.perf_counter() - t0
            traced_cycles += 1
            traced_cpu_s += cpu_seconds() - c0
        else:
            runner.cycle()
            plain_cycle_s.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if args.mode == "run":
            done = len(runner.latencies_ms) >= MIN_TASKS
        else:
            done = traced_cycles == len(plain_cycle_s)
        if elapsed >= args.seconds and done:
            break

    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result.update({
        "wall_s": elapsed,
        "cycle_s": plain_cycle_s,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures[:10],
        # a cli task's memory is that of the hyperthick process it starts
        "peak_rss_mb": (kids if args.workload == "cli" else own) / 1024.0,
        "blas_threads": blas_threads(),
    })
    if args.mode == "run":
        result["latencies_ms"] = runner.latencies_ms
    else:
        layers = layer_metrics(tracer, runner, traced_cycles * len(tasks))
        layers["cpu_per_wall"] = traced_cpu_s / traced_s
        layers["trace.overhead"] = (traced_s / traced_cycles) / (sum(plain_cycle_s) / len(plain_cycle_s)) - 1.0
        result["layers"] = layers
        tracer.dump(os.path.join(scratch, "spans.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
