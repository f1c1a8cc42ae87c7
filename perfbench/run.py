"""hyperthick benchmark: one workload, one seed, every metric with its unit.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Workloads: sections, stationary, montecarlo, cli (see perfbench/README.md).
Run from the root of a source tree; the library is imported from ./src.

--trace 0 measures the end-to-end metrics with tracing off: set-up time is
the median over several fresh processes, and one more fresh process runs the
workload's tasks one at a time (a closed loop with one client) in whole
cycles for T seconds. --trace 1 runs the same loop alternating untraced and
traced cycles and reports per-layer metrics, the tracing overhead, and the
import cost of the package and of its CLI in fresh interpreters.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics; the lines before it are a readable report and a
machine record.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7  # fresh processes timed for setup_s, the measured run included
IMPORT_REPEATS = 3
TAIL_BEYOND = 10  # the tail percentile keeps this many samples beyond it
DEADLINE = time.monotonic() + 170.0  # a run must end within 180 s

END_TO_END_UNITS = {
    "tasks_per_s": "1/s",
    "task_p50_ms": "ms",
    "task_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# self times and counts are per task, averaged over the traced cycles
LAYER_UNITS = {
    **{name: "s/task" for name in (
        "geometry.build_grid.s", "geometry.iter_blocks.s", "geometry.coords.s", "thickness.radial.s",
        "thickness.reduce.s", "thickness.mc.sample.s", "thickness.mc.contains.s", "thickness.indicator.s",
        "stationary.radial_profile.s", "stationary.support.s", "properties.body_properties.s",
        "analysis.sphere_optimality.s", "analysis.nullvector.s", "analysis.stationarity_residual.s",
        "analysis.dumbbell.s", "cli.command_s")},
    **{name: "1/task" for name in (
        "geometry.build_grid.calls", "geometry.nodes", "geometry.coords.points", "thickness.radial.evals",
        "thickness.mc.samples", "stationary.newton_points", "stationary.closed_points",
        "properties.body_properties.calls")},
    "thickness.mc.hit_ratio": "ratio",
    "thickness.mc.z_sd": "sd",
    "thickness.mc.rel_err": "ratio",
    "properties.identity_rel_max": "ratio",
    "cli.import_s": "s",
    "cli.import_pkg_s": "s",
    "cli.import_scipy_s": "s",
    "cpu_per_wall": "ratio",
    "trace.overhead": "ratio",
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    # One BLAS thread: a second one gains nothing on these workloads but
    # spins on the other core, so every run would also time a neighbour's
    # load on that core.
    env.update({name: "1" for name in BLAS_THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def time_left() -> float:
    """Seconds until the whole run must end; each child gets at most this."""
    return max(1.0, DEADLINE - time.monotonic())


def run_worker(args, mode: str, seconds: float, env: dict) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--mode", mode, "--seconds", str(seconds)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT, timeout=time_left())
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker ({mode}) exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_cost(module: str, env: dict) -> tuple[float, float]:
    """Wall time of a cold ``import module`` and the share spent importing scipy.

    The scipy share is the cumulative ``-X importtime`` of every scipy module
    imported from outside scipy, i.e. the roots of the scipy import subtrees.
    """
    code = ("import time, sys; t = time.perf_counter(); import " + module +
            "; sys.stdout.write(repr(time.perf_counter() - t))")
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], capture_output=True,
                          text=True, env=env, cwd=ROOT, timeout=time_left(), check=True)
    scipy_us = 0
    depth_of_scipy_root = None
    # -X importtime prints children before their parent; walk it in reverse
    # so each parent is seen before its subtree
    for line in reversed(proc.stderr.splitlines()):
        match = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
        if not match:
            continue
        cumulative, depth, name = int(match.group(1)), len(match.group(2)), match.group(3)
        if depth_of_scipy_root is not None and depth <= depth_of_scipy_root:
            depth_of_scipy_root = None
        if depth_of_scipy_root is None and (name == "scipy" or name.startswith("scipy.")):
            scipy_us += cumulative
            depth_of_scipy_root = depth
    return float(proc.stdout), scipy_us * 1e-6


def machine_record(env: dict) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "click": version("click"),
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "loadavg": os.getloadavg(),
        "blas_env": {k: env[k] for k in BLAS_THREAD_VARS if k in env},
    }


def tail(latencies: list) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    idx = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("sections", "stationary", "montecarlo", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hyperthick" / "__init__.py").is_file():
        return fail(f"no hyperthick sources under {ROOT / 'src'}; run from a source tree")

    try:
        return measure(args)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


def measure(args) -> int:
    env = child_env()
    machine = machine_record(env)
    if args.trace:
        res = run_worker(args, "trace", args.seconds, env)
        metrics = dict(res["layers"])
        units = LAYER_UNITS
        for label, module in (("cli.import_pkg_s", "hyperthick"), ("cli.import_s", "hyperthick.cli")):
            costs = [import_cost(module, env) for _ in range(IMPORT_REPEATS)]
            metrics[label] = statistics.median(c[0] for c in costs)
            if module == "hyperthick.cli":
                metrics["cli.import_scipy_s"] = statistics.median(c[1] for c in costs)
        report = [f"{k} = {v:.6g} {units[k]}" for k, v in metrics.items()]
    else:
        setups = [run_worker(args, "setup", 0.0, env)["setup_s"] for _ in range(SETUP_REPEATS - 1)]
        res = run_worker(args, "run", args.seconds, env)
        setups.append(res["setup_s"])
        lat = res["latencies_ms"]
        per_cycle = res["tasks_per_cycle"]
        tail_ms, tail_pct = tail(lat)
        metrics = {
            # Means over the whole run, not medians: a shared machine runs in
            # fast and slow phases of seconds, and a median of a run jumps
            # between them while a mean moves with the share of each.
            "tasks_per_s": len(lat) / sum(res["cycle_s"]),
            # the median task of each cycle, averaged over the cycles
            "task_p50_ms": statistics.fmean(statistics.median(lat[i:i + per_cycle])
                                            for i in range(0, len(lat), per_cycle)),
            "task_tail_ms": tail_ms,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
        report = [
            f"tasks_per_s = {metrics['tasks_per_s']:.6g} 1/s ({per_cycle} tasks per cycle, "
            f"{len(res['cycle_s'])} cycles in {res['wall_s']:.3f} s)",
            f"task_p50_ms = {metrics['task_p50_ms']:.6g} ms (mean over cycles of the cycle's median)",
            f"task_tail_ms = {tail_ms:.6g} ms (p{tail_pct:.4g} of {len(lat)} samples)",
            f"setup_s = {metrics['setup_s']:.6g} s (median of {len(setups)} fresh processes: "
            + ", ".join(f"{s:.4f}" for s in setups) + ")",
            f"peak_rss_mb = {metrics['peak_rss_mb']:.6g} MB",
        ]
    machine["blas_threads"] = res["blas_threads"]
    for line in res["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    print("machine " + json.dumps(machine, sort_keys=True))
    print(f"inputs sha256={res['inputs_sha256']} tasks_per_cycle={res['tasks_per_cycle']}")
    for line in report:
        print(line)
    print(f"fail_frac = {res['failed'] / res['attempted']:.6g} ({res['failed']} of {res['attempted']})")
    out = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
