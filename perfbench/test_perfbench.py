"""Tests of the benchmark itself: python3 -m pytest perfbench/test_perfbench.py

Each workload runs its shortest run (``--seconds 0``): the fewest whole
cycles that hold 21 tasks, or one untraced and one traced cycle.
"""

import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import Tracer  # noqa: E402
WORKLOADS = ("sections", "stationary", "montecarlo", "cli")


def bench_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, cwd=cwd, timeout=170)


def worker(workload, *extra):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, *extra],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = run(["perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    declared = bench_spec()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        report = "\n".join(lines)
        assert "fail_frac = 0 (0 of" in report
        assert "task_tail_ms = " in report and "samples)" in report
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)
    assert lines[0].startswith("machine ")
    machine = json.loads(lines[0][len("machine "):])
    for key in ("nproc", "python", "numpy", "scipy", "click", "blas_threads", "git_commit", "loadavg"):
        assert key in machine


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_outputs_are_counted_as_failures(workload):
    res = worker(workload, "--seed", "5", "--mode", "run", "--seconds", "0", "--corrupt")
    assert res["attempted"] % res["tasks_per_cycle"] == 0
    assert res["failed"] == res["attempted"], res["failures"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_seed_gives_identical_inputs(workload):
    first = worker(workload, "--seed", "7", "--mode", "setup")["inputs_sha256"]
    again = worker(workload, "--seed", "7", "--mode", "setup")["inputs_sha256"]
    other = worker(workload, "--seed", "8", "--mode", "setup")["inputs_sha256"]
    assert first == again != other


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(["perfbench/run.py", "--workload", "sections", "--seed", "1", "--seconds", "1",
                "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_spans_nest_within_their_own_thread():
    tracer = Tracer()
    threads, rounds = 8, 300

    def work():
        for _ in range(rounds):
            tracer.begin("outer")
            tracer.begin("inner")
            tracer.count("calls")
            tracer.end()
            tracer.end()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=work) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in pool)
    finally:
        sys.setswitchinterval(interval)

    assert tracer.counts["calls"] == threads * rounds
    by_id = {span[0]: span for span in tracer.spans}
    assert len(by_id) == 2 * threads * rounds
    for span_id, name, t0, t1, parent, _, self_s in tracer.spans:
        if name == "outer":
            assert parent is None
        else:
            outer = by_id[parent]
            assert outer[1] == "outer" and outer[2] <= t0 <= t1 <= outer[3]
            assert outer[6] == pytest.approx(outer[3] - outer[2] - (t1 - t0), abs=1e-12)
