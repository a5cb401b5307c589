"""Tests of the benchmark itself, at toy size (pp=2, n=40)."""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dualpipe-repro", "coarsen-chain", "mip-export")

sys.path.insert(0, HERE)
import run  # noqa: E402
import spans  # noqa: E402


def _bench(workload: str, trace: int, seed: int = 3, *extra: str,
           cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--size", "toy", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def runs():
    """Each workload once untraced and once traced: stdout and report."""
    out = {}
    for w in WORKLOADS:
        for trace in (0, 1):
            proc = _bench(w, trace)
            assert proc.returncode == 0, proc.stderr
            with open(os.path.join(ROOT, ".bench_out",
                                   f"{w}-seed3-trace{trace}.json")) as fh:
                out[w, trace] = (proc.stdout, json.load(fh))
    return out


@pytest.fixture(scope="module")
def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_unit_and_direction(
        runs, benchmark_json, workload, trace):
    stdout, report = runs[workload, trace]
    last = json.loads(stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    listed = benchmark_json["per_layer" if trace else "end_to_end"]
    assert list(last["metrics"]) == [m["name"] for m in listed]
    table = stdout.splitlines()
    for m in listed:
        got = last["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert not isinstance(got["value"], bool)
        assert report["units"][m["name"]] == [m["unit"], m["better"]]
        assert any(line.split()[:1] == [m["name"]]
                   and line.split()[-2:] == [m["unit"], m["better"]]
                   for line in table)
    if not trace:
        assert all(v["value"] > 0 for v in last["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_quality_identical(runs, workload):
    q0 = runs[workload, 0][1]["quality"]
    q1 = runs[workload, 1][1]["quality"]
    assert q0 and q0 == q1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_add_up_to_traced_wall(runs, workload):
    _, report = runs[workload, 1]
    layer = report["per_layer"]
    self_keys = [*run.SPAN_METRIC.values(),
                 *(f"solver.solve_s.{ph}" for ph in run.PHASES)]
    total = sum(layer[k] for k in self_keys)
    assert total == pytest.approx(layer["trace.wall_s"], rel=1e-3)
    assert "trace.overhead_s" in layer


def test_forced_failure_counts_in_fail_share():
    proc = _bench("dualpipe-repro", 0, 4, "--scratch-node-limit", "1")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, ".bench_out",
                           "dualpipe-repro-seed4-trace0.json")) as fh:
        report = json.load(fh)
    passes = report["passes"]
    assert last["failed"] == len(passes) >= 1
    assert report["quality"]["fail_share"] == pytest.approx(
        last["failed"] / last["attempted"])
    assert all(any(op["error"] == "no-incumbent" for op in p["ops"])
               for p in passes)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("mip-export", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_times_subtract_covered_child_intervals():
    def s(i, parent, start, end):
        return {"id": i, "name": "x", "parent": parent, "start": start,
                "end": end, "attrs": {}}

    tree = [s(0, None, 0.0, 10.0), s(1, 0, 1.0, 3.0), s(2, 1, 1.5, 2.0),
            s(3, 0, 4.0, 9.0), s(4, None, 20.0, 21.0)]
    own = spans.self_times(tree)
    assert own == {0: 3.0, 1: 1.5, 2: 0.5, 3: 5.0, 4: 1.0}
    assert [x["id"] for x in spans.subtree(tree, 1)] == [1, 2]
    assert sum(own[x["id"]] for x in spans.subtree(tree, 0)) == 10.0
