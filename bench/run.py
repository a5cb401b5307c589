"""The repository's benchmark: three workloads driven through the CLI.

    python3 bench/run.py --workload dualpipe-repro --seed 0 --seconds 25 \
        --trace 0

Workloads (why each was chosen is in BENCHMARK.json and baseline.json):

* ``dualpipe-repro``: ``opsched repro-dualpipe --pp 4`` with a node
  budget, its output replayed by ``opsched verify``; then a solve from
  scratch (no hint, no primal bound) that runs the general DFS until its
  node budget, also replayed.
* ``coarsen-chain``: seeded random DAGs through ``gen random ->
  coarsen -> solve -> expand -> verify``, plus a direct solve of each
  DAG with the same node budget as the reference makespan.
* ``mip-export``: ``opsched gen dualpipe --pp 4`` then ``opsched export
  --format mps``; the file's rows and columns are checked against an
  independently built model.

The load is one process at a time: each pass is a fresh interpreter
(`workload.py`), started one after another, so caches never carry over
from one pass to the next. A run repeats passes of identical inputs
while the next pass is expected to end within ``--seconds`` (at least
one pass, or one traced and one untraced with ``--trace 1``) and reports
medians over them. ``setup_s`` is the median over the untraced passes
and a few set-up-only starts of: interpreter start, ``import opsched``
and generating the pass's instances. The coarsening chain draws twelve
DAGs per run from ``--seed``, because the cost of coarsening varies
from DAG to DAG and a run must average over enough of them to be
steady from seed to seed.

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` traced and untraced passes alternate, the traced ones
record spans around every layer's entry points (`spans.py`), and the
last line holds the per-layer metrics. A per-layer value of 0 means the
workload bypasses that layer, or that a rate is undefined (for node
rates: no phase of that kind ended by its node budget). The full report,
spans included, is written to ``.bench_out/``.

Exit status is 0 whenever a result is printed, also when ``correct`` is
false. Without a loadable ``src/opsched`` next to this directory the
benchmark prints no result and exits with status 2.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("dualpipe-repro", "coarsen-chain", "mip-export")
PHASES = ("bounded", "continued", "scratch", "coarse", "direct")

# node budgets bind every search; see baseline.json for the measurements
SIZES = {
    "full": {
        "dualpipe-repro": {"pp": 4, "repro_nodes": 200_000, "scratch_pp": 4,
                           "scratch_mb": 4, "scratch_nodes": 10_000},
        "coarsen-chain": {"nodes": 400, "machines": 3, "dags": 12,
                          "chain_nodes": 1_000},
        "mip-export": {"pp": 4},
    },
    "toy": {
        "dualpipe-repro": {"pp": 2, "repro_nodes": 2_000, "scratch_pp": 2,
                           "scratch_mb": 6, "scratch_nodes": 2_000},
        "coarsen-chain": {"nodes": 40, "machines": 3, "dags": 2,
                          "chain_nodes": 200},
        "mip-export": {"pp": 2},
    },
}

SETUP_ONLY_STARTS = 4
RUN_LIMIT_S = 150.0  # stop starting passes; a run must end within 180 s

SPAN_METRIC = {
    "pass": "bench.self_s",
    "cli.main": "cli.self_s",
    "scenarios.gen": "scenarios.gen_s",
    "scenarios.reference": "scenarios.reference_s",
    "graph.load": "graph.load_s",
    "coarsen": "coarsen.s",
    "model.build": "model.build_s",
    "model.materialise": "model.materialise_s",
    "mpswriter.mps": "mpswriter.mps_s",
    "solver.refine": "solver.refine_s",
    "solver.warm_start": "solver.warm_start_s",
    "simulate.verify": "simulate.verify_s",
    "simulate.expand": "simulate.expand_s",
}
# layer time -> (rate metric, span attribute counting the work)
RATES = {
    "graph.load_s": ("graph.load_ops_per_s", "ops"),
    "coarsen.s": ("coarsen.merges_per_s", "merges"),
    "model.materialise_s": ("model.rows_per_s", "rows"),
    "simulate.verify_s": ("simulate.verify_ops_per_s", "ops"),
}


def _params(workload: str, size: str, seed: int, scratch_nodes) -> dict:
    p = dict(SIZES[size][workload])
    if workload == "coarsen-chain":
        p["dag_seeds"] = [seed * p["dags"] + k for k in range(p["dags"])]
    if scratch_nodes is not None and workload == "dualpipe-repro":
        p["scratch_nodes"] = scratch_nodes
    return p


class Runner:
    def __init__(self, args):
        self.args = args
        self.params = _params(args.workload, args.size, args.seed,
                              args.scratch_node_limit)
        self.start = time.monotonic()
        self.setup_samples: list[float] = []
        self.passes: list[dict] = []  # each has "traced" and the result
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def child(self, *, trace: bool, setup_only: bool, check_model: bool
              ) -> dict | None:
        """Start one fresh interpreter; its result, or None if it broke."""
        tmp = tempfile.mkdtemp(prefix="pass-", dir=OUT_DIR)
        spec = {"root": ROOT, "workload": self.args.workload,
                "params": self.params, "trace": trace,
                "setup_only": setup_only, "check_model": check_model,
                "tmpdir": tmp}
        cmd = [sys.executable, os.path.join(HERE, "workload.py"),
               json.dumps(spec)]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True,
                                  timeout=max(1.0, 170.0 - self.elapsed()))
        except subprocess.TimeoutExpired:
            self.attempted += 1
            self.failed += 1
            self.problems.append("pass timed out")
            return None
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        if proc.returncode != 0:
            self.attempted += 1
            self.failed += 1
            self.problems.append(f"pass exited {proc.returncode}: "
                                 + proc.stderr.strip()[-500:])
            return None
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        res["setup_s"] = res["ready"] - spawned
        res["child_s"] = time.monotonic() - spawned
        self.attempted += len(res["ops"])
        self.failed += sum(op["error"] is not None for op in res["ops"])
        self.problems.extend(res.get("problems", ()))
        return res

    def run(self) -> bool:
        """Run the passes; False when not even a set-up could start."""
        tracing = bool(self.args.trace)
        # the first start compiles bytecode; it is not a sample
        if self.child(trace=False, setup_only=True, check_model=False) is None:
            return False
        self.attempted = self.failed = 0
        self.problems.clear()
        for _ in range(SETUP_ONLY_STARTS):
            res = self.child(trace=False, setup_only=True, check_model=False)
            if res is not None:
                self.setup_samples.append(res["setup_s"])
        min_passes = 2 if tracing else 1
        durations: list[float] = []
        broken = 0
        while broken < 3:
            est = statistics.median(durations) if durations else 0.0
            if len(self.passes) >= min_passes and \
                    self.elapsed() + est > self.args.seconds:
                break
            if self.elapsed() + est > RUN_LIMIT_S:
                break
            traced = tracing and len(self.passes) % 2 == 0
            res = self.child(trace=traced, setup_only=False,
                             check_model=not self.passes)
            if res is None:
                broken += 1
                continue
            durations.append(res["child_s"])
            res["traced"] = traced
            self.passes.append(res)
            if not traced:
                self.setup_samples.append(res["setup_s"])
        return True

    # -- aggregation ---------------------------------------------------------

    def end_to_end(self) -> dict:
        plain = [p for p in self.passes if not p["traced"]]
        return {
            "setup_s": _median(self.setup_samples),
            "wall_s": _median([p["wall_s"] for p in plain]),
            "peak_rss_mb": _median([p["rss_mb"] for p in plain]),
        }

    def quality(self) -> dict:
        """Deterministic figures; every pass must report the same."""
        merged: dict = {}
        for p in self.passes:
            for key, value in {**p["quality"], **p["counts"]}.items():
                if key in merged and merged[key] != value:
                    self.problems.append(
                        f"{key} differs between passes: {merged[key]} vs "
                        f"{value}")
                merged.setdefault(key, value)
        merged["fail_share"] = self.failed / max(1, self.attempted)
        return merged

    def per_layer(self, quality: dict) -> dict:
        plain = [p for p in self.passes if not p["traced"]]
        traced = [p for p in self.passes if p["traced"]]
        out: dict = {}
        for key in ("repro_s", "scratch_s", "chain_s", "export_s"):
            out[key] = _median([t for p in plain
                                for t in p["times"].get(key, ())])
        out.update(quality)
        out.pop("mps_sha256", None)
        if traced:
            out.update(self.layers(traced))
            out["trace.wall_s"] = statistics.fmean(p["wall_s"]
                                                   for p in traced)
            out["trace.overhead_s"] = out["trace.wall_s"] - statistics.fmean(
                p["wall_s"] for p in plain)
        return out

    def layers(self, traced: list[dict]) -> dict:
        """Self times per layer, as means over the traced passes."""
        total = dict.fromkeys(
            [*SPAN_METRIC.values(), "setup.gen_s",
             *(f"solver.solve_s.{ph}" for ph in PHASES)], 0.0)
        # work done by the spans that report it, and their self time
        work = dict.fromkeys(RATES, 0)
        busy = dict.fromkeys(RATES, 0.0)
        solves: dict[str, list[tuple[dict, float]]] = {ph: [] for ph in PHASES}
        for p in traced:
            recorded = p["spans"]
            setup = next(s for s in recorded if s["name"] == "setup")
            tree = spans.subtree(recorded, setup["id"])
            own = spans.self_times(tree)
            total["setup.gen_s"] += sum(own[s["id"]] for s in tree
                                        if s["name"] == "scenarios.gen")
            root = next(s for s in recorded if s["name"] == "pass")
            tree = spans.subtree(recorded, root["id"])
            own = spans.self_times(tree)
            if abs(sum(own.values()) - (root["end"] - root["start"])) > 1e-6:
                self.problems.append("span self times do not add up to the "
                                     "pass's duration")
            for s in tree:
                a = s["attrs"]
                if s["name"] == "solver.solve":
                    key = f"solver.solve_s.{a['phase']}"
                    solves.setdefault(a["phase"], []).append((a, own[s["id"]]))
                else:
                    key = SPAN_METRIC[s["name"]]
                total[key] = total.get(key, 0.0) + own[s["id"]]
                if key in RATES and RATES[key][1] in a:
                    work[key] += a[RATES[key][1]]
                    busy[key] += own[s["id"]]
        n = len(traced)
        out = {k: v / n for k, v in total.items()}
        for key, (rate, _) in RATES.items():
            out[rate] = work[key] / busy[key] if busy[key] > 0 else None
        mps_s = out.get("mpswriter.mps_s")
        mps_mb = next((p["quality"].get("mps_mb") for p in self.passes
                       if "mps_mb" in p["quality"]), None)
        out["mpswriter.mb_per_s"] = (mps_mb / mps_s
                                     if mps_mb and mps_s else None)
        for phase, calls in solves.items():
            out.update(_solver_phase(phase, calls, n))
        return out


def _solver_phase(phase: str, calls: list[tuple[dict, float]], n: int
                  ) -> dict:
    """Node rate, gap and missing incumbents of one solve phase.

    `_Search.out_of_budget` stops once nodes > node_limit, so a search
    the budget ended explored node_limit + 1 nodes. The rate is defined
    only over such searches; a proof or a stop at the bound gives None.
    """
    by_budget = [(a, t) for a, t in calls
                 if a["status"] == "time-limit" and a["node_limit"]
                 and t < a["time_limit"]]
    nodes = sum(a["node_limit"] + 1 for a, _ in by_budget)
    secs = sum(t for _, t in by_budget)
    gaps = [(a["objective"] - a["bound"]) / a["objective"]
            for a, _ in calls
            if a["objective"] and a["bound"] is not None]
    return {
        f"solver.nodes_per_s.{phase}": nodes / secs if secs > 0 else None,
        f"solver.gap.{phase}": statistics.fmean(gaps) if gaps else None,
        f"solver.no_incumbent.{phase}":
            sum(a["objective"] is None for a, _ in calls) / n,
    }


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full",
                    help="toy sizes (pp=2, n=40) for the benchmark's tests")
    ap.add_argument("--scratch-node-limit", type=int, default=None,
                    help="override the scratch solve's node budget")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "opsched")):
        print(f"no src/opsched under {ROOT}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    os.makedirs(OUT_DIR, exist_ok=True)
    runner = Runner(args)
    if not runner.run() or not runner.passes:
        print("benchmark cannot run: " + "; ".join(runner.problems[-3:]),
              file=sys.stderr)
        return 2

    e2e = runner.end_to_end()
    quality = runner.quality()
    layer = runner.per_layer(quality)
    listed = bench["per_layer"] if args.trace else bench["end_to_end"]
    values = layer if args.trace else e2e
    metrics = {m["name"]: {"value": values.get(m["name"]) or 0.0,
                           "unit": m["unit"]} for m in listed}

    report = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "params": runner.params,
        "correct": not runner.problems, "problems": runner.problems,
        "attempted": runner.attempted, "failed": runner.failed,
        "end_to_end": e2e, "per_layer": layer, "quality": quality,
        "setup_samples": runner.setup_samples, "passes": runner.passes,
        "units": {m["name"]: [m["unit"], m["better"]]
                  for m in bench["end_to_end"] + bench["per_layer"]},
    }
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)

    for m in listed:
        value = values.get(m["name"])
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{m['name']:32} {shown:>14} {m['unit']:12} {m['better']}")
    print(f"report: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": report["correct"],
                      "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
