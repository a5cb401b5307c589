"""Run the benchmark on several seeds and report each metric's spread.

    python3 bench/spread.py --workloads coarsen-chain --seeds 1 2 3 4 5

For every end-to-end metric of every workload this prints the median of
the runs, and the distance between the first and third quartiles as a
share of the median, next to the metric's bound from BENCHMARK.json.
A spread is steady when it stays below a third of its bound (`setup_s`
is bounded on its median only). It also checks that the deterministic
figures (quality, sizes, MPS digest, failure share) agree across runs.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(10)))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()

    steady = True
    for w in args.workloads:
        values: dict[str, list[float]] = {}
        quality = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", w, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            if not last["correct"] or last["failed"]:
                steady = False
                print(f"{w} seed {seed}: correct={last['correct']} "
                      f"failed={last['failed']}")
            for name, m in last["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            with open(os.path.join(ROOT, ".bench_out",
                                   f"{w}-seed{seed}-trace0.json")) as fh:
                q = json.load(fh)["quality"]
            # coarsen-chain draws new DAGs per seed: only its shares agree
            quality.append(q if w != "coarsen-chain"
                           else {"fail_share": q["fail_share"]})
        if any(q != quality[0] for q in quality):
            steady = False
            print(f"{w}: deterministic figures differ across runs")
        for m in bench["end_to_end"]:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ok = m["name"] == "setup_s" or spread < m["bound"] / 3
            steady &= ok
            print(f"{w:16} {m['name']:12} median {med:10.4f} {m['unit']:3} "
                  f"spread {spread:6.3f} bound {m['bound']:.2f} "
                  f"{'ok' if ok else 'WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
