"""One pass of one benchmark workload, in a fresh interpreter.

`run.py` starts this file once per pass with a JSON spec as its only
argument, so every pass pays what a CLI user pays on every call:
interpreter start, `import opsched` and cold caches
(`scenarios._reference_cache`, `ScheduleModel.store`). The pass drives
`opsched.cli.main(argv)` like a user; the coarsening chain's expand step
has no subcommand, so it calls `opsched.simulate.expand_schedule`.

The last line of standard output is one JSON object: the pass's
timings, every operation with its outcome, the quality and size figures
read back from the outputs, the problems the checks found and, when
traced, the spans.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time

# a search must end by its node budget, never by this clock limit
TIME_LIMIT = "1000000"


class Pass:
    def __init__(self, spec: dict, tracer):
        self.spec = spec
        self.p = spec["params"]
        self.tracer = tracer
        self.tmp = spec["tmpdir"]
        self.ops: list[dict] = []
        self.problems: list[str] = []
        self.quality: dict = {}
        self.counts: dict = {}
        self.times: dict[str, list[float]] = {}
        self.ratios: list[float] = []  # expanded / direct makespan per DAG

    def path(self, name: str) -> str:
        return os.path.join(self.tmp, name)

    def span(self, name: str, **attrs):
        if self.tracer is None:
            return contextlib.nullcontext({})
        return self.tracer.span(name, **attrs)

    # -- operations ----------------------------------------------------------

    def cli(self, name: str, argv: list[str], phases=()) -> bool:
        """Run one CLI call; record its outcome. True when it succeeded."""
        import opsched.cli

        if self.tracer is not None:
            self.tracer.solve_phases = list(phases)
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with self.span("cli.main", command=argv[0]), \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            rc = opsched.cli.main(argv)
        elapsed = time.perf_counter() - t0
        op = {"op": name, "rc": rc, "s": elapsed, "error": None}
        if rc != 0:
            try:
                op["error"] = json.loads(err.getvalue().strip()
                                         .splitlines()[-1])["error"]
            except (IndexError, ValueError, KeyError):
                op["error"] = f"exit-{rc}"
        self.ops.append(op)
        return rc == 0

    def solved(self, name: str, out: str, argv: list[str], phase: str
               ) -> bool:
        """A `solve` call; a search the clock ended counts as failed."""
        if not self.cli(name, argv, phases=[phase]):
            return False
        with open(out) as fh:
            status = json.load(fh)["solution"]["status"]
        if status == "time-limit" and self.ops[-1]["s"] >= float(TIME_LIMIT):
            self.ops[-1]["error"] = "clock-limit"
            return False
        return True

    def verified(self, name: str, doc: str, report: str) -> dict | None:
        """Replay a schedule with `opsched verify`; the report or None."""
        ok = self.cli(name, ["verify", "-i", doc, "-o", report])
        if not os.path.exists(report):
            return None
        with open(report) as fh:
            rep = json.load(fh)
        if not ok or not rep["feasible"]:
            self.problems.append(f"{name}: {len(rep['violations'])} "
                                 "violations")
            return None
        return rep

    def timed(self, key: str, t0: float) -> None:
        self.times.setdefault(key, []).append(time.perf_counter() - t0)

    # -- workloads -----------------------------------------------------------

    def setup(self) -> None:
        p, w = self.p, self.spec["workload"]
        if w == "dualpipe-repro":
            self.cli("gen", ["gen", "dualpipe", "--pp", str(p["scratch_pp"]),
                             "--micro-batches", str(p["scratch_mb"]),
                             "-o", self.path("scratch-in.json")])
        elif w == "coarsen-chain":
            for k, seed in enumerate(p["dag_seeds"]):
                self.cli("gen", ["gen", "random", "--nodes", str(p["nodes"]),
                                 "--seed", str(seed),
                                 "--machines", str(p["machines"]),
                                 "-o", self.path(f"dag{k}.json")])
        elif w == "mip-export":
            self.cli("gen", ["gen", "dualpipe", "--pp", str(p["pp"]),
                             "-o", self.path("inst.json")])

    def run(self) -> None:
        getattr(self, "run_" + self.spec["workload"].replace("-", "_"))()

    def run_dualpipe_repro(self) -> None:
        p = self.p
        t0 = time.perf_counter()
        ok = self.cli("repro", ["repro-dualpipe", "--pp", str(p["pp"]),
                                "--node-limit", str(p["repro_nodes"]),
                                "--time-limit", TIME_LIMIT,
                                "-o", self.path("repro.json")],
                      phases=["bounded", "continued"])
        self.timed("repro_s", t0)
        rep = ok and self.verified("verify", self.path("repro.json"),
                                   self.path("repro-verify.json"))
        if rep:
            self.quality["makespan"] = rep["makespan"]
            self.quality["bubble"] = rep["bubble_total"]
        t0 = time.perf_counter()
        ok = self.solved("scratch", self.path("scratch.json"),
                         ["solve", "-i", self.path("scratch-in.json"),
                          "--ignore-primal-bound",
                          "--node-limit", str(p["scratch_nodes"]),
                          "--time-limit", TIME_LIMIT,
                          "-o", self.path("scratch.json")], "scratch")
        self.timed("scratch_s", t0)
        rep = ok and self.verified("verify", self.path("scratch.json"),
                                   self.path("scratch-verify.json"))
        if rep:
            self.quality["scratch_makespan"] = rep["makespan"]

    def run_coarsen_chain(self) -> None:
        budget = str(self.p["chain_nodes"])
        for k in range(len(self.p["dag_seeds"])):
            dag, coarse = self.path(f"dag{k}.json"), self.path(f"c{k}.json")
            csol, xsol = self.path(f"c{k}-sol.json"), self.path(f"x{k}.json")
            dsol = self.path(f"d{k}-sol.json")
            t0 = time.perf_counter()
            expanded = (
                self.cli("coarsen", ["coarsen", "-i", dag, "-o", coarse])
                and self.solved("solve", csol,
                                ["solve", "-i", coarse, "--node-limit",
                                 budget, "--time-limit", TIME_LIMIT,
                                 "-o", csol], "coarse")
                and self.expand(dag, coarse, csol, xsol)
                and self.verified("verify", xsol,
                                  self.path(f"x{k}-verify.json")))
            self.timed("chain_s", t0)
            direct = (
                self.solved("solve", dsol,
                            ["solve", "-i", dag, "--node-limit", budget,
                             "--time-limit", TIME_LIMIT, "-o", dsol],
                            "direct")
                and self.verified("verify", dsol,
                                  self.path(f"d{k}-verify.json")))
            if expanded and direct:
                self.ratios.append(expanded["makespan"] / direct["makespan"])

    def expand(self, dag: str, coarse: str, csol: str, out: str) -> bool:
        """Map the coarse schedule back onto the original graph."""
        import opsched.graph
        import opsched.simulate
        from opsched import MergeRecord, Solution

        t0 = time.perf_counter()
        try:
            with open(dag) as fh:
                inst = json.load(fh)
            with open(coarse) as fh:
                records = [MergeRecord(r["id"], tuple(r["absorbed"]))
                           for r in json.load(fh)["coarsen_records"]]
            with open(csol) as fh:
                sol = Solution.from_dict(json.load(fh)["solution"])
            original = opsched.graph.load_computation_graph(inst["graph"])
            expanded = opsched.simulate.expand_schedule(sol, records,
                                                        original)
            inst["solution"] = expanded.to_dict()
            with open(out, "w") as fh:
                json.dump(inst, fh)
            error = None
        except Exception as exc:  # a crash here is a failed operation
            error = f"{type(exc).__name__}: {exc}"
            self.problems.append(f"expand: {error}")
        self.ops.append({"op": "expand", "rc": 0 if error is None else 1,
                         "s": time.perf_counter() - t0, "error": error})
        return error is None

    def run_mip_export(self) -> None:
        t0 = time.perf_counter()
        self.cli("export", ["export", "--format", "mps",
                            "-i", self.path("inst.json"),
                            "-o", self.path("model.mps")])
        self.timed("export_s", t0)

    # -- checks and figures read back from the outputs ----------------------

    def check(self) -> None:
        check = getattr(self, "check_" + self.spec["workload"]
                        .replace("-", "_"), None)
        if check is not None:
            check()

    def check_coarsen_chain(self) -> None:
        from opsched.graph import load_computation_graph

        merges, miss, cp0, cp1 = [], [], [], []
        for k in range(len(self.p["dag_seeds"])):
            if not os.path.exists(self.path(f"c{k}.json")):
                continue
            with open(self.path(f"dag{k}.json")) as fh:
                g0 = load_computation_graph(json.load(fh)["graph"])
            with open(self.path(f"c{k}.json")) as fh:
                g1 = load_computation_graph(json.load(fh)["graph"])
            merges.append(len(g0) - len(g1))
            miss.append(len(g1) - max(1, len(g0) // 5))
            cp0.append(g0.critical_path_length())
            cp1.append(g1.critical_path_length())
        if self.ratios:
            self.quality["coarse_ratio"] = math.exp(
                statistics.fmean(math.log(r) for r in self.ratios))
        if merges:
            self.counts.update({
                "coarsen.merges": statistics.fmean(merges),
                "coarsen.budget_miss": statistics.fmean(miss),
                "coarsen.cp_before": statistics.fmean(cp0),
                "coarsen.cp_after": statistics.fmean(cp1)})

    def check_mip_export(self) -> None:
        path = self.path("model.mps")
        if not os.path.exists(path) or self.ops[-1]["rc"] != 0:
            return
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
        self.quality["mps_sha256"] = digest.hexdigest()
        self.quality["mps_mb"] = os.path.getsize(path) / 1e6
        if not self.spec["check_model"]:
            return
        rows, cols, nnz = _scan_mps(path)
        self.quality["mip_rows"] = rows
        self.counts["model.nnz"] = nnz
        model = _independent_model(self.path("inst.json"))
        tags: dict[str, int] = {}
        for con in model.constraints:
            tags[con.tag] = tags.get(con.tag, 0) + 1
        self.counts["model.vars"] = len(model.variables)
        self.counts.update({f"model.rows.{t}": n for t, n in tags.items()})
        if rows != len(model.constraints):
            self.problems.append(f"mps: {rows} ROWS entries, model has "
                                 f"{len(model.constraints)} constraints")
        if cols != len(model.variables):
            self.problems.append(f"mps: {cols} columns, model has "
                                 f"{len(model.variables)} variables")


def _scan_mps(path: str) -> tuple[int, int, int]:
    """Rows (the objective row excluded), columns and matrix entries."""
    rows = nnz = 0
    cols = set()
    section = None
    with open(path) as fh:
        for line in fh:
            if line[0] not in " *":
                section = line.split()[0]
                continue
            if line[0] == "*":
                continue
            if section == "ROWS":
                rows += line.split()[0] != "N"
            elif section == "COLUMNS":
                parts = line.split()
                if parts[1] == "'MARKER'":
                    continue
                cols.add(parts[0])
                nnz += parts[1] != "COST"
            elif section == "BOUNDS":
                cols.add(line.split()[2])
    return rows, len(cols), nnz


def _independent_model(inst_path: str):
    """A fresh model of the exported instance, to count what MPS must hold."""
    from opsched.graph import load_cluster, load_computation_graph
    from opsched.model import ModelOptions, build_model, set_primal_bound

    with open(inst_path) as fh:
        doc = json.load(fh)
    opts = doc.get("options", {})
    model = build_model(load_computation_graph(doc["graph"]),
                        load_cluster(doc["cluster"]),
                        ModelOptions(**opts))
    if doc.get("primal_bound") is not None:
        model = set_primal_bound(model, doc["primal_bound"])
    return model


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    try:
        import opsched.cli
    except ImportError as exc:
        print(f"cannot import opsched from {src}: {exc}", file=sys.stderr)
        return 3
    if not os.path.abspath(opsched.cli.__file__).startswith(src + os.sep):
        print(f"opsched was imported from {opsched.cli.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 3
    tracer = None
    if spec["trace"]:
        sys.path.insert(0, bench_dir)
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)

    run = Pass(spec, tracer)
    with run.span("setup"):
        run.setup()
    result = {"ready": time.monotonic(), "ops": run.ops}
    if not spec["setup_only"]:
        t0 = time.perf_counter()
        with run.span("pass"):
            run.run()
        result["wall_s"] = time.perf_counter() - t0
        result["rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        run.check()
        result.update(times=run.times, quality=run.quality,
                      counts=run.counts, problems=run.problems)
    if tracer is not None:
        result["spans"] = tracer.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
