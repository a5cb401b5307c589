"""Command-line entry point.

Subcommands chain through JSON documents on files or stdin/stdout:
`gen` emits an instance, `coarsen` shrinks its graph, `solve` attaches
a solution, `verify` replays it, `export` renders a chrome-tracing
file, and `repro-dualpipe` runs the bidirectional-pipeline benchmark
protocol end to end: it checks the hand-built DualPipe order, builds a
schedule from scratch with the list-scheduling climb
(`solver.list_schedule`), and writes the better of the two. Errors
print one JSON object on stderr and map to stable exit codes.

Every document a subcommand writes is compact JSON with sorted keys, on
one line ending in a newline, so equal documents are equal bytes.
`python -m json.tool` prints a readable copy.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import asdict, fields

from .coarsen import coarsen
from .graph import (Channel, GraphError, HardwareCluster, Machine,
                    dump_cluster, dump_computation_graph, load_cluster,
                    load_computation_graph)
from .model import (ModelError, ModelOptions, build_model,
                    clear_primal_bound, set_primal_bound)
from .mpswriter import export_lp, export_mps
from .scenarios import (DualPipeSpec, RandomDagSpec, dualpipe_bubble_target,
                        dualpipe_primal_bound, dualpipe_reference,
                        gen_dualpipe, gen_random_dag)
from .simulate import verify, warm_start
from .solver import (INFEASIBLE, Solution, SolveConfig, SolveError,
                     list_schedule, solve)
from .trace import trace_document

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_VIOLATIONS = 4


class CliError(Exception):
    def __init__(self, kind: str, message: str, code: int = EXIT_ERROR,
                 **extra):
        super().__init__(message)
        self.kind = kind
        self.code = code
        self.extra = extra


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as `CliError`; subcommand parsers share it."""

    def error(self, message):
        raise CliError("bad-usage", f"{self.prog}: {message}", EXIT_USAGE)


def _fail(kind: str, message: str, code: int = EXIT_ERROR, **extra) -> int:
    doc = {"error": kind, "message": message}
    doc.update(extra)
    print(json.dumps(doc, sort_keys=True), file=sys.stderr)
    return code


def _read_doc(path: str | None) -> dict:
    try:
        if path in (None, "-"):
            doc = json.load(sys.stdin)
        else:
            with open(path) as fh:
                doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError("bad-input", f"cannot read document: {exc}", EXIT_USAGE)
    if not isinstance(doc, dict):
        raise CliError("bad-input", "document is not an object", EXIT_USAGE)
    return doc


def _open_output(path: str):
    try:
        return open(path, "w")
    except OSError as exc:
        raise CliError("bad-output", f"cannot write output: {exc}",
                       EXIT_USAGE)


def _write_doc(doc: dict, path: str | None):
    # no indent: with one, `json.dumps` leaves its C encoder for the
    # pure-Python one, several times slower on a solved instance
    text = json.dumps(doc, sort_keys=True) + "\n"
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with _open_output(path) as fh:
            fh.write(text)


def _instance_doc(g, h, options: ModelOptions, **extra) -> dict:
    doc = {"graph": dump_computation_graph(g),
           "cluster": dump_cluster(h),
           "options": asdict(options)}
    doc.update(extra)
    return doc


def _parse_instance(doc: dict):
    try:
        g = load_computation_graph(doc["graph"])
        h = load_cluster(doc["cluster"])
    except (KeyError, GraphError) as exc:
        raise CliError("bad-instance", f"invalid instance document: {exc}",
                       EXIT_USAGE)
    opts = doc.get("options", {})
    if not (isinstance(opts, dict)
            and all(isinstance(v, bool) for v in opts.values())):
        raise CliError("bad-instance", "invalid instance document: options "
                       f"must be true or false, got {opts!r}", EXIT_USAGE)
    unknown = sorted(set(opts) - {f.name for f in fields(ModelOptions)})
    if unknown:
        raise CliError("bad-instance", "invalid instance document: unknown "
                       f"option {', '.join(map(repr, unknown))}", EXIT_USAGE)
    return g, h, ModelOptions(**opts)


def _solution(doc: dict) -> Solution:
    if "solution" not in doc:
        raise CliError("bad-input", "document carries no solution",
                       EXIT_USAGE)
    try:
        return Solution.from_dict(doc["solution"])
    except ValueError as exc:
        raise CliError("bad-input", str(exc), EXIT_USAGE)


def _spec(cls, **fields):
    """Build a scenario spec or solve config, reporting a rejected value
    as a usage error."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise CliError("bad-spec", str(exc), EXIT_USAGE)


# -- subcommands -------------------------------------------------------------


def _cmd_gen(args) -> int:
    if args.family == "dualpipe":
        spec = _spec(DualPipeSpec, pp=args.pp,
                     micro_batches=args.micro_batches,
                     memory_mode=args.memory_mode)
        g, h, options = gen_dualpipe(spec)
        doc = _instance_doc(g, h, options)
        bound = dualpipe_primal_bound(spec)
        if bound is not None:
            doc["primal_bound"] = bound
    else:
        if args.machines < 1:
            raise CliError("bad-spec",
                           f"--machines must be >= 1, got {args.machines}",
                           EXIT_USAGE)
        spec = _spec(RandomDagSpec, nodes=args.nodes, seed=args.seed,
                     max_in_degree=args.max_in_degree,
                     max_out_degree=args.max_out_degree)
        g = gen_random_dag(spec)
        cap = sum(op.weight_mem for op in g.operations.values()) + 1
        machines = [Machine(f"m{k:02d}", cap) for k in range(args.machines)]
        channels = [Channel(a.id, b.id) for a in machines for b in machines
                    if a.id != b.id]
        h = HardwareCluster(machines, channels)
        doc = _instance_doc(g, h, ModelOptions())
    _write_doc(doc, args.output)
    return EXIT_OK


def _cmd_coarsen(args) -> int:
    doc = _read_doc(args.input)
    g, h, options = _parse_instance(doc)
    budget = max(1, len(g) // 5) if args.to is None else args.to
    if budget < 1:
        raise CliError("bad-spec", "node_budget must be >= 1", EXIT_USAGE)
    coarse, records = coarsen(g, budget)
    out = _instance_doc(coarse, h, options,
                        coarsen_records=[{"id": r.new_id,
                                          "absorbed": list(r.absorbed)}
                                         for r in records])
    if "primal_bound" in doc:
        out["primal_bound"] = doc["primal_bound"]
    _write_doc(out, args.output)
    return EXIT_OK


def _build(doc: dict):
    g, h, options = _parse_instance(doc)
    try:
        model = build_model(g, h, options)
    except GraphError as exc:
        raise CliError("bad-instance", f"invalid instance document: {exc}",
                       EXIT_USAGE)
    except ModelError as exc:
        raise CliError("infeasible", str(exc), EXIT_INFEASIBLE,
                       tags=["capacity"])
    if doc.get("primal_bound") is not None:
        try:
            model = set_primal_bound(model, doc["primal_bound"])
        except ModelError as exc:
            raise CliError("bad-instance",
                           f"invalid instance document: {exc}", EXIT_USAGE)
    return g, h, model


def _cmd_solve(args) -> int:
    cfg = _spec(SolveConfig, time_limit=args.time_limit,
                node_limit=args.node_limit)
    doc = _read_doc(args.input)
    g, h, model = _build(doc)
    if args.ignore_primal_bound:
        model = clear_primal_bound(model)
    sol = solve(model, cfg)
    if sol.status == INFEASIBLE:
        return _fail("infeasible", "no feasible schedule exists",
                     EXIT_INFEASIBLE, tags=["assign", "dep-order"])
    if sol.objective is None:
        if sol.stats["stop"] != "exhausted":
            message = "search budget exhausted without a feasible schedule"
        elif model.primal_bound is None:
            message = "search tree exhausted without a feasible schedule"
        else:
            message = ("search tree exhausted without a schedule within the "
                       "primal bound")
        extra = {"stats": sol.stats} if args.stats else {}
        return _fail("no-incumbent", message, EXIT_ERROR, status=sol.status,
                     **extra)
    # stats describe one solve: the input's go, and only this one's stay
    out = {k: v for k, v in doc.items() if k != "stats"}
    out["solution"] = sol.to_dict()
    if args.stats:
        out["stats"] = sol.stats
    _write_doc(out, args.output)
    return EXIT_OK


def _cmd_verify(args) -> int:
    doc = _read_doc(args.input)
    g, h, options = _parse_instance(doc)
    sol = _solution(doc)
    report = verify(g, h, sol, options)
    out = {"feasible": report.feasible,
           "violations": [{"kind": k, "ids": list(ids), "time": t}
                          for (k, ids, t) in report.violations],
           "makespan": report.makespan,
           "bubble_total": report.bubble_total,
           "pipeline_bubble": report.pipeline_bubble,
           "per_device_bubble": report.per_device_bubble,
           "channel_busy": {f"{a}->{b}": v
                            for (a, b), v in report.channel_busy.items()}}
    _write_doc(out, args.output)
    if not report.feasible:
        return _fail("verification-failed",
                     f"{len(report.violations)} violations",
                     EXIT_VIOLATIONS)
    return EXIT_OK


def _cmd_export(args) -> int:
    doc = _read_doc(args.input)
    if args.format == "trace":
        g, h, _ = _parse_instance(doc)
        try:
            _write_doc(trace_document(_solution(doc), g, h), args.output)
        except ValueError as exc:
            raise CliError("bad-input", str(exc), EXIT_USAGE)
        return EXIT_OK
    writer = export_mps if args.format == "mps" else export_lp
    # built before the output is opened: a model that cannot be built
    # leaves no file behind
    model = _build(doc)[2]
    if args.output in (None, "-"):
        writer(model, sys.stdout)
    else:
        with _open_output(args.output) as fh:
            writer(model, fh)
    return EXIT_OK


def _cmd_repro_dualpipe(args) -> int:
    spec = _spec(DualPipeSpec, pp=args.pp)
    g, h, options = gen_dualpipe(spec)
    bound = dualpipe_primal_bound(spec)
    half = dualpipe_bubble_target(spec) / 2
    cfg = _spec(SolveConfig, time_limit=args.time_limit,
                node_limit=args.node_limit)

    def checked(name: str, sol: Solution, **limits: float):
        # the gates: verified, and each measure of the report named in
        # `limits` within its limit
        report = verify(g, h, sol, options)
        if not report.feasible:
            raise CliError("verification-failed",
                           f"{name} schedule failed verification",
                           EXIT_VIOLATIONS)
        for measure, limit in limits.items():
            measured = getattr(report, measure)
            if measured > limit:
                raise CliError("bubble-mismatch", f"{name} {measure} "
                               f"{measured:g} > limit {limit:g}", EXIT_ERROR)
        return report

    def measures(report) -> str:
        return (f"makespan={report.makespan:g} "
                f"pipeline_bubble={report.pipeline_bubble:g} "
                f"bubble_total={report.bubble_total:g}")

    def rank(report) -> tuple:
        return report.makespan, report.pipeline_bubble, report.bubble_total

    t0 = time.monotonic()
    model = set_primal_bound(build_model(g, h, options), bound)
    reference = warm_start(model, dualpipe_reference(spec))
    rep_ref = checked("reference", reference, makespan=bound)
    searched = list_schedule(model, deadline=t0 + args.time_limit)
    rep_searched = searched and checked("heuristic", searched)
    # ties keep the hand-built order
    if searched and rank(rep_searched) < rank(rep_ref):
        hint, source = searched, "heuristic"
    else:
        hint, source = reference, "reference"
    # the hint meets the primal bound, so `solve` returns it after 0 nodes
    result = solve(model, cfg, hint=warm_start(model, hint))
    rep = checked("written", result, makespan=bound, pipeline_bubble=half)

    print(f"reference: {measures(rep_ref)}")
    if searched:
        print(f"heuristic: {measures(rep_searched)} "
              f"iterations={searched.stats['iterations']} "
              f"stop={searched.stats['stop']}")
    else:
        print("heuristic: no schedule")
    print(f"pp={args.pp} written={source} {measures(rep)} "
          f"status={result.status} stop={result.stats['stop']} "
          f"nodes={result.stats['nodes']} "
          f"elapsed={time.monotonic() - t0:.1f}s")
    if args.output:
        _write_doc(_instance_doc(g, h, options,
                                 primal_bound=bound,
                                 solution=result.to_dict()),
                   args.output)
    return EXIT_OK


# -- argument parsing --------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="opsched",
        description="Operator-level schedule planning on device clusters.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance")
    fam = p.add_subparsers(dest="family", required=True)
    d = fam.add_parser("dualpipe")
    d.add_argument("--pp", type=int, required=True)
    d.add_argument("--micro-batches", type=int, default=None)
    d.add_argument("--memory-mode", default="dualpipe",
                   choices=["dualpipe", "relaxed", "uncapped"])
    d.add_argument("-o", "--output", default=None)
    d.set_defaults(func=_cmd_gen)
    r = fam.add_parser("random")
    r.add_argument("--nodes", type=int, required=True)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--max-in-degree", type=int, default=3)
    r.add_argument("--max-out-degree", type=int, default=3)
    r.add_argument("--machines", type=int, default=2)
    r.add_argument("-o", "--output", default=None)
    r.set_defaults(func=_cmd_gen)

    p = sub.add_parser("coarsen", help="merge graph nodes")
    p.add_argument("-i", "--input", default=None)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--to", type=int, default=None,
                   help="target node count")
    p.set_defaults(func=_cmd_coarsen)

    p = sub.add_parser("solve", help="solve an instance")
    p.add_argument("-i", "--input", default=None)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--time-limit", type=float, default=60.0)
    p.add_argument("--node-limit", type=int, default=None)
    p.add_argument("--ignore-primal-bound", action="store_true")
    p.add_argument("--stats", action="store_true",
                   help="add the search's nodes, stop reason, root_bound "
                        "and, for the DFS (not the fixed-assignment mode), "
                        "its prunes by reason under a top-level stats key, "
                        "also of the error when no schedule is found. The "
                        "prunes are placements a node listed and rejected: "
                        "bound-before-dispatch, by the bound before placing "
                        "them; bound-after-dispatch, by the bound after; "
                        "memory, as they do not fit. Placements never listed "
                        "(as under a limit leaving no idle) count nowhere")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="replay a solution")
    p.add_argument("-i", "--input", default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("export", help="write trace/MPS/LP")
    p.add_argument("-i", "--input", default=None)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--format", default="trace",
                   choices=["trace", "mps", "lp"])
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser(
        "repro-dualpipe", help="run the pipeline bubble benchmark",
        description="Check the hand-built DualPipe order against the primal "
                    "bound, build a schedule from scratch by list-scheduling "
                    "hill climbing, and hand the better of the two to one "
                    "solve within the limits. Exit 1 unless the hand-built "
                    "order and the written schedule meet the bound and the "
                    "written schedule's pipeline bubble (makespan minus a "
                    "device's busy time) is at most half the DualPipe "
                    "formula.")
    p.add_argument("--pp", type=int, required=True)
    p.add_argument("--time-limit", type=float, default=600.0)
    p.add_argument("--node-limit", type=int, default=2_000_000)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_repro_dualpipe)
    return parser


# `main` parses with one parser per process: parsing leaves the parser as
# it was and gives each call its own namespace, so calls share nothing
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except CliError as exc:
        return _fail(exc.kind, str(exc), exc.code, **exc.extra)
    except (GraphError, ModelError, SolveError) as exc:
        return _fail(type(exc).__name__.removesuffix("Error").lower(),
                     str(exc), EXIT_ERROR)
    except BrokenPipeError:
        # downstream consumer closed the pipe early (e.g. head)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
