"""In-memory spans recorded from outside the program.

The benchmark wraps the public functions each layer exposes, as module
attributes, before it calls `opsched.cli.main`. Every wrapped call
becomes a span with a name (the layer metric it feeds), start, end,
parent id and a few attributes taken from its arguments and result.
Nothing inside `src/` is changed: `cli.py` binds its helpers at import,
so the wrappers replace those bindings, and the few modules that look a
function up at call time (`solver.refine_idle`, `simulate.verify`) are
patched where they are looked up.
"""
from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class Tracer:
    """Spans kept in memory; `spans` is read when the pass ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        # phases the next `solve` calls belong to, consumed in order
        self.solve_phases: list[str] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, "attrs": attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec["attrs"]
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s["start"]
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
            lo, hi = max(c["start"], reach), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def subtree(spans: list[dict], root_id: int) -> list[dict]:
    """The span `root_id` and every span below it."""
    keep = {root_id}
    out = []
    for s in spans:  # parents are recorded before their children
        if s["id"] in keep or s["parent"] in keep:
            keep.add(s["id"])
            out.append(s)
    return out


def _wrap(tracer: Tracer, name: str, fn, before=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as attrs:
            if before:
                before(attrs, args, kwargs)
            result = fn(*args, **kwargs)
            if after:
                after(attrs, args, kwargs, result)
            return result
    return wrapper


def _solve_before(tracer):
    def before(attrs, args, kwargs):
        cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
        attrs["phase"] = (tracer.solve_phases.pop(0)
                          if tracer.solve_phases else "other")
        attrs["node_limit"] = getattr(cfg, "node_limit", None)
        attrs["time_limit"] = getattr(cfg, "time_limit", None)
    return before


def _solve_after(attrs, args, kwargs, sol):
    attrs.update(status=sol.status, objective=sol.objective, bound=sol.bound)


def _count_ops(attrs, args, kwargs, g):
    attrs["ops"] = len(g)


def _verify_ops(attrs, args, kwargs):
    attrs["ops"] = len(args[0])


def _coarsen_merges(attrs, args, kwargs, result):
    attrs["merges"] = len(args[0]) - len(result[0])


def install(tracer: Tracer) -> None:
    """Replace the layer entry points with span-recording wrappers."""
    import opsched.cli as cli
    import opsched.graph as graph
    import opsched.simulate as simulate
    import opsched.solver as solver

    real_export = cli.export_mps

    def export_mps(model, dest):
        # `store` is a cached property: reading it here moves the
        # materialisation into its own span and adds no work
        with tracer.span("model.materialise") as attrs:
            attrs["rows"] = len(model.store.constraints)
        return real_export(model, dest)

    verify = _wrap(tracer, "simulate.verify", simulate.verify,
                   before=_verify_ops)
    load_graph = _wrap(tracer, "graph.load", graph.load_computation_graph,
                       after=_count_ops)
    patches = [
        (cli, "solve", _wrap(tracer, "solver.solve", cli.solve,
                             before=_solve_before(tracer),
                             after=_solve_after)),
        (cli, "warm_start", _wrap(tracer, "solver.warm_start",
                                  cli.warm_start)),
        (solver, "refine_idle", _wrap(tracer, "solver.refine",
                                      solver.refine_idle)),
        (cli, "verify", verify),
        (simulate, "verify", verify),
        (simulate, "expand_schedule",
         _wrap(tracer, "simulate.expand", simulate.expand_schedule)),
        (cli, "build_model", _wrap(tracer, "model.build", cli.build_model)),
        (cli, "export_mps", _wrap(tracer, "mpswriter.mps", export_mps)),
        (cli, "coarsen", _wrap(tracer, "coarsen", cli.coarsen,
                               after=_coarsen_merges)),
        (cli, "dualpipe_reference", _wrap(tracer, "scenarios.reference",
                                          cli.dualpipe_reference)),
        (cli, "gen_dualpipe", _wrap(tracer, "scenarios.gen",
                                    cli.gen_dualpipe)),
        (cli, "gen_random_dag", _wrap(tracer, "scenarios.gen",
                                      cli.gen_random_dag)),
        (cli, "load_computation_graph", load_graph),
        (graph, "load_computation_graph", load_graph),
        (cli, "load_cluster", _wrap(tracer, "graph.load", cli.load_cluster)),
    ]
    for module, attr, fn in patches:
        setattr(module, attr, fn)
