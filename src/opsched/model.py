"""Assembly of the scheduling MIP as a solver-agnostic constraint store.

The model covers operation assignment, machine and channel disjunctions,
dependency and communication timing, and per-machine memory levels
threaded along immediate-precedence chains. The constraint store is
materialized lazily: solving uses the compact problem data directly,
while export and inspection trigger full constraint generation.

Every generated constraint carries a tag naming its constraint family;
`CORE_TAGS` lists the families a plain model must produce.

Variables (`VarRef`) and rows (`LinearConstraint`) are named tuples:
the pp=4 DualPipe store holds 111.4k rows over 0.42M terms, and a named
tuple is built in under half the time of a frozen dataclass and, having
no ``__dict__``, takes under half its memory.

The store is built with the cyclic garbage collector paused
(`_collector_paused`). Building it creates about 0.7M container
objects: rows, their term tuples, refs and index tuples. Each allocation
counts towards the next collection, so with the collector on, the build
triggers thousands of collections that rescan the growing store. They
took half the build time at pp=4 and freed nothing, because none of
these objects is part of a reference cycle. Reference counting frees the
store once the model goes, with the collector on or off.
"""
from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple

from .graph import ComputationGraph, HardwareCluster, is_finite_number

BINARY = "binary"
CONTINUOUS = "continuous"

# Constraint families of the base model (capacity only when capped;
# channel-exclusive and comm-order-complement only when some transfer
# takes time).
CORE_TAGS = (
    "makespan", "duration", "dep-slack", "dep-order", "assign",
    "machine-exclusive", "order-complement", "comm-assign", "linearization",
    "comm-forbidden", "comm-duration", "comm-after-producer",
    "comm-before-consumer", "channel-exclusive", "comm-order-complement",
    "mem-baseline", "mem-chain", "mem-delta", "u-link", "first-link",
)
CAPACITY_TAG = "capacity"
PRIMAL_BOUND_TAG = "primal-bound"
EXTENSION_TAGS = (
    "act-init", "weight-presence", "act-balance", "act-chain", "unload-bound",
)


class VarRef(NamedTuple):
    kind: str
    indices: tuple[str, ...]
    domain: str

    @property
    def name(self) -> str:
        if not self.indices:
            return self.kind
        return f"{self.kind}({','.join(self.indices)})"


class _Row(NamedTuple):
    terms: tuple[tuple[float, VarRef], ...]
    sense: str  # "<=", ">=", "=="
    rhs: float
    tag: str


class LinearConstraint(_Row):
    __slots__ = ()

    def __new__(cls, terms: tuple[tuple[float, VarRef], ...], sense: str,
                rhs: float, tag: str) -> "LinearConstraint":
        if not terms:
            raise ValueError("constraint needs at least one term")
        if sense not in ("<=", ">=", "=="):
            raise ValueError(f"bad sense {sense!r}")
        return tuple.__new__(cls, (terms, sense, rhs, tag))


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Run the block with the cyclic garbage collector off.

    Only for code whose objects form no reference cycles: reference
    counting alone frees everything the store and the writers create
    (see the module docstring). The collector is switched back on only
    if it was on at entry, so a nested pause, or a caller that runs with
    it off, keeps its state.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@dataclass(frozen=True)
class ModelOptions:
    """Build-time switches for the scheduling model."""

    memory_capped: bool = False
    dynamic_loading: bool = False


class ModelError(ValueError):
    """Model cannot be built or is infeasible by construction."""


@dataclass(frozen=True)
class ScheduleModel:
    """Immutable scheduling problem plus its lazily built constraint store."""

    graph: ComputationGraph
    cluster: HardwareCluster
    options: ModelOptions
    big_M: float
    primal_bound: float | None = None

    @cached_property
    def store(self) -> "ConstraintStore":
        with _collector_paused():
            return _materialize(self)

    @property
    def variables(self) -> Mapping[tuple[str, tuple[str, ...]], VarRef]:
        return self.store.variables

    @property
    def constraints(self) -> tuple[LinearConstraint, ...]:
        return self.store.constraints

    @property
    def objective(self) -> VarRef:
        return VarRef("makespan", (), CONTINUOUS)

    def memory_big_M(self) -> float:
        g = self.graph
        total = sum(op.weight_mem for op in g.operations.values())
        total += sum(abs(op.activation_delta) for op in g.operations.values())
        total += sum(w.size for w in g.weights.values())
        total += max(m.memory_capacity for m in self.cluster.machines.values())
        return total + 1


@dataclass
class ConstraintStore:
    variables: dict[tuple[str, tuple[str, ...]], VarRef] = field(
        default_factory=dict)
    constraints: tuple[LinearConstraint, ...] = ()


def compute_horizon(g: ComputationGraph) -> float:
    """Σ operation durations + Σ communication durations (+ load costs)."""
    horizon = g.total_duration() + g.total_comm_duration()
    for op in g.operations.values():
        for ref in op.weight_refs:
            w = g.weights[ref]
            horizon += w.load_cost + w.unload_cost
    return horizon


def build_model(g: ComputationGraph, h: HardwareCluster,
                opts: ModelOptions | None = None) -> ScheduleModel:
    """Validate inputs and assemble the scheduling model."""
    opts = opts or ModelOptions()
    if opts.memory_capped:
        for i, op in g.operations.items():
            static = op.weight_mem + sum(
                g.weights[r].size for r in op.weight_refs
                if not opts.dynamic_loading)
            need = static + max(0, op.activation_delta)
            if all(m.memory_capacity < need
                   for m in h.machines.values()):
                raise ModelError(
                    f"operation {i!r} needs {need} memory units but no "
                    f"machine has that much capacity")
    return ScheduleModel(graph=g, cluster=h, options=opts,
                         big_M=compute_horizon(g))


def set_primal_bound(model: ScheduleModel, bound: float) -> ScheduleModel:
    """Return a copy of the model with an objective upper bound attached."""
    if not is_finite_number(bound) or bound <= 0:
        raise ModelError(
            f"primal bound must be a positive finite number, got {bound!r}")
    return replace(model, primal_bound=bound)


def clear_primal_bound(model: ScheduleModel) -> ScheduleModel:
    return replace(model, primal_bound=None)


# -- constraint generation ---------------------------------------------------


class _Builder:
    def __init__(self):
        self.variables: dict[tuple[str, tuple[str, ...]], VarRef] = {}
        self.constraints: list[LinearConstraint] = []

    def var(self, kind: str, *indices: str, domain: str = CONTINUOUS) -> VarRef:
        key = (kind, indices)
        ref = self.variables.get(key)
        if ref is None:
            ref = VarRef(kind, indices, domain)
            self.variables[key] = ref
        return ref

    def add(self, terms: Iterable[tuple[float, VarRef]], sense: str,
            rhs: float, tag: str):
        self.constraints.append(
            LinearConstraint(tuple(terms), sense, rhs, tag))


def _materialize(model: ScheduleModel) -> ConstraintStore:
    g, h = model.graph, model.cluster
    M = model.big_M
    Mm = model.memory_big_M()
    b = _Builder()

    ops = list(g.operations)
    machines = list(h.machines)
    edges = list(g.edges)
    channels = list(h.channels)
    real_channels = [c for c in channels if c[0] != c[1]]
    non_channels = [(j1, j2) for j1 in machines for j2 in machines
                    if (j1, j2) not in h.channels]

    mk = b.var("makespan")
    s = {i: b.var("s", i) for i in ops}
    e = {i: b.var("e", i) for i in ops}
    x = {(i, j): b.var("x", i, j, domain=BINARY)
         for i in ops for j in machines}

    # objective lower bounds and durations
    for i in ops:
        b.add([(1, mk), (-1, e[i])], ">=", 0, "makespan")
    if model.options.dynamic_loading:
        _extension_durations(model, b, s, e)
    else:
        for i in ops:
            b.add([(1, e[i]), (-1, s[i])], "==",
                  g.operations[i].duration, "duration")

    # dependency slack, generated for dependent pairs only
    for (i1, i2) in edges:
        t = b.var("t", i1, i2)
        b.add([(1, s[i2]), (-1, s[i1]), (-1, t)], "==", 0, "dep-slack")
        b.add([(1, t)], ">=", 0, "dep-order")

    # each operation on exactly one machine
    for i in ops:
        b.add([(1, x[i, j]) for j in machines], "==", 1, "assign")

    # machine disjunction over ordered distinct pairs
    y = {}
    for i1 in ops:
        for i2 in ops:
            if i1 == i2:
                continue
            y[i1, i2] = b.var("y", i1, i2, domain=BINARY)
    for i1 in ops:
        for i2 in ops:
            if i1 == i2:
                continue
            for j in machines:
                b.add([(M, y[i1, i2]), (M, x[i1, j]), (M, x[i2, j]),
                       (1, e[i1]), (-1, s[i2])], "<=", 3 * M,
                      "machine-exclusive")
    for idx1, i1 in enumerate(ops):
        for i2 in ops[idx1 + 1:]:
            b.add([(1, y[i1, i2]), (1, y[i2, i1])], "==", 1,
                  "order-complement")

    # communication allocation, forbidden machine pairs, timing
    z = {}
    for (i1, i2) in edges:
        for (j1, j2) in channels:
            zv = b.var("z", i1, i2, j1, j2, domain=BINARY)
            z[i1, i2, j1, j2] = zv
            b.add([(1, zv), (-1, x[i1, j1])], "<=", 0, "comm-assign")
            b.add([(1, zv), (-1, x[i2, j2])], "<=", 0, "comm-assign")
            b.add([(1, zv), (-1, x[i1, j1]), (-1, x[i2, j2])], ">=", -1,
                  "linearization")
        for (j1, j2) in non_channels:
            b.add([(1, x[i1, j1]), (1, x[i2, j2])], "<=", 1, "comm-forbidden")

    c = {key: b.var("c", *key) for key in edges}
    d = {key: b.var("d", *key) for key in edges}
    for (i1, i2) in edges:
        dur = g.edges[i1, i2].comm_duration
        # transfers over a self-channel take zero time regardless of the
        # declared duration
        terms = [(1, d[i1, i2]), (-1, c[i1, i2])]
        for j in machines:
            if (i1, i2, j, j) in z:
                terms.append((dur, z[i1, i2, j, j]))
        b.add(terms, ">=", dur, "comm-duration")
        b.add([(1, c[i1, i2]), (-1, e[i1])], ">=", 0, "comm-after-producer")
        b.add([(1, s[i2]), (-1, d[i1, i2])], ">=", 0, "comm-before-consumer")

    # channel disjunction over ordered distinct edge pairs, real channels
    # only, for pairs in which at least one transfer takes time. Two
    # zero-duration transfers need no order, and the integer optimum
    # stays the same: setting d(e) = c(e) for each keeps every row that
    # reads d(e) (it enters comm-before-consumer and each kept channel
    # row with a minus sign) and makes each a point in time, and two
    # points on one channel are always ordered by their times.
    timed = {key for key in edges if g.edges[key].comm_duration > 0}
    w = {(e1, e2): b.var("w", *e1, *e2, domain=BINARY)
         for e1 in edges for e2 in edges
         if e1 != e2 and (e1 in timed or e2 in timed)}
    for (e1, e2), wv in w.items():
        for (j1, j2) in real_channels:
            b.add([(-M, wv), (-M, z[(*e1, j1, j2)]),
                   (-M, z[(*e2, j1, j2)]), (1, c[e2]), (-1, d[e1])],
                  ">=", -3 * M, "channel-exclusive")
    for idx1, e1 in enumerate(edges):
        for e2 in edges[idx1 + 1:]:
            if (e1, e2) in w:
                b.add([(1, w[e1, e2]), (1, w[e2, e1])], "==", 1,
                      "comm-order-complement")

    # immediate precedence linking: u implies ordering and co-location,
    # each operation has one incoming link (a predecessor or first slot).
    # Co-location takes one row per machine, u(i1,i2) + x(i1,j) - x(i2,j)
    # <= 1: with u = 1 they put i2 on the one machine i1 sits on, and
    # with u = 0 they hold for any placement.
    u = {}
    for i1 in ops:
        for i2 in ops:
            if i1 == i2:
                continue
            u[i1, i2] = b.var("u", i1, i2, domain=BINARY)
    first = {(i, j): b.var("first", i, j, domain=BINARY)
             for i in ops for j in machines}
    for i1 in ops:
        for i2 in ops:
            if i1 == i2:
                continue
            uv = u[i1, i2]
            b.add([(1, uv), (-1, y[i1, i2])], "<=", 0, "u-link")
            for j in machines:
                b.add([(1, uv), (1, x[i1, j]), (-1, x[i2, j])], "<=", 1,
                      "u-link")
    for i in ops:
        # with a single operation both rows are empty and are left out
        for row in ([(1, u[i1, i]) for i1 in ops if i1 != i],
                    [(1, u[i, i2]) for i2 in ops if i2 != i]):
            if row:
                b.add(row, "<=", 1, "u-link")
    for (i, j), fv in first.items():
        b.add([(1, fv), (-1, x[i, j])], "<=", 0, "first-link")
    for j in machines:
        row = [(1, first[i, j]) for i in ops]
        if row:  # empty on a graph without operations
            b.add(row, "<=", 1, "first-link")
    for i in ops:
        b.add([(1, first[i, j]) for j in machines]
              + [(1, u[i1, i]) for i1 in ops if i1 != i], "==", 1,
              "first-link")

    # memory levels
    m_minus = {i: b.var("m_minus", i) for i in ops}
    m_plus = {i: b.var("m_plus", i) for i in ops}
    for i in ops:
        b.add([(1, m_plus[i]), (-1, m_minus[i])], "==",
              g.operations[i].activation_delta, "mem-delta")
    for i1 in ops:
        for i2 in ops:
            if i1 == i2:
                continue
            b.add([(Mm, u[i1, i2]), (-1, m_minus[i2]), (1, m_plus[i1])],
                  "<=", Mm, "mem-chain")
            b.add([(-Mm, u[i1, i2]), (-1, m_minus[i2]), (1, m_plus[i1])],
                  ">=", -Mm, "mem-chain")

    if model.options.dynamic_loading:
        _extension_memory(model, b, x, u, first, m_minus)
    else:
        # static baseline: all weight memory assigned to a machine
        # lower-bounds the level of every operation running there
        r = {}
        if g.weights:
            users: dict[str, list[str]] = {wid: [] for wid in g.weights}
            for i, op in g.operations.items():
                for ref in op.weight_refs:
                    users[ref].append(i)
            for wid in g.weights:
                for j in machines:
                    rv = b.var("r", wid, j, domain=BINARY)
                    r[wid, j] = rv
                    for i in users[wid]:
                        b.add([(1, rv), (-1, x[i, j])], ">=", 0,
                              "mem-baseline")
        for i in ops:
            for j in machines:
                terms = [(-Mm, x[i, j]), (1, m_minus[i])]
                for i2 in ops:
                    wm = g.operations[i2].weight_mem
                    if wm:
                        terms.append((-wm, x[i2, j]))
                for wid, wa in g.weights.items():
                    if wa.size:
                        terms.append((-wa.size, r[wid, j]))
                b.add(terms, ">=", -Mm, "mem-baseline")

    if model.options.memory_capped:
        for i in ops:
            for j in machines:
                cap = h.machines[j].memory_capacity
                b.add([(1, m_minus[i]), (Mm, x[i, j])], "<=", cap + Mm,
                      "capacity")
                b.add([(1, m_plus[i]), (Mm, x[i, j])], "<=", cap + Mm,
                      "capacity")

    if model.primal_bound is not None:
        b.add([(1, mk)], "<=", model.primal_bound, PRIMAL_BOUND_TAG)

    return ConstraintStore(variables=b.variables,
                           constraints=tuple(b.constraints))


def _extension_durations(model, b, s, e):
    g = model.graph
    for i, op in g.operations.items():
        terms = [(1, e[i]), (-1, s[i])]
        for wid, wa in g.weights.items():
            lv = b.var("l", i, wid, domain=BINARY)
            uv = b.var("ul", i, wid, domain=BINARY)
            if wa.load_cost:
                terms.append((-wa.load_cost, lv))
            if wa.unload_cost:
                terms.append((-wa.unload_cost, uv))
        b.add(terms, "==", op.duration, "duration")


def _extension_memory(model, b, x, u, first, m_minus):
    g = model.graph
    ops = list(g.operations)
    machines = list(model.cluster.machines)
    wids = list(g.weights)

    act_m = {(i, wid): b.var("act_minus", i, wid, domain=BINARY)
             for i in ops for wid in wids}
    act_p = {(i, wid): b.var("act_plus", i, wid, domain=BINARY)
             for i in ops for wid in wids}
    l = {(i, wid): b.var("l", i, wid, domain=BINARY)
         for i in ops for wid in wids}
    ul = {(i, wid): b.var("ul", i, wid, domain=BINARY)
          for i in ops for wid in wids}
    l0 = {(wid, j): b.var("l0", wid, j, domain=BINARY)
          for wid in wids for j in machines}

    # activation status of the first operation on a machine equals the
    # preload decision; a unit coefficient suffices as the deactivator
    for i in ops:
        for wid in wids:
            for j in machines:
                b.add([(1, first[i, j]), (1, act_m[i, wid]),
                       (-1, l0[wid, j])], "<=", 1, "act-init")
                b.add([(-1, first[i, j]), (1, act_m[i, wid]),
                       (-1, l0[wid, j])], ">=", -1, "act-init")

    # a required weight must be resident or loaded
    for i, op in g.operations.items():
        for wid in op.weight_refs:
            b.add([(1, l[i, wid]), (1, act_m[i, wid])], ">=", 1,
                  "weight-presence")

    for i in ops:
        for wid in wids:
            b.add([(1, act_p[i, wid]), (-1, act_m[i, wid]),
                   (-1, l[i, wid]), (1, ul[i, wid])], "==", 0, "act-balance")
            b.add([(1, ul[i, wid]), (-1, act_m[i, wid]), (-1, l[i, wid])],
                  "<=", 0, "unload-bound")

    # residency threads along immediate-precedence chains
    for i1 in ops:
        for i2 in ops:
            if i1 == i2:
                continue
            for wid in wids:
                b.add([(1, u[i1, i2]), (1, act_p[i1, wid]),
                       (-1, act_m[i2, wid])], "<=", 1, "act-chain")
                b.add([(-1, u[i1, i2]), (1, act_p[i1, wid]),
                       (-1, act_m[i2, wid])], ">=", -1, "act-chain")

    # resident weights lower-bound the memory level before each operation
    for i in ops:
        terms = [(1, m_minus[i])]
        for wid in wids:
            size = g.weights[wid].size
            if size:
                terms.append((-size, act_m[(i, wid)]))
        b.add(terms, ">=", 0, "mem-baseline")
