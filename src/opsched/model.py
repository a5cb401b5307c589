"""Assembly of the scheduling MIP as a solver-agnostic constraint store.

The model covers operation assignment, machine and channel disjunctions,
dependency and communication timing, and per-machine memory levels
threaded along immediate-precedence chains. The constraint store is
materialized lazily: solving uses the compact problem data directly,
while export and inspection trigger full constraint generation.

Every generated constraint carries a tag naming its constraint family;
`CORE_TAGS` lists the families a plain model must produce.

The store holds rows the way the writers read them, in flat columns.
Variables are numbered in creation order: `variables` maps each key to
its `VarRef`, and a variable's column is its position there. Each row's
terms are merged once, when the row is added: a column's coefficient is
``0.0 + c₁ + c₂ …`` over the row's terms on it, in order of first
occurrence, and a column whose sum is ``== 0.0`` is left out. The
merged terms of all rows sit end to end in two arrays, `cols` (column
numbers) and `coefs` (coefficients), and ``ends[r]`` is where row ``r``
ends. Each row also keeps its sense, its right-hand side as given (an
int of 1e16 prints differently from the equal float) and its tag.

At pp=4 the DualPipe store holds 111.4k rows over 0.42M terms in 13.0 MB
(tracemalloc), where a named tuple per row and a tuple per term took
47.2 MB. The arrays hold numbers, not objects, and the per-row lists
hold strings and numbers, so of everything the store holds the cyclic
garbage collector follows only the variables: about 20.7k objects, one
per `VarRef`, against 0.66M when the rows were tuples. So nothing
pauses the collector: at pp=4 the build runs 118 collections, nearly
all of the youngest generation, in 0.02 s in all. Writing the MPS runs
29 more at pp=4 (2 at pp=2), none of the oldest generation: the writer
holds one list per column (see `opsched.mpswriter`), and a list is a
container that the collector tracks.

`_Builder` is the one way to make a store: `add` merges any row, and
`rows` pushes generated rows of fixed coefficients, whose columns are
distinct, straight into the arrays a block at a time.
`ConstraintStore.constraints` reads the rows back as `LinearConstraint` named tuples of
``(float coefficient, VarRef)`` terms, built on each access.
"""
from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate, chain
from typing import Iterable, Iterator, Mapping, NamedTuple

from .graph import (ComputationGraph, GraphError, HardwareCluster,
                    is_finite_number)

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


class LinearConstraint(NamedTuple):
    terms: tuple[tuple[float, VarRef], ...]
    sense: str  # "<=", ">=", "=="
    rhs: float
    tag: str


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
    primal_bound: float | None = None

    @cached_property
    def store(self) -> "ConstraintStore":
        return _materialize(self)

    @property
    def variables(self) -> Mapping[tuple[str, tuple[str, ...]], VarRef]:
        return self.store.variables

    @property
    def constraints(self) -> Sequence[LinearConstraint]:
        return self.store.constraints

    @property
    def objective(self) -> VarRef:
        return VarRef("makespan", (), CONTINUOUS)

    @property
    def big_M(self) -> float:
        return compute_horizon(self.graph)

    def memory_big_M(self) -> float:
        return (self.graph.mem_total
                + max(m.memory_capacity for m in self.cluster.machines.values())
                + 1)


@dataclass(slots=True)
class ConstraintStore:
    """A model's merged rows in flat columns (see the module docstring).

    Made by `_Builder.store`, and read only after that.
    """

    variables: dict[tuple[str, tuple[str, ...]], VarRef]
    cols: array
    coefs: array
    ends: array
    senses: list[str]
    rhs: list[float]
    tags: list[str]

    @property
    def constraints(self) -> "_Rows":
        return _Rows(self)

    def column(self, ref: VarRef) -> int:
        """Column number of a variable; `KeyError` if the store lacks it."""
        key = (ref.kind, ref.indices)
        for k, have in enumerate(self.variables):
            if have == key:
                return k
        raise KeyError(ref)


class _Rows(Sequence):
    """Read-only view of a store's rows as `LinearConstraint`s, each
    built on access from the merged terms."""

    __slots__ = ("_store", "_refs")

    def __init__(self, store: ConstraintStore):
        self._store = store
        self._refs = list(store.variables.values())

    def __len__(self) -> int:
        return len(self._store.ends)

    def _row(self, r: int) -> LinearConstraint:
        st = self._store
        lo = st.ends[r - 1] if r else 0
        hi = st.ends[r]
        terms = tuple(zip(st.coefs[lo:hi],
                          map(self._refs.__getitem__, st.cols[lo:hi])))
        return LinearConstraint(terms, st.senses[r], st.rhs[r], st.tags[r])

    def __getitem__(self, r: int) -> LinearConstraint:
        n = len(self)
        if not -n <= r < n:
            raise IndexError("row index out of range")
        return self._row(r % n)

    def __iter__(self) -> Iterator[LinearConstraint]:
        return map(self._row, range(len(self)))


def compute_horizon(g: ComputationGraph) -> float:
    """Σ operation durations + Σ communication durations (+ load costs)."""
    return g.time_total


def build_model(g: ComputationGraph, h: HardwareCluster,
                opts: ModelOptions | None = None) -> ScheduleModel:
    """Validate inputs and assemble the scheduling model."""
    opts = opts or ModelOptions()
    if opts.memory_capped:
        for i, op in g.operations.items():
            # with loading, an op's weight memory and weights stay out of
            # the level it runs at, as in every judge of a schedule
            need = max(0, op.activation_delta)
            if not opts.dynamic_loading:
                need += op.weight_mem + sum(g.weights[r].size
                                            for r in op.weight_refs)
            if all(m.memory_capacity < need
                   for m in h.machines.values()):
                raise ModelError(
                    f"operation {i!r} needs {need} memory units but no "
                    f"machine has that much capacity")
    model = ScheduleModel(graph=g, cluster=h, options=opts)
    # the MIP's largest numbers: 3 * big_M in a machine-exclusive row
    # and, capped, a capacity plus the memory big-M in a capacity row
    top = model.memory_big_M() + (max(
        m.memory_capacity for m in h.machines.values())
        if opts.memory_capped else 0.0)
    if not (is_finite_number(3 * model.big_M) and is_finite_number(top)):
        raise GraphError("the MIP's big-M bounds on time or memory sum "
                         "past the float range")
    return model


def set_primal_bound(model: ScheduleModel, bound: float) -> ScheduleModel:
    """Return a copy of the model with an objective upper bound attached."""
    if not is_finite_number(bound) or bound <= 0:
        raise ModelError(
            f"primal bound must be a positive finite number, got {bound!r}")
    return replace(model, primal_bound=bound)


def clear_primal_bound(model: ScheduleModel) -> ScheduleModel:
    return replace(model, primal_bound=None)


# -- constraint generation ---------------------------------------------------


_SENSES = frozenset(("<=", ">=", "=="))


class _Builder:
    """Collects variables and merged rows into the flat columns of a
    `ConstraintStore` (see the module docstring)."""

    def __init__(self):
        self.variables: dict[tuple[str, tuple[str, ...]], VarRef] = {}
        self._column: dict[tuple[str, tuple[str, ...]], int] = {}
        self.cols = array("i")
        self.coefs = array("d")
        self.ends = array("i")
        self.senses: list[str] = []
        self.rhs: list[float] = []
        self.tags: list[str] = []

    def var(self, kind: str, *indices: str, domain: str = CONTINUOUS) -> int:
        """Column number of a variable, made on first use."""
        key = (kind, indices)
        col = self._column.get(key)
        if col is None:
            col = self._column[key] = len(self.variables)
            self.variables[key] = VarRef(kind, indices, domain)
        return col

    def add(self, terms: Iterable[tuple[float, int]], sense: str,
            rhs: float, tag: str) -> None:
        """Add one row of ``(coefficient, column)`` terms, merged.

        A column that no `var` call made raises `KeyError`.
        """
        acc: dict[int, float] = {}
        for coef, col in terms:
            acc[col] = acc.get(col, 0.0) + coef
        if not acc:
            raise ValueError("constraint needs at least one term")
        if sense not in _SENSES:
            raise ValueError(f"bad sense {sense!r}")
        for col in (min(acc), max(acc)):
            if not 0 <= col < len(self.variables):
                raise KeyError(f"column {col} is not a variable of the store")
        kept = [col for col, v in acc.items() if v != 0.0]
        self.cols.extend(kept)
        self.coefs.extend(map(acc.__getitem__, kept))
        self.ends.append(len(self.cols))
        self.senses.append(sense)
        self.rhs.append(rhs)
        self.tags.append(tag)

    def rows(self, cols: Sequence[int],
             *shape: tuple[tuple[float, ...], str, float, str]) -> None:
        """Add rows of fixed coefficients over a run of columns.

        `shape` gives each row's ``(coefficients, sense, rhs, tag)``. It
        repeats along `cols`, and each row takes as many columns as it
        has coefficients. For generated rows only: the columns come from
        `var`, and the caller makes those of each row distinct, so only
        a zero coefficient needs `add`'s merge.
        """
        for row_coefs, sense, _, _ in shape:
            if not row_coefs:
                raise ValueError("constraint needs at least one term")
            if sense not in _SENSES:
                raise ValueError(f"bad sense {sense!r}")
        coefs = tuple(chain.from_iterable(row[0] for row in shape))
        width = len(coefs)
        n = len(cols) // width if width else 0
        if n * width != len(cols):
            raise ValueError(f"{len(cols)} columns do not repeat a shape "
                             f"of {width}")
        if 0.0 in coefs:
            col = iter(cols)
            for _ in range(n):
                for row_coefs, sense, rhs, tag in shape:
                    self.add(zip(row_coefs, col), sense, rhs, tag)
            return
        start = len(self.cols)
        self.cols.extend(cols)
        self.coefs.extend(coefs * n)
        offsets = list(accumulate(len(row[0]) for row in shape))
        self.ends.extend([base + off
                          for base in range(start, start + n * width, width)
                          for off in offsets])
        self.senses.extend([row[1] for row in shape] * n)
        self.rhs.extend([row[2] for row in shape] * n)
        self.tags.extend([row[3] for row in shape] * n)

    def store(self) -> ConstraintStore:
        return ConstraintStore(self.variables, self.cols, self.coefs,
                               self.ends, self.senses, self.rhs, self.tags)


# coefficient tuples shared by the rows of a shape
_P = (1.0,)
_PM = (1.0, -1.0)
_PP = (1.0, 1.0)
_PPM = (1.0, 1.0, -1.0)
_PMM = (1.0, -1.0, -1.0)
_MPM = (-1.0, 1.0, -1.0)


def _materialize(model: ScheduleModel) -> ConstraintStore:
    g, h = model.graph, model.cluster
    M = model.big_M
    Mm = model.memory_big_M()
    b = _Builder()
    rows = b.rows

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
    # each operation's x columns, in machine order
    xs = {i: [x[i, j] for j in machines] for i in ops}

    # objective lower bounds and durations
    rows([v for i in ops for v in (mk, e[i])], (_PM, ">=", 0, "makespan"))
    if model.options.dynamic_loading:
        _extension_durations(model, b, s, e)
    else:
        for i in ops:
            rows((e[i], s[i]),
                 (_PM, "==", g.operations[i].duration, "duration"))

    # dependency slack, generated for dependent pairs only
    for (i1, i2) in edges:
        t = b.var("t", i1, i2)
        rows((s[i2], s[i1], t, t), (_PMM, "==", 0, "dep-slack"),
             (_P, ">=", 0, "dep-order"))

    # each operation on exactly one machine
    one_per_machine = (_P * len(machines), "==", 1, "assign")
    for i in ops:
        rows(xs[i], one_per_machine)

    # machine disjunction over ordered distinct pairs
    y = {}
    for i1 in ops:
        for i2 in ops:
            if i1 == i2:
                continue
            y[i1, i2] = b.var("y", i1, i2, domain=BINARY)
    exclusive = ((M, M, M, 1.0, -1.0), "<=", 3 * M, "machine-exclusive")
    for i1 in ops:
        e1, x1 = e[i1], xs[i1]
        cols = []
        for i2 in ops:
            if i2 != i1:
                yv, s2 = y[i1, i2], s[i2]
                for x1j, x2j in zip(x1, xs[i2]):
                    cols += (yv, x1j, x2j, e1, s2)
        rows(cols, exclusive)
    for idx1, i1 in enumerate(ops):
        rows([v for i2 in ops[idx1 + 1:] for v in (y[i1, i2], y[i2, i1])],
             (_PP, "==", 1, "order-complement"))

    # communication allocation, forbidden machine pairs, timing
    z = {}
    allocation = ((_PM, "<=", 0, "comm-assign"), (_PM, "<=", 0, "comm-assign"),
                  (_PMM, ">=", -1, "linearization"))
    for (i1, i2) in edges:
        cols = []
        for (j1, j2) in channels:
            zv = b.var("z", i1, i2, j1, j2, domain=BINARY)
            z[i1, i2, j1, j2] = zv
            cols += (zv, x[i1, j1], zv, x[i2, j2], zv, x[i1, j1], x[i2, j2])
        rows(cols, *allocation)
        rows([v for (j1, j2) in non_channels for v in (x[i1, j1], x[i2, j2])],
             (_PP, "<=", 1, "comm-forbidden"))

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
        rows((c[i1, i2], e[i1], s[i2], d[i1, i2]),
             (_PM, ">=", 0, "comm-after-producer"),
             (_PM, ">=", 0, "comm-before-consumer"))

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
    channel_exclusive = ((-M, -M, -M, 1.0, -1.0), ">=", -3 * M,
                         "channel-exclusive")
    for (e1, e2), wv in w.items():
        rows([v for (j1, j2) in real_channels
              for v in (wv, z[(*e1, j1, j2)], z[(*e2, j1, j2)], c[e2],
                        d[e1])],
             channel_exclusive)
    for idx1, e1 in enumerate(edges):
        rows([v for e2 in edges[idx1 + 1:] if (e1, e2) in w
              for v in (w[e1, e2], w[e2, e1])],
             (_PP, "==", 1, "comm-order-complement"))

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
    link = ((_PM, "<=", 0, "u-link"),
            *[(_PPM, "<=", 1, "u-link")] * len(machines))
    for i1 in ops:
        x1 = xs[i1]
        cols = []
        for i2 in ops:
            if i2 != i1:
                uv = u[i1, i2]
                cols += (uv, y[i1, i2])
                for x1j, x2j in zip(x1, xs[i2]):
                    cols += (uv, x1j, x2j)
        rows(cols, *link)
    for i in ops:
        # with a single operation both rows are empty and are left out
        for row in ([u[i1, i] for i1 in ops if i1 != i],
                    [u[i, i2] for i2 in ops if i2 != i]):
            if row:
                rows(row, (_P * len(row), "<=", 1, "u-link"))
    rows([v for (i, j), fv in first.items() for v in (fv, x[i, j])],
         (_PM, "<=", 0, "first-link"))
    for j in machines:
        row = [first[i, j] for i in ops]
        if row:  # empty on a graph without operations
            rows(row, (_P * len(row), "<=", 1, "first-link"))
    for i in ops:
        row = [first[i, j] for j in machines] + [u[i1, i] for i1 in ops
                                                 if i1 != i]
        rows(row, (_P * len(row), "==", 1, "first-link"))

    # memory levels
    m_minus = {i: b.var("m_minus", i) for i in ops}
    m_plus = {i: b.var("m_plus", i) for i in ops}
    for i in ops:
        rows((m_plus[i], m_minus[i]),
             (_PM, "==", g.operations[i].activation_delta, "mem-delta"))
    chain_rows = (((Mm, -1.0, 1.0), "<=", Mm, "mem-chain"),
                  ((-Mm, -1.0, 1.0), ">=", -Mm, "mem-chain"))
    for i1 in ops:
        p1 = m_plus[i1]
        rows([v for i2 in ops if i2 != i1
              for v in (u[i1, i2], m_minus[i2], p1) * 2], *chain_rows)

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
                    rows([v for i in users[wid] for v in (rv, x[i, j])],
                         (_PM, ">=", 0, "mem-baseline"))
        for i in ops:
            for j in machines:
                # x(i,j) repeats when operation i holds weight memory
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
                cap = (((1.0, Mm), "<=", h.machines[j].memory_capacity + Mm,
                        "capacity"),)
                rows((m_minus[i], x[i, j], m_plus[i], x[i, j]), *cap * 2)

    if model.primal_bound is not None:
        rows((mk,), (_P, "<=", model.primal_bound, PRIMAL_BOUND_TAG))

    return b.store()


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
    rows = b.rows
    init = ((_PPM, "<=", 1, "act-init"), (_MPM, ">=", -1, "act-init"))
    for i in ops:
        rows([v for wid in wids for j in machines
              for v in (first[i, j], act_m[i, wid], l0[wid, j]) * 2], *init)

    # a required weight must be resident or loaded
    for i, op in g.operations.items():
        for wid in op.weight_refs:
            rows((l[i, wid], act_m[i, wid]),
                 (_PP, ">=", 1, "weight-presence"))

    balance = (((1.0, -1.0, -1.0, 1.0), "==", 0, "act-balance"),
               (_PMM, "<=", 0, "unload-bound"))
    for i in ops:
        rows([v for wid in wids
              for v in (act_p[i, wid], act_m[i, wid], l[i, wid], ul[i, wid],
                        ul[i, wid], act_m[i, wid], l[i, wid])], *balance)

    # residency threads along immediate-precedence chains
    chain_rows = ((_PPM, "<=", 1, "act-chain"), (_MPM, ">=", -1, "act-chain"))
    for i1 in ops:
        for i2 in ops:
            if i1 != i2:
                rows([v for wid in wids
                      for v in (u[i1, i2], act_p[i1, wid], act_m[i2, wid]) * 2],
                     *chain_rows)

    # resident weights lower-bound the memory level before each operation
    for i in ops:
        terms = [(1, m_minus[i])]
        for wid in wids:
            size = g.weights[wid].size
            if size:
                terms.append((-size, act_m[(i, wid)]))
        b.add(terms, ">=", 0, "mem-baseline")
