"""Computation DAG and hardware cluster model, and their documents.

The computation graph holds operations (durations, memory effects,
optional weight-asset references) connected by data-dependency edges.
The cluster holds machines with memory capacities and directed
communication channels. Both are immutable after construction and all
iteration is in id order so downstream model building is reproducible.
`load_computation_graph` and `load_cluster` build them from parsed JSON
documents, and the `dump_*` functions are their inverses; the CLI alone
reads and writes the JSON text.

A loader checks a document one field column at a time: each distinct
key order of a section's entries once, then, for the operations and the
edges, each column of numbers with one predicate (`all_finite_numbers`)
and each column of ids at once. When every column of such a section
passes, its entries become dataclasses without running their
`__post_init__` checks again. When any column fails, the section is
built entry by entry, as direct constructor calls build it, so the
first bad entry raises the error it always raised, word for word.
"""
from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass
from itertools import repeat, starmap
from typing import Any, Iterable, Mapping, Sequence


class GraphError(ValueError):
    """Invalid graph or cluster document (cycle, dangling id, bad field)."""


def is_finite_number(value: Any) -> bool:
    """An int or float, not a bool, that converts to a finite float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


_NUMBER_TYPES = {int, float}


def all_finite_numbers(column: Sequence, allow_negative: bool = False
                       ) -> bool:
    """Whether every value of `column` is an exact int or float that is
    finite, and >= 0 unless `allow_negative`. It may read False where
    per-value checks would pass: for a subclass of int or float other
    than bool, and for finite values whose sum passes the float range.
    A caller that reads False checks value by value."""
    if not set(map(type, column)) <= _NUMBER_TYPES:
        return False
    # a sum of values >= 0 is at least each of them (rounding to nearest
    # is monotone) and NaN where one of them is, so it is finite only
    # when every value is; a NaN-free column's min is its least value
    try:
        if allow_negative:
            return math.isfinite(sum(map(abs, column)))
        return math.isfinite(sum(column)) and min(column, default=0) >= 0
    except OverflowError:  # an int beyond the float range
        return False


def _check_number(value: Any, what: str, owner: str, allow_negative: bool = False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise GraphError(f"{what} of {owner!r} must be a number, got {value!r}")
    if not is_finite_number(value):
        raise GraphError(f"{what} of {owner!r} must be finite, got {value!r}")
    if not allow_negative and value < 0:
        raise GraphError(f"{what} of {owner!r} must be non-negative, got {value!r}")
    return value


@dataclass(frozen=True)
class Operation:
    """A single non-preemptive unit of work."""

    id: str
    duration: float
    weight_mem: float = 0
    activation_delta: float = 0
    weight_refs: tuple[str, ...] = ()

    def __post_init__(self):
        # `_operations` repeats these checks by column for a loaded
        # document; a check added here must be added there too
        # a solution document keys each transfer "producer->consumer"
        if "->" in self.id:
            raise GraphError(f"operation id {self.id!r} contains '->'")
        _check_number(self.duration, "duration", self.id)
        _check_number(self.weight_mem, "weight_mem", self.id)
        _check_number(self.activation_delta, "activation_delta", self.id,
                      allow_negative=True)


@dataclass(frozen=True)
class DependencyEdge:
    """Data dependency: `producer` output feeds `consumer`."""

    producer: str
    consumer: str
    comm_duration: float = 0

    def __post_init__(self):
        # `_edges` repeats these checks by column for a loaded document;
        # a check added here must be added there too
        if self.producer == self.consumer:
            raise GraphError(f"self-dependency on {self.producer!r}")
        _check_number(self.comm_duration, "comm_duration",
                      f"{self.producer}->{self.consumer}")

    @property
    def key(self) -> tuple[str, str]:
        return (self.producer, self.consumer)


@dataclass(frozen=True)
class WeightAsset:
    """A parameter block operations need resident in device memory."""

    id: str
    size: float
    load_cost: float = 0
    unload_cost: float = 0

    def __post_init__(self):
        _check_number(self.size, "size", self.id)
        _check_number(self.load_cost, "load_cost", self.id)
        _check_number(self.unload_cost, "unload_cost", self.id)


def _sorted(by_key: dict) -> dict:
    """`by_key` in key order (itself, when it is in that order already)."""
    keys = sorted(by_key)
    return by_key if keys == list(by_key) else {k: by_key[k] for k in keys}


def _by_id(items: Iterable, what: str) -> dict:
    """`items` keyed by id, in id order; a repeated id raises."""
    items = list(items)
    by_id = {x.id: x for x in items}
    if len(by_id) != len(items):
        seen = set()
        for x in items:
            if x.id in seen:
                raise GraphError(f"duplicate {what} id {x.id!r}")
            seen.add(x.id)
    return _sorted(by_id)


def _adjacency(ops: Mapping, edges: Iterable[tuple[str, str]]):
    """Each op's successors and predecessors, in the order of `edges`, or
    None when an edge has an end that is not in `ops`."""
    succ: dict[str, list[str]] = {i: [] for i in ops}
    pred: dict[str, list[str]] = {i: [] for i in ops}
    try:
        for (a, b) in edges:
            succ[a].append(b)
            pred[b].append(a)
    except KeyError:
        return None
    return ({i: tuple(v) for i, v in succ.items()},
            {i: tuple(v) for i, v in pred.items()})


def _raise_first_bad_edge(edges: list[DependencyEdge], ops: Mapping):
    """Raise the error of the first edge, in order, with an unknown end or
    a key an earlier edge has."""
    seen = set()
    for e in edges:
        for end in (e.producer, e.consumer):
            if end not in ops:
                raise GraphError(
                    f"edge {e.producer!r}->{e.consumer!r} references "
                    f"unknown operation {end!r}")
        if (e.producer, e.consumer) in seen:
            raise GraphError(f"duplicate edge {e.producer!r}->{e.consumer!r}")
        seen.add((e.producer, e.consumer))


class ComputationGraph:
    """Immutable DAG of operations with dependency edges."""

    def __init__(self, operations: Iterable[Operation],
                 edges: Iterable[DependencyEdge] = (),
                 weights: Iterable[WeightAsset] = ()):
        self._ops = _by_id(operations, "operation")
        self._weights = _by_id(weights, "weight")

        edges = list(edges)
        edge_map = {(e.producer, e.consumer): e for e in edges}
        self._edges = _sorted(edge_map)
        adjacency = _adjacency(self._ops, self._edges)
        if adjacency is None or len(edge_map) != len(edges):
            _raise_first_bad_edge(edges, self._ops)
        self._succ, self._pred = adjacency

        for op in self._ops.values():
            for ref in op.weight_refs:
                if ref not in self._weights:
                    raise GraphError(
                        f"operation {op.id!r} references unknown weight {ref!r}")

        # a merged node's fields, a memory level and the MIP's horizon and
        # memory big-M are sums of these, the last two in the float order
        # the MIP's bytes depend on; past the float range they read inf
        ops = self._ops.values()
        self.time_total = sum(
            (self._weights[ref].load_cost + self._weights[ref].unload_cost
             for op in ops for ref in op.weight_refs),
            self.total_duration() + self.total_comm_duration())
        self.mem_total = (sum(op.weight_mem for op in ops)
                          + sum(abs(op.activation_delta) for op in ops)
                          + sum(w.size for w in self._weights.values()))
        for what, total in (("durations, transfer times and load costs",
                             self.time_total),
                            ("weight memory, activations and weight sizes",
                             self.mem_total)):
            if not math.isfinite(total):
                raise GraphError(f"the graph's {what} sum past the float "
                                 "range")

        # Kahn's algorithm pops the smallest-id op whose predecessors are
        # all placed. When every edge goes from a smaller id to a larger
        # one, the k-th smallest id is ready once the k - 1 smaller ones
        # are placed (its predecessors are among them) and is the
        # smallest unplaced id, so Kahn places the ids in ascending order,
        # and no cycle can close
        if all(starmap(operator.lt, self._edges)):
            self._topo = tuple(self._ops)
        else:
            self._topo = self._compute_topo()

    # -- accessors ---------------------------------------------------------

    @property
    def operations(self) -> Mapping[str, Operation]:
        return self._ops

    @property
    def edges(self) -> Mapping[tuple[str, str], DependencyEdge]:
        return self._edges

    @property
    def weights(self) -> Mapping[str, WeightAsset]:
        return self._weights

    def successors(self, op_id: str) -> tuple[str, ...]:
        return self._succ[op_id]

    def __len__(self) -> int:
        return len(self._ops)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ComputationGraph):
            return NotImplemented
        return (self._ops == other._ops and self._edges == other._edges
                and self._weights == other._weights)

    def total_duration(self) -> float:
        return sum(op.duration for op in self._ops.values())

    def total_comm_duration(self) -> float:
        return sum(e.comm_duration for e in self._edges.values())

    # -- DAG utilities -----------------------------------------------------

    def _compute_topo(self) -> tuple[str, ...]:
        # Kahn's algorithm with an id-sorted frontier for determinism.
        indeg = {i: len(self._pred[i]) for i in self._ops}
        frontier = sorted(i for i, d in indeg.items() if d == 0)
        order: list[str] = []
        heapq.heapify(frontier)
        while frontier:
            i = heapq.heappop(frontier)
            order.append(i)
            for s in self._succ[i]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    heapq.heappush(frontier, s)
        if len(order) != len(self._ops):
            stuck = sorted(i for i, d in indeg.items() if d > 0)
            raise GraphError(f"cycle detected involving {stuck}")
        return tuple(order)

    def topo_order(self) -> tuple[str, ...]:
        """Topological order of operation ids, ties broken by id."""
        return self._topo

    def critical_path_length(self) -> float:
        """Longest path measured in operation durations (comm ignored)."""
        dist: dict[str, float] = {}
        for i in self._topo:
            dist[i] = self._ops[i].duration + max(
                (dist[p] for p in self._pred[i]), default=0)
        return max(dist.values(), default=0)


@dataclass(frozen=True)
class Machine:
    id: str
    memory_capacity: float

    def __post_init__(self):
        _check_number(self.memory_capacity, "memory_capacity", self.id)
        if self.memory_capacity <= 0:
            raise GraphError(
                f"memory_capacity of {self.id!r} must be positive")


@dataclass(frozen=True)
class Channel:
    from_machine: str
    to_machine: str

    @property
    def key(self) -> tuple[str, str]:
        return (self.from_machine, self.to_machine)


class HardwareCluster:
    """Machines plus directed channels; self-channels are implicit.

    Every machine gets an implicit (j, j) channel so dependent operations
    can share a device; transfers over a self-channel take zero time.
    """

    def __init__(self, machines: Iterable[Machine],
                 channels: Iterable[Channel] = ()):
        self._machines = _by_id(machines, "machine")
        if not self._machines:
            raise GraphError("cluster has no machines")

        chans: dict[tuple[str, str], Channel] = {}
        for c in channels:
            for end in c.key:
                if end not in self._machines:
                    raise GraphError(
                        f"channel {c.from_machine!r}->{c.to_machine!r} "
                        f"references unknown machine {end!r}")
            if c.key in chans:
                raise GraphError(
                    f"duplicate channel {c.from_machine!r}->{c.to_machine!r}")
            chans[c.key] = c
        for mid in self._machines:
            chans.setdefault((mid, mid), Channel(mid, mid))
        self._channels = dict(sorted(chans.items()))

    @property
    def machines(self) -> Mapping[str, Machine]:
        return self._machines

    @property
    def channels(self) -> Mapping[tuple[str, str], Channel]:
        return self._channels

    def __eq__(self, other) -> bool:
        if not isinstance(other, HardwareCluster):
            return NotImplemented
        return (self._machines == other._machines
                and self._channels == other._channels)


# -- documents -------------------------------------------------------------


def _check_root(doc: Any, keys: set[str], what: str):
    """Check that `doc` is an object with no key beyond `keys`."""
    if not isinstance(doc, Mapping):
        raise GraphError(f"document root must be an object, got {doc!r}")
    unknown = doc.keys() - keys
    if unknown:
        raise GraphError(f"unknown fields {sorted(unknown)} in {what}: {doc}")


def _entries(doc: Mapping, key: str, what: str, required: tuple[str, ...],
             optional: tuple[str, ...] = ()) -> list[dict]:
    """The objects listed under `key` (none when it is absent), checked
    to have every `required` field and no other field beyond
    `optional`."""
    entries = doc.get(key, [])
    # `dict`, not `Mapping`: an ABC check per entry costs several times more
    if not (isinstance(entries, list)
            and all(map(isinstance, entries, repeat(dict)))):
        raise GraphError(f"{key} must be a list of objects, got {entries!r}")
    need = set(required)
    allowed = need.union(optional)
    # the entries of a document share a few key orders; check each once
    if all(need <= set(order) <= allowed
           for order in set(map(tuple, entries))):
        return entries
    for entry in entries:
        unknown = entry.keys() - allowed
        if unknown:
            raise GraphError(
                f"unknown fields {sorted(unknown)} in {what}: {entry}")
        if not need <= entry.keys():
            raise GraphError(f"{what} missing {'/'.join(required)}: {entry}")
    return entries


def _column(entries: list[dict], key: str, default: Any = None) -> list:
    """Each entry's `key`, or `default` where it is absent; a `default`
    of None reads a required key."""
    if default is None:
        return [e[key] for e in entries]
    return [e.get(key, default) for e in entries]


def _ids(entries: list[dict], key: str) -> list[str]:
    """Each entry's `key` as a string."""
    ids = _column(entries, key)
    return ids if set(map(type, ids)) <= {str} else list(map(str, ids))


def _weight_refs(entry: Mapping) -> tuple[str, ...]:
    refs = entry.get("weight_refs", [])
    if not isinstance(refs, list):
        raise GraphError(f"weight_refs of {entry['id']!r} must be a "
                         f"list, got {refs!r}")
    return tuple(map(str, refs))


def _operations(entries: list[dict]) -> list[Operation]:
    ids = _ids(entries, "id")
    duration = _column(entries, "duration")
    weight_mem = _column(entries, "weight_mem", 0)
    activation = _column(entries, "activation_delta", 0)
    refs = _column(entries, "weight_refs", [])
    # "\0" holds neither '-' nor '>', so no '->' spans two ids
    if (set(map(type, refs)) <= {list} and "->" not in "\0".join(ids)
            and all_finite_numbers(duration)
            and all_finite_numbers(weight_mem)
            and all_finite_numbers(activation, allow_negative=True)):
        # set field by field in field order, as `__init__` sets them,
        # which keeps the compact attribute storage constructed ops share
        new, set_attr = object.__new__, object.__setattr__
        ops = []
        for i, d, w, a, r in zip(ids, duration, weight_mem, activation,
                                 refs):
            op = new(Operation)
            set_attr(op, "id", i)
            set_attr(op, "duration", d)
            set_attr(op, "weight_mem", w)
            set_attr(op, "activation_delta", a)
            set_attr(op, "weight_refs", tuple(map(str, r)) if r else ())
            ops.append(op)
        return ops
    return [Operation(id=str(e["id"]), duration=e["duration"],
                      weight_mem=e.get("weight_mem", 0),
                      activation_delta=e.get("activation_delta", 0),
                      weight_refs=_weight_refs(e))
            for e in entries]


def _edges(entries: list[dict]) -> list[DependencyEdge]:
    producers = _ids(entries, "from")
    consumers = _ids(entries, "to")
    comm = _column(entries, "comm_duration", 0)
    if (not any(map(operator.eq, producers, consumers))
            and all_finite_numbers(comm)):
        new, set_attr = object.__new__, object.__setattr__
        edges = []
        for a, b, c in zip(producers, consumers, comm):
            e = new(DependencyEdge)
            set_attr(e, "producer", a)
            set_attr(e, "consumer", b)
            set_attr(e, "comm_duration", c)
            edges.append(e)
        return edges
    return [DependencyEdge(producer=str(e["from"]), consumer=str(e["to"]),
                           comm_duration=e.get("comm_duration", 0))
            for e in entries]


def load_computation_graph(doc: Mapping) -> ComputationGraph:
    """Validate a parsed graph document and build its graph.

    The operations and the edges are checked by field column: their
    numbers with `all_finite_numbers`, their ids for '->' and self
    edges, the ops' `weight_refs` for lists. A section whose columns all
    pass becomes dataclasses without per-entry checks; a section with a
    failing column is built entry by entry instead, whose checks raise
    the first bad entry's error exactly as a constructor call would. The
    few weights are built by their constructors."""
    _check_root(doc, {"operations", "edges", "weights"}, "graph document")
    ops = _operations(_entries(doc, "operations", "operation",
                               ("id", "duration"),
                               ("weight_mem", "activation_delta",
                                "weight_refs")))
    edges = _edges(_entries(doc, "edges", "edge", ("from", "to"),
                            ("comm_duration",)))
    weights = [WeightAsset(id=str(e["id"]), size=e["size"],
                           load_cost=e.get("load_cost", 0),
                           unload_cost=e.get("unload_cost", 0))
               for e in _entries(doc, "weights", "weight", ("id", "size"),
                                 ("load_cost", "unload_cost"))]
    return ComputationGraph(ops, edges, weights)


def dump_computation_graph(g: ComputationGraph) -> dict:
    """Inverse of :func:`load_computation_graph` (stable key order)."""
    doc: dict[str, Any] = {
        "operations": [
            {
                "id": op.id,
                "duration": op.duration,
                "weight_mem": op.weight_mem,
                "activation_delta": op.activation_delta,
                **({"weight_refs": list(op.weight_refs)} if op.weight_refs else {}),
            }
            for op in g.operations.values()
        ],
        "edges": [
            {"from": e.producer, "to": e.consumer,
             "comm_duration": e.comm_duration}
            for e in g.edges.values()
        ],
    }
    if g.weights:
        doc["weights"] = [
            {"id": w.id, "size": w.size, "load_cost": w.load_cost,
             "unload_cost": w.unload_cost}
            for w in g.weights.values()
        ]
    return doc


def load_cluster(doc: Mapping) -> HardwareCluster:
    """Validate a parsed cluster document and build its cluster."""
    _check_root(doc, {"machines", "channels"}, "cluster document")
    machines = [Machine(id=str(e["id"]), memory_capacity=e["memory_capacity"])
                for e in _entries(doc, "machines", "machine",
                                  ("id", "memory_capacity"))]
    channels = [Channel(from_machine=str(e["from"]), to_machine=str(e["to"]))
                for e in _entries(doc, "channels", "channel", ("from", "to"))]
    return HardwareCluster(machines, channels)


def dump_cluster(h: HardwareCluster) -> dict:
    """Inverse of :func:`load_cluster`; implicit self-channels omitted."""
    return {
        "machines": [
            {"id": m.id, "memory_capacity": m.memory_capacity}
            for m in h.machines.values()
        ],
        "channels": [
            {"from": c.from_machine, "to": c.to_machine}
            for c in h.channels.values()
            if c.from_machine != c.to_machine
        ],
    }
