"""Graph coarsening: iteratively merge operation pairs under a node budget.

Two kinds of merges are attempted in alternating passes until the node
budget is met or no candidate remains:

* edge merges — an edge (i1, i2) where i2 is i1's only consumer-side
  dependent with a single predecessor and i1 has a single successor;
  such merges never lengthen the critical path;
* non-edge merges — unrelated pairs whose merge cannot form a cycle,
  admitted under half the edge merges' size limits because they may
  lengthen the critical path.

A merged node's duration and weight memory must stay within its kind's
limits, which `_limits` works out from the graph and the budget: the
budget is coarsening's one setting.

Candidate selection ignores single-hop redundant edges so structurally
important edges are not hidden by shortcuts.

`coarsen(g, node_budget)` is the one entry point. All merges act in
place on one contraction state (`_Contraction`): the live operations,
`succ[i] = {child: comm}` and `pred[i] = {parent}` adjacency, the set of
operations each one reaches (a bit mask), the sorted list of live ids,
and what the candidate scans below carry from one merge to the next.
The `ComputationGraph` is built once, at the end.

`_Contraction.merge` checks nothing: `coarsen` hands it two distinct
live operations and an id not yet in use, and neither kind of candidate
can close a cycle. A non-edge pair has no path either way, and an edge
candidate has no path besides its edge (the argument is at
`edge_candidate`). Building the coarse graph still rejects a cycle, so a
broken invariant fails loudly.

An edge pass works out, once, each producer's kept edges (`kept[p]`:
the successors of p that no other successor of p precedes directly) and
how many producers keep an edge into each operation (`n_pred`). kept[p]
reads only succ[p] and the pred sets of p's successors. Merging a and b
into z changes succ only for z and for the producers of a or b (`into`),
and pred only for z and for the consumers of a or b, in which z takes
the place of a or b. A producer p outside `into` has none of a, b and z
among its successors, so that swap leaves each of its successors' pred
set meeting succ[p] where it did. So a merge works out kept again for z
and `into` alone. Most merges are non-edge merges, and keeping the sets
current through them costs more than working them out once per edge
pass, so a non-edge pass drops them.

The non-edge scan rests on one invariant: a pair of live operations that
fails the non-edge test once fails it for as long as both live. A merge
never changes either one's duration or memory, never changes the direct
edges between operations it does not touch, and can only add
reachability between them.

The scan walks `open`, the sorted live ids not yet ruled out, and tests
each id there against every later one. `coarsen` merges the first pair
that passes at once, so no id is scanned twice while it lives: an id
that finds no partner is ruled out and leaves `open` for good, and a
merged node joins it. A ruled-out x fails against every other live
node, merged ones included, for as long as it lives. By induction on
the order of ruling out: the scan that ruled out x had ruled out every
id before x in `open` (it stops at the first pair that passes), which
tested x; it tested x against every id after x there; and an id no
longer in `open` was ruled out earlier. A node merged afterwards is a
union of nodes live then, and a pair that fails with a piece fails with
whatever absorbs it, since paths carry over and sizes, which are
non-negative, only grow.
"""
from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass

from .graph import ComputationGraph, DependencyEdge, Operation


@dataclass(frozen=True)
class MergeRecord:
    """Provenance of one coarse node: the original ids it absorbed."""

    new_id: str
    absorbed: tuple[str, ...]


def _within(oa: Operation, ob: Operation,
            max_duration: float, max_memory: float) -> bool:
    return (oa.duration + ob.duration <= max_duration
            and oa.weight_mem + ob.weight_mem <= max_memory)


class _Contraction:
    """A computation graph under pair contraction, updated in place."""

    def __init__(self, g: ComputationGraph):
        self.weights = g.weights
        self.ops: dict[str, Operation] = dict(g.operations)
        self.order: list[str] = list(g.operations)  # live ids, sorted
        # `0 + comm` turns a -0.0 into 0.0, as the sum on a merged edge
        # does, so every edge of a coarse graph is written the same way
        self.succ: dict[str, dict[str, float]] = {i: {} for i in self.ops}
        self.pred: dict[str, set[str]] = {i: set() for i in self.ops}
        for (a, b), e in g.edges.items():
            self.succ[a][b] = 0 + e.comm_duration
            self.pred[b].add(a)
        # bit[i] is a one-bit mask, reach[i] the mask of all operations
        # reachable from i; a bit is never reused, so a dead operation's
        # bit left in a mask never stands for a live one
        self.bit = {i: 1 << k for k, i in enumerate(self.order)}
        self.next_bit = len(self.order)
        self.reach: dict[str, int] = {}
        for i in reversed(g.topo_order()):
            r = 0
            for s in self.succ[i]:
                r |= self.bit[s] | self.reach[s]
            self.reach[i] = r
        # during an edge pass, kept[a]: a's successors that no other
        # successor of a precedes directly; n_pred[b]: the producers that
        # keep an edge into b. None outside an edge pass.
        self.kept: dict[str, list[str]] | None = None
        self.n_pred: Counter[str] = Counter()
        # the live ids not yet ruled out as non-edge partners, sorted
        self.open: list[str] = list(self.order)

    def __len__(self) -> int:
        return len(self.ops)

    def _keep(self, a: str) -> None:
        """Work out kept[a] afresh and count its edges in n_pred."""
        outs, pred, n_pred = self.succ[a], self.pred, self.n_pred
        # a is not among its own successors, so only another one can
        # precede b
        kept = self.kept[a] = [b for b in outs if pred[b].isdisjoint(outs)]
        for b in kept:
            n_pred[b] += 1

    def _drop_kept(self, a: str) -> None:
        n_pred = self.n_pred
        for b in self.kept.pop(a):
            n_pred[b] -= 1

    # An edge candidate (a, b) cannot close a cycle. Suppose a path of two
    # or more edges ran a -> x -> ... -> b. Then x is a successor of a
    # other than b, so it is not kept: another successor of a is a
    # predecessor of x. Following such predecessors inside succ[a] goes
    # back in topological order, so the chain ends at a kept successor,
    # which can only be b. So b -> ... -> x -> ... -> b would be a cycle.
    def edge_candidate(self, max_duration: float, max_memory: float
                       ) -> tuple[str, str] | None:
        if self.kept is None:
            self.kept, self.n_pred = {}, Counter()
            for a in self.ops:
                self._keep(a)
        kept, n_pred, ops = self.kept, self.n_pred, self.ops
        # a producer with one kept edge has one candidate, so scanning
        # producers in id order visits candidates in edge-key order
        for a in self.order:
            if len(kept[a]) == 1:
                b = kept[a][0]
                if n_pred[b] == 1 and _within(ops[a], ops[b],
                                              max_duration, max_memory):
                    return (a, b)
        return None

    def nonedge_candidate(self, max_duration: float, max_memory: float
                          ) -> tuple[str, str] | None:
        # a non-edge merge ends the edge pass
        self.kept = None
        ops, bit, reach, open_ = self.ops, self.bit, self.reach, self.open
        for k, a in enumerate(open_):
            oa, ra, ba = ops[a], reach[a], bit[a]
            for b in itertools.islice(open_, k + 1, None):
                # an edge either way is a path, so reachability covers it
                if (not (ra & bit[b] or reach[b] & ba)
                        and _within(oa, ops[b], max_duration, max_memory)):
                    # every op before a failed against all its partners
                    del open_[:k]
                    return (a, b)
        open_.clear()
        return None

    def merge(self, a: str, b: str, new_id: str) -> None:
        ops, succ, pred = self.ops, self.succ, self.pred
        oa, ob = ops.pop(a), ops.pop(b)
        ops[new_id] = Operation(
            id=new_id,
            duration=oa.duration + ob.duration,
            weight_mem=oa.weight_mem + ob.weight_mem,
            activation_delta=oa.activation_delta + ob.activation_delta,
            weight_refs=tuple(sorted(set(oa.weight_refs)
                                     | set(ob.weight_refs))),
        )

        # parallel edges sum their comm; with two terms at most, the
        # order of the addition cannot change the value
        out: dict[str, float] = {}
        for x in (a, b):
            for c, w in succ.pop(x).items():
                if c not in (a, b):
                    out[c] = out.get(c, 0) + w
        into: dict[str, float] = {}
        for x in (a, b):
            for p in pred.pop(x):
                if p not in (a, b):
                    into[p] = into.get(p, 0) + succ[p].pop(x)
        for c in out:
            pred[c].discard(a)
            pred[c].discard(b)
            pred[c].add(new_id)
        for p, w in into.items():
            succ[p][new_id] = w
        succ[new_id] = out
        pred[new_id] = set(into)

        # whatever reached a or b now reaches the merged node and beyond
        ab = self.bit.pop(a) | self.bit.pop(b)
        r = self.reach.pop(a) | self.reach.pop(b)
        m = self.bit[new_id] = 1 << self.next_bit
        self.next_bit += 1
        for i, ri in self.reach.items():
            if ri & ab:
                self.reach[i] = ri | m | r
        self.reach[new_id] = r

        if self.kept is not None:
            # only the merged node and its producers can keep other edges
            # now (the argument is in the module docstring)
            for p in (a, b, *into):
                self._drop_kept(p)
            del self.n_pred[a], self.n_pred[b]  # both are 0 now
            for p in (*into, new_id):
                self._keep(p)

        order, open_ = self.order, self.open
        for x in (a, b):
            del order[bisect_left(order, x)]
            k = bisect_left(open_, x)
            if k < len(open_) and open_[k] == x:
                del open_[k]
        order.insert(bisect_left(order, new_id), new_id)
        open_.insert(bisect_left(open_, new_id), new_id)

    def graph(self) -> ComputationGraph:
        edges = [DependencyEdge(p, c, w)
                 for p, outs in self.succ.items() for c, w in outs.items()]
        return ComputationGraph(self.ops.values(), edges,
                                self.weights.values())


def _limits(g: ComputationGraph, node_budget: int
            ) -> tuple[tuple[float, float], tuple[float, float]]:
    """The (duration, memory) limits of an edge merge and of a non-edge
    merge, sized from the graph and the budget.

    Edge merges allow nodes up to twice the mean size; when the budget
    implies larger average nodes the limits scale with 2 * total / budget
    instead. Non-edge merges get half the edge allowance.
    """
    n = max(len(g), 1)
    mean_dur = g.total_duration() / n
    mean_mem = sum(op.weight_mem for op in g.operations.values()) / n
    edge_dur = max(2 * mean_dur, 2 * g.total_duration() / node_budget)
    edge_mem = max(2 * mean_mem, 2 * n * mean_mem / node_budget)
    return (edge_dur, edge_mem), (edge_dur / 2, edge_mem / 2)


def coarsen(g: ComputationGraph, node_budget: int
            ) -> tuple[ComputationGraph, list[MergeRecord]]:
    """Shrink `g` to at most `node_budget` nodes by repeated pair merges.

    Returns the coarse graph and one provenance record per coarse node
    that absorbed anything, with absorbed ids in the original topological
    order. Total duration, weight memory, and activation delta are
    conserved. The limits bound each merge, not the outcome: coarsening
    stops at the fixed point when no pair fits them, so the budget can be
    missed (n=400 random DAGs with budget 80 end at 82 to 91 nodes).
    """
    if node_budget < 1:
        raise ValueError("node_budget must be >= 1")
    edge_limits, nonedge_limits = _limits(g, node_budget)
    topo_index = {i: k for k, i in enumerate(g.topo_order())}
    origin: dict[str, list[str]] = {}
    counter = 0
    cur = _Contraction(g)

    def fresh_id() -> str:
        nonlocal counter
        while True:
            counter += 1
            cand = f"m{counter:03d}"
            if cand not in cur.ops and cand not in g.operations:
                return cand

    while len(cur) > node_budget:
        merged_any = False
        for find, limits in ((cur.edge_candidate, edge_limits),
                             (cur.nonedge_candidate, nonedge_limits)):
            while len(cur) > node_budget:
                pair = find(*limits)
                if pair is None:
                    break
                a, b = pair
                new_id = fresh_id()
                cur.merge(a, b, new_id)
                origin[new_id] = origin.pop(a, [a]) + origin.pop(b, [b])
                merged_any = True
        if not merged_any:
            break

    records = [
        MergeRecord(new_id=i,
                    absorbed=tuple(sorted(parts, key=topo_index.__getitem__)))
        for i, parts in sorted(origin.items())
    ]
    return (cur.graph() if origin else g), records
