"""Built-in exact branch-and-bound scheduler.

Two search modes share the same bounding machinery:

* depth-first dispatching (DFS) — branches on (operation, machine) in
  chronological order, appending induced transfers to their channels.
  Complete (hence exact on exhaustion) whenever all communication
  durations are zero, which covers the pipeline and coarsened-graph
  scenarios; with contended nonzero transfers it is a strong primal
  heuristic. A limit that leaves no idle keeps it to the earliest free
  time, one machine order per start.
* fixed-assignment sequencing — enumerates machine assignments, then
  branches on the dispatch order of operations and nonzero transfers,
  and under dynamic loading on each way to load an op's weights, as the
  DFS does. Complete for any instance, practical at desk scale only.

Lower bounds combine the remaining critical path with an aggregate
machine-load bound; a DFS node lists only the placements whose own end
is within its limit, and checks a placement's own end and the idle it
inserts again before it dispatches the placement. Per-machine memory
feasibility is one recurrence along the machine's operation order
(`_mem_step`); it is monotone under appends, so violations prune
immediately. With static weights, ops of one memory class step a
machine's chain alike, so the DFS remembers each class's step for as
long as the machine's memory state lasts, and skips the ops that do not
fit without retrying them.

Apart from the searches, `list_schedule` is a primal heuristic: a seeded
hill climb over the priority keys and placement of a list-scheduling
pass, for zero-communication, static-loading models. `solve` does not
run it; a caller hands its schedule to `solve` as a hint.
"""
from __future__ import annotations

import itertools
import math
import random
import sys
import time as _time
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, NamedTuple, Sequence

from .graph import is_finite_number
from .model import ScheduleModel

OPTIMAL = "optimal"
FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
TIME_LIMIT = "time-limit"

_EPS = 1e-9

# the fixed-assignment mode runs when machines ** ops is at most this
_ENUMERATION_LIMIT = 100_000

# the second argument of `isinstance`, for `map` over a sequence
_STR = itertools.repeat(str)


@dataclass(frozen=True)
class SolveConfig:
    time_limit: float = 60.0
    node_limit: int | None = None

    def __post_init__(self):
        # a NaN deadline never passes, so such a search could never stop
        if not self.time_limit >= 0:
            raise ValueError(f"time_limit must be >= 0, got "
                             f"{self.time_limit!r}")
        if self.node_limit is not None and self.node_limit < 0:
            raise ValueError(f"node_limit must be >= 0, got "
                             f"{self.node_limit!r}")


@dataclass
class Solution:
    status: str  # optimal | feasible | infeasible | time-limit
    objective: float | None
    assignment: dict[str, str] = field(default_factory=dict)
    op_times: dict[str, tuple[float, float]] = field(default_factory=dict)
    comm_times: dict[tuple[str, str], tuple[tuple[str, str], float, float]] = \
        field(default_factory=dict)
    load_events: list[tuple[str, str, str]] = field(default_factory=list)
    preloads: list[tuple[str, str]] = field(default_factory=list)
    bound: float | None = None
    # what the search did: {"nodes", "stop", "root_bound"}, and
    # "pruned" after the DFS (`_Search.pruned`); set by `solve`, left
    # out of to_dict() and of comparisons
    stats: dict | None = field(default=None, compare=False)

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "objective": self.objective,
            "bound": self.bound,
            "assignment": dict(sorted(self.assignment.items())),
            "op_times": {i: list(t) for i, t in sorted(self.op_times.items())},
            "comm_times": {
                f"{a}->{b}": [list(chan), start, end]
                for (a, b), (chan, start, end)
                in sorted(self.comm_times.items())
            },
            "load_events": [list(ev) for ev in self.load_events],
            "preloads": [list(p) for p in sorted(self.preloads)],
        }

    @classmethod
    def from_dict(cls, doc: Mapping) -> "Solution":
        """Inverse of `to_dict`. A document of another shape, or a time
        that is not a finite number, raises ValueError."""
        def bad(what, value, key=None):
            where = what if key is None else f"{what}[{key!r}]"
            return ValueError(f"malformed solution {where}: {value!r}")

        # these run once per op and transfer, so they format a message
        # only for a bad value
        def strings(value, n, what, key=None):
            if (not isinstance(value, (list, tuple)) or len(value) != n
                    or not all(map(isinstance, value, _STR))):
                raise bad(what, value, key)
            return tuple(value)

        def times(value, what, key):
            if (not isinstance(value, (list, tuple)) or len(value) != 2
                    or not all(map(is_finite_number, value))):
                raise bad(what, value, key)
            return tuple(value)

        def get(key, kind):
            value = doc.get(key, kind())
            if not isinstance(value, kind):
                raise bad(key, value)
            return value

        def number(key):
            value = doc.get(key)
            if value is not None and not is_finite_number(value):
                raise bad(key, value)
            return value

        if not isinstance(doc, Mapping):
            raise bad("document", doc)
        if not isinstance(doc.get("status"), str):
            raise bad("status", doc.get("status"))
        assignment = get("assignment", dict)
        if not all(map(isinstance, itertools.chain(*assignment.items()),
                       _STR)):
            raise bad("assignment", assignment)
        comm = {}
        for key, value in get("comm_times", dict).items():
            ends = key.split("->")
            if len(ends) != 2:
                raise bad("comm_times key", key)
            if not isinstance(value, (list, tuple)) or len(value) != 3:
                raise bad("comm_times", value, key)
            comm[tuple(ends)] = (strings(value[0], 2, "comm_times", key),
                                 *times(value[1:], "comm_times", key))
        load_events = [strings(ev, 3, "load event")
                       for ev in get("load_events", list)]
        for ev in load_events:
            if ev[2] not in ("load", "unload"):
                raise bad("load event", ev)
        return cls(
            status=doc["status"],
            objective=number("objective"),
            assignment=dict(assignment),
            op_times={i: times(t, "op_times", i)
                      for i, t in get("op_times", dict).items()},
            comm_times=comm,
            load_events=load_events,
            preloads=[strings(p, 2, "preload")
                      for p in get("preloads", list)],
            bound=number("bound"),
        )


class SolveError(ValueError):
    pass


# -- instance data ------------------------------------------------------------


class _Instance:
    def __init__(self, model: ScheduleModel):
        g, h = model.graph, model.cluster
        self.model = model
        self.ops: list[str] = list(g.operations)
        self.n = len(self.ops)
        self.idx = {i: k for k, i in enumerate(self.ops)}
        self.dur = [g.operations[i].duration for i in self.ops]
        self.act = [g.operations[i].activation_delta for i in self.ops]
        self.wmem = [g.operations[i].weight_mem for i in self.ops]
        self.refs = [tuple(sorted(set(g.operations[i].weight_refs)))
                     for i in self.ops]
        # index of each op's distinct (weight_mem, activation, weight_refs):
        # ops of one class make the same static memory step (see
        # `_static_step`)
        classes: dict[tuple, int] = {}
        self.mem_class = [classes.setdefault(c, len(classes))
                          for c in zip(self.wmem, self.act, self.refs)]
        self.machines: list[str] = list(h.machines)
        self.nm = len(self.machines)
        self.cap = [h.machines[j].memory_capacity for j in self.machines]
        self.capped = model.options.memory_capped
        # the capacity each memory chain is checked against; None when
        # the model is uncapped
        self.mem_cap = self.cap if self.capped else [None] * self.nm
        self.dynamic = model.options.dynamic_loading
        self.assets = dict(g.weights)
        midx = {j: k for k, j in enumerate(self.machines)}
        # bit b of out_mask[a] is set when machine a can send to machine
        # b; h.channels holds every implicit self-channel (j, j)
        self.out_mask = [0] * self.nm
        for (a, b) in h.channels:
            self.out_mask[midx[a]] |= 1 << midx[b]

        self.preds: list[list[int]] = [[] for _ in range(self.n)]
        self.succs: list[list[int]] = [[] for _ in range(self.n)]
        self.comm: dict[tuple[int, int], float] = {}
        for (a, b), e in g.edges.items():
            ia, ib = self.idx[a], self.idx[b]
            self.preds[ib].append(ia)
            self.succs[ia].append(ib)
            self.comm[ia, ib] = e.comm_duration

        self.zero_comm = all(v == 0 for v in self.comm.values())
        self.total_work = sum(self.dur)
        self.min_dur = min(self.dur, default=0.0)

        order = [self.idx[i] for i in g.topo_order()]
        self.tail = [0.0] * self.n
        for k in reversed(order):
            self.tail[k] = max(
                (self.tail[sx] + self.dur[sx] for sx in self.succs[k]),
                default=0.0)
        # dispatch priority: longest remaining path first
        self.prio = [-(self.dur[k] + self.tail[k]) for k in range(self.n)]

        vals = (self.dur + list(self.comm.values()) + self.cap
                + self.wmem + self.act)
        for a in self.assets.values():
            vals += [a.size, a.load_cost, a.unload_cost]
        self.integral = all(float(v).is_integer() for v in vals)
        # the end of a schedule without idle (see `_candidate_list`)
        self.no_idle_end = (
            self.total_work // self.nm if self.integral and self.zero_comm
            and self.min_dur > 0 and not self.total_work % self.nm
            else None)

    def load_bound(self, committed: float, work_rem: float) -> float:
        total = committed + work_rem
        if self.integral:
            return -(-int(total) // self.nm)
        return total / self.nm

    def root_bound(self) -> float:
        # a longest path starts at a source, so it is some dur + tail
        cp = max((d + t for d, t in zip(self.dur, self.tail)), default=0.0)
        return max(cp, self.load_bound(0.0, self.total_work))


# -- per-machine memory chain --------------------------------------------------

# The memory level on a machine follows the activation prefix sums offset
# by an initial level L that the plan is free to choose; the level before
# each op must cover what is resident there and every level must stay
# within [0, capacity]. A chain is the immutable tuple
#     (need, prefix, min_all, max_prefix)
# with prefix the running activation sum, min_all and max_prefix its
# extremes over all prefix values (including 0), and need the least L
# that covers every requirement so far. The chain fits iff
#     max(need, -min_all) <= capacity - max_prefix
# All four quantities are monotone under appends, so violations prune.

_MEM0 = (0.0, 0.0, 0.0, 0.0)


def _mem_step(mem, lift, resident, act, cap):
    """Append one op to a memory chain; None if it no longer fits `cap`.

    `lift` is memory the op makes resident from time zero, which raises
    every earlier requirement too (static mode: its weight memory plus
    newly referenced assets; dynamic mode: its preloads). `resident` is
    the requirement right before the op (static mode: the machine's
    running static total; dynamic mode: the size of the active set).
    `cap` is None on an uncapped model.
    """
    need, prefix, min_all, max_prefix = mem
    need += lift
    if resident - prefix > need:
        need = resident - prefix
    prefix += act
    if prefix < min_all:
        min_all = prefix
    if prefix > max_prefix:
        max_prefix = prefix
    if cap is not None:
        top = need if need > -min_all else -min_all
        if top > cap - max_prefix + _EPS:
            return None
    return (need, prefix, min_all, max_prefix)


def _static_step(inst, mem, static_w, resident, k, cap):
    """Static mode: op k appended to a machine whose chain is `mem`, whose
    weight total is `static_w` and whose resident assets are `resident`.
    Returns the three updated, or None if the chain no longer fits `cap`.
    It depends on the op only through its memory class (`mem_class`).
    """
    new = [w for w in inst.refs[k] if w not in resident]
    lift = inst.wmem[k] + sum(inst.assets[w].size for w in new)
    static_w += lift
    mem = _mem_step(mem, lift, static_w, inst.act[k], cap)
    if mem is None:
        return None
    return mem, static_w, resident.union(new) if new else resident


# The memory-class memo. In static mode a machine's memory state is its
# chain, weight total and resident assets, and `_static_step` on it
# depends on the op only through the op's memory class. So the DFS, on a
# capped model, fills a memo `_State.memo[m]`: per machine, a dict from
# memory class to that step (None: ops of the class do not fit) for the
# machine's current state. A dispatch on machine m starts an empty dict
# for m's new state, and its undo puts m's state and the old dict back.
# Undo restores exactly, so an entry holds for as long as its dict is
# current: at the later siblings of the node that computed it, and at
# every node below in which m has received nothing. That covers each
# node's own candidates, so a step is computed at most once per
# (machine, class) per node, and usually far less often. An op whose
# class does not fit is passed over before any other work. That changes
# no decision: the search would reject it, and nothing a node reads
# changes between two of its candidates unless a child ran in between,
# after which the node checks whether to stop.

_UNKNOWN = object()  # a memory class not yet in a memo


# -- shared dispatch state ------------------------------------------------------

# The ready set (unplaced ops whose predecessors are all placed) is kept
# by `_dispatch` and `_undo` as two sorted lists:
#     ready      (prio, k)
#     ready_est  (est, prio, k)
# An op's est (the latest end among its predecessors) is final once it
# is ready, since every predecessor is placed, so the entry added when
# it becomes ready is the entry removed when it is dispatched or its
# last predecessor is undone. `_undo` restores both lists exactly,
# entry for entry.


class _State:
    def __init__(self, inst: _Instance):
        n, nm = inst.n, inst.nm
        self.inst = inst
        self.mach_of = [-1] * n
        self.start = [0.0] * n
        self.end = [0.0] * n
        self.free = [0.0] * nm
        self.chan_free: dict[tuple[int, int], float] = {}
        self.mem = [_MEM0] * nm
        # per machine: static weight total (static mode); assets resident
        # (static mode: every one referenced so far); assets ever
        # preloaded or loaded (dynamic mode)
        self.static_w = [0.0] * nm
        self.resident: list[frozenset[str]] = [frozenset()] * nm
        self.ever: list[frozenset[str]] = [frozenset()] * nm
        self.missing_preds = [len(p) for p in inst.preds]
        self.n_done = 0
        self.work_rem = float(inst.total_work)
        self.cur_max_end = 0.0
        # (p, k) -> (from, to, start, end) of each transfer dispatched;
        # None when no transfer takes time, see `_dispatch`
        self.comm_sched: dict[tuple[int, int],
                              tuple[int, int, float, float]] | None = (
            None if inst.zero_comm else {})
        self.load_events: list[tuple[int, str, str]] = []
        self.preloads: list[tuple[str, int]] = []
        self.est = [0.0] * n  # max end over scheduled predecessors
        # per machine: the memory-class memo of its current memory state
        self.memo: list[dict] = [{} for _ in range(nm)]
        self.ready = sorted((inst.prio[k], k) for k in range(n)
                            if not inst.preds[k])
        self.ready_est = [(self.est[k], prio, k) for (prio, k) in self.ready]

    def solution_parts(self):
        inst = self.inst
        assignment = {inst.ops[k]: inst.machines[self.mach_of[k]]
                      for k in range(inst.n)}
        op_times = {inst.ops[k]: (self.start[k], self.end[k])
                    for k in range(inst.n)}
        if self.comm_sched is None:
            # each transfer runs from its producer's machine to its
            # consumer's, at its producer's end: the record `_dispatch`
            # keeps when transfers take time, and `to_dict` sorts them
            machines, mach_of, end = inst.machines, self.mach_of, self.end
            comm_times = {
                (inst.ops[p], inst.ops[k]): (
                    (machines[mach_of[p]], machines[mach_of[k]]),
                    end[p], end[p])
                for (p, k) in inst.comm}
        else:
            comm_times = {}
            for (p, k), (j1, j2, cs, ce) in self.comm_sched.items():
                comm_times[(inst.ops[p], inst.ops[k])] = (
                    (inst.machines[j1], inst.machines[j2]), cs, ce)
        loads = [(inst.ops[k], wid, kind)
                 for (k, wid, kind) in self.load_events]
        preloads = [(inst.machines[j], wid) for (wid, j) in self.preloads]
        return assignment, op_times, comm_times, loads, preloads


def _dispatch(state: _State, k: int, m: int,
              loads: tuple[str, ...] = (), unloads: tuple[str, ...] = (),
              preload: tuple[str, ...] = (), step=None):
    """Place ready op k on machine m at its earliest start; return an
    undo token or None when the placement is infeasible (channel or
    memory), in which case the state is untouched. In static mode `step`
    may carry the `_static_step` result the caller already computed.

    Transfers into k that were already dispatched separately (the
    fixed-assignment mode does this for contended nonzero transfers) are
    respected; the rest are appended to their channels here.

    When no transfer takes time (`state.comm_sched` is None) nothing is
    recorded. A transfer that takes no time never occupies its channel,
    so `chan_free` stays empty and each transfer would be recorded as
    (producer's machine, m, end[p], end[p]). The last of them arrives at
    est[k], the latest end among k's predecessors (0.0 with none), which
    is final once k is ready. So only the channels are checked, and
    `_State.solution_parts` writes the transfers out from the edges.
    """
    inst = state.inst
    extra = 0.0
    static_w = state.static_w[m]
    resident = state.resident[m]
    ever = state.ever[m]
    if inst.dynamic:
        extra = (sum(inst.assets[w].load_cost for w in loads)
                 + sum(inst.assets[w].unload_cost for w in unloads))
        # preloads join the resident set retroactively from time zero
        lift = sum(inst.assets[w].size for w in preload)
        resident = resident.union(preload)
        mem = _mem_step(state.mem[m], lift,
                        sum(inst.assets[w].size for w in resident),
                        inst.act[k], inst.mem_cap[m])
        resident = resident.union(loads).difference(unloads)
        ever = ever.union(preload, loads)
        if mem is None:
            return None
    else:
        if step is None:
            step = _static_step(inst, state.mem[m], static_w, resident, k,
                                inst.mem_cap[m])
            if step is None:
                return None
        mem, static_w, resident = step

    mach_of, out_mask, comm_sched = state.mach_of, inst.out_mask, \
        state.comm_sched
    new_comms = []
    if comm_sched is None:
        for p in inst.preds[k]:
            if not out_mask[mach_of[p]] >> m & 1:
                return None
        arrival = state.est[k]
    else:
        arrival = 0.0
        for p in inst.preds[k]:
            mp = mach_of[p]
            if not out_mask[mp] >> m & 1:
                return None
            key = (p, k)
            if key in comm_sched:
                arrival = max(arrival, comm_sched[key][3])
                continue
            if mp == m:
                cs = ce = state.end[p]
            else:
                cs = max(state.end[p], state.chan_free.get((mp, m), 0.0))
                ce = cs + inst.comm[key]
            if ce > arrival:
                arrival = ce
            new_comms.append((key, (mp, m, cs, ce)))

    start = max(state.free[m], arrival)
    end = start + inst.dur[k] + extra
    succs = inst.succs[k]
    chan_olds = []
    undo = (k, m, state.free[m], state.cur_max_end,
            state.mem[m], state.static_w[m], state.resident[m],
            state.ever[m], state.memo[m], chan_olds, new_comms,
            [state.est[sx] for sx in succs],
            len(state.load_events), len(state.preloads))
    state.mem[m] = mem
    state.static_w[m] = static_w
    state.resident[m] = resident
    state.ever[m] = ever
    state.memo[m] = {}

    for key, comm in new_comms:
        j1, j2, cs, ce = comm
        # instantaneous transfers do not occupy the channel
        if j1 != j2 and ce > cs:
            old = state.chan_free.get((j1, j2))
            chan_olds.append(((j1, j2), old))
            state.chan_free[j1, j2] = max(old or 0.0, ce)
        comm_sched[key] = comm

    prio, est = inst.prio, state.est
    ready, ready_est = state.ready, state.ready_est
    del ready[bisect_left(ready, (prio[k], k))]
    del ready_est[bisect_left(ready_est, (est[k], prio[k], k))]
    state.mach_of[k] = m
    state.start[k] = start
    state.end[k] = end
    state.free[m] = end
    state.cur_max_end = max(state.cur_max_end, end)
    state.n_done += 1
    state.work_rem -= inst.dur[k]
    missing = state.missing_preds
    for sx in succs:
        missing[sx] -= 1
        if end > est[sx]:
            est[sx] = end
        if not missing[sx]:
            insort(ready, (prio[sx], sx))
            insort(ready_est, (est[sx], prio[sx], sx))
    for wid in preload:
        state.preloads.append((wid, m))
    for wid in loads:
        state.load_events.append((k, wid, "load"))
    for wid in unloads:
        state.load_events.append((k, wid, "unload"))
    return undo


def _undo(state: _State, undo: tuple):
    inst = state.inst
    (k, m, free, cur_max_end, mem, static_w, resident, ever, memo,
     chan_olds, new_comms, est_olds, n_loads, n_preloads) = undo
    state.mach_of[k] = -1
    state.free[m] = free
    state.cur_max_end = cur_max_end
    state.mem[m] = mem
    state.static_w[m] = static_w
    state.resident[m] = resident
    state.ever[m] = ever
    state.memo[m] = memo
    state.n_done -= 1
    state.work_rem += inst.dur[k]
    prio, est, missing = inst.prio, state.est, state.missing_preds
    ready, ready_est = state.ready, state.ready_est
    for sx, old in zip(inst.succs[k], est_olds):
        if not missing[sx]:
            del ready[bisect_left(ready, (prio[sx], sx))]
            del ready_est[bisect_left(ready_est, (est[sx], prio[sx], sx))]
        missing[sx] += 1
        est[sx] = old
    insort(ready, (prio[k], k))
    insort(ready_est, (est[k], prio[k], k))
    comm_sched = state.comm_sched
    for key, _ in new_comms:
        del comm_sched[key]
    for chan_key, old in chan_olds:
        if old is None:
            del state.chan_free[chan_key]
        else:
            state.chan_free[chan_key] = old
    del state.load_events[n_loads:]
    del state.preloads[n_preloads:]


# -- search drivers -------------------------------------------------------------


class _Search:
    def __init__(self, model: ScheduleModel, cfg: SolveConfig,
                 hint: Solution | None):
        self.inst = _Instance(model)
        self.cfg = cfg
        self.primal_bound = model.primal_bound
        self.deadline = _time.monotonic() + cfg.time_limit
        self.nodes = 0
        # the budget that ended the search: "node-limit" or "time-limit"
        self.stop: str | None = None
        # the DFS's rejected placements by reason:
        #   bound-before-dispatch  listed pairs whose load bound, or own
        #                          end once the limit fell, is over it
        #   bound-after-dispatch   dispatches whose `_node_bound` is over
        #                          the limit
        #   memory                 listed pairs the machine's memory chain
        #                          does not fit (under dynamic loading,
        #                          each load choice that fails)
        # The pairs a candidate list leaves out (`_candidate_list`) are
        # in none of them.
        self.pruned = {"bound-before-dispatch": 0, "bound-after-dispatch": 0,
                       "memory": 0}
        self.incumbent: Solution | None = None
        self.incumbent_obj: float | None = None
        self.root = self.inst.root_bound()
        pb = -math.inf if self.primal_bound is None else self.primal_bound
        # an incumbent this short meets the root or the primal bound
        self.good_enough = max(self.root, pb) + _EPS

        if hint is not None and hint.objective is not None:
            self.incumbent = replace(hint, status=FEASIBLE)
            self.incumbent_obj = hint.objective

    # pruning threshold: must beat the incumbent and respect the bound
    def limit(self) -> float:
        lim = float("inf")
        if self.incumbent_obj is not None:
            lim = (self.incumbent_obj - 1  # next integer step down
                   if self.inst.integral else self.incumbent_obj - _EPS)
        if self.primal_bound is not None:
            lim = min(lim, self.primal_bound)
        return lim

    def out_of_budget(self) -> bool:
        self.nodes += 1
        if self.cfg.node_limit is not None and self.nodes > self.cfg.node_limit:
            self.stop = "node-limit"
        elif self.nodes % 2048 == 0 and _time.monotonic() > self.deadline:
            self.stop = "time-limit"
        return self.stop is not None

    def should_stop(self) -> bool:
        return self.stop is not None or (self.incumbent_obj is not None
                                  and self.incumbent_obj <= self.good_enough)

    def record_leaf(self, state: _State):
        obj = state.cur_max_end
        if self.incumbent_obj is not None and obj >= self.incumbent_obj - _EPS:
            return
        if self.primal_bound is not None and obj > self.primal_bound + _EPS:
            return
        assignment, op_times, comm_times, loads, preloads = \
            state.solution_parts()
        self.incumbent = Solution(
            status=FEASIBLE, objective=obj, assignment=assignment,
            op_times=op_times, comm_times=comm_times, load_events=loads,
            preloads=preloads)
        self.incumbent_obj = obj

    # ---- the DFS ----

    # A DFS node branches on every usable (op, machine) pair, in the
    # order (lb_start, prio, k, m) with lb_start = max(free[m], est[k]),
    # less the pairs with lb_start < last_start - _EPS, where `last`, the
    # candidate (last_start, prio, k, last_m) that made the node, is
    # (0.0, 0.0, -1, 0) at the root.
    # `_candidate_list` builds that list with plain loops and sorts it
    # once. It leaves out three kinds of pair, each of which `_dfs` would
    # pass over when it reached it, so no decision changes:
    #   - a pair whose op's memory class its machine's memo knows not to
    #     fit: `_dfs` rejects it for memory (a memo only grows while it
    #     is current, see the memory-class memo);
    #   - a pair whose own end lb_start + dur[k] is over `lim`, the
    #     node's limit when the list is built: `_dfs` rejects it before
    #     dispatch, since a child can only lower the limit;
    #   - on machine m, every pair from the first whose lb_start +
    #     min(dur) is over `lim`: lb_start only grows along `ready_est`,
    #     and a float sum only grows with either term, so each such
    #     pair's own end is over `lim` as well.
    # Every child restores free, the ready lists and the predecessors'
    # machines exactly (`_undo`), so the list stays the node's order.
    #
    # A limit leaves no idle when every time is an integer, no transfer
    # takes time, every duration is > 0, the total work is nm * L
    # (`_Instance.no_idle_end`) and floor(lim) == L: a schedule within it
    # runs every machine back to back from 0 to L. The list then leaves
    # out two more kinds of pair, whose subtrees the search need not see:
    #   - machines left behind: a pair that does not start at t =
    #     min(free). It starts later, and starts never decrease along a
    #     path, so the machine free at t idles from t on;
    #   - machine order at equal starts: a pair at last_start on a
    #     machine below last_m. Dispatches at one start on different
    #     machines commute (the argument of `_resume_step`'s comment), so
    #     its schedules are reached with them in machine order.
    #
    # A node with no finite limit yet (no incumbent, no primal bound)
    # could leave nothing out by the bound, and its first child usually
    # sets a limit, since the first descent ends at a leaf. So it takes
    # its first pair from `_first_candidate` and builds the rest only
    # after that child returns, under the limit the child left. For one
    # machine the order is known without a sort: first the ready ops
    # with est <= free[m], in `ready` order, all at lb_start = free[m];
    # then those with est > free[m], in `ready_est` order, at lb_start =
    # est. So the machine's first usable pair in that order is its
    # least, and the least of those over the machines is the first pair
    # of the node's whole list. The rest list holds no pair below it,
    # since it is built from the same state with a memo that has only
    # grown, so the node drops that pair, already tried, from the rest.

    def _candidates(self, state: _State, last: tuple, lim: float):
        """The (lb_start, prio, k, m) dispatches a DFS node made by `last`
        branches on, in order; `lim` is the node's limit on entry."""
        if lim < math.inf:
            yield from self._candidate_list(state, last, lim)
            return
        first = self._first_candidate(state, last[0])
        if first is None:
            return
        yield first
        # resumed after the first child's undo
        rest = self._candidate_list(state, last, self.limit() + _EPS)
        yield from rest[bisect_right(rest, first):]

    def _candidate_list(self, state: _State, last: tuple,
                        lim: float) -> list:
        """The node's (lb_start, prio, k, m) pairs, sorted, less those
        known not to fit, ending over `lim` or ruled out above."""
        inst = self.inst
        threshold = last[0] - _EPS
        dur, min_dur, preds = inst.dur, inst.min_dur, inst.preds
        out_mask, mem_class = inst.out_mask, inst.mem_class
        mach_of, ready_est = state.mach_of, state.ready_est
        machines = enumerate(state.free)
        stop = None  # the pairs come from ready_est[:stop]
        no_idle = inst.no_idle_end
        if no_idle is not None and no_idle <= lim < no_idle + 1:
            # not a comprehension, whose closure cells every call makes
            t = min(state.free)
            stop = bisect_right(ready_est, (t, math.inf))
            frees = state.free[last[3]:] if t == last[0] else state.free
            machines = itertools.compress(
                enumerate(frees, inst.nm - len(frees)), map(t.__eq__, frees))
        cands = []
        for m, free in machines:
            if free + min_dur > lim:
                continue
            memo = state.memo[m]
            bit = 1 << m
            # with free below the threshold, a pair starts at or after it
            # only if its est does
            start = (0 if free >= threshold
                     else bisect_left(ready_est, (threshold,)))
            for (est, prio, k) in itertools.islice(ready_est, start, stop):
                lb_start = est if est > free else free
                if lb_start + min_dur > lim:
                    break
                if lb_start + dur[k] > lim or (
                        memo and memo.get(mem_class[k], _UNKNOWN) is None):
                    continue
                for p in preds[k]:
                    if not out_mask[mach_of[p]] & bit:
                        break
                else:
                    cands.append((lb_start, prio, k, m))
        cands.sort()
        return cands

    def _first_candidate(self, state: _State, last_start: float):
        """The first pair of `_candidate_list` under no limit, or None;
        the least of each machine's first usable pair."""
        inst = self.inst
        threshold = last_start - _EPS
        preds, out_mask, mem_class = inst.preds, inst.out_mask, inst.mem_class
        mach_of, est = state.mach_of, state.est
        ready, ready_est = state.ready, state.ready_est
        best = None
        for m, free in enumerate(state.free):
            if best is not None and free > best[0]:
                continue  # every pair of m starts after the best
            memo = state.memo[m]
            bit = 1 << m
            # ready_est[late:] are the ops with est > free
            late = bisect_left(ready_est, (free, math.inf))
            if free >= threshold:
                early = ((free, prio, k) for (prio, k) in ready
                         if est[k] <= free)
            else:
                # every early pair, and every late one with est <
                # threshold, starts before the previous dispatch
                early = ()
                late = max(late, bisect_left(ready_est, (threshold,)))
            for (lb_start, prio, k) in itertools.chain(
                    early, itertools.islice(ready_est, late, None)):
                if memo and memo.get(mem_class[k], _UNKNOWN) is None:
                    continue
                for p in preds[k]:
                    if not out_mask[mach_of[p]] & bit:
                        break
                else:
                    head = (lb_start, prio, k, m)
                    if best is None or head < best:
                        best = head
                    break
        return best

    def _ext_choices(self, state: _State, k: int, m: int):
        """Load/unload/preload alternatives for dispatching op k on m.

        Weights load only when a dispatched operation requires them.  A
        required weight never resident on the machine before may instead
        count as preloaded (resident since time zero at no time cost);
        unloading any subset of the resident set is offered after the op.
        Cheaper choices (more preloads, no unloads) come first.
        """
        inst = self.inst
        if not inst.dynamic:
            yield ((), (), ())
            return
        resident = state.resident[m]
        needed = tuple(w for w in inst.refs[k] if w not in resident)
        preloadable = tuple(w for w in needed if w not in state.ever[m])
        for r in range(len(preloadable), -1, -1):
            for pre in itertools.combinations(preloadable, r):
                loads = tuple(w for w in needed if w not in pre)
                after = sorted(resident.union(needed))
                for s in range(len(after) + 1):
                    for ul in itertools.combinations(after, s):
                        yield (loads, ul, pre)

    # `_dfs` bounds each candidate (lb_start, k, m) before it dispatches
    # it, and skips it when either of two bounds is over the limit. Each
    # is at most the `_node_bound` after the dispatch, in every mode, so
    # the check prunes only what that bound would prune and the search is
    # the same: `_dispatch` starts k no earlier than lb_start (each
    # transfer into k arrives no earlier than its producer's end) and
    # ends it no earlier than start + dur[k] (loads only add time), so
    #   own end  lb_start + dur[k] <= cur_max_end after the dispatch;
    #   load     the load bound with free[m] raised to that end and dur[k]
    #            taken off work_rem <= the one after the dispatch, since
    #            `load_bound` grows with what is committed.
    # The load term is taken only in integral instances, where every sum
    # of free times is exact in any order; elsewhere `sum(state.free)`
    # after the dispatch may round below the sum the check would use. A
    # bound by k's own tail, lb_start + dur[k] + tail[k], holds too, but
    # `_node_bound` does not imply it (k's successors may not be ready),
    # so it would change the search.

    def _node_bound(self, state: _State) -> float:
        inst = self.inst
        lb = state.cur_max_end
        lb = max(lb, inst.load_bound(sum(state.free), state.work_rem))
        min_free = min(state.free)
        est, dur, tail = state.est, inst.dur, inst.tail
        for _, k in state.ready:
            start = est[k]
            if min_free > start:
                start = min_free
            finish = start + dur[k] + tail[k]
            if finish > lb:
                lb = finish
        return lb

    def _dfs(self, state: _State, last: tuple = (0.0, 0.0, -1, 0)) -> bool:
        if self.out_of_budget():
            return False
        inst = self.inst
        if state.n_done == inst.n:
            self.record_leaf(state)
            return True
        complete = True
        pruned = self.pruned
        # only a capped static model can fail a memory step
        memo_on = inst.capped and not inst.dynamic
        lim = self.limit() + _EPS
        # the bounds before dispatch (see `_node_bound`); every child
        # restores free and work_rem, so these hold at each candidate
        dur, free, work_rem = inst.dur, state.free, state.work_rem
        committed = sum(free) if inst.integral else None
        # canonical dispatch order: every schedule the dispatcher can
        # produce is reachable with nondecreasing start times, so the
        # candidates skip starts before the previous dispatch. A child
        # gets the candidate that made it, which the list holds anyway,
        # so a descent allocates no argument
        for cand in self._candidates(state, last, lim):
            if self.should_stop():
                return False
            lb_start, _, k, m = cand
            end = lb_start + dur[k]
            # the load term cannot exceed an infinite limit
            if end > lim or (committed is not None and lim < math.inf
                             and inst.load_bound(committed - free[m] + end,
                                                 work_rem - dur[k]) > lim):
                pruned["bound-before-dispatch"] += 1
                continue
            step = None
            if memo_on:
                memo = state.memo[m]
                step = memo.get(inst.mem_class[k], _UNKNOWN)
                if step is _UNKNOWN:
                    step = memo[inst.mem_class[k]] = _static_step(
                        inst, state.mem[m], state.static_w[m],
                        state.resident[m], k, inst.mem_cap[m])
                if step is None:
                    pruned["memory"] += 1
                    continue
            for loads, unloads, preload in self._ext_choices(state, k, m):
                undo = _dispatch(state, k, m, loads, unloads, preload, step)
                if undo is None:
                    # the candidates have their channels, so memory failed
                    pruned["memory"] += 1
                    continue
                # any bound is <= an infinite limit, so while there is no
                # incumbent and no primal bound (the first descent of
                # such a search) the check always passes and is skipped
                if lim == math.inf or self._node_bound(state) <= lim:
                    if not self._dfs(state, cand):
                        complete = False
                    # the child may have found a better incumbent
                    lim = self.limit() + _EPS
                else:
                    pruned["bound-after-dispatch"] += 1
                _undo(state, undo)
                if self.should_stop():
                    return False
        return complete and self.stop is None

    # ---- fixed-assignment mode ----

    def run_fixed_assignment(self) -> bool:
        inst = self.inst
        complete = True
        for assign in itertools.product(range(inst.nm), repeat=inst.n):
            if self.should_stop():
                return False
            if not self._assignment_feasible(assign):
                continue
            if not self._seq_dfs(_State(inst), assign):
                complete = False
        return complete and self.stop is None

    def _assignment_feasible(self, assign) -> bool:
        inst = self.inst
        for (p, k) in inst.comm:
            if not inst.out_mask[assign[p]] >> assign[k] & 1:
                return False
        # aggregate load bound per machine
        loads = [0.0] * inst.nm
        for k, m in enumerate(assign):
            loads[m] += inst.dur[k]
        return max(loads) <= self.limit() + _EPS

    def _seq_candidates(self, state: _State, assign):
        inst = self.inst
        cands = []
        # cross-machine transfers are dispatched explicitly and become
        # available the moment their producer finishes, independently of
        # the consumer's other predecessors, so every channel
        # interleaving is reachable
        for (p, k) in inst.comm:
            if assign[p] == assign[k] or (p, k) in state.comm_sched:
                continue
            if state.mach_of[p] < 0:
                continue
            j1, j2 = assign[p], assign[k]
            cs = max(state.end[p], state.chan_free.get((j1, j2), 0.0))
            cands.append((cs, 0, ("comm", p, k)))
        for _, k in state.ready:
            if any(assign[p] != assign[k] and (p, k) not in state.comm_sched
                   for p in inst.preds[k]):
                continue
            m = assign[k]
            arr = max((state.comm_sched[p, k][3]
                       for p in inst.preds[k] if (p, k) in state.comm_sched),
                      default=0.0)
            arr = max(arr, state.est[k])
            lb_start = max(state.free[m], arr)
            cands.append((lb_start, -(inst.dur[k] + inst.tail[k]),
                          ("op", k, m)))
        cands.sort()
        return cands

    def _seq_bound(self, state: _State, assign) -> float:
        inst = self.inst
        lb = state.cur_max_end
        rem = [0.0] * inst.nm
        for k in range(inst.n):
            if state.mach_of[k] < 0:
                rem[assign[k]] += inst.dur[k]
        for m in range(inst.nm):
            lb = max(lb, state.free[m] + rem[m])
        for _, k in state.ready:
            lb = max(lb, max(state.est[k], 0.0) + inst.dur[k]
                     + inst.tail[k])
        return lb

    def _seq_dfs(self, state: _State, assign) -> bool:
        if self.out_of_budget():
            return False
        if state.n_done == self.inst.n:
            self.record_leaf(state)
            return True
        inst = self.inst
        complete = True
        for (_, _, task) in self._seq_candidates(state, assign):
            if self.should_stop():
                return False
            if task[0] == "comm":
                _, p, k = task
                j1, j2 = assign[p], assign[k]
                cs = max(state.end[p], state.chan_free.get((j1, j2), 0.0))
                ce = cs + inst.comm[p, k]
                old = state.chan_free.get((j1, j2))
                state.comm_sched[p, k] = (j1, j2, cs, ce)
                state.chan_free[j1, j2] = ce
                if self._seq_bound(state, assign) <= self.limit() + _EPS:
                    if not self._seq_dfs(state, assign):
                        complete = False
                del state.comm_sched[p, k]
                if old is None:
                    del state.chan_free[j1, j2]
                else:
                    state.chan_free[j1, j2] = old
            else:
                _, k, m = task
                # as in `_dfs`: each way to load the weights k needs
                for ext in self._ext_choices(state, k, m):
                    undo = _dispatch(state, k, m, *ext)
                    if undo is None:
                        continue
                    if self._seq_bound(state, assign) <= self.limit() + _EPS:
                        if not self._seq_dfs(state, assign):
                            complete = False
                    _undo(state, undo)
                    if self.should_stop():
                        return False
            if self.should_stop():
                return False
        return complete and self.stop is None


# -- public API ------------------------------------------------------------------


def solve(model: ScheduleModel, cfg: SolveConfig | None = None, *,
          hint: Solution | None = None) -> Solution:
    """Minimize makespan; exact when the search space can be covered.

    `hint` is a feasible schedule (see `simulate.warm_start`) that the
    search starts from as its incumbent and can then only improve on. A
    hint that already meets the root or the primal bound is returned at
    once, after 0 nodes, with ``stop`` ``bound-met``.

    The result is the search's incumbent as found; `solve` runs no
    post-pass on it.

    The fixed-assignment enumeration runs when some communication
    duration is nonzero and machines ** ops is at most
    `_ENUMERATION_LIMIT`, under static or dynamic weight loading; the
    DFS searches every other instance, under any limit.

    The result's ``status`` is ``optimal`` only when the explored mode is
    complete for the instance (all-zero communication durations, or the
    fixed-assignment enumeration was used) and the search ran to
    exhaustion, or when the incumbent matches a valid relaxation bound.
    """
    search = _Search(model, cfg or SolveConfig(), hint)
    inst = search.inst
    dfs = exhausted = False
    complete_mode = inst.zero_comm
    if search.should_stop():
        pass  # the hint meets the root or the primal bound already
    elif not inst.zero_comm and inst.nm ** inst.n <= _ENUMERATION_LIMIT:
        exhausted = search.run_fixed_assignment()
        complete_mode = True
    else:
        dfs = True
        # `_dfs` recurses once per placed op, on top of the caller's stack;
        # since CPython 3.11 (the oldest Python the package supports) a
        # Python-to-Python call takes no C stack, so depth n is safe
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(limit + inst.n)
        try:
            exhausted = search._dfs(_State(inst))
        finally:
            sys.setrecursionlimit(limit)

    sol = search.incumbent
    root = search.root
    # a search that neither ran out of budget nor explored its whole tree
    # stopped at an incumbent that meets the primal or the root bound
    stop = search.stop or ("exhausted" if exhausted else "bound-met")
    stats = {"nodes": search.nodes, "stop": stop, "root_bound": root}
    if dfs:
        stats["pruned"] = search.pruned
    if sol is None:
        if search.stop is not None:
            status = TIME_LIMIT
        elif exhausted and complete_mode and search.primal_bound is None:
            status = INFEASIBLE
        else:
            # a primal-bound target pruned the tree; absence of a schedule
            # within the target does not prove infeasibility
            status = FEASIBLE
        return Solution(status=status, objective=None, bound=root,
                        stats=stats)

    if (exhausted and complete_mode) or sol.objective <= root + _EPS:
        return replace(sol, status=OPTIMAL, bound=sol.objective, stats=stats)
    status = TIME_LIMIT if search.stop is not None else FEASIBLE
    return replace(sol, status=status, bound=root, stats=stats)


# -- list-scheduling climb -----------------------------------------------------

# A parallel schedule-generation pass (Kolisch, EJOR 1996) turns priority
# keys and a placement (a machine per op) into a schedule; a seeded hill
# climb over random keys (Hartmann, NRL 1998) and placement moves searches
# both. The climb's budget is counted in iterations, so its result does
# not depend on the clock; a deadline is only a backstop.
_CLIMB_SEED = 0
_CLIMB_PATIENCE = 600  # iterations without a better schedule
_CLIMB_ITERATIONS = 5_000
_KEY_SIGMA = 2.0
_KEYS_PER_STEP = 3
_PLACEMENT_EVERY = 5  # every fifth step is a placement move
# above this many machines no permutations are enumerated (8! = 40,320)
_PERMUTED_MACHINES = 8


def _start_placement(inst: _Instance) -> list[int]:
    """A machine per op: each weight asset goes to one machine, in order
    of first reference along the topological order, cycling through the
    machines, and an op runs where the first of its assets by id went.
    An op without weights takes the next machine of the cycle itself."""
    slot = itertools.count()
    home: dict[str, int] = {}
    mach = [0] * inst.n
    for i in inst.model.graph.topo_order():
        k = inst.idx[i]
        for w in inst.refs[k]:
            if w not in home:
                home[w] = next(slot) % inst.nm
        mach[k] = (home[inst.refs[k][0]] if inst.refs[k]
                   else next(slot) % inst.nm)
    return mach


def _machine_automorphisms(inst: _Instance) -> list[tuple[int, ...]]:
    """Every permutation p of the machines but the identity that keeps
    capacities and the channel set: a sends to b iff p[a] sends to p[b].
    Moving every op of a weakly connected component from its machine m to
    p[m] keeps every channel the component's edges use. Empty above
    `_PERMUTED_MACHINES` machines."""
    nm, cap, out = inst.nm, inst.cap, inst.out_mask
    if nm > _PERMUTED_MACHINES:
        return []
    found: list[tuple[int, ...]] = []
    perm: list[int] = []

    def extend():
        a = len(perm)
        if a == nm:
            found.append(tuple(perm))
            return
        for t in range(nm):
            if t in perm or cap[t] != cap[a]:
                continue
            if all(out[a] >> b & 1 == out[t] >> perm[b] & 1
                   and out[b] >> a & 1 == out[perm[b]] >> t & 1
                   for b in range(a)):
                perm.append(t)
                extend()
                perm.pop()

    extend()
    # targets are tried in increasing order, so the identity comes first
    return found[1:]


def _components(inst: _Instance) -> list[list[int]]:
    """The weakly connected components of the graph, as op indices."""
    seen = [False] * inst.n
    comps = []
    for root in range(inst.n):
        if seen[root]:
            continue
        seen[root] = True
        comp, stack = [], [root]
        while stack:
            k = stack.pop()
            comp.append(k)
            for x in itertools.chain(inst.preds[k], inst.succs[k]):
                if not seen[x]:
                    seen[x] = True
                    stack.append(x)
        comps.append(comp)
    return comps


class _StepTable:
    """`_static_step` on interned memory states, remembered across passes.

    A machine's static memory state (chain, weight total, resident
    assets) is an index into `states`; `nxt[m]` maps (state, memory class)
    to the state after the step on machine m, None when it does not fit.
    A step depends on the op only through its class (see `_static_step`),
    so each pair is stepped once per machine for the whole climb."""

    def __init__(self, inst: _Instance):
        self.inst = inst
        self.states = [(_MEM0, 0.0, frozenset())]
        self.ids = {self.states[0]: 0}
        self.nxt: list[dict] = [{} for _ in range(inst.nm)]

    def step(self, m: int, sid: int, k: int) -> int | None:
        inst = self.inst
        new = _static_step(inst, *self.states[sid], k, inst.mem_cap[m])
        if new is not None:
            if new not in self.ids:
                self.ids[new] = len(self.states)
                self.states.append(new)
            new = self.ids[new]
        self.nxt[m][sid, inst.mem_class[k]] = new
        return new


class _Pass(NamedTuple):
    """A completed `_list_pass`: the measures the climb compares, the
    dispatch order, and what `_resume_step` reads. Per op: `start`, `est`
    (the latest end among its predecessors) and `resume`, the number of
    dispatches up to and including the one before it on its machine (0
    for a machine's first op). `on[m]` lists machine m's ops."""
    makespan: float
    bubble: float  # pipeline bubble: makespan minus the least busy time
    idle: float  # summed interior idle
    seq: list[int]
    start: list[float]
    est: list[float]
    resume: list[int]
    on: list[list[int]]


def _list_pass(inst: _Instance, prio: Sequence[float], mach: Sequence[int],
               table: _StepTable, limit: float, prefix: Sequence[int]):
    """One parallel schedule-generation pass: again and again, dispatch
    the ready op with the earliest start on its machine, the lowest
    `prio` (the highest key) first on ties, at its exact earliest start,
    passing over ops whose memory step fails; those are tried again once
    their machine has taken another op. `mach` must obey the channel rule
    of `_dispatch`.

    The pass first dispatches `prefix` as given, choosing nothing: the
    start of an earlier pass's `seq` on this placement that the present
    keys would repeat (`_resume_step`). An empty prefix is a full pass.

    Returns a `_Pass`, or None when no ready op can be placed, or when
    the makespan would exceed `limit`: an op's end plus its critical tail
    does, or a machine's free time plus the work still to come on it."""
    n, nm = inst.n, inst.nm
    dur, tail, succs = inst.dur, inst.tail, inst.succs
    mem_class, capped, nxt = inst.mem_class, inst.capped, table.nxt
    limit += _EPS
    free = [0.0] * nm
    first: list[float | None] = [None] * nm
    busy = [0.0] * nm
    rem = [0.0] * nm  # each machine's work not yet dispatched
    for k in range(n):
        rem[mach[k]] += dur[k]
    if max(rem, default=0.0) > limit:
        return None
    est = [0.0] * n
    start = [0.0] * n
    resume = [0] * n
    on: list[list[int]] = [[] for _ in range(nm)]
    mark = [0] * nm  # dispatches up to and including m's latest
    missing = [len(p) for p in inst.preds]
    sid = [0] * nm  # each machine's memory state in `table`
    ready: list[list[int]] = [[] for _ in range(nm)]
    for k in range(n):
        if not missing[k]:
            ready[mach[k]].append(k)
    # per machine: its next dispatch (start, prio, k, memory state after
    # it), or None
    best: list[tuple | None] = [None] * nm
    dirty = set(range(nm))
    seq: list[int] = []
    replayed = len(prefix)
    for step in range(n):
        if step < replayed:
            k = prefix[step]
            m = mach[k]
            t = est[k] if est[k] > free[m] else free[m]
            if capped:
                # the earlier pass made this step, so the table holds it
                sid[m] = nxt[m][sid[m], mem_class[k]]
        else:
            for m in dirty:
                f, s, steps = free[m], sid[m], nxt[m]
                best[m] = None
                for cand in sorted([(est[k] if est[k] > f else f, prio[k], k)
                                    for k in ready[m]]):
                    if capped:
                        to = steps.get((s, mem_class[cand[2]]), _UNKNOWN)
                        if to is _UNKNOWN:
                            to = table.step(m, s, cand[2])
                        if to is None:
                            continue
                        cand += (to,)
                    best[m] = cand
                    break
            dirty.clear()
            pick = min(filter(None, best), default=None)
            if pick is None:
                return None
            t, k = pick[0], pick[2]
            m = mach[k]
            if capped:
                sid[m] = pick[3]
        end = t + dur[k]
        rem[m] -= dur[k]
        # every op still to come on m starts at `end` or later
        if end + tail[k] > limit or end + rem[m] > limit:
            return None
        if first[m] is None:
            first[m] = t
        free[m] = end
        busy[m] += dur[k]
        start[k] = t
        resume[k] = mark[m]
        ready[m].remove(k)
        dirty.add(m)
        seq.append(k)
        on[m].append(k)
        mark[m] = len(seq)
        for sx in succs[k]:
            missing[sx] -= 1
            if end > est[sx]:
                est[sx] = end
            if not missing[sx]:
                ready[mach[sx]].append(sx)
                dirty.add(mach[sx])
    makespan = max(free, default=0.0)
    idle = sum(free[m] - first[m] - busy[m] for m in range(nm)
               if first[m] is not None)
    return _Pass(makespan, makespan - min(busy, default=0.0), idle, seq,
                 start, est, resume, on)


# Resuming a pass. The climb keeps its accepted pass and, on a key step,
# changes a few keys; a pass reads keys only to break ties between
# candidates that start at the same time, and few such ties matter.
#
# * Only ties on one machine. Every duration is > 0, so the starts along
#   `seq` never decrease, and the machines whose best candidate starts
#   at the earliest time t each dispatch that candidate, in some order:
#   a dispatch on m moves m's next start past t, the ops it makes ready
#   start after t, and memory is per machine, so it leaves every other
#   machine's best candidate as it was. Same-start dispatches on
#   different machines therefore commute, and how a pass orders them
#   changes no start time, nor the schedule `_dispatch` lays out from
#   the best pass's `seq`.
# * Which pairs. When a pass dispatches c on m, its choice depends on
#   c's key only against ready ops j on m whose start ties c's (ops
#   whose memory step fails are passed over in any order): est[j] <=
#   start[c], and j runs later on m, so est[c] <= start[c] < start[j].
#   A changed key of op k can thus alter a decision only if some op j
#   on k's machine has est[k] <= start[j] and est[j] <= start[k] in the
#   accepted pass, and the two keys now compare the other way (the pair
#   flips).
# * Skip. With no flip, every decision is repeated and the schedule is
#   the accepted one, so the step needs no pass (its makespan is the
#   accepted one, and it cannot improve on the best).
# * Resume. A flip can first alter the decision that picked the pair's
#   earlier op a on its machine. Every dispatch before a's on that
#   machine, and every other dispatch before those in `seq`, is one the
#   new keys would make as well, so the pass replays `seq` up to and
#   including the dispatch before a on its machine (`_Pass.resume`) and
#   chooses from there. After a skip the accepted `seq` may interleave
#   machines as the new keys would not, but it is still an order the
#   pass could take under them, which is all the replay needs.
#
# Placement moves and models with a zero duration run full passes.


def _resume_step(run: _Pass, mach: Sequence[int], prio: Sequence[float],
                 old: Mapping[int, float]) -> int | None:
    """How many of `run`'s first dispatches a pass under the keys `prio`
    may replay before it must choose; None when it would repeat all of
    `run`. `run` is the pass accepted before the ops in `old` changed
    their keys, and `old` maps each of them to its key then."""
    start, est, resume, on = run.start, run.est, run.resume, run.on
    step = None
    for k, was in old.items():
        sk, ek, pk = start[k], est[k], prio[k]
        for j in on[mach[k]]:
            if j == k or start[j] < ek or est[j] > sk:
                continue
            pj = prio[j]
            if ((pk, k) < (pj, j)) != ((was, k) < (old.get(j, pj), j)):
                a = k if sk < start[j] else j
                if step is None or resume[a] < step:
                    step = resume[a]
    return step


def list_schedule(model: ScheduleModel, *,
                  deadline: float | None = None) -> Solution | None:
    """A schedule from scratch by a seeded list-scheduling hill climb, or
    None when no pass placed every op (so also when the start placement
    breaks the channel rule, which no placement move repairs).

    Each op starts with the key dur + critical tail and the placement of
    `_start_placement`; `_list_pass` turns keys and placement into a
    schedule. Most steps add Gaussian noise to `_KEYS_PER_STEP` random
    keys; every `_PLACEMENT_EVERY`-th step moves the ops of one weakly
    connected component by a machine permutation that keeps capacities
    and channels (`_machine_automorphisms`). A step is kept when its
    makespan is no worse. A key step skips the pass when its keys leave
    the accepted schedule as it is, or resumes the accepted pass from the
    first decision they can change (`_resume_step`); placement moves, and
    every step of a model with a zero duration, run the pass in full.
    The result is the best schedule seen by (makespan, pipeline bubble,
    summed interior idle), laid out by `_dispatch`, so it has the form a
    search result has.

    The climb stops at the root bound, after `_CLIMB_PATIENCE` iterations
    without a better schedule, after `_CLIMB_ITERATIONS`, or, as a
    backstop, at ``deadline`` (a monotonic-clock timestamp). Its stats
    hold ``iterations``, ``stop``, ``root_bound``, ``passes`` (the steps
    that ``skipped``, ``resumed`` or ran in ``full`` their pass) and
    ``improvements``, the (iteration, makespan, pipeline bubble, summed
    interior idle) of each best schedule in turn, from the first pass at
    iteration 0. The primal bound is not read. Only zero-communication,
    static-loading models: anything else raises SolveError. With every
    pair of machines connected and no memory cap, some pass always places
    every op.
    """
    inst = _Instance(model)
    why = ("it loads weights dynamically" if inst.dynamic
           else "a transfer takes time" if not inst.zero_comm else None)
    if why is not None:
        raise SolveError("list scheduling needs a zero-communication, "
                         f"static-loading model; {why}")
    mach = _start_placement(inst)
    # the channel rule of `_dispatch`: each edge's producer machine sends
    # to its consumer's. A placement move maps an edge's machines (a, b)
    # to (p[a], p[b]), a channel iff (a, b) is one, so every placement
    # the climb reaches obeys the rule iff the start does
    if not all(inst.out_mask[mach[p]] >> mach[k] & 1 for p, k in inst.comm):
        return None
    rng = random.Random(_CLIMB_SEED)
    # the negated keys, the form `_State.ready` sorts by
    prio = list(inst.prio)
    moves = _machine_automorphisms(inst)
    comps = _components(inst)
    table = _StepTable(inst)
    root = inst.root_bound()
    resumable = all(d > 0 for d in inst.dur)
    passes = dict.fromkeys(("skipped", "resumed", "full"), 0)
    cur = _list_pass(inst, prio, mach, table, math.inf, ())
    best = cur and (cur, list(mach))
    improvements = [(0, *cur[:3])] if cur else []
    stale = it = 0
    while True:
        stop = ("bound-met" if best and best[0].makespan <= root + _EPS
                else "patience" if stale >= _CLIMB_PATIENCE
                else "iteration-limit" if it >= _CLIMB_ITERATIONS
                else "time-limit" if (deadline is not None
                                      and _time.monotonic() > deadline)
                else None)
        if stop is not None:
            break
        it += 1
        step = 0
        if moves and it % _PLACEMENT_EVERY == 0:
            comp = comps[rng.randrange(len(comps))]
            perm = moves[rng.randrange(len(moves))]
            changed, undo = mach, [(k, mach[k]) for k in comp]
            for k in comp:
                mach[k] = perm[mach[k]]
        else:
            changed, undo = prio, []
            for _ in range(_KEYS_PER_STEP):
                k = rng.randrange(inst.n)
                undo.append((k, prio[k]))
                prio[k] += rng.gauss(0.0, _KEY_SIGMA)
            if resumable and cur is not None:
                # a key drawn twice keeps its first old value
                step = _resume_step(cur, mach, prio, dict(reversed(undo)))
        if step is None:
            # the accepted schedule again: kept, and no better
            passes["skipped"] += 1
            stale += 1
            continue
        passes["resumed" if step else "full"] += 1
        res = _list_pass(inst, prio, mach, table,
                         math.inf if cur is None else cur.makespan,
                         cur.seq[:step] if step else ())
        if res is None:
            for k, old in reversed(undo):
                changed[k] = old
            stale += 1
            continue
        cur = res
        if best is None or res[:3] < best[0][:3]:
            best = (res, list(mach))
            improvements.append((it, *res[:3]))
            stale = 0
        else:
            stale += 1
    if best is None:
        return None
    run, placed = best
    state = _State(inst)
    for k in run.seq:
        _dispatch(state, k, placed[k])
    assignment, op_times, comm_times, loads, preloads = state.solution_parts()
    obj = state.cur_max_end
    proved = obj <= root + _EPS
    return Solution(status=OPTIMAL if proved else FEASIBLE, objective=obj,
                    assignment=assignment, op_times=op_times,
                    comm_times=comm_times, load_events=loads,
                    preloads=preloads, bound=obj if proved else root,
                    stats={"iterations": it, "stop": stop,
                           "root_bound": root, "passes": passes,
                           "improvements": improvements})


# -- fixed-order evaluation ---------------------------------------------------


def earliest_starts(dur: Sequence[float], succ: Sequence[Sequence[int]],
                    orders: Iterable[Sequence[int]]) -> list[float] | None:
    """Earliest start of every operation when each of `orders` runs in
    sequence: the longest path over durations `dur`, dependency
    successors `succ` and consecutive pairs of every order, all by
    operation index. None when the orders close a cycle."""
    n = len(dur)
    nxt = [list(s) for s in succ]
    for order in orders:
        for a, b in zip(order, order[1:]):
            nxt[a].append(b)
    indeg = [0] * n
    for s in nxt:
        for b in s:
            indeg[b] += 1
    start = [0.0] * n
    ready = [k for k in range(n) if not indeg[k]]
    seen = 0
    while ready:
        k = ready.pop()
        seen += 1
        end = start[k] + dur[k]
        for b in nxt[k]:
            if end > start[b]:
                start[b] = end
            indeg[b] -= 1
            if not indeg[b]:
                ready.append(b)
    return start if seen == n else None


# -- interior-idle refinement -------------------------------------------------

# annealing budget of `refine_idle`: restarts, each of this many moves
_REFINE_RESTARTS = 4
_REFINE_ITERATIONS = 400_000


class _SeqSpace:
    """Shared arrays for evaluating fixed per-machine operation orders."""

    def __init__(self, model: ScheduleModel, sol: Solution):
        g = model.graph
        self.ops = sorted(g.operations)
        self.idx = {o: k for k, o in enumerate(self.ops)}
        self.dur = [g.operations[o].duration for o in self.ops]
        self.act = [g.operations[o].activation_delta for o in self.ops]
        self.dep = [[] for _ in self.ops]
        for (a, b) in sorted(g.edges):
            self.dep[self.idx[a]].append(self.idx[b])
        self.machines = sorted({sol.assignment[i] for i in self.ops})
        self.cap = {j: model.cluster.machines[j].memory_capacity
                    for j in self.machines}
        self.capped = model.options.memory_capped
        # per-machine static memory: op weight memory plus resident
        # shared assets; independent of the op order
        self.static_w = {}
        for j in self.machines:
            mine = [i for i in self.ops if sol.assignment[i] == j]
            assets = {r for i in mine for r in g.operations[i].weight_refs}
            self.static_w[j] = (
                sum(g.operations[i].weight_mem for i in mine)
                + sum(g.weights[r].size for r in assets))

    def evaluate(self, seqs: Mapping[str, list[str]]):
        """(makespan, total interior idle, starts) or None on a cycle."""
        idx = self.idx
        orders = [[idx[i] for i in seq] for seq in seqs.values()]
        e = earliest_starts(self.dur, self.dep, orders)
        if e is None:
            return None
        # right-compaction: keep every sequence, pin each trailing op at
        # its earliest start and push the rest as late as their
        # successors allow; gaps migrate to the machine boundaries where
        # they stop counting as interior idle
        nxt = [-1] * len(e)
        for order in orders:
            for a, b in zip(order, order[1:]):
                nxt[a] = b
        for k in sorted(range(len(e)), key=lambda k: -e[k]):
            lim = e[nxt[k]] if nxt[k] >= 0 else math.inf
            for b in self.dep[k]:
                if e[b] < lim:
                    lim = e[b]
            if lim < math.inf and lim - self.dur[k] > e[k]:
                e[k] = lim - self.dur[k]
        makespan = 0.0
        interior = 0.0
        for order in orders:
            end = e[order[-1]] + self.dur[order[-1]]
            if end > makespan:
                makespan = end
            interior += (end - e[order[0]]) \
                - sum(self.dur[k] for k in order)
        return makespan, interior, e

    def fits_memory(self, seqs: Mapping[str, list[str]],
                    only=None) -> bool:
        """Whether the memory chain of every machine (or of those in
        `only`) fits its capacity."""
        if not self.capped:
            return True
        for j in (only if only is not None else seqs):
            # every weight on the machine is resident from time zero
            mem, total, cap = _MEM0, self.static_w[j], self.cap[j]
            for i in seqs[j]:
                mem = _mem_step(mem, 0.0, total, self.act[self.idx[i]], cap)
                if mem is None:
                    return False
        return True


def _rebuild_refined(sol: Solution, space: _SeqSpace, e) -> Solution:
    starts = {i: e[space.idx[i]] for i in space.ops}
    op_times = {i: (starts[i], starts[i] + space.dur[space.idx[i]])
                for i in space.ops}
    comm = {}
    for key, (chan, _cs, _ce) in sol.comm_times.items():
        t = op_times[key[0]][1]
        comm[key] = (chan, t, t)
    return replace(sol, objective=max(t[1] for t in op_times.values()),
                   op_times=op_times, comm_times=comm)


def refine_idle(model: ScheduleModel, sol: Solution, *,
                deadline: float | None = None) -> Solution:
    """Reduce a schedule's interior idle by reordering machine sequences.

    A post-pass for a search result, which `solve` never runs itself. A
    seeded annealing pass perturbs per-machine operation orders (single
    relocations plus coordinated shifts along dependency chains) without
    touching the assignment or lengthening the schedule; each order is
    laid out right-compacted (`_SeqSpace.evaluate`). It minimizes the
    summed interior idle (`VerifyReport.bubble_total`) and stops at the
    first schedule without any. With ``deadline`` (a monotonic-clock
    timestamp) the pass stops early and keeps the best order found. The
    result keeps the input's status, bound and stats. Only applies to
    schedules whose cross-machine transfers all take zero time and to
    models without dynamic weight loading; anything else is returned
    unchanged.
    """
    if model.options.dynamic_loading or not sol.op_times:
        return sol
    g = model.graph
    for (a, b), edge in g.edges.items():
        if edge.comm_duration and sol.assignment[a] != sol.assignment[b]:
            return sol

    space = _SeqSpace(model, sol)
    base = {}
    for i in sorted(space.ops, key=lambda i: (sol.op_times[i][0], i)):
        base.setdefault(sol.assignment[i], []).append(i)
    cap = sol.objective
    res = space.evaluate(base)
    if res is None or not space.fits_memory(base):
        return sol
    base_T, base_int, base_e = res
    if base_int <= 0:
        return (_rebuild_refined(sol, space, base_e)
                if base_T <= cap + _EPS else sol)

    def cost(T, interior):
        return 1000.0 * max(0.0, T - cap) + interior

    best = None  # (interior, starts)
    devs = sorted(base)
    for round_no in range(_REFINE_RESTARTS):
        rng = random.Random(round_no)
        cur = {j: list(s) for j, s in base.items()}
        T, inte = base_T, base_int
        c = cost(T, inte)
        period = _REFINE_ITERATIONS // 4
        for it in range(_REFINE_ITERATIONS):
            if (deadline is not None and it % 512 == 0
                    and _time.monotonic() > deadline):
                break
            temp = 2.0 * (1.0 - (it % period) / period) + 0.02
            if rng.random() < 0.75:
                j = devs[rng.randrange(len(devs))]
                seq = cur[j]
                n = len(seq)
                if n < 2:
                    continue
                a = (rng.randrange(n // 2, n) if rng.random() < 0.7
                     else rng.randrange(n))
                b = max(0, min(n - 1, a + rng.randint(-10, 10)))
                if a == b:
                    continue
                trial = list(seq)
                trial.insert(b, trial.pop(a))
                undo = {j: seq}
                cur[j] = trial
            else:
                # advance a dependency chain one slot on every machine
                k = rng.randrange(len(space.ops))
                undo = {}
                for _hop in range(6):
                    op = space.ops[k]
                    j = sol.assignment[op]
                    seq = cur[j]
                    pos = seq.index(op)
                    if pos > 0:
                        trial = list(seq)
                        trial.insert(pos - 1, trial.pop(pos))
                        if j not in undo:
                            undo[j] = seq
                        cur[j] = trial
                    if not space.dep[k]:
                        break
                    k = space.dep[k][0]
                if not undo:
                    continue
            r = (space.evaluate(cur)
                 if space.fits_memory(cur, undo) else None)
            if r is None:
                cur.update(undo)
                continue
            nc = cost(r[0], r[1])
            if nc <= c or rng.random() < math.exp(-(nc - c) / temp):
                c = nc
                T, inte = r[0], r[1]
                if T <= cap + _EPS:
                    if inte <= 0:
                        return _rebuild_refined(sol, space, r[2])
                    if best is None or inte < best[0]:
                        best = (inte, r[2])
            else:
                cur.update(undo)
        if deadline is not None and _time.monotonic() > deadline:
            break

    if best is not None and best[0] < base_int:
        return _rebuild_refined(sol, space, best[1])
    return sol
