"""Independent discrete-event replay of a schedule.

Rebuilds timing, channel occupancy, and memory trajectories from a
Solution and the original problem data, without reusing any solver
state. Every check lands in the report's violation list, so the report
doubles as a diagnostic for hand-built schedules; only `warm_start` raises.

Memory semantics: each machine's level follows its operations'
activation deltas on top of an initial level chosen as low as the
resident-weight requirements allow; the level before an operation must
cover the weights resident there and can never be negative. With
dynamic loading the resident set is replayed from preloads and
load/unload events; otherwise every weight of every operation assigned
to the machine counts as resident throughout.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .graph import ComputationGraph, HardwareCluster
from .model import ModelOptions, ScheduleModel
from .solver import Solution, SolveError

_EPS = 1e-9


@dataclass
class VerifyReport:
    """The replay's verdict and the schedule's measures.

    ``pipeline_bubble`` is the DeepSeek-V3 report's bubble (arXiv:2412.19437,
    Table 2), the one the DualPipe formula counts: the makespan minus a
    machine's busy time, at its largest over the cluster's machines.
    ``per_device_bubble`` is each machine's summed interior idle, the gaps
    between its first start and last end; ``bubble_total`` sums it.
    """
    feasible: bool
    violations: list[tuple[str, tuple[str, ...], float]]
    makespan: float
    per_device_bubble: dict[str, float] = field(default_factory=dict)
    bubble_total: float = 0.0
    pipeline_bubble: float = 0.0
    channel_busy: dict[tuple[str, str], float] = field(default_factory=dict)


def verify(g: ComputationGraph, h: HardwareCluster, sol: Solution,
           options: ModelOptions) -> VerifyReport:
    """Replay `sol` against the problem and report feasibility and the
    schedule's measures (`VerifyReport`, both bubble definitions).

    `options` are the instance's memory rules: with `dynamic_loading`
    weights are resident only as the solution's preloads and load events
    make them, and without `memory_capped` capacity is not checked.
    """
    assets = g.weights
    capped, dynamic = options.memory_capped, options.dynamic_loading

    bad: list[tuple[str, tuple[str, ...], float]] = []

    def flag(kind: str, ids: tuple[str, ...], time: float):
        bad.append((kind, ids, float(time)))

    for i in sorted({*sol.op_times, *sol.assignment} - g.operations.keys()):
        flag("unknown-op", (i,), 0.0)
    for i in g.operations:
        if i not in sol.op_times or i not in sol.assignment:
            flag("missing-op", (i,), 0.0)
        elif sol.assignment[i] not in h.machines:
            flag("unknown-machine", (i, sol.assignment[i]), 0.0)
    placed = {i for i in g.operations
              if i in sol.op_times and sol.assignment.get(i) in h.machines}

    # loads/unloads attached to each op, and per-machine preload sets
    loads_at: dict[str, list[str]] = {}
    unloads_at: dict[str, list[str]] = {}
    for (op, wid, kind) in sol.load_events:
        if op not in g.operations or wid not in assets:
            flag("unknown-load-event", (op, wid), 0.0)
            continue
        (loads_at if kind == "load" else unloads_at).setdefault(
            op, []).append(wid)
    preloaded: dict[str, set[str]] = {j: set() for j in h.machines}
    for (j, wid) in sol.preloads:
        if j not in h.machines or wid not in assets:
            flag("unknown-preload", (j, wid), 0.0)
            continue
        preloaded[j].add(wid)
    for key in sorted(sol.comm_times.keys() - g.edges.keys()):
        flag("unknown-transfer", key, 0.0)

    # (a) durations
    for i in placed:
        s, e = sol.op_times[i]
        expect = g.operations[i].duration
        if dynamic:
            expect += sum(assets[w].load_cost for w in loads_at.get(i, ()))
            expect += sum(assets[w].unload_cost for w in unloads_at.get(i, ()))
        if abs((e - s) - expect) > _EPS:
            flag("duration-mismatch", (i,), s)

    # (b) machine exclusivity
    by_machine: dict[str, list[str]] = {j: [] for j in h.machines}
    for i in placed:
        by_machine[sol.assignment[i]].append(i)
    for j, ops in by_machine.items():
        # by start, then end: an op of zero duration runs before one that
        # starts at the same time and takes time
        ops.sort(key=lambda i: (*sol.op_times[i], i))
        for a, b in zip(ops, ops[1:]):
            if sol.op_times[b][0] < sol.op_times[a][1] - _EPS:
                flag("machine-overlap", (a, b), sol.op_times[b][0])

    # (c) channel exclusivity: no transfer may start strictly inside
    # another transfer on the same channel (instantaneous ones included)
    by_channel: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for key, (chan, cs, ce) in sol.comm_times.items():
        if chan[0] != chan[1]:
            by_channel.setdefault(tuple(chan), []).append(key)
    for chan, keys in sorted(by_channel.items()):
        keys.sort(key=lambda k: (sol.comm_times[k][1], k))
        for idx, k1 in enumerate(keys):
            _, c1, d1 = sol.comm_times[k1]
            for k2 in keys[idx + 1:]:
                _, c2, d2 = sol.comm_times[k2]
                if c2 >= d1 - _EPS or c1 >= d2 - _EPS:
                    continue
                flag("channel-overlap", k1 + k2, max(c1, c2))

    # (d) dependency and transfer timing
    for (a, b), edge in g.edges.items():
        if a not in placed or b not in placed:
            continue
        ja, jb = sol.assignment[a], sol.assignment[b]
        ea = sol.op_times[a][1]
        sb = sol.op_times[b][0]
        rec = sol.comm_times.get((a, b))
        if rec is None:
            if ja != jb and edge.comm_duration > 0:
                flag("missing-transfer", (a, b), ea)
            elif sb < ea - _EPS:
                flag("dependency-order", (a, b), sb)
            continue
        chan, cs, ce = rec
        if tuple(chan) != (ja, jb):
            flag("wrong-channel", (a, b) + tuple(chan), cs)
        if ja != jb and (ja, jb) not in h.channels:
            flag("no-channel", (a, b, ja, jb), cs)
        min_dur = 0.0 if ja == jb else edge.comm_duration
        if (ce - cs) - min_dur < -_EPS:
            flag("transfer-too-short", (a, b), cs)
        if cs < ea - _EPS:
            flag("transfer-before-producer", (a, b), cs)
        if sb < ce - _EPS:
            flag("consumer-before-transfer", (a, b), sb)

    # (e)+(f) memory and weight presence, per machine chain
    for j, ops in sorted(by_machine.items()):
        cap = h.machines[j].memory_capacity
        baselines: list[float] = []
        if dynamic:
            active = set(preloaded[j])
            for i in ops:
                baselines.append(sum(assets[w].size for w in sorted(active)))
                this_loads = loads_at.get(i, [])
                required = set(g.operations[i].weight_refs)
                if not required <= active | set(this_loads):
                    missing = sorted(required - active - set(this_loads))
                    flag("weight-not-resident", (i, *missing),
                         sol.op_times[i][0])
                for w in this_loads:
                    if w in active:
                        flag("redundant-load", (i, w), sol.op_times[i][0])
                    active.add(w)
                for w in unloads_at.get(i, []):
                    if w not in active:
                        flag("unload-absent", (i, w), sol.op_times[i][1])
                    active.discard(w)
        else:
            resident = 0.0
            seen: set[str] = set()
            for i in ops:
                resident += g.operations[i].weight_mem
                for w in g.operations[i].weight_refs:
                    if w not in seen:
                        seen.add(w)
                        resident += assets[w].size
            baselines = [resident] * len(ops)

        prefix = 0.0
        pres = []
        for i in ops:
            pres.append(prefix)
            prefix += g.operations[i].activation_delta
        all_prefix = [0.0] + [p + g.operations[i].activation_delta
                              for p, i in zip(pres, ops)]
        init = max([b - p for b, p in zip(baselines, pres)]
                   + [-min(all_prefix, default=0.0), 0.0], default=0.0)
        trace = []
        for i, pre in zip(ops, pres):
            s, e = sol.op_times[i]
            trace.append((s, init + pre))
            trace.append((e, init + pre + g.operations[i].activation_delta))
        peak = max((lvl for _, lvl in trace), default=init)
        if capped and peak > cap + _EPS:
            at = next(t for t, lvl in trace if lvl == peak)
            flag("memory-capacity", (j,), at)

    makespan = max((sol.op_times[i][1] for i in placed), default=0.0)
    per_device_bubble: dict[str, float] = {}
    pipeline_bubble = 0.0
    for j, ops in sorted(by_machine.items()):
        busy = sum(sol.op_times[i][1] - sol.op_times[i][0] for i in ops)
        pipeline_bubble = max(pipeline_bubble, makespan - busy)
        if not ops:
            per_device_bubble[j] = 0.0
            continue
        first = min(sol.op_times[i][0] for i in ops)
        last = max(sol.op_times[i][1] for i in ops)
        per_device_bubble[j] = (last - first) - busy
    bubble_total = sum(per_device_bubble.values())

    channel_busy: dict[tuple[str, str], float] = {}
    for (a, b) in sorted(h.channels):
        if a == b:
            continue
        occupied = sum(ce - cs for key in by_channel.get((a, b), [])
                       for (_, cs, ce) in [sol.comm_times[key]])
        channel_busy[(a, b)] = occupied / makespan if makespan > 0 else 0.0

    bad.sort(key=lambda v: (v[2], v[0], v[1]))
    return VerifyReport(
        feasible=not bad,
        violations=bad,
        makespan=makespan,
        per_device_bubble=per_device_bubble,
        bubble_total=bubble_total,
        pipeline_bubble=pipeline_bubble,
        channel_busy=channel_busy,
    )


def warm_start(model: ScheduleModel, hint: Solution) -> Solution:
    """Check that `hint` is feasible for `model` and return it, ready to
    pass to `solve(model, cfg, hint=...)`."""
    report = verify(model.graph, model.cluster, hint, model.options)
    if not report.feasible:
        raise SolveError(
            "warm-start hint is infeasible: "
            + "; ".join(str(v) for v in report.violations[:5]))
    return hint


def expand_schedule(sol: Solution, records, original: ComputationGraph
                    ) -> Solution:
    """Undo coarsening: subdivide each merged interval among its original
    operations, in topological order, proportionally to their durations.

    Transfer times are rebuilt: edges internal to a merged node become
    instantaneous same-machine handoffs, and each cross-machine coarse
    transfer window is packed with its constituent original transfers in
    order. Feasibility is preserved whenever coarsening used edge merges
    only.
    """
    if not records:
        return sol

    topo_index = {i: k for k, i in enumerate(original.topo_order())}
    owner: dict[str, str] = {}
    for rec in records:
        for i in rec.absorbed:
            if i not in original.operations:
                raise ValueError(
                    f"merge record for {rec.new_id!r} names unknown "
                    f"operation {i!r}")
            owner[i] = rec.new_id
    members: dict[str, list[str]] = {}
    for rec in records:
        members[rec.new_id] = sorted(rec.absorbed, key=topo_index.__getitem__)

    assignment: dict[str, str] = {}
    op_times: dict[str, tuple[float, float]] = {}
    for i in original.operations:
        coarse = owner.get(i, i)
        machine = sol.assignment[coarse]
        assignment[i] = machine
        if coarse == i:
            op_times[i] = sol.op_times[i]
    for new_id, part in members.items():
        s, e = sol.op_times[new_id]
        total = sum(original.operations[i].duration for i in part)
        cursor = s
        for idx, i in enumerate(part):
            if total > 0:
                share = (e - s) * original.operations[i].duration / total
            else:
                share = (e - s) / len(part)
            end = e if idx == len(part) - 1 else cursor + share
            op_times[i] = (cursor, end)
            cursor = end

    # group original cross edges under the coarse transfer they rode on
    comm_times: dict[tuple[str, str], tuple[tuple[str, str], float, float]] = {}
    grouped: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for (a, b) in original.edges:
        ca, cb = owner.get(a, a), owner.get(b, b)
        if ca == cb:
            chan = (assignment[a], assignment[b])
            comm_times[(a, b)] = (chan, op_times[a][1], op_times[a][1])
        else:
            grouped.setdefault((ca, cb), []).append((a, b))
    for coarse_key, originals in grouped.items():
        rec = sol.comm_times.get(coarse_key)
        originals.sort(key=lambda ab: (topo_index[ab[0]], topo_index[ab[1]]))
        if rec is None:
            for (a, b) in originals:
                chan = (assignment[a], assignment[b])
                comm_times[(a, b)] = (chan, op_times[a][1], op_times[a][1])
            continue
        chan, cs, ce = rec
        cursor = cs
        for (a, b) in originals:
            dur = original.edges[(a, b)].comm_duration
            if chan[0] == chan[1]:
                comm_times[(a, b)] = (tuple(chan), op_times[a][1],
                                      op_times[a][1])
            else:
                comm_times[(a, b)] = (tuple(chan), cursor, cursor + dur)
                cursor += dur

    loads = []
    for (op, wid, kind) in sol.load_events:
        part = members.get(op)
        if part:
            op = part[0] if kind == "load" else part[-1]
        loads.append((op, wid, kind))

    return Solution(
        status=sol.status,
        objective=sol.objective,
        assignment=assignment,
        op_times=op_times,
        comm_times=comm_times,
        load_events=loads,
        preloads=list(sol.preloads),
        bound=sol.bound,
    )
