"""Shared helpers: tiny instance builders and exhaustive scheduling oracles.

The makespan oracles deliberately share no code with the solver: they
enumerate assignments, per-machine operation orders, and per-channel
transfer orders outright, evaluate each combination by longest-path
earliest starts, and keep the best makespan. They exist to pin down
ground truth for small instances. The MIP oracle hands the model's
constraint store to HiGHS, so it judges the exported model rather than
the search. The search oracles at the end are earlier forms of the
solver's own search steps, kept to check that a faster form makes the
same decisions, and `kahn_order` is the graph's topological order
computed the slow way.
"""
from __future__ import annotations

import itertools
import json
import math

from opsched.graph import (Channel, ComputationGraph, DependencyEdge,
                           HardwareCluster, Machine, Operation, WeightAsset)
from opsched.model import BINARY

_CYCLE_GUARD = object()


# -- tiny builders -----------------------------------------------------------


def op(oid, dur=1, mem=0, act=0, refs=()):
    return Operation(oid, dur, weight_mem=mem, activation_delta=act,
                     weight_refs=tuple(refs))


def edge(a, b, comm=0):
    return DependencyEdge(a, b, comm_duration=comm)


def graph(ops, edges=(), weights=()):
    return ComputationGraph(ops, edges, weights)


def cluster(n=2, cap=100.0, channels="full"):
    machines = [Machine(f"m{k}", cap) for k in range(n)]
    if channels == "full":
        chans = [Channel(a.id, b.id) for a in machines for b in machines
                 if a.id != b.id]
    else:
        chans = [Channel(a, b) for (a, b) in channels]
    return HardwareCluster(machines, chans)


def solution_text(sol):
    """A solution as indented JSON text, the form the golden digests hash."""
    return json.dumps(sol.to_dict(), indent=2) + "\n"


# -- exhaustive makespan oracle (static memory) ------------------------------


def _reach(g):
    reach = {}
    for i in reversed(g.topo_order()):
        r = set()
        for s in g.successors(i):
            r.add(s)
            r |= reach[s]
        reach[i] = r
    return reach


def _orders(members, reach):
    """All permutations of `members` consistent with the precedence."""
    out = []
    for perm in itertools.permutations(members):
        ok = True
        for x in range(len(perm)):
            for y in range(x + 1, len(perm)):
                if perm[x] in reach[perm[y]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(perm)
    return out


def _static_memory_ok(g, h, seq_of):
    for j, seq in seq_of.items():
        cap = h.machines[j].memory_capacity
        resident = sum(g.operations[i].weight_mem for i in seq)
        resident += sum(g.weights[w].size
                        for w in {r for i in seq
                                  for r in g.operations[i].weight_refs})
        prefix = min_pre = min_all = max_pre = 0.0
        for i in seq:
            min_pre = min(min_pre, prefix)
            prefix += g.operations[i].activation_delta
            min_all = min(min_all, prefix)
            max_pre = max(max_pre, prefix)
        init = max(resident - min_pre, -min_all, 0.0)
        if init + max_pre > cap + 1e-9:
            return False
    return True


def _asap_makespan(g, amap, seq_of, chan_orders, extra=None):
    """Longest-path earliest schedule under fixed orders, or None on a
    cross-resource ordering cycle. `extra` maps op -> added duration."""
    dur = {i: g.operations[i].duration + (extra or {}).get(i, 0.0)
           for i in g.operations}
    start = {i: 0.0 for i in g.operations}
    tstart = {key: 0.0 for key in chan_orders}

    def tdur(key):
        return g.edges[key].comm_duration

    transfers = set(chan_orders)
    nodes = len(start) + len(tstart)
    for _ in range(nodes + 2):
        changed = False

        def lift(d, k, v):
            nonlocal changed
            if v > d[k] + 1e-12:
                d[k] = v
                changed = True

        for (a, b), e in g.edges.items():
            if (a, b) in transfers:
                lift(tstart, (a, b), start[a] + dur[a])
                lift(start, b, tstart[(a, b)] + tdur((a, b)))
            else:
                lift(start, b, start[a] + dur[a])
        for seq in seq_of.values():
            for a, b in zip(seq, seq[1:]):
                lift(start, b, start[a] + dur[a])
        for key, prev in chan_orders.items():
            if prev is not None:
                lift(tstart, key, tstart[prev] + tdur(prev))
        if not changed:
            return max((start[i] + dur[i] for i in start), default=0.0)
    return None  # cyclic combination of orders


def _channel_order_choices(g, amap):
    """Per-channel transfer sequences -> iterable of {transfer: predecessor}.

    Every cross-machine transfer is ordered, zero-duration ones too: a
    transfer that takes no time is a point on its channel, and a point
    may not sit inside a timed transfer on the same channel."""
    by_chan = {}
    for (a, b) in g.edges:
        if amap[a] != amap[b]:
            by_chan.setdefault((amap[a], amap[b]), []).append((a, b))
    pools = [itertools.permutations(ts) for ts in by_chan.values()]
    for combo in itertools.product(*pools):
        prev = {}
        for seq in combo:
            last = None
            for key in seq:
                prev[key] = last
                last = key
        yield prev


def brute_force_makespan(g, h, capped=True):
    """Exact minimum makespan by exhaustive enumeration, or None if no
    feasible schedule exists. Static (always-resident) weight memory."""
    ops = list(g.operations)
    machines = list(h.machines)
    reach = _reach(g)
    best = None
    for assign in itertools.product(machines, repeat=len(ops)):
        amap = dict(zip(ops, assign))
        if any((amap[a], amap[b]) not in h.channels for (a, b) in g.edges):
            continue
        per = {j: [i for i in ops if amap[i] == j] for j in machines}
        order_pools = [_orders(per[j], reach) for j in machines]
        for orders in itertools.product(*order_pools):
            seq_of = dict(zip(machines, orders))
            if capped and not _static_memory_ok(g, h, seq_of):
                continue
            for chan_orders in _channel_order_choices(g, amap):
                t = _asap_makespan(g, amap, seq_of, chan_orders)
                if t is not None and (best is None or t < best - 1e-9):
                    best = t
    return best


# -- exhaustive makespan oracle (dynamic weight loading) ---------------------


def _residency_plans(g, seq):
    """All undominated residency plans for one machine sequence.

    Yields (extra-duration map, resident-size-before-op tuple). A plan
    fixes the preloaded set and each operation's unloads; loads are taken
    exactly when a required weight is not resident, since an earlier or
    redundant load only costs time and memory."""
    used = sorted({r for i in seq for r in g.operations[i].weight_refs})
    sizes = {w: g.weights[w].size for w in used}
    loadc = {w: g.weights[w].load_cost for w in used}
    unloadc = {w: g.weights[w].unload_cost for w in used}

    def subsets(items):
        for r in range(len(items) + 1):
            yield from itertools.combinations(items, r)

    for s0 in subsets(used):
        stack = [(0, frozenset(s0), {}, ())]
        while stack:
            pos, resident, extras, trace = stack.pop()
            if pos == len(seq):
                yield extras, trace
                continue
            i = seq[pos]
            refs = set(g.operations[i].weight_refs)
            loads = refs - resident
            here = sum(sizes[w] for w in resident)
            after_loads = frozenset(resident | loads)
            base_extra = sum(loadc[w] for w in loads)
            unload_pool = (sorted(after_loads)
                           if pos < len(seq) - 1 else [])
            for ul in subsets(unload_pool):
                extras2 = dict(extras)
                extras2[i] = base_extra + sum(unloadc[w] for w in ul)
                stack.append((pos + 1, frozenset(after_loads - set(ul)),
                              extras2, trace + (here,)))


def brute_force_dynamic_makespan(g, h):
    """Exact minimum makespan with dynamic weight loading (zero-duration
    communication only), or None when no plan fits the memory caps."""
    assert all(e.comm_duration == 0 for e in g.edges.values())
    ops = list(g.operations)
    machines = list(h.machines)
    reach = _reach(g)
    best = None
    for assign in itertools.product(machines, repeat=len(ops)):
        amap = dict(zip(ops, assign))
        if any((amap[a], amap[b]) not in h.channels for (a, b) in g.edges):
            continue
        per = {j: [i for i in ops if amap[i] == j] for j in machines}
        order_pools = [_orders(per[j], reach) for j in machines]
        for orders in itertools.product(*order_pools):
            seq_of = dict(zip(machines, orders))
            plan_pools = [list(_residency_plans(g, seq_of[j]))
                          for j in machines]
            for plans in itertools.product(*plan_pools):
                plan_of = dict(zip(machines, plans))
                ok = True
                for j in machines:
                    capj = h.machines[j].memory_capacity
                    extras, trace = plan_of[j]
                    prefix = min_all = max_pre = 0.0
                    needs = []
                    for pos, i in enumerate(seq_of[j]):
                        needs.append(trace[pos] - prefix)
                        prefix += g.operations[i].activation_delta
                        min_all = min(min_all, prefix)
                        max_pre = max(max_pre, prefix)
                    init = max([0.0, -min_all] + needs)
                    if init + max_pre > capj + 1e-9:
                        ok = False
                        break
                if not ok:
                    continue
                extra = {}
                for j in machines:
                    extra.update(plan_of[j][0])
                t = _asap_makespan(g, amap, seq_of, {}, extra=extra)
                if t is not None and (best is None or t < best - 1e-9):
                    best = t
    return best


# -- MIP oracle: the constraint store solved by HiGHS ------------------------


def highs_makespan(model, time_limit=30.0):
    """Minimum objective of the model's constraint store, or None if it
    has no feasible point.

    The store goes to HiGHS through `scipy.optimize.milp` as the MPS
    export states it: the store's merged rows as they are held, every
    variable non-negative, and every binary one an integer at most 1.
    Callers guard it with ``pytest.importorskip("scipy")``.
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_array

    store = model.store
    refs = list(store.variables.values())
    ends = np.array(store.ends, dtype=np.int64)
    rows = np.repeat(np.arange(len(ends)), np.diff(ends, prepend=0))
    rhs = np.array(store.rhs, dtype=float)
    senses = np.array(store.senses)
    lo = np.where(senses == "<=", -np.inf, rhs)
    hi = np.where(senses == ">=", np.inf, rhs)
    matrix = coo_array((np.array(store.coefs), (rows, np.array(store.cols))),
                       shape=(len(ends), len(refs))).tocsr()
    binary = np.array([ref.domain == BINARY for ref in refs])
    cost = np.zeros(len(refs))
    cost[store.column(model.objective)] = 1.0
    res = milp(cost, constraints=LinearConstraint(matrix, lo, hi),
               integrality=binary,
               bounds=Bounds(0, np.where(binary, 1.0, np.inf)),
               options={"time_limit": time_limit, "mip_rel_gap": 0})
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return res.fun


# -- random instance generators for oracle comparisons -----------------------


def random_small_instance(rng):
    """Tiny static-memory instance for oracle comparison."""
    n = rng.randint(1, 5)
    nm = rng.randint(1, 2)
    use_weight = rng.random() < 0.3
    weights = [WeightAsset("wa", size=rng.randint(1, 2))] if use_weight else []
    ops = []
    for k in range(n):
        refs = ("wa",) if use_weight and rng.random() < 0.5 else ()
        ops.append(Operation(
            f"o{k}", rng.randint(1, 4),
            weight_mem=rng.choice([0, 0, 1, 2]),
            activation_delta=rng.choice([-1, 0, 0, 1, 2]),
            weight_refs=refs))
    edges = []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.4:
                edges.append(DependencyEdge(
                    f"o{a}", f"o{b}",
                    comm_duration=rng.choice([0, 0, 1, 2])))
    g = ComputationGraph(ops, edges, weights)

    cap = rng.randint(2, 9)
    machines = [Machine(f"m{k}", cap) for k in range(nm)]
    chans = []
    if nm == 2:
        chans.append(Channel("m0", "m1"))
        if rng.random() < 0.75:
            chans.append(Channel("m1", "m0"))
    h = HardwareCluster(machines, chans)
    capped = rng.random() < 0.6
    return g, h, capped


def random_loading_instance(rng):
    """Tiny dynamic-loading instance for oracle comparison."""
    n = rng.randint(2, 3)
    nw = rng.randint(1, 2)
    nm = rng.randint(1, 2)
    weights = [WeightAsset(f"w{k}", size=rng.randint(1, 2),
                           load_cost=rng.randint(0, 2),
                           unload_cost=rng.randint(0, 2))
               for k in range(nw)]
    ops = []
    for k in range(n):
        refs = tuple(w.id for w in weights if rng.random() < 0.6)
        ops.append(Operation(f"o{k}", rng.randint(1, 3),
                             activation_delta=rng.choice([-1, 0, 0, 1]),
                             weight_refs=refs))
    edges = []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.5:
                edges.append(DependencyEdge(f"o{a}", f"o{b}"))
    g = ComputationGraph(ops, edges, weights)
    cap = rng.randint(2, 6)
    machines = [Machine(f"m{k}", cap) for k in range(nm)]
    chans = []
    if nm == 2:
        chans.append(Channel("m0", "m1"))
        chans.append(Channel("m1", "m0"))
    h = HardwareCluster(machines, chans)
    return g, h


# -- topological-order oracle ------------------------------------------------


def kahn_order(g):
    """Kahn's algorithm as a plain scan: place the smallest id whose
    predecessors are all placed, until none is left. None when a cycle
    leaves ops unplaced."""
    preds = {i: set() for i in g.operations}
    for (a, b) in g.edges:
        preds[b].add(a)
    placed, order = set(), []
    while len(order) < len(preds):
        ready = [i for i in preds if i not in placed and preds[i] <= placed]
        if not ready:
            return None
        order.append(min(ready))
        placed.add(order[-1])
    return tuple(order)


# -- DFS candidate-order oracle ----------------------------------------------


def candidate_order_oracle(search, state, last, lim=math.inf, eps=1e-9):
    """The dispatches a DFS node of `search` branches on, in order.

    Lists every usable (operation, machine) pair of the node, sorts the
    (lb_start, prio, k, m) keys in full and drops the starts before
    `last_start - eps`, where `last` is the (last_start, ..., last_m)
    dispatch that made the node: the solver's candidate order before it
    was generated lazily. When `lim` leaves no idle (an integral
    instance with no timed transfer and no zero duration, whose total
    work is the machine count times floor(lim)), it keeps only the pairs
    at the earliest free time, on machines free then, and at last_start
    only those on a machine numbered last_m or above. It reads the
    channels straight from the cluster.
    """
    inst = search.inst
    last_start, last_m = last[0], last[-1]
    midx = {j: m for m, j in enumerate(inst.machines)}
    chan = {(midx[a], midx[b]) for (a, b) in inst.model.cluster.channels}
    eligible = [k for k in range(inst.n)
                if state.mach_of[k] < 0 and state.missing_preds[k] == 0]
    cands = []
    for k in eligible:
        for m in range(inst.nm):
            if any((state.mach_of[p], m) not in chan
                   for p in inst.preds[k]):
                continue
            lb_start = max(state.free[m], state.est[k])
            cands.append((lb_start, -(inst.dur[k] + inst.tail[k]), k, m))
    cands.sort()
    cands = [c for c in cands if not c[0] < last_start - eps]
    if (inst.integral and lim < math.inf and all(d > 0 for d in inst.dur)
            and not any(inst.comm.values())
            and inst.nm * math.floor(lim) == sum(inst.dur)):
        t = min(state.free)
        cands = [c for c in cands if c[0] == t
                 and not (t == last_start and c[3] < last_m)]
    return cands


def ready_recount(state):
    """Both ready lists of a DFS state, recounted from scratch."""
    inst = state.inst
    ready = [k for k in range(inst.n)
             if state.mach_of[k] < 0 and state.missing_preds[k] == 0]
    prio = {k: -(inst.dur[k] + inst.tail[k]) for k in ready}
    return (sorted((prio[k], k) for k in ready),
            sorted((state.est[k], prio[k], k) for k in ready))
