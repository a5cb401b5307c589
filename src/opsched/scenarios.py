"""Benchmark instance generators.

Two families: bidirectional pipeline-parallel training pipelines
(forward / backward-input / backward-weight ops per micro-batch per
stage on a ring of devices) and seeded random DAGs with bounded
degrees.
"""
from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass

from .graph import (Channel, ComputationGraph, DependencyEdge,
                    HardwareCluster, Machine, Operation, WeightAsset)
from .model import ModelOptions
from .solver import Solution, earliest_starts

DUALPIPE = "dualpipe"
RELAXED = "relaxed"
UNCAPPED = "uncapped"

# DualPipe op durations, ints so graph documents read 1 and not 1.0, and
# the ranges random DAG durations and weight memory are drawn from
_FORWARD = _BACKWARD_INPUT = _BACKWARD_WEIGHT = 1
_BACKWARD = _BACKWARD_INPUT + _BACKWARD_WEIGHT
_DURATION_RANGE = (1, 10)
_MEMORY_RANGE = (0, 4)


@dataclass(frozen=True)
class DualPipeSpec:
    pp: int
    micro_batches: int | None = None  # defaults to 2*pp
    memory_mode: str = DUALPIPE

    def __post_init__(self):
        if self.pp < 2 or self.pp % 2:
            raise ValueError(
                "pp must be even and >= 2 (bidirectional stage pairing)")
        if self.micro_batches is not None and self.micro_batches < 1:
            raise ValueError("micro_batches must be positive")
        if self.memory_mode not in (DUALPIPE, RELAXED, UNCAPPED):
            raise ValueError(f"unknown memory_mode {self.memory_mode!r}")

    @property
    def n_micro_batches(self) -> int:
        return self.micro_batches if self.micro_batches is not None \
            else 2 * self.pp


@dataclass(frozen=True)
class RandomDagSpec:
    nodes: int
    max_in_degree: int = 3
    max_out_degree: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.nodes < 1:
            raise ValueError("nodes must be positive")
        if self.max_in_degree < 1 or self.max_out_degree < 1:
            raise ValueError("degree caps must be >= 1")


def _op_id(kind: str, mb: int, stage: int) -> str:
    return f"{kind}{mb:02d}s{stage:02d}"


def gen_dualpipe(spec: DualPipeSpec
                 ) -> tuple[ComputationGraph, HardwareCluster, ModelOptions]:
    """Pipeline-parallel training instance on a ring of `pp` devices.

    Per micro-batch and stage: a forward op (activation +1), a
    backward-input op, and a backward-weight op (activation -1), chained
    forward down the stages and backward up them. Each stage owns a
    unit-size shared weight asset. Device memory capacity depends on the
    mode: `dualpipe` grants two stage replicas of parameters plus pp+1
    activations, `relaxed` doubles the activation budget, `uncapped`
    disables the memory constraint.
    """
    pp, mb = spec.pp, spec.n_micro_batches
    weights = [WeightAsset(f"w_s{s:02d}", size=1, load_cost=1, unload_cost=1)
               for s in range(pp)]
    ops: list[Operation] = []
    edges: list[DependencyEdge] = []
    for m in range(1, mb + 1):
        for s in range(pp):
            ref = (f"w_s{s:02d}",)
            ops.append(Operation(_op_id("f", m, s), _FORWARD,
                                 activation_delta=1, weight_refs=ref))
            ops.append(Operation(_op_id("bi", m, s), _BACKWARD_INPUT,
                                 weight_refs=ref))
            ops.append(Operation(_op_id("bw", m, s), _BACKWARD_WEIGHT,
                                 activation_delta=-1, weight_refs=ref))
        for s in range(pp - 1):
            edges.append(DependencyEdge(_op_id("f", m, s),
                                        _op_id("f", m, s + 1)))
            edges.append(DependencyEdge(_op_id("bi", m, s + 1),
                                        _op_id("bi", m, s)))
        edges.append(DependencyEdge(_op_id("f", m, pp - 1),
                                    _op_id("bi", m, pp - 1)))
        for s in range(pp):
            edges.append(DependencyEdge(_op_id("bi", m, s),
                                        _op_id("bw", m, s)))
    graph = ComputationGraph(ops, edges, weights)

    if spec.memory_mode == DUALPIPE:
        cap = 2 + (pp + 1)
    elif spec.memory_mode == RELAXED:
        cap = 2 + 2 * (pp + 1)
    else:
        cap = pp + 3 * mb * pp
    machines = [Machine(f"d{d:02d}", cap) for d in range(pp)]
    # each device sends to and receives from both ring neighbours; at
    # pp=2 the two neighbours are one device
    ring = {(d, (d + 1) % pp) for d in range(pp)}
    ring |= {(b, a) for (a, b) in ring}
    cluster = HardwareCluster(
        machines, [Channel(f"d{a:02d}", f"d{b:02d}") for (a, b) in ring])

    options = ModelOptions(memory_capped=spec.memory_mode != UNCAPPED)
    return graph, cluster, options


def _has_order(spec: DualPipeSpec) -> bool:
    """Whether the hand-built bidirectional schedule exists for `spec`."""
    mb = spec.n_micro_batches
    return mb % 2 == 0 and mb >= 2 * spec.pp


def dualpipe_primal_bound(spec: DualPipeSpec) -> float | None:
    """Makespan target of the hand-designed bidirectional schedule:
    per-device busy time plus `dualpipe_bubble_target`. None where that
    schedule does not exist (`dualpipe_order`): no schedule need meet
    the target then, and at pp=2 with one micro-batch none does."""
    if not _has_order(spec):
        return None
    busy = spec.n_micro_batches * (_FORWARD + _BACKWARD)
    return busy + dualpipe_bubble_target(spec)


def dualpipe_bubble_target(spec: DualPipeSpec) -> float:
    """DualPipe's pipeline bubble by the DeepSeek-V3 report's formula
    (arXiv:2412.19437, Table 2), (pp/2 - 1)(F&B + B - 3W).

    The bubble is per device, the makespan minus the device's busy time
    (`VerifyReport.pipeline_bubble`). Ops here never overlap, so
    F&B = F + B and the formula is (pp/2 - 1)(F + 2B - 3W), with B the
    backward-input op plus the backward-weight op.
    """
    return (spec.pp // 2 - 1) * (_FORWARD + 2 * _BACKWARD
                                 - 3 * _BACKWARD_WEIGHT)


def _rank_token_order(pp: int, half_batches: int, rank: int) -> list[tuple]:
    """Per-device token order of the hand-built bidirectional schedule.

    Each device interleaves the two directions in eight phases: extra
    warmup forwards, paired warmup forwards, a zig-zag segment that
    defers weight-gradient work, the steady window with one op of each
    kind, then the mirrored cooldown. Tokens are (kind, direction,
    index) with deferred weight-gradient slots resolved oldest-first.
    """
    half = pp // 2
    hr = min(rank, pp - 1 - rank)
    second = rank >= half
    toks: list[tuple] = []
    f_cnt = [0, 0]
    b_cnt = [0, 0]
    # the (direction, index) of each deferred weight-gradient op, oldest
    # first
    deferred: list[tuple[int, int]] = []

    def fwd(p):
        d = p ^ second
        toks.append(("f", d, f_cnt[d]))
        f_cnt[d] += 1

    def bwd(p, defer=False):
        d = p ^ second
        toks.append(("bi", d, b_cnt[d]))
        if defer:
            deferred.append((d, b_cnt[d]))
        else:
            toks.append(("bw", d, b_cnt[d]))
        b_cnt[d] += 1

    def slot():
        toks.append(("bw", *deferred.pop(0)))

    for _ in range((half - hr - 1) * 2):
        fwd(0)
    for _ in range(hr + 1):
        fwd(0)
        fwd(1)
    for _ in range(half - hr - 1):
        bwd(1, defer=True)
        slot()
        fwd(1)
    for _ in range(half_batches - pp + hr + 1):
        fwd(0)
        bwd(1)
        fwd(1)
        bwd(0)
    for _ in range(half - hr - 1):
        bwd(1)
        fwd(1)
        bwd(0)
    defer = False
    for k in range(hr + 1):
        if k == (hr + 1) // 2 and hr % 2 == 1:
            defer = True
        bwd(1, defer=defer)
        if k == (hr + 1) // 2 and hr % 2 == 0:
            defer = True
        bwd(0, defer=defer)
    for _ in range(half - hr - 1):
        slot()
        bwd(0, defer=True)
    for _ in range(hr + 1):
        slot()
    return toks


def dualpipe_order(spec: DualPipeSpec) -> dict[str, list[str]]:
    """Hand-built bidirectional schedule: per-device operation order.

    Down-flowing micro-batches run stage s on device s, up-flowing ones
    on device pp-1-s, so each device serves one stage of each direction.
    """
    if not _has_order(spec):
        raise ValueError(
            "the bidirectional schedule needs an even micro-batch count "
            "of at least 2*pp")
    pp, half_batches = spec.pp, spec.n_micro_batches // 2
    order = {}
    for rank in range(pp):
        seq = []
        for (kind, d, m) in _rank_token_order(pp, half_batches, rank):
            stage = rank if d == 0 else pp - 1 - rank
            mbid = m + 1 if d == 0 else half_batches + m + 1
            seq.append(_op_id(kind, mbid, stage))
        order[f"d{rank:02d}"] = seq
    return order


def dualpipe_reference(spec: DualPipeSpec):
    """The hand-built bidirectional order (`dualpipe_order`) as a
    Solution, each operation at its earliest start.

    With every op one unit long, its makespan is busy + pp/2 - 1, within
    ``dualpipe_primal_bound(spec)``, and its pipeline bubble is half of
    ``dualpipe_bubble_target(spec)``; it fits the DualPipe memory cap.
    """
    g = gen_dualpipe(spec)[0]
    order = dualpipe_order(spec)
    ops = list(g.operations)
    idx = {i: k for k, i in enumerate(ops)}
    dur = [g.operations[i].duration for i in ops]
    start = earliest_starts(
        dur, [[idx[b] for b in g.successors(i)] for i in ops],
        [[idx[i] for i in seq] for seq in order.values()])
    if start is None:
        raise ValueError("operation order conflicts with dependencies")
    op_times = {i: (start[k], start[k] + dur[k]) for k, i in enumerate(ops)}
    assignment = {i: j for j, seq in order.items() for i in seq}
    comm = {}
    for (a, b) in g.edges:
        j1, j2 = assignment[a], assignment[b]
        if j1 != j2:
            t = op_times[a][1]
            comm[(a, b)] = ((j1, j2), t, t)
    return Solution(status="feasible",
                    objective=max(e for (_s, e) in op_times.values()),
                    assignment=assignment, op_times=op_times,
                    comm_times=comm)


def gen_random_dag(spec: RandomDagSpec) -> ComputationGraph:
    """Seeded random DAG with bounded in/out degrees.

    Nodes are created in index order; each samples up to max_in_degree
    predecessors among earlier nodes that still have spare out-degree.
    Durations and memory are drawn uniformly from `_DURATION_RANGE` and
    `_MEMORY_RANGE`. Identical specs produce identical graphs.
    """
    rng = random.Random(spec.seed)
    width = max(3, len(str(spec.nodes - 1)))
    ids = [f"n{i:0{width}d}" for i in range(spec.nodes)]
    out_deg = [0] * spec.nodes
    # earlier indices with spare out-degree, ascending: the population
    # `rng.sample` draws each node's predecessors from
    spare = []
    ops = []
    edges = []
    for idx, nid in enumerate(ids):
        dur = rng.randint(*_DURATION_RANGE)
        mem = rng.randint(*_MEMORY_RANGE)
        ops.append(Operation(nid, dur, weight_mem=mem))
        if idx:
            k = rng.randint(0, min(spec.max_in_degree, len(spare)))
            for p in sorted(rng.sample(spare, k)):
                out_deg[p] += 1
                if out_deg[p] == spec.max_out_degree:
                    del spare[bisect_left(spare, p)]
                edges.append(DependencyEdge(ids[p], nid))
        spare.append(idx)
    return ComputationGraph(ops, edges)
