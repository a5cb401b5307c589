"""Three judges agree on tiny instances: the built-in search, the
exported MIP solved by HiGHS, and the brute-force oracles.

The search and the brute-force oracles read the instance; HiGHS reads
only the constraint store. So a store row that admits a schedule the
instance forbids, or forbids one it admits, shows up as a HiGHS value
that differs from the other two.
"""
import random

import pytest

from opsched.graph import (ComputationGraph, DependencyEdge, HardwareCluster,
                           Machine)
from opsched.model import ModelError, ModelOptions, build_model
from opsched.simulate import verify
from opsched.solver import SolveConfig, solve

from conftest import (brute_force_dynamic_makespan, brute_force_makespan,
                      cluster, edge, graph, highs_makespan, op,
                      random_loading_instance, random_small_instance)

pytest.importorskip("scipy")

# seed 30 is the first whose capped optimum needs the co-location rows:
# without them the MIP threads a memory chain across machines and
# reaches 7 (static) and 5 (three-machine ring) below the true 9 and 7
SEEDS = (*range(12), 30)


def test_highs_runs_a_dynamic_op_whose_weight_mem_exceeds_capacity():
    # no judge counts weight_mem under dynamic loading, so neither may
    # the model's capacity precheck
    model = build_model(graph([op("a", 1, mem=5)]), cluster(1, cap=3),
                        ModelOptions(memory_capped=True,
                                     dynamic_loading=True))
    assert highs_makespan(model) == pytest.approx(1.0)


def _three_machine_ring(h):
    """Three machines of `h`'s capacity on a one-way ring: co-location is
    one choice among three, and a dependent pair cannot sit on every
    pair of machines."""
    cap = next(iter(h.machines.values())).memory_capacity
    return cluster(3, cap=cap,
                   channels=[("m0", "m1"), ("m1", "m2"), ("m2", "m0")])


def _uncapped(h):
    """The cluster with room for everything, for the capped-only
    dynamic-loading oracle."""
    return HardwareCluster([Machine(j, 1e9) for j in h.machines],
                           h.channels.values())


@pytest.mark.parametrize("capped", [False, True], ids=["uncapped", "capped"])
@pytest.mark.parametrize("kind", ["static", "dynamic", "three-machine"])
def test_search_highs_and_enumeration_agree(kind, capped):
    compared = 0
    for seed in SEEDS:
        rng = random.Random(seed)
        dynamic = kind == "dynamic"
        if dynamic:
            g, h = random_loading_instance(rng)
            expect = brute_force_dynamic_makespan(
                g, h if capped else _uncapped(h))
        else:
            g, h, _ = random_small_instance(rng)
            if kind == "three-machine":
                h = _three_machine_ring(h)
            expect = brute_force_makespan(g, h, capped=capped)
        try:
            model = build_model(g, h, ModelOptions(memory_capped=capped,
                                                   dynamic_loading=dynamic))
        except ModelError:
            # some op fits on no machine
            assert expect is None
            continue
        sol = solve(model, SolveConfig(time_limit=30))
        got = highs_makespan(model)
        if expect is None:
            assert (sol.status, got) == ("infeasible", None), seed
        else:
            assert sol.status == "optimal", seed
            assert sol.objective == pytest.approx(expect), seed
            assert got == pytest.approx(expect), seed
        compared += 1
    assert compared >= 10


def test_zero_duration_transfer_waits_for_a_timed_one():
    # the cap of two ops per machine and the one channel m0->m1 leave one
    # placement: a and c on m0, b and d on m1, all four transfers on
    # that channel. a->b takes 3; a->d, c->b and c->d take none.
    # With a at 0 and c at 1, a zero-duration transfer out of c may not
    # sit inside a->b, which holds the channel from 1 to 4, so the best
    # makespan is 6, not 5. The MIP keeps this only through the channel
    # rows of pairs with one timed and one zero-duration transfer.
    g = graph([op(k, 1, mem=1) for k in "abcd"],
              [edge("a", "b", 3), edge("a", "d"), edge("c", "b"),
               edge("c", "d")])
    h = cluster(2, cap=2, channels=[("m0", "m1")])
    model = build_model(g, h, ModelOptions(memory_capped=True))
    sol = solve(model, SolveConfig(time_limit=30))
    assert (sol.status, sol.objective) == ("optimal", 6)
    assert verify(g, h, sol, model.options).feasible
    assert brute_force_makespan(g, h, capped=True) == 6
    assert highs_makespan(model) == pytest.approx(6)


@pytest.mark.parametrize("capped", [False, True], ids=["uncapped", "capped"])
@pytest.mark.parametrize("dynamic", [False, True], ids=["static", "dynamic"])
def test_dynamic_loading_without_weights_is_static_loading(dynamic, capped):
    # with no weight to load, dynamic loading changes nothing. Each
    # transfer out of a takes 3, so a split placement ends at 6 at best:
    # all three ops share a machine and end at 5, where free transfers
    # would give 3
    g = graph([op("a", 1), op("b", 2), op("c", 2)],
              [edge("a", "b", 3), edge("a", "c", 3)])
    h = cluster(2, cap=1)
    options = ModelOptions(memory_capped=capped, dynamic_loading=dynamic)
    model = build_model(g, h, options)
    sol = solve(model, SolveConfig(time_limit=30))
    # the assignment enumeration covers dynamic loading too
    assert sol.status == "optimal"
    assert sol.objective == 5 and verify(g, h, sol, options).feasible
    assert len(set(sol.assignment.values())) == 1
    assert brute_force_makespan(g, h, capped=capped) == 5
    assert highs_makespan(model) == pytest.approx(5)


@pytest.mark.parametrize("capped", [False, True], ids=["uncapped", "capped"])
def test_dynamic_loading_with_timed_transfers(capped):
    # the brute-force loading oracle takes no transfer times, so here two
    # judges agree: the assignment enumeration, which branches on each
    # way to load the weights, and HiGHS
    compared = 0
    for seed in range(40):
        rng = random.Random(1000 + seed)
        g, h = random_loading_instance(rng)
        if len(h.machines) < 2 or not g.edges:
            continue
        g = ComputationGraph(
            g.operations.values(),
            [DependencyEdge(a, b, rng.randint(1, 3)) for (a, b) in g.edges],
            g.weights.values())
        options = ModelOptions(memory_capped=capped, dynamic_loading=True)
        try:
            model = build_model(g, h, options)
        except ModelError:
            continue
        sol = solve(model, SolveConfig(time_limit=30))
        got = highs_makespan(model)
        if got is None:
            assert sol.status == "infeasible", seed
        else:
            assert sol.status == "optimal", seed
            assert sol.objective == pytest.approx(got), seed
            assert verify(g, h, sol, options).feasible, seed
        compared += 1
    assert compared >= 10
