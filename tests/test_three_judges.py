"""Three judges agree on tiny instances: the built-in search, the
exported MIP solved by HiGHS, and the brute-force oracles.

The search and the brute-force oracles read the instance; HiGHS reads
only the constraint store. So a store row that admits a schedule the
instance forbids, or forbids one it admits, shows up as a HiGHS value
that differs from the other two.
"""
import random

import pytest

from opsched.graph import HardwareCluster, Machine
from opsched.model import ModelError, ModelOptions, build_model
from opsched.solver import SolveConfig, solve

from conftest import (brute_force_dynamic_makespan, brute_force_makespan,
                      cluster, highs_makespan, random_loading_instance,
                      random_small_instance)

pytest.importorskip("scipy")

# seed 30 is the first whose capped optimum needs the co-location rows:
# without them the MIP threads a memory chain across machines and
# reaches 7 (static) and 5 (three-machine ring) below the true 9 and 7
SEEDS = (*range(12), 30)


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
