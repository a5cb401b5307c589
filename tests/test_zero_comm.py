"""Zero-communication instances keep no transfer records, and a search
without a limit takes no bound before its first leaf.

When no transfer takes time, `_State.comm_sched` is None: `_dispatch`
checks the channels alone and `_State.solution_parts` writes each
transfer out at its producer's end. Setting `comm_sched` to a dict once
`_State` has built it forces the recording path that the timed
instances take, and every solve must come out the same either way,
field for field and stats included.
"""
import math
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opsched import solver
from opsched.graph import Channel, ComputationGraph, HardwareCluster
from opsched.model import (ModelOptions, build_model, clear_primal_bound,
                           set_primal_bound)
from opsched.scenarios import DualPipeSpec, gen_dualpipe

from test_dfs_order import dfs_cases

_STATE_INIT = solver._State.__init__
_NODE_BOUND = solver._Search._node_bound


def _recording_init(state, inst):
    _STATE_INIT(state, inst)
    state.comm_sched = {}


def _bound_under_a_limit(search, state):
    # every bound is at most an infinite limit, so none is taken then
    assert search.limit() < math.inf
    return _NODE_BOUND(search, state)


def _solves(model, cfg):
    """The solves of `model`: without a limit, under the first one's
    makespan as a primal bound, and the list-scheduling climb."""
    with mock.patch.object(solver._Search, "_node_bound",
                           _bound_under_a_limit):
        first = solver.solve(model, cfg)
    sols = [first]
    if first.objective:  # a primal bound is positive
        sols.append(solver.solve(set_primal_bound(model, first.objective),
                                 cfg))
    if not model.options.dynamic_loading:
        sols.append(solver.list_schedule(model))
    return sols


def _same(a, b):
    if a is None or b is None:
        return a is b
    return a == b and a.stats == b.stats


@pytest.mark.parametrize("ring", [False, True], ids=["full", "ring"])
@pytest.mark.parametrize("capped", [False, True], ids=["uncapped", "capped"])
@pytest.mark.parametrize("dynamic", [False, True], ids=["static", "dynamic"])
@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_solves_match_recorded_transfers(dynamic, capped, ring, data):
    g, h, cfg = data.draw(dfs_cases(dynamic))
    g = ComputationGraph(g.operations.values(),
                         [replace(e, comm_duration=0)
                          for e in g.edges.values()],
                         g.weights.values())
    ids = list(h.machines)
    if ring:
        channels = [Channel(a, b) for a, b in zip(ids, ids[1:] + ids[:1])
                    if a != b]
    else:
        channels = [Channel(a, b) for a in ids for b in ids if a != b]
    h = HardwareCluster(h.machines.values(), channels)
    model = build_model(g, h, ModelOptions(memory_capped=capped,
                                           dynamic_loading=dynamic))
    fast = _solves(model, cfg)
    with mock.patch.object(solver._State, "__init__", _recording_init):
        recorded = _solves(model, cfg)
    assert all(map(_same, fast, recorded)), (fast, recorded)


def test_no_bound_before_the_first_leaf():
    # no hint and no primal bound: the first descent runs under no limit
    g, h, options = gen_dualpipe(DualPipeSpec(pp=2, micro_batches=6))
    model = clear_primal_bound(build_model(g, h, options))
    calls = []

    def node_bound(search, state):
        calls.append(search.incumbent is not None)
        return _NODE_BOUND(search, state)

    with mock.patch.object(solver._Search, "_node_bound", node_bound):
        sol = solver.solve(model, solver.SolveConfig(node_limit=300))
    assert sol.objective is not None
    assert calls and all(calls)
