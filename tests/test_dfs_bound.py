"""The DFS's bound before dispatch, checked against the bound after it.

A DFS node bounds each candidate (lb_start, op, machine) before it
dispatches it. That check must prune only what `_node_bound` would
prune after the dispatch, so that the search stays the same: every
candidate the node does not dispatch, dispatched with any of its load
choices, must fail its memory step or exceed the limit.
"""
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opsched import solver
from opsched.graph import ComputationGraph, HardwareCluster
from opsched.model import ModelOptions, build_model, clear_primal_bound
from opsched.scenarios import DualPipeSpec, gen_dualpipe

from test_dfs_order import dfs_cases

_DISPATCH = solver._dispatch


def _times_four(g, h):
    """The instance with every number four times as large. The drawn
    values are quarters, so all of these are integers, and the DFS takes
    its load bound before dispatch only in integral instances."""
    ops = [replace(o, duration=4 * o.duration, weight_mem=4 * o.weight_mem,
                   activation_delta=4 * o.activation_delta)
           for o in g.operations.values()]
    edges = [replace(e, comm_duration=4 * e.comm_duration)
             for e in g.edges.values()]
    weights = [replace(w, size=4 * w.size, load_cost=4 * w.load_cost,
                       unload_cost=4 * w.unload_cost)
               for w in g.weights.values()]
    machines = [replace(m, memory_capacity=4 * m.memory_capacity)
                for m in h.machines.values()]
    return (ComputationGraph(ops, edges, weights),
            HardwareCluster(machines, h.channels.values()))


class _WatchedSearch(solver._Search):
    """Counts the DFS's dispatches, and checks each candidate that its
    node passed over without one."""

    def __init__(self, *args):
        super().__init__(*args)
        self.dispatches = 0
        self.passed_over = 0
        # passed over although some load choice dispatches: by the bound
        self.bounded = 0

    def count(self, *args):
        self.dispatches += 1
        return _DISPATCH(*args)

    def _candidates(self, state, last_start):
        for cand in super()._candidates(state, last_start):
            before = self.dispatches
            yield cand
            # resumed once the node is done with cand, its state restored
            if self.dispatches == before:
                self.check_passed_over(state, cand)

    def check_passed_over(self, state, cand):
        _, _, k, m = cand
        self.passed_over += 1
        lim = self.limit() + solver._EPS
        fits = False
        for loads, unloads, preload in self._ext_choices(state, k, m):
            undo = _DISPATCH(state, k, m, loads, unloads, preload)
            if undo is None:
                continue
            fits = True
            bound = self._node_bound(state)
            solver._undo(state, undo)
            assert bound > lim, (cand, bound, lim)
        self.bounded += fits

    def run(self):
        with mock.patch.object(solver, "_dispatch", self.count):
            self._dfs(solver._State(self.inst))
        pruned = self.pruned
        # a static node rejects memory failures before any dispatch, a
        # dynamic one by dispatching
        memory = 0 if self.inst.dynamic else pruned["memory"]
        assert self.passed_over == pruned["bound-before-dispatch"] + memory


@pytest.mark.parametrize("integral", [False, True],
                         ids=["as-drawn", "times-four"])
@pytest.mark.parametrize("capped", [False, True], ids=["uncapped", "capped"])
@pytest.mark.parametrize("dynamic", [False, True], ids=["static", "dynamic"])
@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_passed_over_candidates_exceed_the_limit(capped, dynamic, integral,
                                                 data):
    g, h, cfg = data.draw(dfs_cases(dynamic))
    if integral:
        g, h = _times_four(g, h)
    model = build_model(g, h, ModelOptions(memory_capped=capped,
                                           dynamic_loading=dynamic))
    _WatchedSearch(model, cfg, None).run()


def test_dualpipe_bound_rejections_are_checked():
    # the checker sees real bound rejections, not only memory failures
    g, h, options = gen_dualpipe(DualPipeSpec(pp=2, micro_batches=6))
    model = clear_primal_bound(build_model(g, h, options))
    search = _WatchedSearch(model, solver.SolveConfig(node_limit=300), None)
    search.run()
    assert search.pruned == {"bound-before-dispatch": 269,
                             "bound-after-dispatch": 168, "memory": 86}
    # the other 34 rejected candidates fail their memory step as well
    assert search.bounded == 235
