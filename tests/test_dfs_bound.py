"""The DFS's bound before dispatch, checked against the bound after it.

A DFS node bounds each candidate (lb_start, op, machine) before it
dispatches it, and its candidate list leaves out the pairs it can tell
are over the limit or do not fit. Both must drop only what
`_node_bound` would prune after the dispatch, so that the search stays
the same: every pair the node passes over, listed or not, dispatched
with any of its load choices, must fail its memory step or exceed the
limit the node had when it passed it over. The one exception is under
a limit that leaves no idle, where a list also leaves out the pairs
that the two tight-limit rules rule out (`conftest.candidate_order_oracle`
names them); `test_packed_search` checks those rules against brute
force.
"""
import math
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opsched import solver
from opsched.graph import ComputationGraph, HardwareCluster
from opsched.model import (ModelOptions, build_model, clear_primal_bound,
                           set_primal_bound)
from opsched.scenarios import DualPipeSpec, dualpipe_primal_bound, gen_dualpipe

from conftest import candidate_order_oracle
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
    """Counts the DFS's dispatches, and checks each pair that its node
    passed over without one: the pairs its candidate lists left out, and
    the listed pairs it rejected when it reached them."""

    def __init__(self, *args):
        super().__init__(*args)
        self.dispatches = 0
        # listed pairs rejected before any dispatch
        self.passed_over = 0
        # pairs of the node's order that a list left out, other than
        # those the tight-limit rules rule out, which `ruled_out` counts
        self.left_out = 0
        self.ruled_out = 0
        # passed over although some load choice dispatches: by the bound
        self.bounded = 0

    def count(self, *args):
        self.dispatches += 1
        return _DISPATCH(*args)

    def _candidates(self, state, last, lim):
        for cand in super()._candidates(state, last, lim):
            before = self.dispatches
            yield cand
            # resumed once the node is done with cand, its state restored
            if self.dispatches == before:
                self.passed_over += 1
                self.check(state, cand, self.limit() + solver._EPS)

    def _first_candidate(self, state, last_start):
        first = super()._first_candidate(state, last_start)
        # the node has no limit, and the pairs before its first are out
        for cand in candidate_order_oracle(self, state, (last_start, 0)):
            if cand == first:
                break
            self.left_out += 1
            self.check(state, cand, math.inf)
        return first

    def _candidate_list(self, state, last, lim):
        cands = super()._candidate_list(state, last, lim)
        listed = set(cands)
        ruled = set(candidate_order_oracle(self, state, last, lim))
        for cand in candidate_order_oracle(self, state, last):
            if cand not in ruled:
                self.ruled_out += 1
            elif cand not in listed:
                self.left_out += 1
                self.check(state, cand, lim)
        return cands

    def check(self, state, cand, lim):
        _, _, k, m = cand
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
    assert search.pruned == {"bound-before-dispatch": 155,
                             "bound-after-dispatch": 168, "memory": 100}
    # the nodes reject 255 listed pairs before dispatch and their lists
    # leave out 271 more; 236 of these fit with some load choice and are
    # over the limit, the other 290 fail their memory step
    assert (search.passed_over, search.left_out, search.bounded) == \
        (255, 271, 236)
    # each limit of this search leaves room for idle
    assert search.ruled_out == 0
    # as many dispatches as when each node merged a stream per machine
    assert search.dispatches == 468


def test_tight_limit_rules_leave_pairs_out():
    # the bound 18 leaves no idle: every pair the lists leave out besides
    # the rules' fails its memory step or is over the limit
    spec = DualPipeSpec(pp=2, micro_batches=6)
    g, h, options = gen_dualpipe(spec)
    model = set_primal_bound(build_model(g, h, options),
                             dualpipe_primal_bound(spec))
    search = _WatchedSearch(model, solver.SolveConfig(), None)
    search.run()
    assert search.incumbent_obj == 18
    assert search.pruned == {"bound-before-dispatch": 0,
                             "bound-after-dispatch": 0, "memory": 609}
    # the rules leave out 2,046 pairs; the lists leave out 413 more, each
    # checked, and the 302 dispatches are the 303 nodes less the root
    assert (search.ruled_out, search.left_out, search.dispatches) == \
        (2046, 413, 302)
