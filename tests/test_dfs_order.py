"""The DFS's candidate order, incremental ready set and memory-class
memo, checked node by node against a full enumerate-sort-filter oracle,
a from-scratch recount of the ready set and fresh memory steps.

A node with a finite limit branches on one sorted list built on entry.
A node without one takes the first pair of its order alone and builds
the rest of the list after its first child, under the limit that child
left. Either list leaves out the pairs known not to fit and those whose
own end is over the limit when the list is built, and under a limit
that leaves no idle the pairs that the two tight-limit rules leave
out."""
import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opsched import solver
from opsched.graph import Channel, HardwareCluster, Machine, WeightAsset
from opsched.model import ModelOptions, build_model

from conftest import (candidate_order_oracle, edge, graph, op,
                      ready_recount)
from test_packed_search import packed_cases

# few distinct values, so starts, ests and priorities often tie
_VALUES = st.sampled_from([0, 1, 1, 2, 3, 0.5, 1.25])


@st.composite
def dfs_cases(draw, dynamic_loading):
    """2-8 ops on 1-3 machines with sparse channels, random comm and
    weights."""
    weights = [WeightAsset(f"w{k}", draw(_VALUES), draw(_VALUES),
                           draw(_VALUES))
               for k in range(draw(st.integers(int(dynamic_loading), 2)))]
    ops = [op(f"o{k}", draw(_VALUES), mem=draw(_VALUES),
              act=draw(st.sampled_from([-1, 0, 0.5, 2])),
              refs=[w.id for w in weights if draw(st.booleans())])
           for k in range(draw(st.integers(2, 8)))]
    edges = [edge(a.id, b.id, draw(st.sampled_from([0, 0, 1, 0.5])))
             for k, a in enumerate(ops) for b in ops[k + 1:]
             if draw(st.integers(0, 2)) == 0]
    if draw(st.booleans()):
        # room for everything at once
        cap = 1 + sum(o.weight_mem + max(0, o.activation_delta)
                      for o in ops)
        cap += sum(w.size for w in weights) + draw(_VALUES)
    else:
        # room for little more than the largest op, so memory steps fail
        size = {w.id: w.size for w in weights}
        cap = draw(_VALUES) + max(
            [1] + [o.weight_mem + max(0, o.activation_delta)
                   + (0 if dynamic_loading
                      else sum(size[r] for r in o.weight_refs))
                   for o in ops])
    machines = [Machine(f"m{k}", cap)
                for k in range(draw(st.integers(1, 3)))]
    channels = [Channel(a.id, b.id) for a in machines for b in machines
                if a.id != b.id and draw(st.booleans())]
    cfg = solver.SolveConfig(node_limit=300)
    return graph(ops, edges, weights), HardwareCluster(machines, channels), \
        cfg


def _known_unfit(state, cand):
    """Whether the memo of the candidate's machine says that its op does
    not fit; if so, checked with a fresh memory step."""
    inst, (_, _, k, m) = state.inst, cand
    if state.memo[m].get(inst.mem_class[k], ()) is not None:
        return False
    assert solver._static_step(inst, state.mem[m], state.static_w[m],
                               state.resident[m], k,
                               inst.mem_cap[m]) is None
    return True


def _check_memo(state):
    """Every memo entry equals a fresh memory step of its class on its
    machine's current memory state."""
    inst = state.inst
    member = {c: k for k, c in enumerate(inst.mem_class)}
    for m, memo in enumerate(state.memo):
        for c, step in memo.items():
            assert step == solver._static_step(
                inst, state.mem[m], state.static_w[m], state.resident[m],
                member[c], inst.mem_cap[m])


def _expected(search, state, last, lim):
    """The oracle's order under `lim` less the pairs known not to fit and
    those whose own end is over `lim`. Each pair the memo calls unfit is
    checked with a fresh memory step."""
    dur = search.inst.dur
    return [c for c in candidate_order_oracle(search, state, last, lim)
            if not c[0] + dur[c[2]] > lim and not _known_unfit(state, c)]


class _CheckedSearch(solver._Search):
    def _candidates(self, state, last, lim):
        expected = _expected(self, state, last, lim)
        built = super()._candidates(state, last, lim)
        if lim == math.inf:
            # the first pair alone, before any list is built
            first = next(built, None)
            assert first == (expected[0] if expected else None)
            if first is None:
                return
            yield first
            # resumed after the first child's undo: the rest, built under
            # the limit the child left, with a memo that may have grown
            expected = [c for c in _expected(self, state, last,
                                             self.limit() + solver._EPS)
                        if c != first]
        for cand in expected:
            assert next(built) == cand
            yield cand
        assert next(built, None) is None


def _checked(step):
    def run(state, *args):
        out = step(state, *args)
        assert (state.ready, state.ready_est) == ready_recount(state)
        _check_memo(state)
        return out
    return run


# the options of each kind of case; None for a primal bound that leaves
# no idle, where the tight-limit rules apply
_KINDS = {
    "static-uncapped": ModelOptions(),
    "static-capped": ModelOptions(memory_capped=True),
    "dynamic-uncapped": ModelOptions(dynamic_loading=True),
    "dynamic-capped": ModelOptions(memory_capped=True, dynamic_loading=True),
    "tight": None,
}


@pytest.mark.parametrize("kind", _KINDS)
@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_lazy_order_matches_oracle(kind, data):
    options = _KINDS[kind]
    if options is None:
        model, cfg = data.draw(packed_cases())
    else:
        g, h, cfg = data.draw(dfs_cases(options.dynamic_loading))
        model = build_model(g, h, options)
    search = _CheckedSearch(model, cfg, None)
    state = solver._State(search.inst)
    assert (state.ready, state.ready_est) == ready_recount(state)
    with mock.patch.object(solver, "_dispatch", _checked(solver._dispatch)), \
            mock.patch.object(solver, "_undo", _checked(solver._undo)):
        search._dfs(state)
    assert search.nodes > 0
    assert (state.ready, state.ready_est) == ready_recount(state)
    assert state.n_done == 0
