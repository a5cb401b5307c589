"""The DFS under a limit that leaves no idle, where its two tight-limit
rules (`solver._Search._candidate_list`) leave pairs out: on small
instances whose load bound meets the primal bound exactly, it finds a
schedule exactly when one exists within the bound
(`conftest.brute_force_makespan`)."""
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opsched import solver
from opsched.graph import Channel, HardwareCluster, Machine, WeightAsset
from opsched.model import ModelOptions, build_model, set_primal_bound
from opsched.simulate import verify

from conftest import (brute_force_dynamic_makespan, brute_force_makespan,
                      candidate_order_oracle, cluster, edge, graph, op)


@st.composite
def packed_cases(draw):
    """3-6 ops of integral duration >= 1 on 1-3 machines, zero comm,
    total work a multiple of the machine count; binding memory caps or
    none, and sparse channels. The primal bound is the load bound."""
    nm = draw(st.integers(1, 3))
    weights = [WeightAsset(f"w{k}", draw(st.integers(1, 2)))
               for k in range(draw(st.integers(0, 2)))]
    ops = [op(f"o{k}", draw(st.sampled_from([1, 1, 1, 2])),
              mem=draw(st.sampled_from([0, 0, 1])),
              act=draw(st.sampled_from([-1, 0, 1, 1, 2])),
              refs=[w.id for w in weights if draw(st.booleans())])
           for k in range(draw(st.integers(3, 6)))]
    last = ops[-1]
    extra = -sum(o.duration for o in ops) % nm
    ops[-1] = op(last.id, last.duration + extra, mem=last.weight_mem,
                 act=last.activation_delta, refs=last.weight_refs)
    edges = [edge(a.id, b.id) for k, a in enumerate(ops) for b in ops[k + 1:]
             if draw(st.integers(0, 6)) == 0]
    size = {w.id: w.size for w in weights}
    # every op fits an empty machine, and little more than that
    need = max(o.weight_mem + sum(size[r] for r in o.weight_refs)
               + max(0, o.activation_delta) for o in ops)
    machines = [Machine(f"m{j}", max(1, need) + draw(st.integers(0, 4)))
                for j in range(nm)]
    channels = [Channel(a.id, b.id) for a in machines for b in machines
                if a.id != b.id and draw(st.booleans())]
    g = graph(ops, edges, weights)
    model = build_model(g, HardwareCluster(machines, channels),
                        ModelOptions(memory_capped=draw(st.booleans())))
    model = set_primal_bound(model, g.total_duration() // nm)
    cfg = solver.SolveConfig(node_limit=2000)
    return model, cfg


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(case=packed_cases())
def test_tight_limit_search_matches_brute_force(case):
    model, cfg = case
    sol = solver.solve(model, cfg)
    best = brute_force_makespan(model.graph, model.cluster,
                                model.options.memory_capped)
    fits = best is not None and best <= model.primal_bound
    assert (sol.objective is not None) == fits
    if fits:
        assert sol.status == "optimal" and sol.objective == best
        assert verify(model.graph, model.cluster, sol,
                      model.options).feasible
    else:
        assert sol.stats["stop"] == "exhausted"


@st.composite
def loading_cases(draw):
    """2-4 ops of integral duration >= 1 on 1-2 machines that load their
    weights at integral costs, zero comm, total work a multiple of the
    machine count, capped; the primal bound is the load bound."""
    nm = draw(st.integers(1, 2))
    weights = [WeightAsset(f"w{k}", draw(st.integers(1, 2)),
                           draw(st.sampled_from([0, 0, 1])),
                           draw(st.sampled_from([0, 0, 1])))
               for k in range(draw(st.integers(1, 2)))]
    ops = [op(f"o{k}", draw(st.integers(1, 2)),
              act=draw(st.sampled_from([-1, 0, 0, 1])),
              refs=[w.id for w in weights if draw(st.booleans())])
           for k in range(draw(st.integers(2, 4)))]
    last = ops[-1]
    extra = -sum(o.duration for o in ops) % nm
    ops[-1] = op(last.id, last.duration + extra,
                 act=last.activation_delta, refs=last.weight_refs)
    edges = [edge(a.id, b.id) for k, a in enumerate(ops) for b in ops[k + 1:]
             if draw(st.integers(0, 3)) == 0]
    g = graph(ops, edges, weights)
    # every op fits an empty machine with its weights loaded
    size = {w.id: w.size for w in weights}
    need = max(sum(size[r] for r in o.weight_refs) + max(0, o.activation_delta)
               for o in ops)
    model = build_model(g, cluster(nm, cap=max(1, need)
                                   + draw(st.integers(0, 2))),
                        ModelOptions(memory_capped=True,
                                     dynamic_loading=True))
    return set_primal_bound(model, g.total_duration() // nm)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(model=loading_cases())
def test_tight_limit_search_matches_brute_force_when_loading(model):
    # a load that takes time leaves no schedule within the bound
    sol = solver.solve(model, solver.SolveConfig(node_limit=20000))
    best = brute_force_dynamic_makespan(model.graph, model.cluster)
    fits = best is not None and best <= model.primal_bound
    assert (sol.objective is not None) == fits
    if fits:
        assert sol.status == "optimal" and sol.objective == best
    else:
        assert sol.stats["stop"] == "exhausted"


class _PlainListSearch(solver._Search):
    """Checks that every candidate list is the plain DFS order less the
    pairs over the limit: no tight-limit rule leaves a pair out."""

    def __init__(self, *args):
        super().__init__(*args)
        self.lists = 0

    def _candidate_list(self, state, last, lim):
        cands = super()._candidate_list(state, last, lim)
        dur = self.inst.dur
        assert cands == [c for c in candidate_order_oracle(self, state, last)
                         if not c[0] + dur[c[2]] > lim]
        self.lists += 1
        return cands


def _chain_model(durs=(1, 1, 2), comm=0, bound=2):
    g = graph([op(f"o{k}", d) for k, d in enumerate(durs)],
              [edge("o0", "o1", comm)])
    model = build_model(g, cluster(2))
    return model if bound is None else set_primal_bound(model, bound)


# each breaks one precondition of the tight-limit rules; the rest hold.
# Uncapped, so no memory step fails. Each maps to its optimum within
# the bound, None when there is none.
NOT_PACKED = {
    "zero-duration": (_chain_model(durs=(0, 2, 2)), 2),
    "fractional-duration": (_chain_model(durs=(1.5, 1.5, 1)), None),
    # a schedule within 1.5 leaves m1 idle from 0.5 on
    "fractional-bound": (_chain_model(durs=(1, 0.5, 0.5), bound=1.5), 1.5),
    "timed-transfer": (_chain_model(comm=1), 2),
    "no-limit": (_chain_model(bound=None), 2),
    "limit-above-load": (_chain_model(bound=3), 2),
}


@pytest.mark.parametrize("name", NOT_PACKED)
def test_preconditions_leave_the_search_to_the_dfs(name):
    model, optimum = NOT_PACKED[name]
    search = _PlainListSearch(model, solver.SolveConfig(), None)
    search._dfs(solver._State(search.inst))
    assert search.incumbent_obj == optimum
    # with no limit the first leaf meets the root bound before any list
    assert (search.lists > 0) == (model.primal_bound is not None)


def test_zero_duration_op_readies_its_successor_at_its_start():
    # k (duration 0) fits only m1, j only m0, and j follows k at time 0;
    # the machine-order rule would forbid j on m0 after k on m1 at one
    # start, so zero durations must leave the rules off
    g = graph([op("k", 0, mem=3), op("j", 1, mem=1), op("x", 1)],
              [edge("k", "j")])
    h = HardwareCluster([Machine("m0", 1), Machine("m1", 3)],
                        [Channel("m1", "m0")])
    model = set_primal_bound(
        build_model(g, h, ModelOptions(memory_capped=True)), 1)
    assert brute_force_makespan(g, h) == 1
    sol = solver.solve(model)
    assert (sol.status, sol.objective) == ("optimal", 1)
    assert sol.assignment == {"j": "m0", "k": "m1", "x": "m1"}


def test_empty_graph_is_one_leaf():
    model = dataclasses.replace(build_model(graph([]), cluster(2)),
                                primal_bound=0)
    search = solver._Search(model, solver.SolveConfig(), None)
    assert search._dfs(solver._State(search.inst)) is True
    assert (search.nodes, search.incumbent_obj) == (1, 0)
    assert search.incumbent.assignment == search.incumbent.op_times == {}
