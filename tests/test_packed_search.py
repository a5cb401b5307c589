"""The saturation search, checked against a copy of the node loop it
replaced (`conftest.packed_search_oracle`): same node count, same
completeness, same schedule, on small instances whose load bound meets
the primal bound exactly."""
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opsched import solver
from opsched.graph import Channel, HardwareCluster, Machine, WeightAsset
from opsched.model import ModelOptions, build_model, set_primal_bound

from conftest import (cluster, edge, graph, op, packed_search_oracle,
                      solution_text)


@st.composite
def packed_cases(draw):
    """3-9 ops of integral duration >= 1 on 1-3 machines, zero comm,
    total work a multiple of the machine count; binding memory caps or
    none, and sparse channels."""
    nm = draw(st.integers(1, 3))
    weights = [WeightAsset(f"w{k}", draw(st.integers(1, 2)))
               for k in range(draw(st.integers(0, 2)))]
    ops = [op(f"o{k}", draw(st.sampled_from([1, 1, 1, 2])),
              mem=draw(st.sampled_from([0, 0, 1])),
              act=draw(st.sampled_from([-1, 0, 1, 1, 2])),
              refs=[w.id for w in weights if draw(st.booleans())])
           for k in range(draw(st.integers(3, 9)))]
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


def _outcome(search, complete):
    inc = search.incumbent
    return (complete, search.nodes, search.stop,
            None if inc is None else solution_text(inc))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(case=packed_cases())
def test_saturation_search_matches_oracle(case):
    model, cfg = case
    search = solver._Search(model, cfg, None)
    complete = search._run_packed()
    assert complete is not None  # the preconditions hold by construction
    oracle = solver._Search(model, cfg, None)
    assert _outcome(search, complete) == \
        _outcome(oracle, packed_search_oracle(oracle))


def _two_machines(ops, edges, bound):
    h = HardwareCluster([Machine("m0", 3), Machine("m1", 3)],
                        [Channel("m0", "m1"), Channel("m1", "m0")])
    g = graph([op(i, d, act=a) for (i, d, a) in ops],
              [edge(x, y) for (x, y) in edges])
    return set_primal_bound(
        build_model(g, h, ModelOptions(memory_capped=True)), bound)


# without the aggregate deadline-work cut these take 32 and 34 nodes
DEADLINE_WORK_CASES = {
    "stops-at-a-schedule": (_two_machines(
        [("o0", 1, 1), ("o1", 3, -1), ("o2", 1, -1), ("o3", 1, -1),
         ("o4", 3, 0), ("o5", 1, 0), ("o6", 1, 1), ("o7", 1, -1)],
        [("o0", "o1"), ("o2", "o7"), ("o3", "o6"), ("o4", "o5"),
         ("o4", "o6"), ("o5", "o7"), ("o6", "o7")], 6), 23),
    "exhausts": (_two_machines(
        [("o0", 2, 1), ("o1", 2, 0), ("o2", 2, 0), ("o3", 2, 1),
         ("o4", 1, 0), ("o5", 1, 1), ("o6", 1, 1), ("o7", 1, 1),
         ("o8", 1, 0), ("o9", 3, 1)],
        [("o0", "o1"), ("o0", "o2"), ("o1", "o4"), ("o1", "o7"),
         ("o2", "o4"), ("o2", "o6"), ("o3", "o6"), ("o4", "o6"),
         ("o4", "o9"), ("o5", "o7"), ("o7", "o8"), ("o7", "o9")], 8), 16),
}


@pytest.mark.parametrize("name", DEADLINE_WORK_CASES)
def test_deadline_work_cut_matches_oracle(name):
    # random small instances rarely need this cut to prune
    model, nodes = DEADLINE_WORK_CASES[name]
    cfg = solver.SolveConfig(node_limit=2000)
    search = solver._Search(model, cfg, None)
    oracle = solver._Search(model, cfg, None)
    assert _outcome(search, search._run_packed()) == \
        _outcome(oracle, packed_search_oracle(oracle))
    assert search.nodes == nodes


@pytest.mark.parametrize("budget", [0, 1, 7])
def test_node_budget_stops_both_alike(budget):
    # a stop inside the search must leave the same partial picture
    g = graph([op("a", 2), op("b", 1), op("c", 1), op("d", 2)],
              [edge("a", "c"), edge("b", "d")])
    h = HardwareCluster([Machine("m0", 9), Machine("m1", 9)],
                        [Channel("m0", "m1"), Channel("m1", "m0")])
    model = set_primal_bound(
        build_model(g, h, ModelOptions(memory_capped=True)), 3)
    cfg = solver.SolveConfig(node_limit=budget)
    search = solver._Search(model, cfg, None)
    oracle = solver._Search(model, cfg, None)
    assert _outcome(search, search._run_packed()) == \
        _outcome(oracle, packed_search_oracle(oracle))


def _chain_model(durs=(1, 1, 2), comm=0, options=ModelOptions(), bound=2):
    g = graph([op(f"o{k}", d) for k, d in enumerate(durs)],
              [edge("o0", "o1", comm)])
    model = build_model(g, cluster(2), options)
    return model if bound is None else set_primal_bound(model, bound)


# each breaks one precondition; the rest hold
NOT_PACKED = {
    "zero-duration": _chain_model(durs=(0, 2, 2)),
    "dynamic-loading": _chain_model(options=ModelOptions(
        dynamic_loading=True)),
    "fractional-duration": _chain_model(durs=(1.5, 1.5, 1)),
    "timed-transfer": _chain_model(comm=1),
    "no-limit": _chain_model(bound=None),
    "limit-above-load": _chain_model(bound=3),
}


@pytest.mark.parametrize("name", NOT_PACKED)
def test_preconditions_leave_the_search_to_the_dfs(name):
    search = solver._Search(NOT_PACKED[name], solver.SolveConfig(), None)
    assert search._run_packed() is None
    assert search.nodes == 0


def test_empty_graph_is_one_leaf():
    model = dataclasses.replace(build_model(graph([]), cluster(2)),
                                primal_bound=0)
    search = solver._Search(model, solver.SolveConfig(), None)
    assert search._run_packed() is True
    assert (search.nodes, search.incumbent_obj) == (1, 0)
    assert search.incumbent.assignment == search.incumbent.op_times == {}
