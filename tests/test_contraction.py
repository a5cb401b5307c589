"""In-place contraction against candidate searches that start afresh.

`coarsen` keeps one contraction state: it updates an edge pass's kept
edges only where a merge changed them, and never rechecks a non-edge
pair that failed once. The reference here builds a new `_Contraction`
from the current graph for each candidate search and each merge.
Replaying coarsen's passes that way must give the same merges, which
checks the incremental bookkeeping on more graphs than the golden
digests cover.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opsched.coarsen import _Contraction, _limits, coarsen
from opsched.scenarios import RandomDagSpec, gen_random_dag

from conftest import edge, graph, op

# few distinct values, so merges often meet the limits exactly
_SIZES = st.sampled_from([0, 0.5, 1, 1, 2, 3])


def stepwise(g, budget):
    cur, origin, counter = g, {}, 0
    edge_limits, nonedge_limits = _limits(g, budget)
    while len(cur) > budget:
        merged_any = False
        for find, limits in ((_Contraction.edge_candidate, edge_limits),
                             (_Contraction.nonedge_candidate,
                              nonedge_limits)):
            while len(cur) > budget:
                pair = find(_Contraction(cur), *limits)
                if pair is None:
                    break
                counter += 1
                while f"m{counter:03d}" in cur.operations \
                        or f"m{counter:03d}" in g.operations:
                    counter += 1
                a, b, new_id = *pair, f"m{counter:03d}"
                state = _Contraction(cur)
                state.merge(a, b, new_id)
                cur = state.graph()
                origin[new_id] = origin.pop(a, {a}) | origin.pop(b, {b})
                merged_any = True
        if not merged_any:
            break
    return cur, origin


def mixed_ids(seed, nodes):
    # ids on both sides of the merged "m..." ids, comm on every edge
    base = gen_random_dag(RandomDagSpec(nodes=nodes, seed=seed))
    name = {i: "az"[k % 3 == 0] + i[1:]
            for k, i in enumerate(base.operations)}
    return graph([op(name[o.id], o.duration, mem=o.weight_mem)
                  for o in base.operations.values()],
                 [edge(name[a], name[b], 0.25 * (k % 5))
                  for k, (a, b) in enumerate(base.edges)])


@pytest.mark.parametrize("seed", range(6))
def test_coarsen_matches_stepwise_search(seed):
    g = mixed_ids(seed, 50)
    coarse, records = coarsen(g, 10)
    expected, origin = stepwise(g, 10)
    assert coarse == expected
    assert {r.new_id: set(r.absorbed) for r in records} == origin


@pytest.mark.parametrize("seed", [0, 1])
def test_benchmark_shape_matches_stepwise_search(seed):
    # the coarsen-chain benchmark's DAGs: 400 nodes down to ~80
    g = gen_random_dag(RandomDagSpec(nodes=400, seed=seed))
    coarse, records = coarsen(g, 80)
    expected, origin = stepwise(g, 80)
    assert coarse == expected
    assert {r.new_id: set(r.absorbed) for r in records} == origin


@st.composite
def small_dags(draw):
    """1-16 ops whose ids sort on both sides of the merged "m..." ids,
    some taking such an id themselves, and a budget; edges only run
    forward in the drawn order, which the ids do not follow, and carry
    comm."""
    n = draw(st.integers(1, 16))
    ids = [f"{p}{k:03d}" for k, p in enumerate(
        draw(st.lists(st.sampled_from("amz"), min_size=n, max_size=n)))]
    ops = [op(i, d, mem=m) for i, d, m in zip(
        ids, draw(st.lists(_SIZES, min_size=n, max_size=n)),
        draw(st.lists(_SIZES, min_size=n, max_size=n)))]
    pairs = draw(st.dictionaries(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(sorted)
        .map(tuple).filter(lambda ab: ab[0] < ab[1]),
        st.sampled_from([0, 0.25, 1]), max_size=3 * n))
    edges = [edge(ids[a], ids[b], comm) for (a, b), comm in pairs.items()]
    return graph(ops, edges), draw(st.integers(1, n))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(case=small_dags())
def test_coarsen_matches_stepwise_search_on_small_dags(case):
    g, budget = case
    coarse, records = coarsen(g, budget)
    expected, origin = stepwise(g, budget)
    assert coarse == expected
    assert {r.new_id: set(r.absorbed) for r in records} == origin
