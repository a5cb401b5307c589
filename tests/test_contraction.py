"""In-place contraction against candidate searches that start afresh.

`coarsen` keeps one contraction state and never rechecks a non-edge
pair that failed once. The reference here builds a new `_Contraction`
from the current graph for each candidate search and each merge.
Replaying coarsen's passes that way must give the same merges, which
checks the incremental bookkeeping on more graphs than the golden
digests cover.
"""
import pytest

from opsched.coarsen import _Contraction, _limits, coarsen
from opsched.scenarios import RandomDagSpec, gen_random_dag

from conftest import edge, graph, op


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
