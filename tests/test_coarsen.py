import pytest

from opsched.coarsen import _Contraction, _limits, coarsen
from opsched.graph import GraphError, WeightAsset
from opsched.scenarios import RandomDagSpec, gen_random_dag

from conftest import edge, graph, op


def chain(n, dur=1):
    ops = [op(f"c{k}", dur) for k in range(n)]
    edges = [edge(f"c{k}", f"c{k+1}") for k in range(n - 1)]
    return graph(ops, edges)


def merged(g, a, b):
    state = _Contraction(g)
    state.merge(a, b, a + b)
    return state.graph()


# (duration, memory) limits that admit every merge
WIDE = (1e9, 1e9)


class TestConfig:
    def test_budget_must_be_positive(self):
        # also on an empty graph: the budget is checked before the limits
        # divide by it
        for g in (chain(3), graph([])):
            for budget in (0, -3):
                with pytest.raises(ValueError,
                                   match="node_budget must be >= 1"):
                    coarsen(g, budget)

    def test_limits_scale_with_budget(self):
        g = chain(20, dur=5)
        edge_limits, nonedge_limits = _limits(g, 4)
        # budget implies mean merged duration 25; the limit covers it
        assert edge_limits[0] >= 2 * 100 / 4
        assert nonedge_limits == (edge_limits[0] / 2, edge_limits[1] / 2)


class TestCandidates:
    def test_edge_candidate_requires_unique_link(self):
        # diamond: a->(b,c)->d has no 1-pred/1-succ edge
        g = graph([op(i) for i in "abcd"],
                  [edge("a", "b"), edge("a", "c"),
                   edge("b", "d"), edge("c", "d")])
        assert _Contraction(g).edge_candidate(*WIDE) is None

    def test_edge_candidate_on_chain(self):
        g = chain(3)
        assert _Contraction(g).edge_candidate(*WIDE) is not None

    def test_redundant_shortcut_does_not_hide_chain(self):
        # a->b->c plus shortcut a->c: the shortcut is ignored, so a->b
        # still qualifies as a unique link
        g = graph([op(i) for i in "abc"],
                  [edge("a", "b"), edge("b", "c"), edge("a", "c")])
        assert _Contraction(g).edge_candidate(*WIDE) == ("a", "b")

    def test_size_threshold_blocks_edge_candidate(self):
        g = chain(2, dur=10)
        assert _Contraction(g).edge_candidate(15, 1e9) is None

    def test_nonedge_candidate_skips_connected_pairs(self):
        g = graph([op("a"), op("b"), op("c")], [edge("a", "b")])
        pair = _Contraction(g).nonedge_candidate(*WIDE)
        assert pair is not None and set(pair) != {"a", "b"}

    def test_nonedge_candidate_avoids_path_pairs(self):
        g = chain(3)  # every pair is connected or path-linked
        assert _Contraction(g).nonedge_candidate(*WIDE) is None


class TestMergeNodes:
    def test_attributes_sum_and_refs_union(self):
        g = graph([op("a", 2, mem=1, act=1, refs=("w",)),
                   op("b", 3, mem=2, act=-1, refs=("w",))],
                  weights=[WeightAsset("w", 1)])
        m = merged(g, "a", "b").operations["ab"]
        assert (m.duration, m.weight_mem, m.activation_delta) == (5, 3, 0)
        assert m.weight_refs == ("w",)

    def test_parallel_edges_collapse_and_comm_sums(self):
        g = graph([op(i) for i in "abc"],
                  [edge("a", "c", comm=2), edge("b", "c", comm=3)])
        g2 = merged(g, "a", "b")
        assert set(g2.edges) == {("ab", "c")}
        assert g2.edges[("ab", "c")].comm_duration == 5

    def test_internal_edge_disappears(self):
        g = graph([op("a"), op("b")], [edge("a", "b", comm=7)])
        assert not merged(g, "a", "b").edges

    def test_cycle_creating_merge_rejected(self):
        # `merge` trusts coarsen's candidates; a pair joined by a longer
        # path still fails loudly, when the coarse graph is built
        with pytest.raises(GraphError, match="cycle"):
            merged(chain(3), "c0", "c2")


class TestCoarsen:
    def test_chain_reaches_budget(self):
        g = chain(12)
        coarse, records = coarsen(g, 3)
        assert len(coarse) <= 3
        assert records

    def test_totals_conserved(self):
        g = gen_random_dag(RandomDagSpec(nodes=60, seed=5))
        coarse, _ = coarsen(g, 12)
        assert coarse.total_duration() == g.total_duration()
        total_mem = sum(o.weight_mem for o in g.operations.values())
        assert sum(o.weight_mem
                   for o in coarse.operations.values()) == total_mem

    def test_result_is_acyclic_with_provenance_partition(self):
        g = gen_random_dag(RandomDagSpec(nodes=80, seed=9))
        coarse, records = coarsen(g, 16)
        coarse.topo_order()  # raises on a cycle
        absorbed = [i for r in records for i in r.absorbed]
        assert len(absorbed) == len(set(absorbed))
        survivors = set(coarse.operations) - {r.new_id for r in records}
        assert survivors <= set(g.operations)
        assert len(absorbed) + len(survivors) == len(g)

    def test_absorbed_listed_in_topological_order(self):
        g = chain(6)
        _, records = coarsen(g, 1)
        order = {i: k for k, i in enumerate(g.topo_order())}
        for rec in records:
            ranks = [order[i] for i in rec.absorbed]
            assert ranks == sorted(ranks)

    def test_unreachable_budget_returns_fixed_point(self):
        # a diamond has no edge candidate, and its heavy middle pair,
        # duration 20, exceeds the non-edge limit 22 / 3 at budget 3
        g = graph([op("a"), op("b", 10), op("c", 10), op("d")],
                  [edge("a", "b"), edge("a", "c"),
                   edge("b", "d"), edge("c", "d")])
        coarse, records = coarsen(g, 3)
        assert len(coarse) == 4 and not records

    def test_budget_already_met_is_noop(self):
        g = chain(3)
        coarse, records = coarsen(g, 5)
        assert coarse == g and not records

    def test_weights_preserved(self):
        g = graph([op("a", refs=("w",)), op("b")], [edge("a", "b")],
                  [WeightAsset("w", 3, load_cost=1)])
        coarse, _ = coarsen(g, 1)
        assert coarse.weights["w"].size == 3
