import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opsched.graph import (Channel, DependencyEdge, GraphError,
                           HardwareCluster, Machine, Operation, WeightAsset,
                           dump_cluster, dump_computation_graph, load_cluster,
                           load_computation_graph)

from conftest import cluster, edge, graph, kahn_order, op


class TestOperationValidation:
    def test_negative_duration_rejected(self):
        with pytest.raises(GraphError):
            Operation("a", -1)

    def test_non_numeric_duration_rejected(self):
        with pytest.raises(GraphError):
            Operation("a", "fast")

    def test_bool_duration_rejected(self):
        with pytest.raises(GraphError):
            Operation("a", True)

    def test_negative_activation_delta_allowed(self):
        assert Operation("a", 1, activation_delta=-2).activation_delta == -2

    def test_self_edge_rejected(self):
        with pytest.raises(GraphError):
            DependencyEdge("a", "a")

    def test_transfer_separator_in_id_rejected(self):
        # a solution keys each transfer "producer->consumer", so such an
        # id could not be read back
        with pytest.raises(GraphError, match="'->'"):
            Operation("a->b", 1)

    def test_weight_asset_negative_size_rejected(self):
        with pytest.raises(GraphError):
            WeightAsset("w", -1)


NON_FINITE = [float("nan"), float("inf"), float("-inf"),
              pytest.param(10**400, id="int-beyond-float")]


class TestNonFiniteRejected:
    @pytest.mark.parametrize("value", NON_FINITE, ids=repr)
    @pytest.mark.parametrize("section, field", [
        ("operations", "duration"), ("operations", "weight_mem"),
        ("operations", "activation_delta"), ("edges", "comm_duration"),
        ("weights", "size"), ("weights", "load_cost"),
        ("weights", "unload_cost")])
    def test_graph_field(self, section, field, value):
        doc = {"operations": [{"id": "a", "duration": 1,
                               "weight_refs": ["w"]},
                              {"id": "b", "duration": 1}],
               "edges": [{"from": "a", "to": "b"}],
               "weights": [{"id": "w", "size": 1}]}
        doc[section][0][field] = value
        with pytest.raises(GraphError, match="finite"):
            load_computation_graph(json.loads(json.dumps(doc)))

    @pytest.mark.parametrize("value", NON_FINITE, ids=repr)
    def test_memory_capacity(self, value):
        with pytest.raises(GraphError, match="finite"):
            load_cluster(json.loads(json.dumps(
                {"machines": [{"id": "m", "memory_capacity": value}]})))


class TestGraphConstruction:
    def test_duplicate_op_id_rejected(self):
        with pytest.raises(GraphError):
            graph([op("a"), op("a")])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphError):
            graph([op("a"), op("b")], [edge("a", "b"), edge("a", "b")])

    def test_dangling_edge_rejected(self):
        with pytest.raises(GraphError):
            graph([op("a")], [edge("a", "b")])

    def test_unknown_weight_ref_rejected(self):
        with pytest.raises(GraphError):
            graph([op("a", refs=("w",))])

    def test_cycle_rejected(self):
        with pytest.raises(GraphError, match="cycle"):
            graph([op("a"), op("b")], [edge("a", "b"), edge("b", "a")])

    def test_iteration_is_id_sorted(self):
        g = graph([op("b"), op("a"), op("c")])
        assert list(g.operations) == ["a", "b", "c"]

    def test_successors(self):
        g = graph([op("a"), op("b"), op("c")],
                  [edge("a", "b"), edge("a", "c")])
        assert set(g.successors("a")) == {"b", "c"}


class TestDagUtilities:
    def test_topo_order_respects_edges_and_ids(self):
        g = graph([op(i) for i in "abcd"],
                  [edge("b", "a"), edge("b", "c")])
        order = g.topo_order()
        assert order.index("b") < order.index("a")
        # ties break by id: d has no constraints but sorts after b
        assert order == ("b", "a", "c", "d")

    def test_critical_path_ignores_comm(self):
        g = graph([op("a", 3), op("b", 4), op("c", 5)],
                  [edge("a", "b", comm=100)])
        assert g.critical_path_length() == 7

    def test_totals(self):
        g = graph([op("a", 3), op("b", 4)], [edge("a", "b", comm=2)])
        assert g.total_duration() == 7
        assert g.total_comm_duration() == 2


class TestCluster:
    def test_implicit_self_channels(self):
        h = cluster(2)
        assert ("m0", "m0") in h.channels
        assert ("m1", "m1") in h.channels

    def test_duplicate_machine_rejected(self):
        with pytest.raises(GraphError):
            HardwareCluster([Machine("m", 1), Machine("m", 1)])

    def test_empty_cluster_rejected(self):
        with pytest.raises(GraphError):
            HardwareCluster([])

    def test_channel_to_unknown_machine_rejected(self):
        with pytest.raises(GraphError):
            HardwareCluster([Machine("m0", 1)], [Channel("m0", "mX")])

    def test_non_positive_capacity_rejected(self):
        with pytest.raises(GraphError):
            Machine("m", 0)


class TestSerialization:
    def _sample(self):
        return graph(
            [op("a", 2, mem=1, act=1, refs=("w",)), op("b", 3)],
            [edge("a", "b", comm=1)],
            [WeightAsset("w", 2, load_cost=1, unload_cost=1)])

    def test_graph_round_trip(self):
        g = self._sample()
        assert load_computation_graph(dump_computation_graph(g)) == g

    def test_graph_round_trip_via_json_text(self):
        g = self._sample()
        text = json.dumps(dump_computation_graph(g))
        assert load_computation_graph(json.loads(text)) == g

    def test_cluster_round_trip(self):
        h = cluster(2, channels=[("m0", "m1")])
        assert load_cluster(dump_cluster(h)) == h

    def test_dump_cluster_omits_self_channels(self):
        doc = dump_cluster(cluster(2))
        assert all(c["from"] != c["to"] for c in doc["channels"])

    def test_unknown_field_rejected(self):
        doc = {"operations": [{"id": "a", "duration": 1, "speed": 3}]}
        with pytest.raises(GraphError, match="unknown fields"):
            load_computation_graph(doc)

    def test_missing_required_field_rejected(self):
        with pytest.raises(GraphError):
            load_computation_graph({"operations": [{"id": "a"}]})
        with pytest.raises(GraphError):
            load_cluster({"machines": [{"id": "m"}]})

    def test_defaults_applied(self):
        g = load_computation_graph(
            {"operations": [{"id": "a", "duration": 1}]})
        o = g.operations["a"]
        assert (o.weight_mem, o.activation_delta, o.weight_refs) == (0, 0, ())

    def test_root_must_be_object(self):
        with pytest.raises(GraphError):
            load_computation_graph(json.loads("[1, 2]"))


@st.composite
def random_dags(draw, ascending):
    """A DAG on up to 12 ops, with up to 2 weights, whose edges all go
    from a lower index to a higher one. With `ascending` the ids sort as
    the indices, so every edge goes from a smaller id to a larger one;
    else they are shuffled."""
    n = draw(st.integers(1, 12))
    ids = [f"o{i:02d}" for i in range(n)]
    if not ascending:
        ids = draw(st.permutations(ids))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)
                  if pairs else st.just([]))
    durations = draw(st.lists(st.integers(0, 9) | st.floats(0, 1e6),
                              min_size=n, max_size=n))
    activations = draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    weights = [WeightAsset(f"w{k}", k + 1, load_cost=k)
               for k in range(draw(st.integers(0, 2)))]
    refs = [draw(st.lists(st.sampled_from([w.id for w in weights]),
                          unique=True) if weights else st.just([]))
            for _ in range(n)]
    ops = [op(ids[i], durations[i], mem=i % 3, act=activations[i],
              refs=refs[i])
           for i in range(n)]
    edges = [edge(ids[i], ids[j], comm=(i + j) % 2) for i, j in chosen]
    return graph(ops, edges, weights)


class TestProperties:
    @settings(max_examples=60, derandomize=True, database=None,
              deadline=None)
    @given(g=random_dags(ascending=False))
    def test_load_inverts_dump(self, g):
        assert load_computation_graph(dump_computation_graph(g)) == g
        text = json.dumps(dump_computation_graph(g))
        assert load_computation_graph(json.loads(text)) == g

    @pytest.mark.parametrize("ascending", [True, False],
                             ids=["ascending-ids", "shuffled-ids"])
    @settings(max_examples=80, derandomize=True, database=None,
              deadline=None)
    @given(data=st.data())
    def test_topo_order_is_smallest_id_first_kahn(self, ascending, data):
        g = data.draw(random_dags(ascending))
        assert g.topo_order() == kahn_order(g)
        if ascending:
            assert all(a < b for a, b in g.edges)

    def test_descending_ids_take_the_heap(self):
        # every edge goes from a larger id to a smaller one
        g = graph([op(i) for i in "dcba"],
                  [edge("d", "c"), edge("c", "b"), edge("d", "a")])
        assert g.topo_order() == kahn_order(g) == ("d", "a", "c", "b")
