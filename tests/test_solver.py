import json
import random
import sys

import pytest

from opsched.graph import ComputationGraph, DependencyEdge
from opsched.model import (ModelError, ModelOptions, build_model,
                           clear_primal_bound, set_primal_bound)
from opsched.scenarios import (DualPipeSpec, RandomDagSpec,
                               dualpipe_primal_bound, dualpipe_reference,
                               gen_dualpipe, gen_random_dag)
from opsched.simulate import verify, warm_start
from opsched.solver import (SolveConfig, SolveError, Solution, _Search,
                            refine_idle, solve)

from conftest import (brute_force_dynamic_makespan, brute_force_makespan,
                      cluster, edge, graph, op, random_small_instance,
                      solution_text)


def build(g, h, **opts):
    return build_model(g, h, ModelOptions(**opts))


_NO_PRUNES = {"bound-before-dispatch": 0, "bound-after-dispatch": 0,
              "memory": 0}


class TestExactSmallSolves:
    def test_chain_single_machine(self):
        g = graph([op("a", 2), op("b", 3)], [edge("a", "b")])
        sol = solve(build(g, cluster(1)))
        assert sol.status == "optimal" and sol.objective == 5

    def test_independent_ops_spread_over_machines(self):
        g = graph([op("a", 4), op("b", 3)])
        sol = solve(build(g, cluster(2)))
        assert sol.status == "optimal" and sol.objective == 4
        assert sol.assignment["a"] != sol.assignment["b"]

    def test_transfer_cost_versus_colocation(self):
        # colocating avoids the transfer: 2+2=4 beats 2+3+2=7
        g = graph([op("a", 2), op("b", 2)], [edge("a", "b", comm=3)])
        h = cluster(2, channels=[("m0", "m1"), ("m1", "m0")])
        sol = solve(build(g, h))
        assert sol.objective == 4
        assert sol.assignment["a"] == sol.assignment["b"]

    def test_transfer_taken_when_it_pays_off(self):
        # a feeds two long consumers; shipping one across costs 1 but
        # halves the tail: 1 + 1 + 5 = 7 versus 11 colocated
        g = graph([op("a", 1), op("b", 5), op("c", 5)],
                  [edge("a", "b", comm=1), edge("a", "c", comm=1)])
        sol = solve(build(g, cluster(2)))
        assert sol.objective == 7

    def test_memory_cap_forces_serialization(self):
        # both ops peak at 3 activations; cap 4 forbids overlap on a
        # machine but they fit on separate machines
        g = graph([op("a", 2, act=3), op("b", 2, act=3),
                   op("a2", 2, act=-3), op("b2", 2, act=-3)],
                  [edge("a", "a2"), edge("b", "b2")])
        sol = solve(build(g, cluster(2, cap=4), memory_capped=True))
        assert sol.status == "optimal" and sol.objective == 4

    def test_infeasible_reported(self):
        g = graph([op("a", 1, act=3), op("b", 1, act=3)],
                  [edge("a", "b")])
        sol = solve(build(g, cluster(1, cap=5), memory_capped=True))
        assert sol.status == "infeasible" and sol.objective is None

    def test_zero_duration_op_before_a_longer_one_verifies(self):
        # z and b both start at 0 on the one machine, z first since it
        # takes no time; `verify` once ordered them by id and saw overlap
        g = graph([op("z", 0), op("b", 3), op("a", 1)], [edge("z", "b")])
        model = build(g, cluster(1))
        sol = solve(model)
        assert sol.op_times["z"] == sol.op_times["b"][:1] * 2 == (0.0, 0.0)
        assert verify(g, cluster(1), sol, model.options).feasible

    def test_unreachable_machine_is_avoided(self):
        # no channel into m1, so a dependent chain cannot use it
        g = graph([op("a", 2), op("b", 2)], [edge("a", "b", comm=1)])
        h = cluster(2, channels=[])
        sol = solve(build(g, h))
        assert sol.objective == 4
        assert sol.assignment["a"] == sol.assignment["b"]


class TestOracleAgreement:
    def test_random_instances_match_enumeration(self):
        rng = random.Random(4242)
        for _ in range(25):
            g, h, capped = random_small_instance(rng)
            try:
                model = build(g, h, memory_capped=capped)
            except ModelError:
                # some op fits on no machine; enumeration must agree
                assert brute_force_makespan(g, h, capped=capped) is None
                continue
            sol = solve(model, SolveConfig(time_limit=30))
            expect = brute_force_makespan(g, h, capped=capped)
            if expect is None:
                assert sol.status == "infeasible"
            else:
                assert sol.status == "optimal"
                assert sol.objective == pytest.approx(expect)
                assert verify(g, h, sol, model.options).feasible

    def test_dynamic_instances_match_enumeration(self):
        rng = random.Random(77)
        for _ in range(8):
            g, h, capped = random_small_instance(rng)
            if not g.weights or g.total_comm_duration():
                continue
            model = build(g, h, memory_capped=capped, dynamic_loading=True)
            sol = solve(model, SolveConfig(time_limit=30))
            expect = brute_force_dynamic_makespan(g, h) if not capped else None
            if expect is not None:
                assert sol.objective == pytest.approx(expect)


class TestBoundsAndLimits:
    def test_primal_bound_target_stops_search(self):
        g = graph([op("a", 2), op("b", 2)])
        model = set_primal_bound(build(g, cluster(2)), 4)
        sol = solve(model)
        assert sol.objective is not None and sol.objective <= 4

    def test_uncapped_model_ignores_capacity_at_primal_bound(self):
        # weight_mem 5 exceeds capacity 1, which an uncapped model ignores;
        # the bound 2 leaves no idle, so the DFS's tight-limit rules apply
        g = graph([op(k, 1, mem=5) for k in "abcd"])
        model = build(g, cluster(2, cap=1))
        assert solve(model).objective == 2
        sol = solve(set_primal_bound(model, 2))
        assert sol.status == "optimal" and sol.objective == 2

    def test_node_limit_reports_nonoptimal(self):
        rng = random.Random(5)
        g, h, _ = random_small_instance(rng)
        sol = solve(build(g, h), SolveConfig(node_limit=1))
        if sol.status == "optimal":
            # root bound can close the gap immediately on tiny instances
            assert sol.objective == sol.bound
        else:
            assert sol.status in ("feasible", "time-limit")

    def test_zero_time_limit_times_out(self):
        base = gen_random_dag(RandomDagSpec(nodes=12, seed=1))
        g = ComputationGraph(
            base.operations.values(),
            [DependencyEdge(a, b, comm_duration=1) for a, b in base.edges])
        sol = solve(build(g, cluster(2)), SolveConfig(time_limit=0.0))
        assert sol.status == "time-limit"
        assert sol.bound is not None
        if sol.objective is not None:
            assert sol.bound <= sol.objective

    def test_bound_never_exceeds_objective(self):
        rng = random.Random(9)
        for _ in range(10):
            g, h, capped = random_small_instance(rng)
            try:
                model = build(g, h, memory_capped=capped)
            except ModelError:
                continue
            sol = solve(model)
            if sol.objective is not None and sol.bound is not None:
                assert sol.bound <= sol.objective + 1e-9


class TestWarmStart:
    def setup_pair(self):
        g = graph([op("a", 2), op("b", 3)], [edge("a", "b")])
        model = build(g, cluster(1))
        return model, solve(model)

    def test_hint_accepted_and_optimum_found(self):
        model, first = self.setup_pair()
        again = solve(model, hint=warm_start(model, first))
        assert again.status == "optimal"
        assert again.objective == first.objective

    def test_hint_survives_primal_bound_change(self):
        g, h, options = gen_dualpipe(DualPipeSpec(pp=2, micro_batches=6))
        model = clear_primal_bound(build_model(g, h, options))
        first = solve(model, SolveConfig(node_limit=300))
        bounded = set_primal_bound(model, first.objective)
        cfg = SolveConfig(node_limit=1)
        assert solve(bounded, cfg).objective is None
        again = solve(bounded, cfg, hint=warm_start(model, first))
        assert again.objective == first.objective
        assert again.op_times == first.op_times

    @pytest.mark.parametrize("pp,node_limit,status", [
        (4, 5, "feasible"), (4, None, "feasible"), (2, 0, "optimal")])
    def test_hint_that_meets_a_bound_spends_no_nodes(self, pp, node_limit,
                                                     status):
        # the hand-built order is 25 at pp=4, within the primal bound 26,
        # and 12 at pp=2, the root bound
        spec = DualPipeSpec(pp=pp)
        model = set_primal_bound(build_model(*gen_dualpipe(spec)),
                                 dualpipe_primal_bound(spec))
        hint = warm_start(model, dualpipe_reference(spec))
        sol = solve(model, SolveConfig(node_limit=node_limit), hint=hint)
        assert (sol.status, sol.stats["nodes"], sol.stats["stop"]) == \
            (status, 0, "bound-met")
        assert sol.op_times == hint.op_times

    def test_infeasible_hint_rejected(self):
        model, first = self.setup_pair()
        bad = Solution(status="feasible", objective=4.0,
                       assignment=dict(first.assignment),
                       op_times={"a": (0.0, 2.0), "b": (1.0, 4.0)})
        with pytest.raises(SolveError, match="infeasible"):
            warm_start(model, bad)


class TestPostPasses:
    def test_refine_idle_reduces_interior(self):
        # m0 runs the filler first, so the chain head starts late and
        # m0 sits idle waiting for the chain tail; running the head
        # first removes the interior gap entirely
        g = graph([op("a", 1), op("b", 3), op("c", 1), op("u", 3)],
                  [edge("a", "b"), edge("b", "c")])
        h = cluster(2)
        model = build(g, h)
        base = Solution(status="feasible", objective=8.0,
                        assignment={"a": "m0", "b": "m1", "c": "m0",
                                    "u": "m0"},
                        op_times={"u": (0.0, 3.0), "a": (3.0, 4.0),
                                  "b": (4.0, 7.0), "c": (7.0, 8.0)})
        capped = ModelOptions(memory_capped=True)
        assert verify(g, h, base, capped).feasible
        before = verify(g, h, base, capped).bubble_total
        assert before == 3.0
        refined = refine_idle(model, base)
        rep = verify(g, h, refined, capped)
        assert rep.feasible
        assert rep.makespan <= base.objective
        assert rep.bubble_total < before

    def test_refine_idle_noop_when_transfers_priced(self):
        g = graph([op("a", 1), op("b", 1)], [edge("a", "b", comm=1)])
        h = cluster(2)
        model = build(g, h)
        sol = solve(model)
        if sol.assignment["a"] != sol.assignment["b"]:
            assert refine_idle(model, sol) == sol

    def test_idle_refinement_keeps_status_and_bound(self):
        g = graph([op("a", 1), op("b", 3), op("c", 1), op("u", 3)],
                  [edge("a", "b"), edge("b", "c")])
        model = build(g, cluster(2))
        sol = refine_idle(model, solve(model))
        assert sol.status == "optimal"
        assert sol.bound == sol.objective


class TestDeterminismAndSerialization:
    def test_repeat_solves_identical(self):
        rng = random.Random(31)
        g, h, capped = random_small_instance(rng)
        model = build(g, h, memory_capped=capped)
        a = solve(model, SolveConfig(time_limit=30))
        b = solve(model, SolveConfig(time_limit=30))
        assert solution_text(a) == solution_text(b)

    def test_solution_round_trip(self):
        g = graph([op("a", 1), op("b", 1)], [edge("a", "b", comm=2)])
        sol = solve(build(g, cluster(2)))
        assert Solution.from_dict(json.loads(solution_text(sol))) == sol


class TestSolveConfig:
    @pytest.mark.parametrize("fields", [
        {"time_limit": float("nan")}, {"time_limit": -1.0},
        {"node_limit": -5}], ids=repr)
    def test_limit_that_never_stops_is_rejected(self, fields):
        with pytest.raises(ValueError):
            SolveConfig(**fields)

    def test_infinite_and_zero_limits_stay_valid(self):
        SolveConfig(time_limit=float("inf"))
        SolveConfig(time_limit=0.0, node_limit=0)

    def test_zero_node_limit_stops_at_the_root(self):
        g = graph([op("a", 1), op("b", 2)], [edge("a", "b")])
        sol = solve(build(g, cluster(2)), SolveConfig(node_limit=0))
        assert sol.status == "time-limit" and sol.objective is None
        assert sol.stats == {"nodes": 1, "stop": "node-limit",
                             "root_bound": 3.0,
                             "pruned": _NO_PRUNES}

    def test_stats_stay_out_of_the_document(self):
        g = graph([op("a", 1), op("b", 2)], [edge("a", "b")])
        sol = solve(build(g, cluster(2)))
        # the first schedule meets the root bound
        assert sol.stats == {"nodes": 3, "stop": "bound-met",
                             "root_bound": 3.0,
                             "pruned": _NO_PRUNES}
        assert "stats" not in sol.to_dict()
        assert Solution.from_dict(json.loads(solution_text(sol))).stats \
            is None

    def test_dfs_counts_its_prunes_by_reason(self):
        spec = DualPipeSpec(pp=2, micro_batches=6)
        g, h, options = gen_dualpipe(spec)
        model = clear_primal_bound(build_model(g, h, options))
        runs = [solve(model, SolveConfig(node_limit=300)).stats["pruned"]
                for _ in range(2)]
        assert runs == [{"bound-before-dispatch": 155,
                         "bound-after-dispatch": 168, "memory": 100}] * 2
        # under a bound that leaves no idle the pairs the rules leave out
        # count nowhere, and all 609 rejections are for memory
        bounded = set_primal_bound(model, dualpipe_primal_bound(spec))
        assert solve(bounded).stats["pruned"] == {
            "bound-before-dispatch": 0, "bound-after-dispatch": 0,
            "memory": 609}
        # the fixed-assignment enumeration counts none
        g = graph([op("a", 1), op("b", 2)], [edge("a", "b", comm=1)])
        assert "pruned" not in solve(build(g, cluster(2))).stats

    def test_exhausted_search_says_so(self):
        # optimum 4 against a root bound of 3: only the whole tree proves it
        g = graph([op("a", 2), op("b", 2), op("c", 2)])
        sol = solve(build(g, cluster(2)))
        assert sol.status == "optimal" and sol.objective == 4
        assert sol.stats["stop"] == "exhausted"


@pytest.mark.skipif(sys.implementation.name != "cpython"
                    or sys.version_info[:2] != (3, 11),
                    reason="frame sizes are CPython 3.11's")
def test_dfs_frame_does_not_grow():
    # a version of `_dfs` with one more parameter and two more locals made
    # the coarse solves of coarsen-chain DAGs 9 and 10 (benchmark seed 0)
    # take 45 ms instead of 13, with 4,248 minor page faults per solve
    # instead of 8: its frames crossed a chunk of the interpreter's data
    # stack at a depth the search keeps returning to
    code = _Search._dfs.__code__
    assert code.co_nlocals <= 24 and code.co_stacksize <= 11, (
        f"_dfs has {code.co_nlocals} locals and stack {code.co_stacksize}. "
        "Before raising either bound, count the minor page faults of each "
        "coarse and direct solve of coarsen-chain (resource.getrusage "
        "around `solve`, DAG seeds 0-11) against the parent commit, and "
        "time those solves.")
