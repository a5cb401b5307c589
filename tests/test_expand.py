"""`simulate.expand_schedule`: a coarse schedule mapped back onto the
original operations."""
import pytest

from opsched.coarsen import CoarsenConfig, MergeRecord, coarsen
from opsched.model import ModelOptions, build_model
from opsched.simulate import expand_schedule, verify
from opsched.solver import solve

from conftest import cluster, edge, graph, op


def two_chains():
    # two four-op chains joined by one cross edge; every edge carries a
    # transfer, so a split placement needs rebuilt transfer windows
    ops = [op(f"{c}{k}", 1, mem=1) for c in "ab" for k in range(4)]
    edges = [edge(f"{c}{k}", f"{c}{k + 1}", comm=1)
             for c in "ab" for k in range(3)]
    edges.append(edge("b1", "a3", comm=2))
    return graph(ops, edges)


def edge_merges_only(budget):
    # a non-edge merge needs a pair with total duration <= 0
    return CoarsenConfig(node_budget=budget, edge_merge_max_duration=2,
                         edge_merge_max_memory=1e9,
                         nonedge_merge_max_duration=0,
                         nonedge_merge_max_memory=0)


def test_edge_merged_schedule_expands_to_feasible_original():
    g, h = two_chains(), cluster(2)
    coarse, records = coarsen(g, edge_merges_only(1))
    assert records and len(coarse) < len(g)
    sol = solve(build_model(coarse, h))
    capped = ModelOptions(memory_capped=True)
    assert verify(coarse, h, sol, capped).feasible
    expanded = expand_schedule(sol, records, g)
    assert set(expanded.assignment) == set(g.operations)
    report = verify(g, h, expanded, capped)
    assert report.feasible, report.violations
    assert report.makespan == verify(coarse, h, sol, capped).makespan


def test_record_naming_unknown_operation_rejected():
    g, h = two_chains(), cluster(2)
    coarse, records = coarsen(g, edge_merges_only(1))
    sol = solve(build_model(coarse, h))
    bad = records + [MergeRecord("m999", ("a0", "zz"))]
    with pytest.raises(ValueError, match="unknown operation 'zz'"):
        expand_schedule(sol, bad, g)
