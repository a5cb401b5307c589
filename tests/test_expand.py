"""`simulate.expand_schedule`: a coarse schedule mapped back onto the
original operations."""
import pytest

from opsched.coarsen import MergeRecord, coarsen
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


def coarse_two_chains():
    # edge merges alone meet budget 4, each a chain along its edges:
    # {b0,b1}, {b2,b3} and {a0,a1,a2}
    g = two_chains()
    coarse, records = coarsen(g, 4)
    assert sorted(r.absorbed for r in records) == [
        ("a0", "a1", "a2"), ("b0", "b1"), ("b2", "b3")]
    return g, coarse, records


def test_edge_merged_schedule_expands_to_feasible_original():
    g, coarse, records = coarse_two_chains()
    h = cluster(2)
    sol = solve(build_model(coarse, h))
    capped = ModelOptions(memory_capped=True)
    assert verify(coarse, h, sol, capped).feasible
    expanded = expand_schedule(sol, records, g)
    assert set(expanded.assignment) == set(g.operations)
    report = verify(g, h, expanded, capped)
    assert report.feasible, report.violations
    assert report.makespan == verify(coarse, h, sol, capped).makespan


def test_record_naming_unknown_operation_rejected():
    g, coarse, records = coarse_two_chains()
    sol = solve(build_model(coarse, cluster(2)))
    bad = records + [MergeRecord("m999", ("a0", "zz"))]
    with pytest.raises(ValueError, match="unknown operation 'zz'"):
        expand_schedule(sol, bad, g)
