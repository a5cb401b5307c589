"""The DualPipe generator, its hand-built reference schedule, and the two
bubble measures of `verify` it is judged by; the draws of the random DAG
generator."""
import hashlib
import json

import pytest

from opsched.graph import dump_computation_graph
from opsched.model import ModelOptions
from opsched.scenarios import (DualPipeSpec, RandomDagSpec,
                               dualpipe_bubble_target, dualpipe_primal_bound,
                               dualpipe_reference, gen_dualpipe,
                               gen_random_dag)
from opsched.simulate import verify
from opsched.solver import Solution

from conftest import cluster, graph, op


def test_reference_meets_bubble_target_at_pp2():
    spec = DualPipeSpec(pp=2)
    g, h, options = gen_dualpipe(spec)
    assert len(h.machines) == spec.pp
    # forward, input-gradient and weight-gradient per micro-batch and stage
    assert len(g) == 3 * spec.pp * spec.n_micro_batches
    sol = dualpipe_reference(spec)
    report = verify(g, h, sol, options)
    assert report.feasible, report.violations
    assert report.bubble_total == dualpipe_bubble_target(spec)
    assert report.makespan <= dualpipe_primal_bound(spec)


@pytest.mark.parametrize("pp, bubble_total", [(2, 0), (4, 2), (6, 6),
                                              (8, 12)])
def test_reference_has_half_the_formula_bubble(pp, bubble_total):
    # the formula counts the makespan minus each device's busy time; the
    # summed interior idle is another measure, pinned here beside it
    spec = DualPipeSpec(pp=pp)
    g, h, options = gen_dualpipe(spec)
    assert options.memory_capped
    report = verify(g, h, dualpipe_reference(spec), options)
    assert report.feasible, report.violations
    assert report.makespan <= dualpipe_primal_bound(spec)
    assert report.pipeline_bubble == dualpipe_bubble_target(spec) / 2
    assert report.bubble_total == bubble_total


def test_pipeline_bubble_counts_idle_at_the_ends_and_idle_machines():
    # m0 runs a at 1-2 and b at 3-4 in a makespan of 5: interior idle 1,
    # and 3 units of the makespan not busy; m1 runs c at 0-5; m2 is idle
    g = graph([op("a", 1), op("b", 1), op("c", 5)])
    sol = Solution(status="feasible", objective=5.0,
                   assignment={"a": "m0", "b": "m0", "c": "m1"},
                   op_times={"a": (1.0, 2.0), "b": (3.0, 4.0),
                             "c": (0.0, 5.0)})
    capped = ModelOptions(memory_capped=True)
    report = verify(g, cluster(2), sol, capped)
    assert report.feasible
    assert (report.bubble_total, report.pipeline_bubble) == (1, 3)
    assert verify(g, cluster(3), sol, capped).pipeline_bubble == 5


# spec -> (edges, sha256 of the sorted-key graph document); recorded
# while every node still rebuilt its list of candidate predecessors, so
# a generator that keeps that list up to date must draw the same graphs
RANDOM_DAG_GOLDEN = {
    (1, 3, 3, 0): (
        0, "5b9416624de856ede44330ab3084a5e4353c6dcc1a9128f0f92093c9fe95dd6c"),
    (400, 3, 3, 7): (
        619,
        "f7a9bcec3b66d777ba5453416f05c0f7a5df06db4a10f7259327ba1bf7f1e96e"),
    # an out-degree cap of 1 retires every predecessor it draws
    (400, 3, 1, 3): (
        397,
        "0ffeab526f6c16ae56e3564761d7ba43aa3a0191e93c3e0151ea55b090ffb0cd"),
    (60, 1, 1, 11): (
        22, "159d1ad75a49fd6997937b8804c8914b1b474e030cc2050ca2fcaddbd9933840"),
}


@pytest.mark.parametrize("nodes, max_in, max_out, seed", RANDOM_DAG_GOLDEN)
def test_random_dag_draws(nodes, max_in, max_out, seed):
    g = gen_random_dag(RandomDagSpec(nodes=nodes, max_in_degree=max_in,
                                     max_out_degree=max_out, seed=seed))
    doc = dump_computation_graph(g)
    digest = hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert (len(doc["edges"]), digest) == \
        RANDOM_DAG_GOLDEN[nodes, max_in, max_out, seed]
