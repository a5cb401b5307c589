"""The DualPipe generator, its hand-built reference schedule, and the two
bubble measures of `verify` it is judged by."""
import pytest

from opsched.scenarios import (DualPipeSpec, dualpipe_bubble_target,
                               dualpipe_primal_bound, dualpipe_reference,
                               gen_dualpipe)
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
    report = verify(g, h, sol, capped=options.memory_capped)
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
    report = verify(g, h, dualpipe_reference(spec), capped=True)
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
    report = verify(g, cluster(2), sol)
    assert report.feasible
    assert (report.bubble_total, report.pipeline_bubble) == (1, 3)
    assert verify(g, cluster(3), sol).pipeline_bubble == 5
