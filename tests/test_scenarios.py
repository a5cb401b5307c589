"""The DualPipe generator and its hand-built reference schedule."""
from opsched.scenarios import (DualPipeSpec, dualpipe_bubble_target,
                               dualpipe_primal_bound, dualpipe_reference,
                               gen_dualpipe)
from opsched.simulate import verify


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
