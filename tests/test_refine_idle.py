"""`refine_idle` on random zero-comm schedules: whatever the annealing
does before its deadline, the result is a feasible schedule on the same
assignment that is no longer and has no more interior idle."""
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opsched.graph import WeightAsset
from opsched.model import ModelOptions, build_model
from opsched.simulate import verify
from opsched.solver import Solution, refine_idle

from conftest import cluster, edge, graph, op

_DUR = st.sampled_from([1, 1, 2, 3, 0.5])


@st.composite
def laid_out_schedules(draw):
    """4-12 ops with zero-comm edges, weights and activations on 2-3
    machines, a random assignment and random per-machine orders (a
    random topological order split by machine). Each op starts at its
    earliest start or, in half the cases, a random 0-2 units later:
    interior idle is common. Also returns a capacity that fits any
    order."""
    weights = [WeightAsset(f"w{k}", draw(st.sampled_from([0, 1, 2])), 1, 1)
               for k in range(draw(st.integers(0, 2)))]
    n = draw(st.integers(4, 12))
    ops = [op(f"o{k}", draw(_DUR), mem=draw(st.sampled_from([0, 0, 1, 2])),
              act=draw(st.sampled_from([-1, 0, 0, 1, 2])),
              refs=[w.id for w in weights if draw(st.booleans())])
           for k in range(n)]
    edges = [(a, b) for a in range(n) for b in range(a + 1, n)
             if draw(st.booleans())]
    g = graph(ops, [edge(f"o{a}", f"o{b}") for a, b in edges], weights)
    nm = draw(st.integers(2, 3))
    mach = [draw(st.integers(0, nm - 1)) for _ in range(n)]
    # a random topological order: repeatedly pick any op whose
    # predecessors are all placed
    succ = [[b for a, b in edges if a == k] for k in range(n)]
    indeg = [sum(1 for _, b in edges if b == k) for k in range(n)]
    ready, order = [k for k in range(n) if not indeg[k]], []
    while ready:
        k = ready.pop(draw(st.integers(0, len(ready) - 1)))
        order.append(k)
        for b in succ[k]:
            indeg[b] -= 1
            if not indeg[b]:
                ready.append(b)
    delays = draw(st.sampled_from([[0], [0, 0, 1, 2]]))
    end, free = [0.0] * n, [0.0] * nm
    for k in order:
        begin = max([free[mach[k]]] + [end[a] for a, b in edges if b == k])
        end[k] = free[mach[k]] = (begin + draw(st.sampled_from(delays))
                                  + ops[k].duration)
    names = [f"m{m}" for m in range(nm)]
    op_times = {f"o{k}": (end[k] - ops[k].duration, end[k])
                for k in range(n)}
    comm = {(f"o{a}", f"o{b}"): ((names[mach[a]], names[mach[b]]),
                                 op_times[f"o{a}"][1], op_times[f"o{a}"][1])
            for a, b in edges}
    sol = Solution(status="feasible",
                   objective=max(e for _, e in op_times.values()),
                   assignment={f"o{k}": names[mach[k]] for k in range(n)},
                   op_times=op_times, comm_times=comm)
    roomy = 1 + sum(o.weight_mem + abs(o.activation_delta) for o in ops) \
        + sum(w.size for w in weights)
    return g, nm, sol, roomy


@pytest.mark.parametrize("capped", [False, True], ids=["uncapped", "capped"])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(case=laid_out_schedules())
def test_refined_schedule_is_feasible_and_no_worse(capped, case):
    g, nm, sol, roomy = case
    cap = roomy
    if capped:
        # the least capacity the input fits, so many reorderings do not
        cap = next(c for c in range(1, roomy + 1) if verify(
            g, cluster(nm, cap=c), sol,
            ModelOptions(memory_capped=True)).feasible)
    h = cluster(nm, cap=cap)
    options = ModelOptions(memory_capped=capped)
    before = verify(g, h, sol, options)
    assert before.feasible
    model = build_model(g, h, options)
    out = refine_idle(model, sol, deadline=time.monotonic() + 0.05)
    after = verify(g, h, out, options)
    assert after.feasible, after.violations
    assert out.assignment == sol.assignment
    assert out.status == sol.status and out.bound == sol.bound
    assert after.makespan <= before.makespan + 1e-9
    assert after.bubble_total <= before.bubble_total + 1e-9


def test_layout_without_interior_idle_is_returned_laid_out():
    # the machine order a, b already has no interior idle once laid out
    # again, so there is nothing to anneal; the gap of the input itself
    # still goes
    g = graph([op("a", 1), op("b", 1)])
    h = cluster(1)
    sol = Solution(status="feasible", objective=4.0,
                   assignment={"a": "m0", "b": "m0"},
                   op_times={"a": (0.0, 1.0), "b": (3.0, 4.0)})
    capped = ModelOptions(memory_capped=True)
    before = verify(g, h, sol, capped)
    assert (before.bubble_total, before.makespan) == (2, 4)
    out = refine_idle(build_model(g, h), sol)
    after = verify(g, h, out, capped)
    assert after.feasible
    assert (after.bubble_total, after.makespan, out.objective) == (0, 2, 2)
    assert out.assignment == sol.assignment and out.status == sol.status
