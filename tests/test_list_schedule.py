"""The list-scheduling climb: verified schedules, deterministic output and
the models it refuses."""
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from opsched.graph import Channel, HardwareCluster, Machine, WeightAsset
from opsched.model import ModelError, ModelOptions, build_model
from opsched.scenarios import DualPipeSpec, gen_dualpipe
from opsched.simulate import verify
from opsched.solver import (SolveError, _Instance, _machine_automorphisms,
                            list_schedule)

from conftest import cluster, edge, graph, op, solution_text


@st.composite
def tiny_instances(draw, full_channels=False):
    """A zero-communication, static-loading instance of up to 6 ops on up
    to 3 machines, with shared weights and fractional durations.

    No duration is zero: `verify` orders ops that share a machine and an
    instant by id, so two zero-duration ops placed at one instant in the
    other order can fail its memory replay, from `solve` as from the
    climb (a known defect of the replay, recorded in CHANGES.md)."""
    n = draw(st.integers(1, 6))
    assets = [WeightAsset(f"w{k}", size=draw(st.integers(0, 2)))
              for k in range(draw(st.integers(0, 2)))]
    ops = [op(f"o{k}", draw(st.sampled_from([0.5, 1, 2, 3])),
              mem=draw(st.integers(0, 2)), act=draw(st.integers(-1, 2)),
              refs=draw(st.lists(st.sampled_from([w.id for w in assets]),
                                 max_size=2, unique=True))
              if assets else ())
           for k in range(n)]
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = [edge(f"o{a}", f"o{b}")
             for a, b in draw(st.lists(st.sampled_from(pairs), unique=True))
             ] if pairs else []
    nm = draw(st.integers(1, 3))
    machines = [Machine(f"m{k}", draw(st.integers(2, 9))) for k in range(nm)]
    links = [(a.id, b.id) for a in machines for b in machines if a != b]
    if not full_channels and links:
        links = draw(st.lists(st.sampled_from(links), unique=True))
    h = HardwareCluster(machines, [Channel(a, b) for a, b in links])
    options = ModelOptions(memory_capped=draw(st.booleans()))
    return graph(ops, edges, assets), h, options


def _model(g, h, options):
    try:
        return build_model(g, h, options)
    except ModelError:
        # some op fits on no machine
        assume(False)


@settings(max_examples=150, deadline=None)
@given(tiny_instances())
def test_every_schedule_verifies_at_its_objective(instance):
    g, h, options = instance
    sol = list_schedule(_model(g, h, options))
    if sol is not None:
        report = verify(g, h, sol, options)
        assert report.feasible, report.violations
        assert sol.objective == report.makespan
        assert sol.bound <= sol.objective


@settings(max_examples=60, deadline=None)
@given(tiny_instances(full_channels=True))
def test_an_uncapped_instance_always_gets_a_schedule(instance):
    g, h, _ = instance
    options = ModelOptions(memory_capped=False)
    sol = list_schedule(_model(g, h, options))
    assert sol is not None
    assert verify(g, h, sol, options).feasible


def test_two_calls_give_the_same_schedule():
    g, h, options = gen_dualpipe(DualPipeSpec(pp=4))
    model = build_model(g, h, options)
    first, second = list_schedule(model), list_schedule(model)
    assert solution_text(first) == solution_text(second)
    assert first.stats == second.stats


def test_dynamic_loading_is_refused():
    g = graph([op("a", refs=["w"])], weights=[WeightAsset("w", 1)])
    model = build_model(g, cluster(1), ModelOptions(dynamic_loading=True))
    with pytest.raises(SolveError, match="loads weights dynamically"):
        list_schedule(model)


def test_a_timed_transfer_is_refused():
    g = graph([op("a"), op("b")], [edge("a", "b", comm=1)])
    with pytest.raises(SolveError, match="a transfer takes time"):
        list_schedule(build_model(g, cluster(2), ModelOptions()))


@pytest.mark.parametrize("caps,channels,count", [
    # a ring of 4: 3 rotations and 4 reflections
    ((5, 5, 5, 5), "ring", 7),
    # capacities single out machine 0: only the reflection through it
    ((9, 5, 5, 5), "ring", 1),
    ((5, 5, 5), "full", 5),
    ((5, 5), "one-way", 0),
])
def test_machine_permutations_keep_capacities_and_channels(caps, channels,
                                                           count):
    machines = [Machine(f"m{k}", c) for k, c in enumerate(caps)]
    nm = len(machines)
    if channels == "ring":
        links = {(k, (k + 1) % nm) for k in range(nm)}
        links |= {(b, a) for a, b in links}
    elif channels == "full":
        links = {(a, b) for a in range(nm) for b in range(nm) if a != b}
    else:
        links = {(0, 1)}
    h = HardwareCluster(machines,
                        [Channel(f"m{a}", f"m{b}") for a, b in links])
    inst = _Instance(build_model(graph([op("a")]), h, ModelOptions()))
    perms = _machine_automorphisms(inst)
    assert len(perms) == count
    for p in perms:
        assert p != tuple(range(nm))
        assert all(caps[p[k]] == caps[k] for k in range(nm))
        assert {(p[a], p[b]) for a, b in links} == links
