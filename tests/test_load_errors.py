"""Column checks keep every loader error as the per-entry checks word it.

The loaders check a section of a document by field column and, when a
column fails, build that section entry by entry, so the first bad entry
raises the error it always raised. Each case puts a bad value in the
first entry or in a later one ("first" or "later"), with a second bad
entry after it, or in the first or the last entry alone, and expects
the message word for word.
"""
import json

import pytest

from opsched.graph import (DependencyEdge, GraphError, Operation,
                           dump_cluster, dump_computation_graph, load_cluster,
                           load_computation_graph)
from opsched.scenarios import (DualPipeSpec, RandomDagSpec, gen_dualpipe,
                               gen_random_dag)
from opsched.solver import Solution

HUGE = 10**400
HUGE_TEXT = "1" + "0" * 400  # "{HUGE}" in a recorded message

BAD_NUMBERS = {"text": "x", "bool": True, "nan": float("nan"),
               "inf": float("inf"), "huge": HUGE, "negative": -1}
NUMBER_FIELDS = [("operations", "duration"), ("operations", "weight_mem"),
                 ("operations", "activation_delta"),
                 ("edges", "comm_duration"), ("weights", "size"),
                 ("weights", "load_cost"), ("weights", "unload_cost"),
                 ("machines", "memory_capacity")]
# the bad entry and the second bad entry after it, if any
POSITIONS = {"first": (0, 2), "later": (1, 3), "first-alone": (0, None),
             "last-alone": (3, None)}
CLUSTER_SECTIONS = ("machines", "channels")
SECOND = "zz"  # the second bad entry's value


def _documents():
    graph = {"operations": [{"id": i, "duration": k + 1}
                            for k, i in enumerate("abcd")],
             "edges": [{"from": a, "to": b}
                       for a, b in ("ab", "bc", "cd", "ad")],
             "weights": [{"id": f"w{k}", "size": 1} for k in range(4)]}
    cluster = {"machines": [{"id": f"m{k}", "memory_capacity": 4}
                            for k in range(4)],
               "channels": [{"from": f"m{a}", "to": f"m{b}"}
                            for a, b in ("01", "12", "23", "30")]}
    return graph, cluster


def _corrupt(entry, other, kind, field):
    """Make `entry` bad by `kind` and `other` bad by a second value."""
    if kind in BAD_NUMBERS:
        entry[field], other[field] = BAD_NUMBERS[kind], SECOND
    elif kind == "zero":
        entry[field], other[field] = 0, SECOND
    elif kind == "arrow":
        entry["id"], other["id"] = entry["id"] + "->z", other["id"] + "->z"
    elif kind == "self":
        entry["to"], other["to"] = entry["from"], other["from"]
    elif kind == "refs":
        entry["weight_refs"], other["weight_refs"] = "w0", 5
    elif kind == "unknown":
        entry["speed"], other[SECOND] = 3, 1
    elif kind == "missing":
        del entry[field], other[field]
    elif kind == "dangling":
        entry[field], other[field] = "nowhere", SECOND
    else:
        raise AssertionError(kind)


GRAPH_CASES = (
    [(s, f, k) for s, f in NUMBER_FIELDS for k in BAD_NUMBERS]
    + [("machines", "memory_capacity", "zero"),
       ("operations", "id", "arrow"), ("edges", "to", "self"),
       ("operations", "weight_refs", "refs")]
    + [(s, f, "missing") for s, f in [
        ("operations", "duration"), ("operations", "id"), ("edges", "to"),
        ("weights", "size"), ("machines", "memory_capacity"),
        ("channels", "from")]]
    + [(s, None, "unknown") for s in ("operations", "edges", "weights",
                                      "machines", "channels")]
    + [(s, None, "duplicate") for s in ("operations", "edges", "weights",
                                        "machines", "channels")]
    + [("edges", "to", "dangling"), ("edges", "from", "dangling"),
       ("channels", "to", "dangling")])


def _graph_case(section, field, kind, where):
    graph, cluster = _documents()
    doc = cluster if section in CLUSTER_SECTIONS else graph
    first, second = POSITIONS[where]
    entries = doc[section]
    if kind == "duplicate":
        # the bad entry and the next one (the one before, for the last)
        # are the same, and a second bad entry repeats the first
        a, b = (first, first + 1) if first < 3 else (2, 3)
        entries[b] = dict(entries[a])
        if second is not None:
            entries[3] = dict(entries[0])
    else:
        # with no second bad entry, a copy takes the second value
        other = dict(entries[first]) if second is None else entries[second]
        _corrupt(entries[first], other, kind, field)
    load = load_cluster if doc is cluster else load_computation_graph
    return load, doc


def graph_case_id(section, field, kind, where):
    return ".".join(x for x in (section, field, kind, where) if x)


def _solution():
    return {"status": "feasible", "objective": 2.0,
            "assignment": {i: "m0" for i in "abcd"},
            "op_times": {i: [0.0, 1.0] for i in "abcd"},
            "comm_times": {f"{a}->{b}": [["m0", "m1"], 1.0, 1.0]
                           for a, b in ("ab", "bc", "cd", "ad")}}


SOLUTION_CASES = (
    [("op_times", k) for k in list(BAD_NUMBERS) + ["short", "row"]]
    + [("comm_times", k) for k in list(BAD_NUMBERS)
       + ["short", "row", "chan", "chan-end", "key"]])


def _solution_case(section, kind, where):
    doc = _solution()
    first, second = POSITIONS[where]
    table = doc[section]
    keys = list(table)
    bad_rows = [(keys[first], kind)]
    if second is not None:
        bad_rows.append((keys[second], "text"))
    for k, bad in bad_rows:
        value = table[k]
        if bad in BAD_NUMBERS:
            # a time in an op row, an end time in a transfer row
            value[-1] = BAD_NUMBERS[bad]
        elif bad == "short":
            table[k] = value[:-1]
        elif bad == "row":
            table[k] = "x"
        elif bad == "chan":
            value[0] = "m0m1"
        elif bad == "chan-end":
            value[0] = ["m0", 1]
        elif bad == "key":
            table = {(key.replace("->", "") if key == k else key): v
                     for key, v in table.items()}
    doc[section] = table
    return doc


def solution_case_id(section, kind, where):
    return f"{section}.{kind}.{where}"


def _outcome(load, doc, error=ValueError):
    """The message of the `error` `load` raises on `doc`, or None when it
    loads."""
    try:
        load(doc)
    except error as e:
        return str(e).replace(HUGE_TEXT, "{HUGE}")
    return None


@pytest.mark.parametrize("where", POSITIONS)
@pytest.mark.parametrize("section, field, kind", GRAPH_CASES,
                         ids=lambda x: str(x))
def test_graph_or_cluster_error_is_as_recorded(section, field, kind, where):
    load, doc = _graph_case(section, field, kind, where)
    assert _outcome(load, doc, GraphError) == EXPECTED[
        graph_case_id(section, field, kind, where)]


@pytest.mark.parametrize("where", POSITIONS)
@pytest.mark.parametrize("section, kind", SOLUTION_CASES,
                         ids=lambda x: str(x))
def test_solution_error_is_as_recorded(section, kind, where):
    doc = _solution_case(section, kind, where)
    assert _outcome(Solution.from_dict, doc) == EXPECTED[
        solution_case_id(section, kind, where)]


def test_every_case_has_a_recorded_message():
    ids = {graph_case_id(*c, w) for c in GRAPH_CASES for w in POSITIONS}
    ids |= {solution_case_id(*c, w) for c in SOLUTION_CASES
            for w in POSITIONS}
    assert ids == set(EXPECTED)


def _random_dag_document():
    return {"graph": dump_computation_graph(
        gen_random_dag(RandomDagSpec(nodes=400, seed=0))),
        "cluster": {"machines": [{"id": "m0", "memory_capacity": 5}],
                    "channels": []}}


def _dualpipe_document():
    # weight refs and negative activations
    g, h, _ = gen_dualpipe(DualPipeSpec(pp=4))
    return {"graph": dump_computation_graph(g), "cluster": dump_cluster(h)}


@pytest.mark.parametrize("make", [_random_dag_document, _dualpipe_document],
                         ids=["random-400", "dualpipe-pp4"])
def test_clean_documents_run_no_per_entry_check(monkeypatch, make):
    doc = json.loads(json.dumps(make()))
    calls = []
    for cls in (Operation, DependencyEdge):
        monkeypatch.setattr(cls, "__post_init__",
                            lambda self: calls.append(self))
    g = load_computation_graph(doc["graph"])
    h = load_cluster(doc["cluster"])
    assert dump_computation_graph(g) == doc["graph"]
    assert dump_cluster(h) == doc["cluster"]
    assert calls == []
    # a direct constructor call still checks itself
    Operation("a", 1)
    assert len(calls) == 1


# None: the document loads
EXPECTED = {
    'operations.duration.text.first':
        "duration of 'a' must be a number, got 'x'",
    'operations.duration.text.later':
        "duration of 'b' must be a number, got 'x'",
    'operations.duration.text.first-alone':
        "duration of 'a' must be a number, got 'x'",
    'operations.duration.text.last-alone':
        "duration of 'd' must be a number, got 'x'",
    'operations.duration.bool.first':
        "duration of 'a' must be a number, got True",
    'operations.duration.bool.later':
        "duration of 'b' must be a number, got True",
    'operations.duration.bool.first-alone':
        "duration of 'a' must be a number, got True",
    'operations.duration.bool.last-alone':
        "duration of 'd' must be a number, got True",
    'operations.duration.nan.first':
        "duration of 'a' must be finite, got nan",
    'operations.duration.nan.later':
        "duration of 'b' must be finite, got nan",
    'operations.duration.nan.first-alone':
        "duration of 'a' must be finite, got nan",
    'operations.duration.nan.last-alone':
        "duration of 'd' must be finite, got nan",
    'operations.duration.inf.first':
        "duration of 'a' must be finite, got inf",
    'operations.duration.inf.later':
        "duration of 'b' must be finite, got inf",
    'operations.duration.inf.first-alone':
        "duration of 'a' must be finite, got inf",
    'operations.duration.inf.last-alone':
        "duration of 'd' must be finite, got inf",
    'operations.duration.huge.first':
        "duration of 'a' must be finite, got {HUGE}",
    'operations.duration.huge.later':
        "duration of 'b' must be finite, got {HUGE}",
    'operations.duration.huge.first-alone':
        "duration of 'a' must be finite, got {HUGE}",
    'operations.duration.huge.last-alone':
        "duration of 'd' must be finite, got {HUGE}",
    'operations.duration.negative.first':
        "duration of 'a' must be non-negative, got -1",
    'operations.duration.negative.later':
        "duration of 'b' must be non-negative, got -1",
    'operations.duration.negative.first-alone':
        "duration of 'a' must be non-negative, got -1",
    'operations.duration.negative.last-alone':
        "duration of 'd' must be non-negative, got -1",
    'operations.weight_mem.text.first':
        "weight_mem of 'a' must be a number, got 'x'",
    'operations.weight_mem.text.later':
        "weight_mem of 'b' must be a number, got 'x'",
    'operations.weight_mem.text.first-alone':
        "weight_mem of 'a' must be a number, got 'x'",
    'operations.weight_mem.text.last-alone':
        "weight_mem of 'd' must be a number, got 'x'",
    'operations.weight_mem.bool.first':
        "weight_mem of 'a' must be a number, got True",
    'operations.weight_mem.bool.later':
        "weight_mem of 'b' must be a number, got True",
    'operations.weight_mem.bool.first-alone':
        "weight_mem of 'a' must be a number, got True",
    'operations.weight_mem.bool.last-alone':
        "weight_mem of 'd' must be a number, got True",
    'operations.weight_mem.nan.first':
        "weight_mem of 'a' must be finite, got nan",
    'operations.weight_mem.nan.later':
        "weight_mem of 'b' must be finite, got nan",
    'operations.weight_mem.nan.first-alone':
        "weight_mem of 'a' must be finite, got nan",
    'operations.weight_mem.nan.last-alone':
        "weight_mem of 'd' must be finite, got nan",
    'operations.weight_mem.inf.first':
        "weight_mem of 'a' must be finite, got inf",
    'operations.weight_mem.inf.later':
        "weight_mem of 'b' must be finite, got inf",
    'operations.weight_mem.inf.first-alone':
        "weight_mem of 'a' must be finite, got inf",
    'operations.weight_mem.inf.last-alone':
        "weight_mem of 'd' must be finite, got inf",
    'operations.weight_mem.huge.first':
        "weight_mem of 'a' must be finite, got {HUGE}",
    'operations.weight_mem.huge.later':
        "weight_mem of 'b' must be finite, got {HUGE}",
    'operations.weight_mem.huge.first-alone':
        "weight_mem of 'a' must be finite, got {HUGE}",
    'operations.weight_mem.huge.last-alone':
        "weight_mem of 'd' must be finite, got {HUGE}",
    'operations.weight_mem.negative.first':
        "weight_mem of 'a' must be non-negative, got -1",
    'operations.weight_mem.negative.later':
        "weight_mem of 'b' must be non-negative, got -1",
    'operations.weight_mem.negative.first-alone':
        "weight_mem of 'a' must be non-negative, got -1",
    'operations.weight_mem.negative.last-alone':
        "weight_mem of 'd' must be non-negative, got -1",
    'operations.activation_delta.text.first':
        "activation_delta of 'a' must be a number, got 'x'",
    'operations.activation_delta.text.later':
        "activation_delta of 'b' must be a number, got 'x'",
    'operations.activation_delta.text.first-alone':
        "activation_delta of 'a' must be a number, got 'x'",
    'operations.activation_delta.text.last-alone':
        "activation_delta of 'd' must be a number, got 'x'",
    'operations.activation_delta.bool.first':
        "activation_delta of 'a' must be a number, got True",
    'operations.activation_delta.bool.later':
        "activation_delta of 'b' must be a number, got True",
    'operations.activation_delta.bool.first-alone':
        "activation_delta of 'a' must be a number, got True",
    'operations.activation_delta.bool.last-alone':
        "activation_delta of 'd' must be a number, got True",
    'operations.activation_delta.nan.first':
        "activation_delta of 'a' must be finite, got nan",
    'operations.activation_delta.nan.later':
        "activation_delta of 'b' must be finite, got nan",
    'operations.activation_delta.nan.first-alone':
        "activation_delta of 'a' must be finite, got nan",
    'operations.activation_delta.nan.last-alone':
        "activation_delta of 'd' must be finite, got nan",
    'operations.activation_delta.inf.first':
        "activation_delta of 'a' must be finite, got inf",
    'operations.activation_delta.inf.later':
        "activation_delta of 'b' must be finite, got inf",
    'operations.activation_delta.inf.first-alone':
        "activation_delta of 'a' must be finite, got inf",
    'operations.activation_delta.inf.last-alone':
        "activation_delta of 'd' must be finite, got inf",
    'operations.activation_delta.huge.first':
        "activation_delta of 'a' must be finite, got {HUGE}",
    'operations.activation_delta.huge.later':
        "activation_delta of 'b' must be finite, got {HUGE}",
    'operations.activation_delta.huge.first-alone':
        "activation_delta of 'a' must be finite, got {HUGE}",
    'operations.activation_delta.huge.last-alone':
        "activation_delta of 'd' must be finite, got {HUGE}",
    'operations.activation_delta.negative.first':
        "activation_delta of 'c' must be a number, got 'zz'",
    'operations.activation_delta.negative.later':
        "activation_delta of 'd' must be a number, got 'zz'",
    'operations.activation_delta.negative.first-alone':
        None,
    'operations.activation_delta.negative.last-alone':
        None,
    'edges.comm_duration.text.first':
        "comm_duration of 'a->b' must be a number, got 'x'",
    'edges.comm_duration.text.later':
        "comm_duration of 'b->c' must be a number, got 'x'",
    'edges.comm_duration.text.first-alone':
        "comm_duration of 'a->b' must be a number, got 'x'",
    'edges.comm_duration.text.last-alone':
        "comm_duration of 'a->d' must be a number, got 'x'",
    'edges.comm_duration.bool.first':
        "comm_duration of 'a->b' must be a number, got True",
    'edges.comm_duration.bool.later':
        "comm_duration of 'b->c' must be a number, got True",
    'edges.comm_duration.bool.first-alone':
        "comm_duration of 'a->b' must be a number, got True",
    'edges.comm_duration.bool.last-alone':
        "comm_duration of 'a->d' must be a number, got True",
    'edges.comm_duration.nan.first':
        "comm_duration of 'a->b' must be finite, got nan",
    'edges.comm_duration.nan.later':
        "comm_duration of 'b->c' must be finite, got nan",
    'edges.comm_duration.nan.first-alone':
        "comm_duration of 'a->b' must be finite, got nan",
    'edges.comm_duration.nan.last-alone':
        "comm_duration of 'a->d' must be finite, got nan",
    'edges.comm_duration.inf.first':
        "comm_duration of 'a->b' must be finite, got inf",
    'edges.comm_duration.inf.later':
        "comm_duration of 'b->c' must be finite, got inf",
    'edges.comm_duration.inf.first-alone':
        "comm_duration of 'a->b' must be finite, got inf",
    'edges.comm_duration.inf.last-alone':
        "comm_duration of 'a->d' must be finite, got inf",
    'edges.comm_duration.huge.first':
        "comm_duration of 'a->b' must be finite, got {HUGE}",
    'edges.comm_duration.huge.later':
        "comm_duration of 'b->c' must be finite, got {HUGE}",
    'edges.comm_duration.huge.first-alone':
        "comm_duration of 'a->b' must be finite, got {HUGE}",
    'edges.comm_duration.huge.last-alone':
        "comm_duration of 'a->d' must be finite, got {HUGE}",
    'edges.comm_duration.negative.first':
        "comm_duration of 'a->b' must be non-negative, got -1",
    'edges.comm_duration.negative.later':
        "comm_duration of 'b->c' must be non-negative, got -1",
    'edges.comm_duration.negative.first-alone':
        "comm_duration of 'a->b' must be non-negative, got -1",
    'edges.comm_duration.negative.last-alone':
        "comm_duration of 'a->d' must be non-negative, got -1",
    'weights.size.text.first':
        "size of 'w0' must be a number, got 'x'",
    'weights.size.text.later':
        "size of 'w1' must be a number, got 'x'",
    'weights.size.text.first-alone':
        "size of 'w0' must be a number, got 'x'",
    'weights.size.text.last-alone':
        "size of 'w3' must be a number, got 'x'",
    'weights.size.bool.first':
        "size of 'w0' must be a number, got True",
    'weights.size.bool.later':
        "size of 'w1' must be a number, got True",
    'weights.size.bool.first-alone':
        "size of 'w0' must be a number, got True",
    'weights.size.bool.last-alone':
        "size of 'w3' must be a number, got True",
    'weights.size.nan.first':
        "size of 'w0' must be finite, got nan",
    'weights.size.nan.later':
        "size of 'w1' must be finite, got nan",
    'weights.size.nan.first-alone':
        "size of 'w0' must be finite, got nan",
    'weights.size.nan.last-alone':
        "size of 'w3' must be finite, got nan",
    'weights.size.inf.first':
        "size of 'w0' must be finite, got inf",
    'weights.size.inf.later':
        "size of 'w1' must be finite, got inf",
    'weights.size.inf.first-alone':
        "size of 'w0' must be finite, got inf",
    'weights.size.inf.last-alone':
        "size of 'w3' must be finite, got inf",
    'weights.size.huge.first':
        "size of 'w0' must be finite, got {HUGE}",
    'weights.size.huge.later':
        "size of 'w1' must be finite, got {HUGE}",
    'weights.size.huge.first-alone':
        "size of 'w0' must be finite, got {HUGE}",
    'weights.size.huge.last-alone':
        "size of 'w3' must be finite, got {HUGE}",
    'weights.size.negative.first':
        "size of 'w0' must be non-negative, got -1",
    'weights.size.negative.later':
        "size of 'w1' must be non-negative, got -1",
    'weights.size.negative.first-alone':
        "size of 'w0' must be non-negative, got -1",
    'weights.size.negative.last-alone':
        "size of 'w3' must be non-negative, got -1",
    'weights.load_cost.text.first':
        "load_cost of 'w0' must be a number, got 'x'",
    'weights.load_cost.text.later':
        "load_cost of 'w1' must be a number, got 'x'",
    'weights.load_cost.text.first-alone':
        "load_cost of 'w0' must be a number, got 'x'",
    'weights.load_cost.text.last-alone':
        "load_cost of 'w3' must be a number, got 'x'",
    'weights.load_cost.bool.first':
        "load_cost of 'w0' must be a number, got True",
    'weights.load_cost.bool.later':
        "load_cost of 'w1' must be a number, got True",
    'weights.load_cost.bool.first-alone':
        "load_cost of 'w0' must be a number, got True",
    'weights.load_cost.bool.last-alone':
        "load_cost of 'w3' must be a number, got True",
    'weights.load_cost.nan.first':
        "load_cost of 'w0' must be finite, got nan",
    'weights.load_cost.nan.later':
        "load_cost of 'w1' must be finite, got nan",
    'weights.load_cost.nan.first-alone':
        "load_cost of 'w0' must be finite, got nan",
    'weights.load_cost.nan.last-alone':
        "load_cost of 'w3' must be finite, got nan",
    'weights.load_cost.inf.first':
        "load_cost of 'w0' must be finite, got inf",
    'weights.load_cost.inf.later':
        "load_cost of 'w1' must be finite, got inf",
    'weights.load_cost.inf.first-alone':
        "load_cost of 'w0' must be finite, got inf",
    'weights.load_cost.inf.last-alone':
        "load_cost of 'w3' must be finite, got inf",
    'weights.load_cost.huge.first':
        "load_cost of 'w0' must be finite, got {HUGE}",
    'weights.load_cost.huge.later':
        "load_cost of 'w1' must be finite, got {HUGE}",
    'weights.load_cost.huge.first-alone':
        "load_cost of 'w0' must be finite, got {HUGE}",
    'weights.load_cost.huge.last-alone':
        "load_cost of 'w3' must be finite, got {HUGE}",
    'weights.load_cost.negative.first':
        "load_cost of 'w0' must be non-negative, got -1",
    'weights.load_cost.negative.later':
        "load_cost of 'w1' must be non-negative, got -1",
    'weights.load_cost.negative.first-alone':
        "load_cost of 'w0' must be non-negative, got -1",
    'weights.load_cost.negative.last-alone':
        "load_cost of 'w3' must be non-negative, got -1",
    'weights.unload_cost.text.first':
        "unload_cost of 'w0' must be a number, got 'x'",
    'weights.unload_cost.text.later':
        "unload_cost of 'w1' must be a number, got 'x'",
    'weights.unload_cost.text.first-alone':
        "unload_cost of 'w0' must be a number, got 'x'",
    'weights.unload_cost.text.last-alone':
        "unload_cost of 'w3' must be a number, got 'x'",
    'weights.unload_cost.bool.first':
        "unload_cost of 'w0' must be a number, got True",
    'weights.unload_cost.bool.later':
        "unload_cost of 'w1' must be a number, got True",
    'weights.unload_cost.bool.first-alone':
        "unload_cost of 'w0' must be a number, got True",
    'weights.unload_cost.bool.last-alone':
        "unload_cost of 'w3' must be a number, got True",
    'weights.unload_cost.nan.first':
        "unload_cost of 'w0' must be finite, got nan",
    'weights.unload_cost.nan.later':
        "unload_cost of 'w1' must be finite, got nan",
    'weights.unload_cost.nan.first-alone':
        "unload_cost of 'w0' must be finite, got nan",
    'weights.unload_cost.nan.last-alone':
        "unload_cost of 'w3' must be finite, got nan",
    'weights.unload_cost.inf.first':
        "unload_cost of 'w0' must be finite, got inf",
    'weights.unload_cost.inf.later':
        "unload_cost of 'w1' must be finite, got inf",
    'weights.unload_cost.inf.first-alone':
        "unload_cost of 'w0' must be finite, got inf",
    'weights.unload_cost.inf.last-alone':
        "unload_cost of 'w3' must be finite, got inf",
    'weights.unload_cost.huge.first':
        "unload_cost of 'w0' must be finite, got {HUGE}",
    'weights.unload_cost.huge.later':
        "unload_cost of 'w1' must be finite, got {HUGE}",
    'weights.unload_cost.huge.first-alone':
        "unload_cost of 'w0' must be finite, got {HUGE}",
    'weights.unload_cost.huge.last-alone':
        "unload_cost of 'w3' must be finite, got {HUGE}",
    'weights.unload_cost.negative.first':
        "unload_cost of 'w0' must be non-negative, got -1",
    'weights.unload_cost.negative.later':
        "unload_cost of 'w1' must be non-negative, got -1",
    'weights.unload_cost.negative.first-alone':
        "unload_cost of 'w0' must be non-negative, got -1",
    'weights.unload_cost.negative.last-alone':
        "unload_cost of 'w3' must be non-negative, got -1",
    'machines.memory_capacity.text.first':
        "memory_capacity of 'm0' must be a number, got 'x'",
    'machines.memory_capacity.text.later':
        "memory_capacity of 'm1' must be a number, got 'x'",
    'machines.memory_capacity.text.first-alone':
        "memory_capacity of 'm0' must be a number, got 'x'",
    'machines.memory_capacity.text.last-alone':
        "memory_capacity of 'm3' must be a number, got 'x'",
    'machines.memory_capacity.bool.first':
        "memory_capacity of 'm0' must be a number, got True",
    'machines.memory_capacity.bool.later':
        "memory_capacity of 'm1' must be a number, got True",
    'machines.memory_capacity.bool.first-alone':
        "memory_capacity of 'm0' must be a number, got True",
    'machines.memory_capacity.bool.last-alone':
        "memory_capacity of 'm3' must be a number, got True",
    'machines.memory_capacity.nan.first':
        "memory_capacity of 'm0' must be finite, got nan",
    'machines.memory_capacity.nan.later':
        "memory_capacity of 'm1' must be finite, got nan",
    'machines.memory_capacity.nan.first-alone':
        "memory_capacity of 'm0' must be finite, got nan",
    'machines.memory_capacity.nan.last-alone':
        "memory_capacity of 'm3' must be finite, got nan",
    'machines.memory_capacity.inf.first':
        "memory_capacity of 'm0' must be finite, got inf",
    'machines.memory_capacity.inf.later':
        "memory_capacity of 'm1' must be finite, got inf",
    'machines.memory_capacity.inf.first-alone':
        "memory_capacity of 'm0' must be finite, got inf",
    'machines.memory_capacity.inf.last-alone':
        "memory_capacity of 'm3' must be finite, got inf",
    'machines.memory_capacity.huge.first':
        "memory_capacity of 'm0' must be finite, got {HUGE}",
    'machines.memory_capacity.huge.later':
        "memory_capacity of 'm1' must be finite, got {HUGE}",
    'machines.memory_capacity.huge.first-alone':
        "memory_capacity of 'm0' must be finite, got {HUGE}",
    'machines.memory_capacity.huge.last-alone':
        "memory_capacity of 'm3' must be finite, got {HUGE}",
    'machines.memory_capacity.negative.first':
        "memory_capacity of 'm0' must be non-negative, got -1",
    'machines.memory_capacity.negative.later':
        "memory_capacity of 'm1' must be non-negative, got -1",
    'machines.memory_capacity.negative.first-alone':
        "memory_capacity of 'm0' must be non-negative, got -1",
    'machines.memory_capacity.negative.last-alone':
        "memory_capacity of 'm3' must be non-negative, got -1",
    'machines.memory_capacity.zero.first':
        "memory_capacity of 'm0' must be positive",
    'machines.memory_capacity.zero.later':
        "memory_capacity of 'm1' must be positive",
    'machines.memory_capacity.zero.first-alone':
        "memory_capacity of 'm0' must be positive",
    'machines.memory_capacity.zero.last-alone':
        "memory_capacity of 'm3' must be positive",
    'operations.id.arrow.first':
        "operation id 'a->z' contains '->'",
    'operations.id.arrow.later':
        "operation id 'b->z' contains '->'",
    'operations.id.arrow.first-alone':
        "operation id 'a->z' contains '->'",
    'operations.id.arrow.last-alone':
        "operation id 'd->z' contains '->'",
    'edges.to.self.first':
        "self-dependency on 'a'",
    'edges.to.self.later':
        "self-dependency on 'b'",
    'edges.to.self.first-alone':
        "self-dependency on 'a'",
    'edges.to.self.last-alone':
        "self-dependency on 'a'",
    'operations.weight_refs.refs.first':
        "weight_refs of 'a' must be a list, got 'w0'",
    'operations.weight_refs.refs.later':
        "weight_refs of 'b' must be a list, got 'w0'",
    'operations.weight_refs.refs.first-alone':
        "weight_refs of 'a' must be a list, got 'w0'",
    'operations.weight_refs.refs.last-alone':
        "weight_refs of 'd' must be a list, got 'w0'",
    'operations.duration.missing.first':
        "operation missing id/duration: {'id': 'a'}",
    'operations.duration.missing.later':
        "operation missing id/duration: {'id': 'b'}",
    'operations.duration.missing.first-alone':
        "operation missing id/duration: {'id': 'a'}",
    'operations.duration.missing.last-alone':
        "operation missing id/duration: {'id': 'd'}",
    'operations.id.missing.first':
        "operation missing id/duration: {'duration': 1}",
    'operations.id.missing.later':
        "operation missing id/duration: {'duration': 2}",
    'operations.id.missing.first-alone':
        "operation missing id/duration: {'duration': 1}",
    'operations.id.missing.last-alone':
        "operation missing id/duration: {'duration': 4}",
    'edges.to.missing.first':
        "edge missing from/to: {'from': 'a'}",
    'edges.to.missing.later':
        "edge missing from/to: {'from': 'b'}",
    'edges.to.missing.first-alone':
        "edge missing from/to: {'from': 'a'}",
    'edges.to.missing.last-alone':
        "edge missing from/to: {'from': 'a'}",
    'weights.size.missing.first':
        "weight missing id/size: {'id': 'w0'}",
    'weights.size.missing.later':
        "weight missing id/size: {'id': 'w1'}",
    'weights.size.missing.first-alone':
        "weight missing id/size: {'id': 'w0'}",
    'weights.size.missing.last-alone':
        "weight missing id/size: {'id': 'w3'}",
    'machines.memory_capacity.missing.first':
        "machine missing id/memory_capacity: {'id': 'm0'}",
    'machines.memory_capacity.missing.later':
        "machine missing id/memory_capacity: {'id': 'm1'}",
    'machines.memory_capacity.missing.first-alone':
        "machine missing id/memory_capacity: {'id': 'm0'}",
    'machines.memory_capacity.missing.last-alone':
        "machine missing id/memory_capacity: {'id': 'm3'}",
    'channels.from.missing.first':
        "channel missing from/to: {'to': 'm1'}",
    'channels.from.missing.later':
        "channel missing from/to: {'to': 'm2'}",
    'channels.from.missing.first-alone':
        "channel missing from/to: {'to': 'm1'}",
    'channels.from.missing.last-alone':
        "channel missing from/to: {'to': 'm0'}",
    'operations.unknown.first':
        "unknown fields ['speed'] in operation: {'id': 'a', "
        "'duration': 1, 'speed': 3}",
    'operations.unknown.later':
        "unknown fields ['speed'] in operation: {'id': 'b', "
        "'duration': 2, 'speed': 3}",
    'operations.unknown.first-alone':
        "unknown fields ['speed'] in operation: {'id': 'a', "
        "'duration': 1, 'speed': 3}",
    'operations.unknown.last-alone':
        "unknown fields ['speed'] in operation: {'id': 'd', "
        "'duration': 4, 'speed': 3}",
    'edges.unknown.first':
        "unknown fields ['speed'] in edge: {'from': 'a', 'to': 'b', "
        "'speed': 3}",
    'edges.unknown.later':
        "unknown fields ['speed'] in edge: {'from': 'b', 'to': 'c', "
        "'speed': 3}",
    'edges.unknown.first-alone':
        "unknown fields ['speed'] in edge: {'from': 'a', 'to': 'b', "
        "'speed': 3}",
    'edges.unknown.last-alone':
        "unknown fields ['speed'] in edge: {'from': 'a', 'to': 'd', "
        "'speed': 3}",
    'weights.unknown.first':
        "unknown fields ['speed'] in weight: {'id': 'w0', 'size': 1, "
        "'speed': 3}",
    'weights.unknown.later':
        "unknown fields ['speed'] in weight: {'id': 'w1', 'size': 1, "
        "'speed': 3}",
    'weights.unknown.first-alone':
        "unknown fields ['speed'] in weight: {'id': 'w0', 'size': 1, "
        "'speed': 3}",
    'weights.unknown.last-alone':
        "unknown fields ['speed'] in weight: {'id': 'w3', 'size': 1, "
        "'speed': 3}",
    'machines.unknown.first':
        "unknown fields ['speed'] in machine: {'id': 'm0', "
        "'memory_capacity': 4, 'speed': 3}",
    'machines.unknown.later':
        "unknown fields ['speed'] in machine: {'id': 'm1', "
        "'memory_capacity': 4, 'speed': 3}",
    'machines.unknown.first-alone':
        "unknown fields ['speed'] in machine: {'id': 'm0', "
        "'memory_capacity': 4, 'speed': 3}",
    'machines.unknown.last-alone':
        "unknown fields ['speed'] in machine: {'id': 'm3', "
        "'memory_capacity': 4, 'speed': 3}",
    'channels.unknown.first':
        "unknown fields ['speed'] in channel: {'from': 'm0', 'to': "
        "'m1', 'speed': 3}",
    'channels.unknown.later':
        "unknown fields ['speed'] in channel: {'from': 'm1', 'to': "
        "'m2', 'speed': 3}",
    'channels.unknown.first-alone':
        "unknown fields ['speed'] in channel: {'from': 'm0', 'to': "
        "'m1', 'speed': 3}",
    'channels.unknown.last-alone':
        "unknown fields ['speed'] in channel: {'from': 'm3', 'to': "
        "'m0', 'speed': 3}",
    'operations.duplicate.first':
        "duplicate operation id 'a'",
    'operations.duplicate.later':
        "duplicate operation id 'b'",
    'operations.duplicate.first-alone':
        "duplicate operation id 'a'",
    'operations.duplicate.last-alone':
        "duplicate operation id 'c'",
    'edges.duplicate.first':
        "duplicate edge 'a'->'b'",
    'edges.duplicate.later':
        "duplicate edge 'b'->'c'",
    'edges.duplicate.first-alone':
        "duplicate edge 'a'->'b'",
    'edges.duplicate.last-alone':
        "duplicate edge 'c'->'d'",
    'weights.duplicate.first':
        "duplicate weight id 'w0'",
    'weights.duplicate.later':
        "duplicate weight id 'w1'",
    'weights.duplicate.first-alone':
        "duplicate weight id 'w0'",
    'weights.duplicate.last-alone':
        "duplicate weight id 'w2'",
    'machines.duplicate.first':
        "duplicate machine id 'm0'",
    'machines.duplicate.later':
        "duplicate machine id 'm1'",
    'machines.duplicate.first-alone':
        "duplicate machine id 'm0'",
    'machines.duplicate.last-alone':
        "duplicate machine id 'm2'",
    'channels.duplicate.first':
        "duplicate channel 'm0'->'m1'",
    'channels.duplicate.later':
        "duplicate channel 'm1'->'m2'",
    'channels.duplicate.first-alone':
        "duplicate channel 'm0'->'m1'",
    'channels.duplicate.last-alone':
        "duplicate channel 'm2'->'m3'",
    'edges.to.dangling.first':
        "edge 'a'->'nowhere' references unknown operation 'nowhere'",
    'edges.to.dangling.later':
        "edge 'b'->'nowhere' references unknown operation 'nowhere'",
    'edges.to.dangling.first-alone':
        "edge 'a'->'nowhere' references unknown operation 'nowhere'",
    'edges.to.dangling.last-alone':
        "edge 'a'->'nowhere' references unknown operation 'nowhere'",
    'edges.from.dangling.first':
        "edge 'nowhere'->'b' references unknown operation 'nowhere'",
    'edges.from.dangling.later':
        "edge 'nowhere'->'c' references unknown operation 'nowhere'",
    'edges.from.dangling.first-alone':
        "edge 'nowhere'->'b' references unknown operation 'nowhere'",
    'edges.from.dangling.last-alone':
        "edge 'nowhere'->'d' references unknown operation 'nowhere'",
    'channels.to.dangling.first':
        "channel 'm0'->'nowhere' references unknown machine 'nowhere'",
    'channels.to.dangling.later':
        "channel 'm1'->'nowhere' references unknown machine 'nowhere'",
    'channels.to.dangling.first-alone':
        "channel 'm0'->'nowhere' references unknown machine 'nowhere'",
    'channels.to.dangling.last-alone':
        "channel 'm3'->'nowhere' references unknown machine 'nowhere'",
    'op_times.text.first':
        "malformed solution op_times['a']: [0.0, 'x']",
    'op_times.text.later':
        "malformed solution op_times['b']: [0.0, 'x']",
    'op_times.text.first-alone':
        "malformed solution op_times['a']: [0.0, 'x']",
    'op_times.text.last-alone':
        "malformed solution op_times['d']: [0.0, 'x']",
    'op_times.bool.first':
        "malformed solution op_times['a']: [0.0, True]",
    'op_times.bool.later':
        "malformed solution op_times['b']: [0.0, True]",
    'op_times.bool.first-alone':
        "malformed solution op_times['a']: [0.0, True]",
    'op_times.bool.last-alone':
        "malformed solution op_times['d']: [0.0, True]",
    'op_times.nan.first':
        "malformed solution op_times['a']: [0.0, nan]",
    'op_times.nan.later':
        "malformed solution op_times['b']: [0.0, nan]",
    'op_times.nan.first-alone':
        "malformed solution op_times['a']: [0.0, nan]",
    'op_times.nan.last-alone':
        "malformed solution op_times['d']: [0.0, nan]",
    'op_times.inf.first':
        "malformed solution op_times['a']: [0.0, inf]",
    'op_times.inf.later':
        "malformed solution op_times['b']: [0.0, inf]",
    'op_times.inf.first-alone':
        "malformed solution op_times['a']: [0.0, inf]",
    'op_times.inf.last-alone':
        "malformed solution op_times['d']: [0.0, inf]",
    'op_times.huge.first':
        "malformed solution op_times['a']: [0.0, {HUGE}]",
    'op_times.huge.later':
        "malformed solution op_times['b']: [0.0, {HUGE}]",
    'op_times.huge.first-alone':
        "malformed solution op_times['a']: [0.0, {HUGE}]",
    'op_times.huge.last-alone':
        "malformed solution op_times['d']: [0.0, {HUGE}]",
    'op_times.negative.first':
        "malformed solution op_times['c']: [0.0, 'x']",
    'op_times.negative.later':
        "malformed solution op_times['d']: [0.0, 'x']",
    'op_times.negative.first-alone':
        None,
    'op_times.negative.last-alone':
        None,
    'op_times.short.first':
        "malformed solution op_times['a']: [0.0]",
    'op_times.short.later':
        "malformed solution op_times['b']: [0.0]",
    'op_times.short.first-alone':
        "malformed solution op_times['a']: [0.0]",
    'op_times.short.last-alone':
        "malformed solution op_times['d']: [0.0]",
    'op_times.row.first':
        "malformed solution op_times['a']: 'x'",
    'op_times.row.later':
        "malformed solution op_times['b']: 'x'",
    'op_times.row.first-alone':
        "malformed solution op_times['a']: 'x'",
    'op_times.row.last-alone':
        "malformed solution op_times['d']: 'x'",
    'comm_times.text.first':
        "malformed solution comm_times['a->b']: [1.0, 'x']",
    'comm_times.text.later':
        "malformed solution comm_times['b->c']: [1.0, 'x']",
    'comm_times.text.first-alone':
        "malformed solution comm_times['a->b']: [1.0, 'x']",
    'comm_times.text.last-alone':
        "malformed solution comm_times['a->d']: [1.0, 'x']",
    'comm_times.bool.first':
        "malformed solution comm_times['a->b']: [1.0, True]",
    'comm_times.bool.later':
        "malformed solution comm_times['b->c']: [1.0, True]",
    'comm_times.bool.first-alone':
        "malformed solution comm_times['a->b']: [1.0, True]",
    'comm_times.bool.last-alone':
        "malformed solution comm_times['a->d']: [1.0, True]",
    'comm_times.nan.first':
        "malformed solution comm_times['a->b']: [1.0, nan]",
    'comm_times.nan.later':
        "malformed solution comm_times['b->c']: [1.0, nan]",
    'comm_times.nan.first-alone':
        "malformed solution comm_times['a->b']: [1.0, nan]",
    'comm_times.nan.last-alone':
        "malformed solution comm_times['a->d']: [1.0, nan]",
    'comm_times.inf.first':
        "malformed solution comm_times['a->b']: [1.0, inf]",
    'comm_times.inf.later':
        "malformed solution comm_times['b->c']: [1.0, inf]",
    'comm_times.inf.first-alone':
        "malformed solution comm_times['a->b']: [1.0, inf]",
    'comm_times.inf.last-alone':
        "malformed solution comm_times['a->d']: [1.0, inf]",
    'comm_times.huge.first':
        "malformed solution comm_times['a->b']: [1.0, {HUGE}]",
    'comm_times.huge.later':
        "malformed solution comm_times['b->c']: [1.0, {HUGE}]",
    'comm_times.huge.first-alone':
        "malformed solution comm_times['a->b']: [1.0, {HUGE}]",
    'comm_times.huge.last-alone':
        "malformed solution comm_times['a->d']: [1.0, {HUGE}]",
    'comm_times.negative.first':
        "malformed solution comm_times['c->d']: [1.0, 'x']",
    'comm_times.negative.later':
        "malformed solution comm_times['a->d']: [1.0, 'x']",
    'comm_times.negative.first-alone':
        None,
    'comm_times.negative.last-alone':
        None,
    'comm_times.short.first':
        "malformed solution comm_times['a->b']: [['m0', 'm1'], 1.0]",
    'comm_times.short.later':
        "malformed solution comm_times['b->c']: [['m0', 'm1'], 1.0]",
    'comm_times.short.first-alone':
        "malformed solution comm_times['a->b']: [['m0', 'm1'], 1.0]",
    'comm_times.short.last-alone':
        "malformed solution comm_times['a->d']: [['m0', 'm1'], 1.0]",
    'comm_times.row.first':
        "malformed solution comm_times['a->b']: 'x'",
    'comm_times.row.later':
        "malformed solution comm_times['b->c']: 'x'",
    'comm_times.row.first-alone':
        "malformed solution comm_times['a->b']: 'x'",
    'comm_times.row.last-alone':
        "malformed solution comm_times['a->d']: 'x'",
    'comm_times.chan.first':
        "malformed solution comm_times['a->b']: 'm0m1'",
    'comm_times.chan.later':
        "malformed solution comm_times['b->c']: 'm0m1'",
    'comm_times.chan.first-alone':
        "malformed solution comm_times['a->b']: 'm0m1'",
    'comm_times.chan.last-alone':
        "malformed solution comm_times['a->d']: 'm0m1'",
    'comm_times.chan-end.first':
        "malformed solution comm_times['a->b']: ['m0', 1]",
    'comm_times.chan-end.later':
        "malformed solution comm_times['b->c']: ['m0', 1]",
    'comm_times.chan-end.first-alone':
        "malformed solution comm_times['a->b']: ['m0', 1]",
    'comm_times.chan-end.last-alone':
        "malformed solution comm_times['a->d']: ['m0', 1]",
    'comm_times.key.first':
        "malformed solution comm_times key: 'ab'",
    'comm_times.key.later':
        "malformed solution comm_times key: 'bc'",
    'comm_times.key.first-alone':
        "malformed solution comm_times key: 'ab'",
    'comm_times.key.last-alone':
        "malformed solution comm_times key: 'ad'",
}
