"""Exports are checked by re-parsing the files with a small independent
reader and comparing the recovered matrix against the model's own
constraint store."""
import gc
import io
import tracemalloc
from collections import Counter
from itertools import chain
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opsched import mpswriter
from opsched.graph import Channel, HardwareCluster, Machine, WeightAsset
from opsched.model import (ModelOptions, _Builder, build_model,
                           set_primal_bound)
from opsched.mpswriter import export_lp, export_mps
from opsched.scenarios import DualPipeSpec, gen_dualpipe

from conftest import cluster, edge, graph, op


def tiny_model(**kw):
    g = graph([op("a", 2, act=1, refs=("w",)), op("b", 3)],
              [edge("a", "b", comm=1)],
              [WeightAsset("w", 2, load_cost=1)])
    return build_model(g, cluster(2, channels=[("m0", "m1")]),
                       ModelOptions(**kw))


def parse_mps(text):
    """Minimal fixed-format MPS reader returning the mixed-integer matrix."""
    aliases = {}
    rows = {}
    row_order = []
    cols = {}
    integer_cols = set()
    rhs = {}
    bounds = {}
    section = None
    in_int = False
    for line in text.splitlines():
        if line.startswith("*"):
            parts = line[1:].split("=", 1)
            if len(parts) == 2:
                aliases[parts[0].strip()] = parts[1].strip()
            continue
        if not line.startswith(" "):
            section = line.split()[0]
            continue
        fields = line.split()
        if section == "ROWS":
            sense, name = fields
            if sense != "N":
                rows[name] = sense
                row_order.append(name)
        elif section == "COLUMNS":
            if "MARKER" in line:
                in_int = "'INTORG'" in line
                continue
            cname, rname, coef = fields
            if in_int:
                integer_cols.add(cname)
            cols.setdefault(cname, {})[rname] = float(coef)
        elif section == "RHS":
            _, rname, value = fields
            rhs[rname] = float(value)
        elif section == "BOUNDS":
            kind = fields[0]
            bounds[fields[-1]] = kind
    return {"aliases": aliases, "rows": rows, "row_order": row_order,
            "cols": cols, "integer": integer_cols, "rhs": rhs,
            "bounds": bounds}


def parse_lp(text):
    """Minimal CPLEX LP reader for the subset the writer emits."""
    aliases = {}
    rows = {}
    row_order = []
    section = None
    objective = None
    binaries = set()
    for line in text.splitlines():
        if line.startswith("\\"):
            cname, name = line[1:].split("=", 1)
            aliases[cname.strip()] = name.strip()
            continue
        if not line.startswith(" "):
            section = line
            continue
        label, rest = line.split(":", 1) if ":" in line else (None, line)
        fields = rest.split()
        if section == "Minimize":
            objective = linear(fields, aliases)
        elif section == "Subject To":
            *body, sense, rhs = fields
            rows[label.strip()] = (linear(body, aliases), sense, float(rhs))
            row_order.append(label.strip())
        elif section == "Binary":
            binaries.update(fields)
    # the columns a reader declares: those that some section names
    columns = set(objective) | binaries
    for coefs, _, _ in rows.values():
        columns.update(coefs)
    return {"aliases": aliases, "objective": objective, "rows": rows,
            "row_order": row_order, "binary": binaries, "columns": columns}


def linear(tokens, aliases):
    """Column -> coefficient of an LP linear expression's tokens."""
    coefs = {}
    sign = coef = 1.0
    for tok in tokens:
        if tok in ("+", "-"):
            sign = -1.0 if tok == "-" else 1.0
        elif tok in aliases:
            coefs[tok] = sign * coef
            sign = coef = 1.0
        else:
            coef = float(tok)
    return coefs


def merged(con):
    acc = {}
    for coef, ref in con.terms:
        acc[ref.name] = acc.get(ref.name, 0.0) + coef
    return {n: c for n, c in acc.items() if c != 0.0}


def render(model):
    buf = io.StringIO()
    export_mps(model, buf)
    return buf.getvalue()


class TestMpsRoundTrip:
    def test_matrix_matches_constraint_store(self):
        model = tiny_model(memory_capped=True)
        doc = parse_mps(render(model))
        assert len(doc["row_order"]) == len(model.constraints)
        sense_code = {"<=": "L", ">=": "G", "==": "E"}
        # invert: generated column name -> native variable name
        for rname, con in zip(doc["row_order"], model.constraints):
            assert doc["rows"][rname] == sense_code[con.sense]
            assert doc["rhs"].get(rname, 0.0) == con.rhs
            got = {doc["aliases"][c]: entries[rname]
                   for c, entries in doc["cols"].items()
                   if rname in entries}
            assert got == merged(con)

    def test_objective_column(self):
        model = tiny_model()
        doc = parse_mps(render(model))
        obj_cols = [c for c, entries in doc["cols"].items()
                    if "COST" in entries]
        assert len(obj_cols) == 1
        assert doc["aliases"][obj_cols[0]] == "makespan"

    def test_binary_columns_marked_and_bounded(self):
        model = tiny_model()
        doc = parse_mps(render(model))
        binaries = {name for (_, name), ref in
                    zip(model.variables, model.variables.values())
                    if ref.domain == "binary"}
        recovered = {doc["aliases"][c] for c in doc["integer"]}
        assert recovered == {ref.name for ref in model.variables.values()
                             if ref.domain == "binary"}
        for c in doc["integer"]:
            assert doc["bounds"][c] == "BV"
        del binaries

    def test_continuous_columns_unbounded_above(self):
        model = tiny_model()
        doc = parse_mps(render(model))
        cont = {c for c in doc["cols"] if c not in doc["integer"]}
        for c in cont:
            assert doc["bounds"][c] == "PL"

    def test_every_variable_has_a_column(self):
        model = tiny_model()
        doc = parse_mps(render(model))
        assert set(doc["aliases"].values()) == \
               {ref.name for ref in model.variables.values()}

    def test_unused_column_declared_between_markers(self):
        # no op uses the size-0 weight, so no row uses r(idle, m)
        g = graph([op("a", 2, refs=("w",)), op("b", 3)], [edge("a", "b")],
                  [WeightAsset("w", 2), WeightAsset("idle", 0)])
        doc = parse_mps(render(build_model(g, cluster(2))))
        column = {name: c for c, name in doc["aliases"].items()}
        for j in ("m0", "m1"):
            c = column[f"r(idle,{j})"]
            assert doc["cols"][c] == {"COST": 0.0}
            assert c in doc["integer"] and doc["bounds"][c] == "BV"

    def test_primal_bound_appears_as_row(self):
        model = set_primal_bound(tiny_model(), 7)
        doc = parse_mps(render(model))
        last = doc["row_order"][-1]
        assert doc["rows"][last] == "L"
        assert doc["rhs"][last] == 7

    def test_deterministic_bytes(self):
        assert render(tiny_model()) == render(tiny_model())

    def test_ends_with_endata(self):
        assert render(tiny_model()).rstrip().endswith("ENDATA")


class TestLpFormat:
    def render_lp(self, model):
        buf = io.StringIO()
        export_lp(model, buf)
        return buf.getvalue()

    def test_structure_and_row_count(self):
        model = tiny_model()
        text = self.render_lp(model)
        for marker in ("Minimize", "Subject To", "Binary", "End"):
            assert marker in text
        body = text.split("Subject To", 1)[1].split("Binary", 1)[0]
        rows = [ln for ln in body.splitlines() if ":" in ln]
        assert len(rows) == len(model.constraints)

    def test_senses_rendered(self):
        text = self.render_lp(tiny_model())
        assert " <= " in text and " >= " in text and " = " in text

    def test_binary_section_lists_all_binaries(self):
        model = tiny_model()
        text = self.render_lp(model)
        listed = text.split("Binary", 1)[1].split("End", 1)[0].split()
        n_binary = sum(1 for ref in model.variables.values()
                       if ref.domain == "binary")
        assert len(listed) == n_binary

    def test_deterministic_bytes(self):
        assert self.render_lp(tiny_model()) == self.render_lp(tiny_model())

    def test_unused_continuous_column_declared(self):
        # a continuous column that no row uses is in no row and not in
        # Binary: only its zero objective term declares it
        model = with_unused_column(tiny_model(), "free", "z")
        doc = parse_lp(self.render_lp(model))
        assert len(doc["columns"]) == len(model.variables)
        column = {name: c for c, name in doc["aliases"].items()}
        assert doc["objective"][column["free(z)"]] == 0.0

    def test_cancelled_column_declared(self):
        # t's terms cancel in the one row that names it, so that row
        # leaves it out, and only its zero objective term declares it
        model = build_model(graph([op("a")]), cluster(1))
        b = _Builder()
        mk = b.var("makespan")
        t = b.var("t", "a")
        b.add([(1, t), (1, mk), (-1, t)], "==", 0, "cancel")
        model.__dict__["store"] = b.store()
        doc = parse_lp(self.render_lp(model))
        assert doc["columns"] == set(doc["aliases"])
        assert {doc["aliases"][c]: v for c, v in doc["objective"].items()} \
            == {"makespan": 1.0, "t(a)": 0.0}
        assert {doc["aliases"][c]: v for c, v in doc["rows"]["R0000001"][0]
                .items()} == {"makespan": 1.0}


def with_unused_column(model, kind, *indices):
    """The model, its store rebuilt through `_Builder` with one more
    continuous variable that no row names."""
    b = _Builder()
    for ref in model.variables.values():
        b.var(ref.kind, *ref.indices, domain=ref.domain)
    b.var(kind, *indices)
    col = {ref: k for k, ref in enumerate(model.variables.values())}
    for con in model.constraints:
        b.add([(coef, col[ref]) for coef, ref in con.terms], con.sense,
              con.rhs, con.tag)
    model.__dict__["store"] = b.store()
    return model


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def collector(request):
    """The caller's collector state, set for the test and restored."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


class _StateSink:
    """A text destination that records the collector state per write."""

    def __init__(self):
        self.states = []

    def write(self, text):
        self.states.append(gc.isenabled())


class TestCollectorPause:
    """Nothing pauses the cyclic collector, and nothing needs to: the
    store's rows hold no object that it tracks, so building and writing
    give it little to do and leave it as the caller had it."""

    def test_store_build_runs_few_collections(self, collector):
        g, h, options = gen_dualpipe(DualPipeSpec(pp=2))
        model = build_model(g, h, options)
        starts = []

        def count(phase, info):
            starts.append(phase == "start")

        gc.callbacks.append(count)
        try:
            # 4,890 rows over 1,441 variables
            assert len(model.store.constraints) == 4890
        finally:
            gc.callbacks.remove(count)
        # 8 with CPython 3.11's default thresholds, all of the youngest
        # generation, for the variables; when each row was a tuple of
        # term tuples, this build ran about 60
        assert sum(starts) <= (20 if collector else 0)
        assert gc.isenabled() is collector

    def test_rows_hold_no_tracked_object(self):
        # the arrays refer to their type only (the array type takes part
        # in collection since Python 3.10, so `gc.is_tracked` is true of
        # each array itself), and the per-row lists hold atoms
        store = tiny_model(memory_capped=True, dynamic_loading=True).store
        for column in (store.cols, store.coefs, store.ends):
            assert all(isinstance(r, type) for r in gc.get_referents(column))
        assert not any(map(gc.is_tracked, chain(store.senses, store.rhs,
                                                 store.tags)))

    @pytest.mark.parametrize("writer", [export_mps, export_lp],
                             ids=lambda f: f.__name__)
    def test_writer_leaves_the_collector_as_it_was(self, collector, writer):
        # the store is not built yet: the writer builds it
        sink = _StateSink()
        writer(tiny_model(), sink)
        assert sink.states and all(s is collector for s in sink.states)
        assert gc.isenabled() is collector

    @pytest.mark.parametrize("writer", [export_mps, export_lp],
                             ids=lambda f: f.__name__)
    def test_unknown_variable_raises_and_restores(self, collector, writer):
        # a hand-built row names a column that no `var` call made
        b = _Builder()
        mk = b.var("makespan")
        with pytest.raises(KeyError, match="column 1 is not a variable"):
            b.add([(1, mk), (1, mk + 1)], "<=", 1, "t")
        # a store without the objective's variable cannot be written
        b = _Builder()
        b.add([(1, b.var("s", "a"))], "<=", 1, "t")
        model = build_model(graph([op("a")]), cluster(1))
        model.__dict__["store"] = b.store()
        with pytest.raises(KeyError):
            writer(model, io.StringIO())
        assert gc.isenabled() is collector


class TestMpsWriterMemory:
    """COLUMNS is transposed into per-column lists of strings that
    already exist, and written a few thousand lines at a time."""

    def test_transient_memory_stays_near_the_store_size(self):
        g, h, options = gen_dualpipe(DualPipeSpec(pp=2))
        model = build_model(g, h, options)
        tracemalloc.start()
        try:
            model.store
            store = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            # a destination that keeps nothing
            export_mps(model, SimpleNamespace(write=len))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 1.3 to 1.5 times the store's 0.74 MB (it varies with what the
        # process ran before) with one list per column; 2.5 to 2.7 times
        # when the entries were sorted as one Python int each
        assert peak - store <= 2 * store

    def test_columns_are_written_in_chunks_of_lines(self, monkeypatch):
        g, h, options = gen_dualpipe(DualPipeSpec(pp=2))
        model = build_model(g, h, options)
        whole = render(model)
        monkeypatch.setattr(mpswriter, "_CHUNK", 64)
        writes = []
        export_mps(model, SimpleNamespace(write=writes.append))
        assert "".join(writes) == whole
        columns = writes[writes.index("COLUMNS\n") + 1:writes.index("RHS\n")]
        per_column = Counter(line.split()[0]
                             for line in "".join(columns).splitlines()
                             if "'MARKER'" not in line)
        # 1,441 columns of up to 110 lines; a chunk of 64 columns a
        # write joins up to 4,004
        assert len(per_column) == 1441
        assert len(columns) > 1
        assert all(text.endswith("\n") for text in columns)
        assert max(text.count("\n") for text in columns) \
            <= 64 + max(per_column.values())


_VALUES = st.sampled_from([0, 1, 2, 3, 0.5, 1.25, 0.1])


@st.composite
def small_instances(draw, dynamic_loading):
    """1-6 ops on 1-3 machines, with random comm, weights and channels."""
    weights = [WeightAsset(f"w{k}", draw(_VALUES), draw(_VALUES),
                           draw(_VALUES))
               for k in range(draw(st.integers(int(dynamic_loading), 2)))]
    ops = [op(f"o{k}", draw(_VALUES), mem=draw(_VALUES),
              act=draw(st.sampled_from([-1, 0, 0.5, 2])),
              refs=[w.id for w in weights if draw(st.booleans())])
           for k in range(draw(st.integers(1, 6)))]
    edges = [edge(a.id, b.id, draw(_VALUES))
             for k, a in enumerate(ops) for b in ops[k + 1:]
             if draw(st.booleans())]
    # every operation fits on every machine, so capped models build
    cap = 1 + sum(o.weight_mem + max(0, o.activation_delta) for o in ops)
    cap += sum(w.size for w in weights) + draw(_VALUES)
    machines = [Machine(f"m{k}", cap)
                for k in range(draw(st.integers(1, 3)))]
    channels = [Channel(a.id, b.id) for a in machines for b in machines
                if a.id != b.id and draw(st.booleans())]
    return graph(ops, edges, weights), HardwareCluster(machines, channels)


@pytest.mark.parametrize("capped", [False, True], ids=["uncapped", "capped"])
@pytest.mark.parametrize("dynamic", [False, True], ids=["static", "dynamic"])
@settings(max_examples=15, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_exports_recover_store(capped, dynamic, data):
    g, h = data.draw(small_instances(dynamic))
    model = build_model(g, h, ModelOptions(memory_capped=capped,
                                           dynamic_loading=dynamic))
    bound = data.draw(st.sampled_from([None, 4, 2.5, 1e16]))
    if bound is not None:
        model = set_primal_bound(model, bound)
    refs = model.variables.values()
    binaries = {ref.name for ref in refs if ref.domain == "binary"}
    want = [(merged(con), con.sense, con.rhs) for con in model.constraints]

    mps = parse_mps(render(model))
    alias = mps["aliases"]
    assert list(alias.values()) == [ref.name for ref in refs]
    sense_of = {"L": "<=", "G": ">=", "E": "=="}
    got = [({alias[c]: entries[r] for c, entries in mps["cols"].items()
             if r in entries}, sense_of[mps["rows"][r]],
            mps["rhs"].get(r, 0.0)) for r in mps["row_order"]]
    assert got == want
    # every variable has a COLUMNS line, and every binary one sits
    # between markers: a column that no row uses has a zero objective
    # entry and nothing else
    unused = {ref.name for ref in refs} - {n for row, _, _ in want
                                          for n in row}
    assert {alias[c]: e["COST"] for c, e in mps["cols"].items()
            if "COST" in e} == {**dict.fromkeys(unused, 0.0),
                                "makespan": 1.0}
    assert {alias[c] for c in mps["cols"]} == {ref.name for ref in refs}
    assert {alias[c] for c in mps["integer"]} == binaries
    assert {alias[c] for c, kind in mps["bounds"].items()
            if kind == "BV"} == binaries

    buf = io.StringIO()
    export_lp(model, buf)
    lp = parse_lp(buf.getvalue())
    alias = lp["aliases"]
    assert list(alias.values()) == [ref.name for ref in refs]
    # a column that no row uses has a zero term on the objective
    assert {alias[c]: v for c, v in lp["objective"].items()} == {
        **dict.fromkeys(unused, 0.0), "makespan": 1.0}
    assert {alias[c] for c in lp["columns"]} == {ref.name for ref in refs}
    sense_of = {"<=": "<=", ">=": ">=", "=": "=="}
    got = [({alias[c]: v for c, v in coefs.items()}, sense_of[sense], rhs)
           for coefs, sense, rhs in map(lp["rows"].get, lp["row_order"])]
    assert got == want
    assert {alias[c] for c in lp["binary"]} == binaries
