import collections
import itertools

import pytest

from opsched.graph import WeightAsset
from opsched.model import (BINARY, CAPACITY_TAG, CONTINUOUS, CORE_TAGS,
                           EXTENSION_TAGS, PRIMAL_BOUND_TAG, LinearConstraint,
                           ModelError, ModelOptions, VarRef, _Builder,
                           build_model, clear_primal_bound, compute_horizon,
                           set_primal_bound)

from opsched.simulate import verify
from opsched.solver import solve

from conftest import cluster, edge, graph, op


def small_graph():
    return graph([op("a", 2, act=1, refs=("w",)), op("b", 3, mem=1),
                  op("c", 1, act=-1)],
                 [edge("a", "b", comm=2), edge("b", "c")],
                 [WeightAsset("w", 2, load_cost=1, unload_cost=1)])


class TestHorizon:
    def test_horizon_sums_durations_comm_and_load_costs(self):
        g = small_graph()
        # durations 6 + comm 2 + (load 1 + unload 1) for the one reference
        assert compute_horizon(g) == 10

    def test_big_m_is_horizon(self):
        g = small_graph()
        assert build_model(g, cluster(2)).big_M == compute_horizon(g)


class TestBuildValidation:
    def test_capped_infeasible_operation_rejected(self):
        g = graph([op("a", 1, mem=5, act=2)])
        h = cluster(1, cap=6)
        with pytest.raises(ModelError, match="memory"):
            build_model(g, h, ModelOptions(memory_capped=True))

    def test_capped_feasible_on_one_machine_accepted(self):
        g = graph([op("a", 1, mem=5, act=2)])
        h = cluster(2, cap=7)
        build_model(g, h, ModelOptions(memory_capped=True))

    def test_dynamic_ignores_ref_sizes_in_fit_check(self):
        # with loading, the asset need not be resident alongside the
        # activation peak of a single op, so a tight cap is buildable
        g = graph([op("a", 1, act=2, refs=("w",))],
                  weights=[WeightAsset("w", 10)])
        build_model(g, cluster(1, cap=3),
                    ModelOptions(memory_capped=True, dynamic_loading=True))

    def test_dynamic_ignores_weight_mem_in_fit_check(self):
        # with loading, no judge counts an op's weight_mem: the search and
        # the replay both run this op at makespan 1 on capacity 3
        g = graph([op("a", 1, mem=5)])
        h = cluster(1, cap=3)
        dynamic = ModelOptions(memory_capped=True, dynamic_loading=True)
        sol = solve(build_model(g, h, dynamic))
        assert (sol.status, sol.objective) == ("optimal", 1.0)
        report = verify(g, h, sol, dynamic)
        assert (report.feasible, report.makespan) == (True, 1.0)
        with pytest.raises(ModelError, match="needs 5 memory units"):
            build_model(g, h, ModelOptions(memory_capped=True))


class TestConstraintStore:
    def test_core_tags_all_present(self):
        # a fully connected cluster never emits comm-forbidden rows; the
        # restricted-channel case is covered separately below
        m = build_model(small_graph(), cluster(2))
        tags = {c.tag for c in m.constraints}
        assert set(CORE_TAGS) - {"comm-forbidden"} <= tags

    def test_capacity_only_when_capped(self):
        g = small_graph()
        plain = build_model(g, cluster(2))
        capped = build_model(g, cluster(2),
                             ModelOptions(memory_capped=True))
        assert CAPACITY_TAG not in {c.tag for c in plain.constraints}
        assert CAPACITY_TAG in {c.tag for c in capped.constraints}

    def test_extension_tags_only_when_dynamic(self):
        g = small_graph()
        plain = build_model(g, cluster(2))
        dyn = build_model(g, cluster(2), ModelOptions(dynamic_loading=True))
        assert not set(EXTENSION_TAGS) & {c.tag for c in plain.constraints}
        assert set(EXTENSION_TAGS) <= {c.tag for c in dyn.constraints}

    def test_assignment_constraints_one_per_op(self):
        m = build_model(small_graph(), cluster(2))
        assigns = [c for c in m.constraints if c.tag == "assign"]
        assert len(assigns) == 3
        for c in assigns:
            assert c.sense == "==" and c.rhs == 1
            assert all(coef == 1 for coef, _ in c.terms)

    def test_order_complement_counts(self):
        m = build_model(small_graph(), cluster(2))
        comp = [c for c in m.constraints if c.tag == "order-complement"]
        assert len(comp) == 3  # unordered op pairs

    def test_objective_is_makespan_variable(self):
        m = build_model(small_graph(), cluster(2))
        assert m.objective.name == "makespan"
        assert ("makespan", ()) in m.variables

    def test_duration_constraints_static(self):
        m = build_model(small_graph(), cluster(2))
        durs = {c.rhs for c in m.constraints if c.tag == "duration"}
        assert durs == {2, 3, 1}

    def test_duration_constraints_gain_load_terms_when_dynamic(self):
        m = build_model(small_graph(), cluster(2),
                        ModelOptions(dynamic_loading=True))
        dur_a = next(c for c in m.constraints
                     if c.tag == "duration"
                     and any(v.indices[:1] == ("a",) for _, v in c.terms
                             if v.kind == "e"))
        # the load decision enters the occupied interval
        assert "l" in {v.kind for _, v in dur_a.terms}

    def test_presence_rows_only_for_referencing_ops(self):
        m = build_model(small_graph(), cluster(2),
                        ModelOptions(dynamic_loading=True))
        presence = [c for c in m.constraints if c.tag == "weight-presence"]
        assert len(presence) == 1  # only op a references w

    def test_comm_forbidden_for_missing_channels(self):
        h = cluster(2, channels=[("m0", "m1")])  # no m1->m0 channel
        m = build_model(small_graph(), h)
        assert any(c.tag == "comm-forbidden" for c in m.constraints)

    def test_binary_variables_marked(self):
        m = build_model(small_graph(), cluster(2))
        kinds = {}
        for (kind, _), ref in m.variables.items():
            kinds.setdefault(kind, set()).add(ref.domain)
        assert kinds["x"] == {"binary"}
        assert kinds["y"] == {"binary"}
        assert kinds["s"] == {"continuous"}

    def test_store_is_deterministic(self):
        g = small_graph()
        m1 = build_model(g, cluster(2))
        m2 = build_model(g, cluster(2))
        assert [v.name for v in m1.variables.values()] == \
               [v.name for v in m2.variables.values()]
        assert m1.store == m2.store
        assert list(m1.constraints) == list(m2.constraints)


class TestChannelOrdering:
    """A pair of transfers gets a channel order, its `w` columns and
    rows, only when at least one of the two takes time."""

    def test_zero_duration_transfers_get_no_ordering(self):
        g = graph([op("a"), op("b"), op("c")],
                  [edge("a", "b"), edge("a", "c"), edge("b", "c")])
        m = build_model(g, cluster(3))
        assert "w" not in {kind for kind, _ in m.variables}
        assert not {"channel-exclusive", "comm-order-complement"} & {
            c.tag for c in m.constraints}

    def test_mixed_instance_keeps_pairs_with_a_timed_transfer(self):
        g = graph([op(k) for k in "abcd"],
                  [edge("a", "b", comm=2), edge("a", "c"), edge("b", "c"),
                   edge("b", "d"), edge("c", "d", comm=1)])
        ring = [("m0", "m1"), ("m1", "m2"), ("m2", "m0")]
        m = build_model(g, cluster(3, channels=ring))
        timed = {("a", "b"), ("c", "d")}
        pairs = {(e1, e2) for e1 in g.edges for e2 in g.edges
                 if e1 != e2 and (e1 in timed or e2 in timed)}
        assert len(pairs) == 14  # 5 * 4 ordered pairs, 3 * 2 untimed
        assert {idx for (kind, idx) in m.variables if kind == "w"} == {
            (*e1, *e2) for e1, e2 in pairs}
        count = collections.Counter(c.tag for c in m.constraints)
        assert count["channel-exclusive"] == len(pairs) * len(ring)
        assert count["comm-order-complement"] == len(pairs) // 2


@pytest.mark.parametrize("nm", [1, 2, 3])
def test_co_location_rows_exact_on_integer_points(nm):
    # for every u(a,b) and one-hot placement of a and b, the rows
    # u(a,b) + x(a,j) - x(b,j) <= 1 hold exactly when u = 0 or both
    # ops sit on one machine
    m = build_model(graph([op("a"), op("b")]), cluster(nm))
    assert "q" not in {kind for kind, _ in m.variables}
    u = m.variables["u", ("a", "b")]
    rows = [c for c in m.constraints if c.tag == "u-link"
            and (1, u) in c.terms and any(v.kind == "x" for _, v in c.terms)]
    assert len(rows) == nm and {row.sense for row in rows} == {"<="}
    machines = list(m.cluster.machines)
    for uv, ja, jb in itertools.product((0, 1), machines, machines):
        value = {u: uv}
        for j in machines:
            value[m.variables["x", ("a", j)]] = int(j == ja)
            value[m.variables["x", ("b", j)]] = int(j == jb)
        holds = all(sum(coef * value[v] for coef, v in row.terms) <= row.rhs
                    for row in rows)
        assert holds == (uv == 0 or ja == jb)


class TestBuilder:
    """`_Builder` merges each row once, as it is added, into the store's
    flat columns; `constraints` reads the rows back."""

    def _two_vars(self):
        b = _Builder()
        return b, b.var("x", "a", domain=BINARY), b.var("t", "a")

    def test_var_numbers_columns_in_creation_order(self):
        b, x, t = self._two_vars()
        assert (x, t, b.var("x", "a")) == (0, 1, 0)
        assert list(b.store().variables.values()) == [
            VarRef("x", ("a",), BINARY), VarRef("t", ("a",), CONTINUOUS)]

    def test_add_merges_in_order_of_first_occurrence(self):
        b, x, t = self._two_vars()
        b.add([(0.1, t), (1, x), (0.2, t), (0, x)], ">=", 10**16, "r")
        b.add([(1, x), (-1, x)], "==", 0, "cancel")
        store = b.store()
        assert list(store.cols) == [t, x]
        assert list(store.coefs) == [0.0 + 0.1 + 0.2, 1.0]
        assert list(store.ends) == [2, 2]
        merged, cancelled = store.constraints
        assert merged.terms == ((0.1 + 0.2, VarRef("t", ("a",), CONTINUOUS)),
                                (1.0, VarRef("x", ("a",), BINARY)))
        # the right-hand side keeps its type: an int of 1e16 prints as one
        assert type(merged.rhs) is int and merged.rhs == 10**16
        # a row whose terms all cancel stays, with no terms
        assert cancelled == ((), "==", 0, "cancel")

    @pytest.mark.parametrize("terms, sense, error", [
        ([], "<=", "^constraint needs at least one term$"),
        ([(1, 0)], "<", "^bad sense '<'$"),
    ])
    def test_add_rejects_a_bad_row(self, terms, sense, error):
        b, _, _ = self._two_vars()
        with pytest.raises(ValueError, match=error):
            b.add(terms, sense, 0, "t")
        assert len(b.store().constraints) == 0

    @pytest.mark.parametrize("col", [-1, 2])
    def test_add_rejects_an_unknown_column(self, col):
        b, x, _ = self._two_vars()
        with pytest.raises(KeyError, match=f"column {col} is not a variable"):
            b.add([(1, x), (1, col)], "<=", 0, "t")

    def test_rows_repeat_a_shape(self):
        b, x, t = self._two_vars()
        b.rows([x, t, t, x, t, x], ((1.0, -1.0), "<=", 0, "one"),
               ((2.0,), ">=", 1.5, "two"))
        rows = [(tuple((c, v.kind) for c, v in r.terms), r.sense, r.rhs,
                 r.tag) for r in b.store().constraints]
        assert rows == [(((1.0, "x"), (-1.0, "t")), "<=", 0, "one"),
                        (((2.0, "t"),), ">=", 1.5, "two"),
                        (((1.0, "x"), (-1.0, "t")), "<=", 0, "one"),
                        (((2.0, "x"),), ">=", 1.5, "two")]

    def test_rows_with_a_zero_coefficient_merge(self):
        # a big-M of 0 leaves its column out, as `add` would
        b, x, t = self._two_vars()
        b.rows([x, t], ((0, 1.0), "<=", 0, "m"))
        store = b.store()
        assert (list(store.cols), list(store.coefs)) == ([t], [1.0])

    @pytest.mark.parametrize("cols, shape, error", [
        ([0, 1, 0], ((1.0, 1.0), "<=", 0, "t"), "do not repeat a shape"),
        ([0], ((), "<=", 0, "t"), "^constraint needs at least one term$"),
        ([0], ((1.0,), "=", 0, "t"), "^bad sense '='$"),
    ])
    def test_rows_reject_a_bad_shape(self, cols, shape, error):
        b, _, _ = self._two_vars()
        with pytest.raises(ValueError, match=error):
            b.rows(cols, shape)

    def test_constraints_is_a_read_only_sequence(self):
        m = build_model(small_graph(), cluster(2))
        rows = m.constraints
        assert len(rows) == len(m.store.ends) == len(list(rows))
        assert rows[-1] == rows[len(rows) - 1] == list(rows)[-1]
        assert rows[0] in rows
        with pytest.raises(IndexError):
            rows[len(rows)]
        with pytest.raises(TypeError):
            rows[0] = rows[1]
        assert all(isinstance(r, LinearConstraint) and r.terms
                   and all(type(c) is float for c, _ in r.terms)
                   for r in rows)

    def test_repeated_generated_column_is_merged(self):
        # operation b holds weight memory, so its static baseline rows
        # name x(b,j) twice: -Mm and -1, summed
        m = build_model(small_graph(), cluster(2))
        base = [r for r in m.constraints if r.tag == "mem-baseline"
                and any(v.name == "m_minus(b)" for _, v in r.terms)]
        assert len(base) == 2
        for row in base:
            refs = [v for _, v in row.terms]
            assert len(refs) == len(set(refs))
            j = next(v.indices[1] for v in refs if v.kind == "x"
                     and v.indices[0] == "b")
            coef = dict((v, c) for c, v in row.terms)[
                m.variables["x", ("b", j)]]
            assert coef == 0.0 - m.memory_big_M() - 1


class TestRecords:
    """`VarRef` and `LinearConstraint` are plain named tuples that keep
    the read-only fields, equality and repr of the frozen dataclasses
    they replaced; `_Builder.add` checks a row's terms and sense."""

    @pytest.mark.parametrize("attr", ["kind", "domain", "extra"])
    def test_var_ref_is_read_only(self, attr):
        ref = VarRef("s", ("a",), CONTINUOUS)
        with pytest.raises(AttributeError):
            setattr(ref, attr, "x")

    @pytest.mark.parametrize("attr", ["terms", "rhs", "extra"])
    def test_constraint_is_read_only(self, attr):
        con = LinearConstraint(((1, VarRef("s", ("a",), CONTINUOUS)),),
                               "<=", 0, "t")
        with pytest.raises(AttributeError):
            setattr(con, attr, 1)

    def test_name_and_repr(self):
        x = VarRef("x", ("a", "m0"), BINARY)
        mk = VarRef("makespan", (), CONTINUOUS)
        assert x.name == "x(a,m0)"
        assert mk.name == "makespan"
        assert repr(x) == "VarRef(kind='x', indices=('a', 'm0'), " \
                          "domain='binary')"
        assert repr(LinearConstraint(((1, mk),), "<=", 3, "t")) == (
            "LinearConstraint(terms=((1, VarRef(kind='makespan', "
            "indices=(), domain='continuous')),), sense='<=', rhs=3, "
            "tag='t')")

    def test_equal_records_from_two_builds_hash_equal(self):
        m1 = build_model(small_graph(), cluster(2))
        m2 = build_model(small_graph(), cluster(2))
        for r1, r2 in zip(m1.variables.values(), m2.variables.values()):
            assert r1 is not r2 and r1 == r2
            assert hash(r1) == hash(r2) == hash((r1.kind, r1.indices,
                                                 r1.domain))
        assert list(m1.constraints) == list(m2.constraints)
        assert [hash(c) for c in m1.constraints] == \
               [hash(c) for c in m2.constraints]


class TestPrimalBound:
    def test_set_and_clear(self):
        m = build_model(small_graph(), cluster(2))
        b = set_primal_bound(m, 9)
        assert b.primal_bound == 9
        assert any(c.tag == PRIMAL_BOUND_TAG for c in b.constraints)
        c = clear_primal_bound(b)
        assert c.primal_bound is None
        assert not any(x.tag == PRIMAL_BOUND_TAG for x in c.constraints)

    def test_non_positive_bound_rejected(self):
        m = build_model(small_graph(), cluster(2))
        with pytest.raises(ModelError):
            set_primal_bound(m, 0)
