"""The command line, driven through `opsched.cli.main`."""
import dataclasses
import gc
import hashlib
import json
import sys
import weakref

import pytest

from opsched import cli
from opsched.cli import (EXIT_ERROR, EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE,
                         EXIT_VIOLATIONS, main)
from opsched.graph import load_computation_graph
from opsched.scenarios import DualPipeSpec, dualpipe_bubble_target
from opsched.trace import US_PER_UNIT

ONE_OP = {"graph": {"operations": [{"id": "a", "duration": 1}]},
          "cluster": {"machines": [{"id": "m", "memory_capacity": 1}]}}


def _loading_instance():
    return {
        "graph": {
            "operations": [{"id": "a", "duration": 1, "weight_refs": ["w"]},
                           {"id": "b", "duration": 1, "weight_refs": ["w"]}],
            "edges": [{"from": "a", "to": "b"}],
            "weights": [{"id": "w", "size": 1, "load_cost": 1,
                         "unload_cost": 1}],
        },
        "cluster": {"machines": [{"id": "m", "memory_capacity": 4}]},
        "options": {"memory_capped": True, "dynamic_loading": True},
    }


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


class TestVerify:
    def test_solved_dynamic_instance_verifies(self, tmp_path):
        inst = _write(tmp_path / "inst.json", _loading_instance())
        solved = str(tmp_path / "solved.json")
        assert main(["solve", "-i", inst, "-o", solved]) == EXIT_OK
        report = str(tmp_path / "report.json")
        assert main(["verify", "-i", solved, "-o", report]) == EXIT_OK
        assert json.loads((tmp_path / "report.json").read_text())["feasible"]

    def test_dynamic_loading_option_is_honoured(self, tmp_path, capsys):
        # without preloads or load events the weight is never resident;
        # inferring the memory mode from the solution would read it as
        # static memory and accept the schedule
        doc = _loading_instance()
        doc["solution"] = {"status": "feasible", "objective": 2.0,
                           "assignment": {"a": "m", "b": "m"},
                           "op_times": {"a": [0.0, 1.0], "b": [1.0, 2.0]}}
        inst = _write(tmp_path / "inst.json", doc)
        report = tmp_path / "report.json"
        assert main(["verify", "-i", inst, "-o", str(report)]) \
            == EXIT_VIOLATIONS
        kinds = {v["kind"] for v in json.loads(report.read_text())
                 ["violations"]}
        assert kinds == {"weight-not-resident"}
        assert json.loads(capsys.readouterr().err)["error"] \
            == "verification-failed"


class TestExport:
    @pytest.mark.parametrize("fmt, marker", [("mps", "ROWS"),
                                             ("lp", "Subject To")])
    def test_one_operation_model_exports(self, tmp_path, capsys, fmt,
                                         marker):
        inst = _write(tmp_path / "inst.json", ONE_OP)
        out = tmp_path / f"model.{fmt}"
        assert main(["export", "-i", inst, "--format", fmt,
                     "-o", str(out)]) == EXIT_OK
        assert marker in out.read_text()
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("fmt", ["mps", "lp"])
    def test_graph_without_operations_exports(self, tmp_path, capsys, fmt):
        # the makespan is the model's one column; every row would be empty
        inst = _write(tmp_path / "inst.json",
                      dict(ONE_OP, graph={"operations": []}))
        out = tmp_path / f"model.{fmt}"
        assert main(["export", "-i", inst, "--format", fmt,
                     "-o", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        text = out.read_text()
        if fmt == "mps":
            assert "* C0000001 = makespan" in text
            assert "    C0000001  COST      1" in text.splitlines()
        else:
            assert "obj: C0000001" in text

    @pytest.mark.parametrize("fmt", ["mps", "lp"])
    def test_export_frees_the_model(self, tmp_path, monkeypatch, fmt):
        # the export holds the model only while it writes, and the
        # collections that run meanwhile are few: the store's rows hold
        # no object that the collector tracks
        inst = str(tmp_path / "inst.json")
        assert main(["gen", "dualpipe", "--pp", "2", "-o", inst]) == EXIT_OK
        models = []
        real_build = cli._build

        def build(doc):
            built = real_build(doc)
            models.append(weakref.ref(built[2]))
            return built

        starts = []

        def on_collect(phase, info):
            if phase == "start" and models and models[0]() is not None:
                starts.append(info["generation"])

        monkeypatch.setattr(cli, "_build", build)
        gc.callbacks.append(on_collect)
        try:
            assert main(["export", "-i", inst, "--format", fmt,
                         "-o", str(tmp_path / f"model.{fmt}")]) == EXIT_OK
        finally:
            gc.callbacks.remove(on_collect)
        assert len(models) == 1 and models[0]() is None
        # 9 for MPS and 5 for LP with CPython 3.11's default thresholds;
        # the MPS writer's per-column lists are containers the collector
        # tracks
        assert len(starts) <= 15

    def _solved_pp2(self, tmp_path):
        inst = str(tmp_path / "inst.json")
        assert main(["gen", "dualpipe", "--pp", "2", "-o", inst]) == EXIT_OK
        solved = tmp_path / "solved.json"
        assert main(["solve", "-i", inst, "-o", str(solved)]) == EXIT_OK
        return solved

    def test_trace_has_one_compute_event_per_op(self, tmp_path):
        solved = self._solved_pp2(tmp_path)
        op_times = json.loads(solved.read_text())["solution"]["op_times"]
        paths = [tmp_path / "t1.json", tmp_path / "t2.json"]
        for path in paths:
            assert main(["export", "-i", str(solved), "--format", "trace",
                         "-o", str(path)]) == EXIT_OK
        assert paths[0].read_bytes() == paths[1].read_bytes()
        events = json.loads(paths[0].read_text())["traceEvents"]
        compute = {ev["name"]: (ev["ts"], ev["dur"]) for ev in events
                   if ev["ph"] == "X" and ev["cat"] == "compute"}
        assert len(compute) == sum(1 for ev in events if ev["ph"] == "X"
                                   and ev["cat"] == "compute")
        assert compute == {
            i: (round(s * US_PER_UNIT), round((e - s) * US_PER_UNIT))
            for i, (s, e) in op_times.items()}

    def test_trace_without_solution_is_one_json_error(self, tmp_path,
                                                      capsys):
        inst = _write(tmp_path / "inst.json", ONE_OP)
        assert main(["export", "-i", inst, "--format", "trace"]) \
            == EXIT_USAGE
        assert json.loads(capsys.readouterr().err)["error"] == "bad-input"


class TestBadSolution:
    @pytest.mark.parametrize("solution", [
        pytest.param({}, id="empty"),
        pytest.param([], id="list"),
        pytest.param({"status": "feasible", "objective": 1,
                      "comm_times": {"ab": [["m", "m"], 1, 1]}},
                     id="comm-key-without-arrow"),
        pytest.param({"status": "feasible", "objective": 1,
                      "assignment": {"a": "m"}, "op_times": {"a": [1]}},
                     id="one-number-time"),
        pytest.param({"status": "feasible", "objective": 1,
                      "assignment": {"a": "m"},
                      "op_times": {"a": [0, float("nan")]}},
                     id="nan-time"),
    ])
    @pytest.mark.parametrize("argv", [["verify"],
                                      ["export", "--format", "trace"]],
                             ids=" ".join)
    def test_malformed_solution_is_one_json_error(self, tmp_path, capsys,
                                                  argv, solution):
        inst = _write(tmp_path / "inst.json", dict(ONE_OP, solution=solution))
        assert main(argv + ["-i", inst, "-o", str(tmp_path / "out")]) \
            == EXIT_USAGE
        assert json.loads(capsys.readouterr().err)["error"] == "bad-input"


def _solved_one_op(assignment=None, op_times=None):
    return dict(ONE_OP, solution={
        "status": "feasible", "objective": 1,
        "assignment": {"a": "m"} if assignment is None else assignment,
        "op_times": {"a": [0, 1]} if op_times is None else op_times})


# a well-formed solution that does not match its instance
MISMATCHED = {
    "unassigned-op": _solved_one_op(assignment={}),
    "unknown-machine": _solved_one_op(assignment={"a": "zz"}),
    "op-times-key-not-in-graph": _solved_one_op(
        op_times={"a": [0, 1], "zz": [1, 2]}),
    "assignment-key-not-in-graph": _solved_one_op(
        assignment={"a": "m", "zz": "m"}),
    # no edge b->a, and no op zz: neither transfer is an edge of the graph
    "transfer-not-an-edge": dict(
        ONE_OP,
        graph={"operations": [{"id": "a", "duration": 1},
                              {"id": "b", "duration": 1}]},
        solution={"status": "feasible", "objective": 2,
                  "assignment": {"a": "m", "b": "m"},
                  "op_times": {"a": [0, 1], "b": [1, 2]},
                  "comm_times": {"b->a": [["m", "m"], 5, 9],
                                 "zz->a": [["m", "m"], 0, 0]}}),
}


class TestMismatchedSolution:
    @pytest.mark.parametrize("name", MISMATCHED)
    def test_trace_export_is_one_json_error(self, tmp_path, capsys, name):
        inst = _write(tmp_path / "inst.json", MISMATCHED[name])
        out = tmp_path / "trace.json"
        assert main(["export", "-i", inst, "--format", "trace",
                     "-o", str(out)]) == EXIT_USAGE
        assert json.loads(capsys.readouterr().err)["error"] == "bad-input"
        assert not out.exists()

    def test_trace_export_rejects_a_load_of_an_unknown_weight(
            self, tmp_path, capsys):
        doc = _solved_one_op()
        doc["solution"]["load_events"] = [["a", "w", "load"]]
        inst = _write(tmp_path / "inst.json", doc)
        assert main(["export", "-i", inst, "--format", "trace"]) \
            == EXIT_USAGE
        assert json.loads(capsys.readouterr().err)["error"] == "bad-input"

    @pytest.mark.parametrize("name, kind", [
        ("unassigned-op", "missing-op"),
        ("unknown-machine", "unknown-machine"),
        ("op-times-key-not-in-graph", "unknown-op"),
        ("assignment-key-not-in-graph", "unknown-op")])
    def test_verify_reports_a_violation(self, tmp_path, capsys, name, kind):
        inst = _write(tmp_path / "inst.json", MISMATCHED[name])
        report = tmp_path / "report.json"
        assert main(["verify", "-i", inst, "-o", str(report)]) \
            == EXIT_VIOLATIONS
        violations = json.loads(report.read_text())["violations"]
        assert [v["kind"] for v in violations] == [kind]
        assert json.loads(capsys.readouterr().err)["error"] \
            == "verification-failed"

    def test_verify_reports_each_transfer_that_is_not_an_edge(
            self, tmp_path, capsys):
        # both transfers once verified feasible with exit 0
        inst = _write(tmp_path / "inst.json",
                      MISMATCHED["transfer-not-an-edge"])
        report = tmp_path / "report.json"
        assert main(["verify", "-i", inst, "-o", str(report)]) \
            == EXIT_VIOLATIONS
        violations = json.loads(report.read_text())["violations"]
        assert [(v["kind"], v["ids"]) for v in violations] == [
            ("unknown-transfer", ["b", "a"]),
            ("unknown-transfer", ["zz", "a"])]
        assert json.loads(capsys.readouterr().err)["error"] \
            == "verification-failed"


class TestBadRoot:
    @pytest.mark.parametrize("root", ["[]", "1", '"x"'])
    @pytest.mark.parametrize("argv", [["verify"], ["export"], ["solve"],
                                      ["coarsen"]], ids=" ".join)
    def test_non_object_document_is_one_json_error(self, tmp_path, capsys,
                                                   argv, root):
        inst = tmp_path / "inst.json"
        inst.write_text(root)
        assert main(argv + ["-i", str(inst), "-o", str(tmp_path / "out")]) \
            == EXIT_USAGE
        err = capsys.readouterr().err
        assert json.loads(err)["error"] == "bad-input"
        assert err.count("\n") == 1


def _one_op_with(path, value):
    """ONE_OP with a weight and options, and `value` put at `path`."""
    doc = json.loads(json.dumps(ONE_OP))
    doc["graph"]["weights"] = [{"id": "w", "size": 1}]
    doc["options"] = {}
    *parents, key = path
    node = doc
    for step in parents:
        node = node[step]
    node[key] = value
    return doc


class TestBadInstance:
    @pytest.mark.parametrize("path, value", [
        (("graph",), [1]),
        (("cluster",), 7),
        (("graph", "operations"), 5),
        (("graph", "operations"), [1]),
        (("graph", "edges"), [3]),
        (("cluster", "channels"), [7]),
        (("graph", "operations", 0, "weight_refs"), 7),
        # a string would be read as a list of one-character ids
        (("graph", "operations", 0, "weight_refs"), "w"),
        (("options",), [1]),
        # bool("false") is true
        (("options", "memory_capped"), "false"),
        # a misspelt option would otherwise be dropped without a word
        (("options", "memory_caped"), True),
        # a document nested as JSON text is not parsed a second time
        pytest.param(("graph",), json.dumps(ONE_OP["graph"]),
                     id="graph-as-json-text"),
        pytest.param(("cluster",), json.dumps(ONE_OP["cluster"]),
                     id="cluster-as-json-text"),
    ], ids=lambda v: json.dumps(v) if not isinstance(v, tuple)
        else ".".join(map(str, v)))
    def test_malformed_document_is_one_json_error(self, tmp_path, capsys,
                                                  path, value):
        inst = _write(tmp_path / "inst.json", _one_op_with(path, value))
        out = tmp_path / "out.json"
        assert main(["solve", "-i", inst, "-o", str(out)]) == EXIT_USAGE
        assert not out.exists()
        err = capsys.readouterr().err
        assert json.loads(err)["error"] == "bad-instance"
        assert err.count("\n") == 1

    def test_transfer_separator_in_an_op_id(self, tmp_path, capsys):
        # a solution keys the transfer a->b => c as "a->b->c", which
        # `verify` and `export` could not read back
        doc = {"graph": {"operations": [{"id": "a->b", "duration": 1},
                                        {"id": "c", "duration": 1}],
                         "edges": [{"from": "a->b", "to": "c"}]},
               "cluster": ONE_OP["cluster"]}
        out = tmp_path / "out.json"
        inst = _write(tmp_path / "inst.json", doc)
        assert main(["solve", "-i", inst, "-o", str(out)]) == EXIT_USAGE
        assert not out.exists()
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "bad-instance"
        assert "'->'" in err["message"]

    def test_unknown_option_is_named(self, tmp_path, capsys):
        inst = _write(tmp_path / "inst.json",
                      _one_op_with(("options", "memory_caped"), True))
        assert main(["solve", "-i", inst]) == EXIT_USAGE
        err = json.loads(capsys.readouterr().err)
        assert err["message"] == ("invalid instance document: unknown "
                                  "option 'memory_caped'")

    def test_well_formed_document_solves(self, tmp_path):
        # the base of the malformed cases above is itself valid
        inst = _write(tmp_path / "inst.json",
                      _one_op_with(("graph", "operations", 0, "weight_refs"),
                                   ["w"]))
        assert main(["solve", "-i", inst, "-o", str(tmp_path / "out")]) \
            == EXIT_OK


class TestBadNumbers:
    @pytest.mark.parametrize("duration", [
        float("inf"), pytest.param(10**400, id="int-beyond-float")],
        ids=repr)
    @pytest.mark.parametrize("argv", [["export", "--format", "mps"],
                                      ["export", "--format", "lp"],
                                      ["solve"]], ids=" ".join)
    def test_infinite_duration_is_one_json_error(self, tmp_path, capsys,
                                                 argv, duration):
        doc = json.loads(json.dumps(ONE_OP))
        doc["graph"]["operations"][0]["duration"] = duration
        inst = _write(tmp_path / "inst.json", doc)
        assert main(argv + ["-i", inst, "-o", str(tmp_path / "out")]) \
            == EXIT_USAGE
        assert json.loads(capsys.readouterr().err)["error"] \
            == "bad-instance"

    @pytest.mark.parametrize("field", ["duration", "weight_mem",
                                       "activation_delta", "comm_duration",
                                       "load_cost"])
    @pytest.mark.parametrize("argv", [["export", "--format", "mps"],
                                      ["export", "--format", "lp"],
                                      ["solve"], ["coarsen", "--to", "1"]],
                             ids=" ".join)
    def test_sum_past_the_float_range_is_one_json_error(self, tmp_path,
                                                        capsys, argv, field):
        # every value is finite and their sum is not: the horizon, a
        # memory level or the merged node would read inf
        ops = [{"id": i, "duration": 1, "weight_refs": ["w"]} for i in "ab"]
        edges = [{"from": "a", "to": "c"}, {"from": "b", "to": "c"}]
        weights = [{"id": "w", "size": 1}]
        for entry in {"comm_duration": edges,
                      "load_cost": weights}.get(field, ops):
            entry[field] = 1e308
        doc = {"graph": {"operations": ops + [{"id": "c", "duration": 1}],
                         "edges": edges, "weights": weights},
               "cluster": ONE_OP["cluster"]}
        inst = _write(tmp_path / "inst.json", doc)
        out = tmp_path / "out"
        assert main(argv + ["-i", inst, "-o", str(out)]) == EXIT_USAGE
        assert not out.exists()
        err = capsys.readouterr().err
        assert json.loads(err)["error"] == "bad-instance"
        assert "sum past the float range" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("case", [
        # one op's weight memory and its machine's capacity: the memory
        # big-M, capacity + memory total + 1
        ({"duration": 1, "weight_mem": 1e308}, 1e308, False),
        # capped, the capacity rows add a capacity to that big-M, 3e308
        ({"duration": 1, "weight_mem": 1e308}, 1e308, True),
        # each sum in the graph is finite, but the machine-exclusive rows
        # take the horizon three times: 3 x 1e308
        ({"duration": 1e308}, 1, False)],
        ids=["memory-big-M", "capacity-row", "three-horizons"])
    @pytest.mark.parametrize("argv", [["export", "--format", "mps"],
                                      ["export", "--format", "lp"],
                                      ["solve"]], ids=" ".join)
    def test_big_M_past_the_float_range_is_one_json_error(self, tmp_path,
                                                          capsys, argv, case):
        fields, capacity, capped = case
        ops = [dict(fields, id="a")]
        if "weight_mem" not in fields:
            ops.append({"id": "b", "duration": 1})
        doc = {"graph": {"operations": ops},
               "cluster": {"machines": [{"id": "m",
                                         "memory_capacity": capacity}]},
               "options": {"memory_capped": capped}}
        inst = _write(tmp_path / "inst.json", doc)
        out = tmp_path / "out"
        assert main(argv + ["-i", inst, "-o", str(out)]) == EXIT_USAGE
        assert not out.exists()
        err = capsys.readouterr().err
        assert json.loads(err)["error"] == "bad-instance"
        assert "sum past the float range" in err or \
            "sums past the float range" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("bound", [
        float("nan"), float("inf"), "x",
        pytest.param(10**400, id="int-beyond-float")], ids=repr)
    def test_bad_primal_bound_is_one_json_error(self, tmp_path, capsys,
                                                bound):
        inst = _write(tmp_path / "inst.json",
                      dict(ONE_OP, primal_bound=bound))
        assert main(["export", "-i", inst, "--format", "mps",
                     "-o", str(tmp_path / "model.mps")]) == EXIT_USAGE
        assert json.loads(capsys.readouterr().err)["error"] \
            == "bad-instance"


class TestBadOutput:
    @pytest.mark.parametrize("argv", [
        ["export", "--format", "mps"], ["export", "--format", "lp"],
        ["solve"], ["gen", "dualpipe", "--pp", "2"]], ids=" ".join)
    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_output_is_one_json_error(self, tmp_path, capsys,
                                                 argv, where):
        if argv[0] != "gen":
            argv = argv + ["-i", _write(tmp_path / "inst.json", ONE_OP)]
        out = tmp_path / "missing" / "out" if where == "missing-directory" \
            else tmp_path
        assert main(argv + ["-o", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert json.loads(err)["error"] == "bad-output"
        assert err.count("\n") == 1
        assert not (tmp_path / "missing").exists()

    def test_model_error_leaves_no_file(self, tmp_path, capsys):
        # the model is built before the output is opened
        doc = json.loads(json.dumps(ONE_OP))
        doc["graph"]["operations"][0]["weight_mem"] = 5
        doc["options"] = {"memory_capped": True}
        inst = _write(tmp_path / "inst.json", doc)
        out = tmp_path / "model.mps"
        assert main(["export", "-i", inst, "--format", "mps",
                     "-o", str(out)]) == EXIT_INFEASIBLE
        assert json.loads(capsys.readouterr().err)["error"] == "infeasible"
        assert not out.exists()


class TestGen:
    @pytest.mark.parametrize("argv", [
        ["gen", "dualpipe", "--pp", "3"],
        ["gen", "random", "--nodes", "0"],
        ["gen", "random", "--nodes", "5", "--machines", "0"],
        ["gen", "random", "--nodes", "5", "--machines", "-1"],
        ["repro-dualpipe", "--pp", "3"],
    ])
    def test_rejected_size_is_one_json_error(self, capsys, argv):
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert json.loads(err)["error"] == "bad-spec"

    @pytest.mark.parametrize("pp, micro_batches, bound, optimum", [
        ("2", "1", None, 5.0), ("4", "2", None, 9.0), ("2", "4", 12, 12.0)])
    def test_primal_bound_only_with_the_hand_built_schedule(
            self, tmp_path, pp, micro_batches, bound, optimum):
        # the bound is the makespan target of the hand-built schedule,
        # which needs an even micro-batch count of at least 2*pp; it was
        # written for every spec, 3 and 8 for the first two, below their
        # optima, so their solves found no schedule
        inst, out = str(tmp_path / "inst.json"), tmp_path / "out.json"
        assert main(["gen", "dualpipe", "--pp", pp, "--micro-batches",
                     micro_batches, "-o", inst]) == EXIT_OK
        assert json.loads((tmp_path / "inst.json").read_text()).get(
            "primal_bound") == bound
        assert main(["solve", "-i", inst, "-o", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["solution"]["objective"] \
            == optimum


class TestCoarsen:
    def _coarsen(self, tmp_path, extra=None):
        inst = str(tmp_path / "inst.json")
        assert main(["gen", "random", "--nodes", "60", "--seed", "3",
                     "-o", inst]) == EXIT_OK
        doc = json.loads((tmp_path / "inst.json").read_text())
        doc.update(extra or {})
        _write(tmp_path / "inst.json", doc)
        out = tmp_path / "coarse.json"
        assert main(["coarsen", "-i", inst, "-o", str(out)]) == EXIT_OK
        return doc, json.loads(out.read_text())

    def test_records_partition_absorbed_ids(self, tmp_path):
        doc, out = self._coarsen(tmp_path)
        original = set(load_computation_graph(doc["graph"]).operations)
        coarse = set(load_computation_graph(out["graph"]).operations)
        assert len(coarse) < len(original)
        records = out["coarsen_records"]
        absorbed = [i for r in records for i in r["absorbed"]]
        assert len(absorbed) == len(set(absorbed))
        assert {r["id"] for r in records} == coarse - original
        assert set(absorbed) | (coarse & original) == original
        assert set(absorbed).isdisjoint(coarse)
        assert out["cluster"] == doc["cluster"]
        assert "primal_bound" not in out

    def test_primal_bound_carried_over(self, tmp_path):
        _, out = self._coarsen(tmp_path, {"primal_bound": 123.5})
        assert out["primal_bound"] == 123.5

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_budget_below_one_is_one_json_error(self, tmp_path, capsys,
                                                budget):
        inst = _write(tmp_path / "inst.json", ONE_OP)
        assert main(["coarsen", "-i", inst, "--to", budget]) == EXIT_USAGE
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "bad-spec",
                       "message": "node_budget must be >= 1"}


class TestSolve:
    @pytest.mark.parametrize("limit", [["--time-limit", "nan"],
                                       ["--time-limit", "-1"],
                                       ["--node-limit", "-5"]], ids=" ".join)
    @pytest.mark.parametrize("argv", [["solve"],
                                      ["repro-dualpipe", "--pp", "2"]],
                             ids=" ".join)
    def test_limit_that_never_stops_is_one_json_error(self, tmp_path, capsys,
                                                      argv, limit):
        # a NaN time limit made the deadline unreachable: the search ran
        # until its tree was exhausted
        inst = _write(tmp_path / "inst.json", ONE_OP)
        if argv == ["solve"]:
            argv = argv + ["-i", inst]
        assert main(argv + limit) == EXIT_USAGE
        assert json.loads(capsys.readouterr().err)["error"] == "bad-spec"

    @pytest.mark.parametrize("limit", [["--time-limit", "inf"],
                                       ["--time-limit", "0"]], ids=" ".join)
    def test_infinite_and_zero_time_limits_stay_valid(self, tmp_path, limit):
        inst = _write(tmp_path / "inst.json", ONE_OP)
        assert main(["solve", "-i", inst, "-o", str(tmp_path / "out.json")]
                    + limit) == EXIT_OK

    def test_dag_deeper_than_the_recursion_limit_solves(self, tmp_path,
                                                         capsys):
        # the DFS recurses once per placed op; at 1,000 ops it ended in a
        # RecursionError traceback
        inst, sol, rep = (str(tmp_path / f"{name}.json")
                          for name in ("inst", "sol", "rep"))
        limit = sys.getrecursionlimit()
        assert main(["gen", "random", "--nodes", "1000", "--seed", "0",
                     "--machines", "3", "-o", inst]) == EXIT_OK
        assert main(["solve", "-i", inst, "--node-limit", "5000",
                     "-o", sol]) == EXIT_OK
        assert main(["verify", "-i", sol, "-o", rep]) == EXIT_OK
        assert json.loads((tmp_path / "rep.json").read_text())["feasible"]
        assert "Traceback" not in capsys.readouterr().err
        assert sys.getrecursionlimit() == limit

    def test_stats_only_when_asked(self, tmp_path):
        inst = str(tmp_path / "inst.json")
        assert main(["gen", "dualpipe", "--pp", "2", "-o", inst]) == EXIT_OK
        plain, stats = tmp_path / "plain.json", tmp_path / "stats.json"
        base = ["solve", "-i", inst, "--ignore-primal-bound",
                "--node-limit", "50"]
        assert main(base + ["-o", str(plain)]) == EXIT_OK
        assert main(base + ["--stats", "-o", str(stats)]) == EXIT_OK
        plain, stats = (json.loads(p.read_text()) for p in (plain, stats))
        assert "stats" not in plain
        # the search reaches the root bound before the node budget
        assert stats.pop("stats") == {
            "nodes": 25, "stop": "bound-met", "root_bound": 12.0,
            "pruned": {"bound-before-dispatch": 0, "bound-after-dispatch": 0,
                       "memory": 9}}
        assert stats == plain

    def test_resolving_drops_the_inputs_stats(self, tmp_path):
        # stats describe the solve that wrote them: solving a --stats
        # output again without --stats copied them next to the new schedule
        inst = str(tmp_path / "inst.json")
        assert main(["gen", "dualpipe", "--pp", "2", "-o", inst]) == EXIT_OK
        first, again, plain = (tmp_path / f"{name}.json"
                               for name in ("first", "again", "plain"))
        base = ["solve", "--ignore-primal-bound"]
        assert main(base + ["-i", inst, "--stats", "-o", str(first)]) \
            == EXIT_OK
        assert main(base + ["-i", str(first), "-o", str(again)]) == EXIT_OK
        assert main(base + ["-i", inst, "-o", str(plain)]) == EXIT_OK
        assert "stats" in json.loads(first.read_text())
        assert again.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize("stats", [True, False], ids=["stats", "plain"])
    def test_no_incumbent_error_carries_stats(self, tmp_path, capsys, stats):
        # without a hint the pp=4 DFS finds no schedule in 1,000 nodes
        inst, out = str(tmp_path / "inst.json"), tmp_path / "out.json"
        assert main(["gen", "dualpipe", "--pp", "4", "-o", inst]) == EXIT_OK
        assert main(["solve", "-i", inst, "--node-limit", "1000",
                     "-o", str(out)] + ["--stats"] * stats) == EXIT_ERROR
        assert not out.exists()
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "no-incumbent"
        assert err["message"] == ("search budget exhausted without a "
                                  "feasible schedule")
        if not stats:
            assert "stats" not in err
            return
        assert (err["stats"]["nodes"], err["stats"]["stop"],
                err["stats"]["root_bound"]) == (1001, "node-limit", 24)

    def test_no_incumbent_under_a_primal_bound_names_the_bound(
            self, tmp_path, capsys):
        # the tree is exhausted under a bound below the root bound 12: no
        # budget ran out
        inst = tmp_path / "inst.json"
        assert main(["gen", "dualpipe", "--pp", "2", "-o", str(inst)]) \
            == EXIT_OK
        doc = json.loads(inst.read_text())
        doc["primal_bound"] = 5
        _write(inst, doc)
        assert main(["solve", "-i", str(inst), "--stats"]) == EXIT_ERROR
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["status"], err["stats"]["stop"]) \
            == ("no-incumbent", "feasible", "exhausted")
        assert err["message"] == ("search tree exhausted without a schedule "
                                  "within the primal bound")

    def test_calls_in_one_process_share_no_flags(self, tmp_path):
        # `main` parses every call with the same parser
        assert cli._parser() is cli._parser()
        inst = str(tmp_path / "inst.json")
        assert main(["gen", "dualpipe", "--pp", "2", "-o", inst]) == EXIT_OK
        base = ["solve", "-i", inst, "--ignore-primal-bound"]
        docs = []
        for flags in (["--stats"], [], ["--node-limit", "5"], []):
            out = tmp_path / f"out{len(docs)}.json"
            rc = main(base + flags + ["-o", str(out)])
            docs.append(json.loads(out.read_text()) if out.exists() else rc)
        with_stats, plain, limited, default = docs
        assert with_stats.pop("stats")["nodes"] == 25
        assert with_stats == plain
        # 5 nodes find no schedule; the default budget finds the optimum
        assert limited == EXIT_ERROR
        assert default == plain
        assert plain["solution"]["status"] == "optimal"

    def test_config_environment_variable_has_no_effect(self, tmp_path,
                                                       monkeypatch):
        # flags are the only settings: $OPSCHED_CONFIG once set defaults
        cfg = _write(tmp_path / "cfg.json", {"solve": {"stats": True}})
        monkeypatch.setenv("OPSCHED_CONFIG", cfg)
        inst, out = str(tmp_path / "inst.json"), tmp_path / "out.json"
        assert main(["gen", "dualpipe", "--pp", "2", "-o", inst]) == EXIT_OK
        assert main(["solve", "-i", inst, "-o", str(out)]) == EXIT_OK
        assert "stats" not in json.loads(out.read_text())

    @pytest.mark.parametrize("limit, stop", [
        (["--node-limit", "300"], "node-limit"),
        # the clock is read every 2,048 nodes
        (["--time-limit", "0"], "time-limit")], ids=lambda v: str(v))
    def test_stop_names_the_budget_that_ended_the_search(self, tmp_path,
                                                         limit, stop):
        inst, out = str(tmp_path / "inst.json"), tmp_path / "out.json"
        assert main(["gen", "dualpipe", "--pp", "2", "--micro-batches", "6",
                     "-o", inst]) == EXIT_OK
        assert main(["solve", "-i", inst, "--ignore-primal-bound", "--stats",
                     "-o", str(out)] + limit) == EXIT_OK
        doc = json.loads(out.read_text())
        # the status label stays time-limit for both budgets
        assert doc["solution"]["status"] == "time-limit"
        assert doc["stats"]["stop"] == stop
        assert doc["stats"]["nodes"] == (301 if stop == "node-limit"
                                         else 2048)


class TestUsage:
    @pytest.mark.parametrize("argv", [
        ["solve", "--bogus"],
        ["solve", "--compaction", "late"],
        ["gen", "dualpipe"],
        ["solve", "--time-limit", "abc"],
        ["export", "--format", "pdf"],
        ["bogus"],
        ["--config", "cfg.json", "solve", "-i", "inst.json"],
        pytest.param([], id="no-command")], ids=" ".join)
    def test_argparse_failure_is_one_json_error(self, capsys, argv):
        # argparse printed usage text and raised SystemExit(2) out of main
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "bad-usage" and err["message"]

    def test_help_still_prints_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "-h"])
        assert exc.value.code == 0
        assert "--node-limit" in capsys.readouterr().out


class TestReproDualpipe:
    def test_pp2_runs_to_completion(self, tmp_path, capsys):
        out = tmp_path / "repro.json"
        assert main(["repro-dualpipe", "--pp", "2", "-o", str(out)]) \
            == EXIT_OK
        # at pp=2 the DualPipe formula, and every bubble, is 0
        assert dualpipe_bubble_target(DualPipeSpec(pp=2)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ("reference: makespan=12 pipeline_bubble=0 "
                            "bubble_total=0")
        assert lines[1] == ("heuristic: makespan=12 pipeline_bubble=0 "
                            "bubble_total=0 iterations=5 stop=bound-met")
        report = tmp_path / "report.json"
        assert main(["verify", "-i", str(out), "-o", str(report)]) \
            == EXIT_OK
        rep = json.loads(report.read_text())
        assert (rep["makespan"], rep["pipeline_bubble"],
                rep["bubble_total"]) == (12, 0, 0)

    def test_pp2_output_bytes_and_sources(self, tmp_path, capsys):
        # the document dates from when `solve` ran the idle refinement
        # itself; at pp=2 the hand-built order laid out at earliest
        # starts, with no refinement, writes the same one (the digest
        # was re-recorded when the CLI dropped the indent)
        out = tmp_path / "repro.json"
        assert main(["repro-dualpipe", "--pp", "2", "-o", str(out)]) \
            == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            "a42f83377fd79929564fb32ef2af17d4cef4dc463992eccc71bc76da890033d0"
        # the climb only ties the hand-built order, which is kept; it meets
        # the root bound, so the solve returns it at once
        assert capsys.readouterr().out.splitlines()[2].startswith(
            "pp=2 written=reference makespan=12 pipeline_bubble=0 "
            "bubble_total=0 status=optimal stop=bound-met nodes=0 ")

    def test_pp4_writes_the_climbs_schedule(self, tmp_path, capsys):
        # pp=4 is the first size with a bubble: the formula gives 2 and
        # the primal bound 26; the hand-built order is 25 long and each
        # device idles at most 1 (2 in all between first and last op). The
        # climb ties it on makespan and pipeline bubble and idles 1 in all
        out = tmp_path / "repro.json"
        assert main(["repro-dualpipe", "--pp", "4", "--node-limit", "1000",
                     "-o", str(out)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == [
            "reference: makespan=25 pipeline_bubble=1 bubble_total=2",
            "heuristic: makespan=25 pipeline_bubble=1 bubble_total=1 "
            "iterations=1406 stop=patience"]
        assert lines[2].startswith(
            "pp=4 written=heuristic makespan=25 pipeline_bubble=1 "
            "bubble_total=1 status=feasible stop=bound-met nodes=0 ")
        report = tmp_path / "report.json"
        assert main(["verify", "-i", str(out), "-o", str(report)]) \
            == EXIT_OK
        rep = json.loads(report.read_text())
        assert (rep["makespan"], rep["pipeline_bubble"],
                rep["bubble_total"]) == (25, 1, 1)

    def test_pp4_default_limits_spend_no_solve_nodes(self, capsys):
        # the written schedule meets the primal bound, so the solve stops
        # before its first node; at the parent a continued search ran all
        # 2M nodes of the default limit
        assert main(["repro-dualpipe", "--pp", "4"]) == EXIT_OK
        last = capsys.readouterr().out.splitlines()[2]
        assert " stop=bound-met nodes=0 " in last

    def test_no_schedule_from_the_climb_writes_the_reference(
            self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "list_schedule",
                            lambda model, *, deadline: None)
        assert main(["repro-dualpipe", "--pp", "2"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "heuristic: no schedule"
        assert lines[2].startswith("pp=2 written=reference ")

    @staticmethod
    def _late_pp4(monkeypatch, capsys, delay):
        """Run pp=4 with both the hand-built schedule and the climb's
        result `delay` units late; exit code and stderr."""
        real_reference = cli.dualpipe_reference

        def late(spec):
            sol = real_reference(spec)
            return dataclasses.replace(
                sol, objective=sol.objective + delay,
                op_times={i: (s + delay, e + delay)
                          for i, (s, e) in sol.op_times.items()},
                comm_times={k: (c, s + delay, e + delay)
                            for k, (c, s, e) in sol.comm_times.items()})

        monkeypatch.setattr(cli, "dualpipe_reference", late)
        monkeypatch.setattr(cli, "list_schedule",
                            lambda model, *, deadline:
                            late(DualPipeSpec(pp=4)))
        code = main(["repro-dualpipe", "--pp", "4"])
        captured = capsys.readouterr()
        assert captured.out == ""
        return code, json.loads(captured.err)

    def test_one_unit_late_meets_the_bound_but_not_the_bubble(
            self, monkeypatch, capsys):
        # makespan 26 <= 26; pipeline bubble 26 - 24 = 2 > 1
        assert self._late_pp4(monkeypatch, capsys, 1) == (EXIT_ERROR, {
            "error": "bubble-mismatch",
            "message": "written pipeline_bubble 2 > limit 1"})

    def test_two_units_late_misses_the_bound(self, monkeypatch, capsys):
        assert self._late_pp4(monkeypatch, capsys, 2) == (EXIT_ERROR, {
            "error": "bubble-mismatch",
            "message": "reference makespan 27 > limit 26"})
