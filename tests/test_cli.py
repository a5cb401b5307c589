"""The command line, driven through `opsched.cli.main`."""
import json

import pytest

from opsched.cli import EXIT_OK, EXIT_VIOLATIONS, main

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
