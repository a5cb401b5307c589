"""The package surface: every exported name resolves, no module or test
file imports a name it never uses, no module defines a private
top-level name it never uses, every public top-level function or class
is exported or named by code in `src/` or `bench/`, every public method
or property of a public class is named there as an attribute, every
keyword-only parameter of a public function is passed by name
somewhere, every defaulted field of a public dataclass is set
somewhere, no module switches the cyclic garbage collector, and no
function imports."""
import ast
import functools
import pathlib

import pytest

import opsched

SRC = pathlib.Path(opsched.__file__).parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(pathlib.Path(__file__).parent.glob("*.py"))
BENCH = sorted((pathlib.Path(__file__).parent.parent / "bench").glob("*.py"))


@pytest.mark.parametrize("name", opsched.__all__)
def test_every_exported_name_resolves(name):
    assert getattr(opsched, name) is not None


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            # a name listed in __all__ is re-exported, hence used
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize(
    "path", MODULES + TESTS,
    ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}")
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unused_imports(tree) == []


def _unused_private_names(tree: ast.Module) -> list[str]:
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        defined.update((name, node.lineno) for name in names
                       if name.startswith("_") and not name.startswith("__"))
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{name} (line {line})" for name, line in defined.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_private_names(path):
    # a private helper left behind by a half-done deletion
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unused_private_names(tree) == []


@functools.cache
def _named_by_program() -> frozenset[str]:
    """Every name that code in `src/` or `bench/` loads, reads as an
    attribute or imports."""
    named = set()
    for path in sorted(SRC.glob("*.py")) + BENCH:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                named.update(alias.name for alias in node.names)
    return frozenset(named)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_public_definition_is_reached(path):
    # a public helper that only tests call is a second way in to keep up
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [f"{node.name} (line {node.lineno})" for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and node.name not in opsched.__all__
            and node.name not in _named_by_program()] == []


@functools.cache
def _attributes_named_by_program() -> frozenset[str]:
    """Every attribute that code in `src/` or `bench/` reads or calls."""
    return frozenset(
        node.attr for path in sorted(SRC.glob("*.py")) + BENCH
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_public_method_is_reached(path):
    # a method that only tests call is a second way in to keep up
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [f"{cls.name}.{node.name} (line {node.lineno})"
            for cls in tree.body
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
            for node in cls.body
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")
            and node.name not in _attributes_named_by_program()] == []


_COLLECTOR_SWITCHES = ("disable", "freeze", "set_threshold")


def _collector_switches(tree: ast.Module) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "gc"
                and node.attr in _COLLECTOR_SWITCHES):
            found.append(f"gc.{node.attr} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            found.extend(f"from gc import {alias.name} (line {node.lineno})"
                         for alias in node.names
                         if alias.name in _COLLECTOR_SWITCHES)
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_model_switches_the_collector(path):
    # model.py no longer does either: the constraint store's rows hold no
    # object that the collector tracks, so nothing pauses it
    assert _collector_switches(ast.parse(path.read_text(),
                                         filename=str(path))) == []


def _imports_in_functions(path: pathlib.Path) -> list[str]:
    owner = {}
    for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    # the walk is breadth first, so an inner function
                    # comes later and wins
                    owner[node] = fn.name
    return sorted(f"{name}: {ast.unparse(node)} (line {node.lineno})"
                  for node, name in owner.items())


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_imports_inside_functions(path):
    # an import belongs at the top of its module, where a reader finds
    # the module's dependencies; no module imports inside a function
    assert _imports_in_functions(path) == []


def _keyword_only_knobs(tree: ast.Module) -> list[tuple[str, str]]:
    """(function, parameter) for every keyword-only parameter of a public
    top-level function or of a public method of a public class."""
    funcs = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
            funcs += [n for n in cls.body if isinstance(n, ast.FunctionDef)]
    return [(f.name, a.arg) for f in funcs if not f.name.startswith("_")
            for a in f.args.kwonlyargs]


@functools.cache
def _passed_by_name() -> frozenset[tuple[str, str]]:
    """(called name, keyword) for every call in `src/` and the tests."""
    passed = set()
    for path in MODULES + TESTS:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name) else
                    func.attr if isinstance(func, ast.Attribute) else None)
            passed.update((name, kw.arg) for kw in node.keywords if kw.arg)
    return frozenset(passed)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_keyword_only_knob_is_passed(path):
    # a knob that no caller sets changes no behaviour: use it or delete it
    knobs = _keyword_only_knobs(ast.parse(path.read_text(),
                                          filename=str(path)))
    assert [f"{f}({k}=)" for f, k in knobs
            if (f, k) not in _passed_by_name()] == []


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _dataclass_fields(tree: ast.Module) -> dict[str, list[tuple[str, bool]]]:
    """Public dataclass name -> its fields in order, each with whether it
    has a default."""
    return {cls.name: [(n.target.id, n.value is not None) for n in cls.body
                       if isinstance(n, ast.AnnAssign)
                       and isinstance(n.target, ast.Name)]
            for cls in tree.body
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
            and _is_dataclass(cls)}


@functools.cache
def _fields_set() -> frozenset[tuple[str | None, str]]:
    """(class, field) for every field a call in `src/` or the tests sets:
    by keyword or position on a call to the class, by keyword on a call
    that is handed the class (such as `cli._spec(DualPipeSpec, pp=...)`),
    and (None, field) for a keyword of `dataclasses.replace`, whose
    instance's class is not known here."""
    fields = {}
    for path in MODULES:
        fields.update(_dataclass_fields(ast.parse(path.read_text())))
    found = set()
    for path in MODULES + TESTS:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name) else
                    func.attr if isinstance(func, ast.Attribute) else None)
            keywords = [kw.arg for kw in node.keywords if kw.arg]
            if name == "replace":
                found.update((None, kw) for kw in keywords)
            classes = [a.id for a in node.args
                       if isinstance(a, ast.Name) and a.id in fields]
            if name in fields:
                classes.append(name)
                for arg, (field, _) in zip(node.args, fields[name]):
                    if isinstance(arg, ast.Starred):
                        break
                    found.add((name, field))
            found.update((cls, kw) for cls in classes for kw in keywords)
    return frozenset(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_defaulted_dataclass_field_is_set(path):
    # a default that no caller overrides is a constant in disguise
    fields_set = _fields_set()
    unset = [f"{cls}.{field}"
             for cls, fields in _dataclass_fields(
                 ast.parse(path.read_text())).items()
             for field, defaulted in fields
             if defaulted and (cls, field) not in fields_set
             and (None, field) not in fields_set]
    assert unset == []
