"""The package surface: every exported name resolves, and no module or
test file imports a name it never uses."""
import ast
import pathlib

import pytest

import opsched

SRC = pathlib.Path(opsched.__file__).parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(pathlib.Path(__file__).parent.glob("*.py"))


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
