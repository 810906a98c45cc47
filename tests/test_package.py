"""The package holds what the CLI and a trainer run; code that only tests
call lives in ``tests/`` (``planted.py``, ``gradients.py``,
``reference_loop.py``)."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "trajreward"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def referenced_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rpartition(".")[2]
    return None


def test_every_module_level_definition_is_used_by_the_package():
    """Each module-level function and class of ``src/trajreward`` is named
    somewhere in the package outside its own definition: as an
    ``ast.Name``, an ``ast.Attribute`` or an import alias. A recursive call
    does not count. Methods are not covered: a method is reached through
    an object whose type the syntax tree does not show."""
    defined = []  # (file, name)
    users: dict[str, set] = {}  # name -> the definitions that name it, None outside any
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            owner = (path.name, stmt.name) if isinstance(stmt, DEFINITIONS) else None
            if owner:
                defined.append(owner)
            for node in ast.walk(stmt):
                name = referenced_name(node)
                if name:
                    users.setdefault(name, set()).add(owner)
    unused = [
        f"{file}: {name}" for file, name in defined if not users.get(name, set()) - {(file, name)}
    ]
    assert not unused, f"defined in the package but used only outside it: {unused}"


def test_no_module_of_the_package_imports_numpy():
    importers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m == "numpy" or m.startswith("numpy.") for m in modules):
                importers.append(f"{path.name}:{node.lineno}")
    assert importers == []


def test_pyyaml_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == ["pyyaml>=6.0"]
    assert any(req.startswith("numpy") for req in project["optional-dependencies"]["test"])
