"""Source checks that keep deletions clean: no dead imports, no long lines, no stale exports."""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted((SRC / "ctxlens").rglob("*.py"))
MAX_COLUMNS = 112


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name a module's imports bind, with the line of its import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: str(p.relative_to(SRC))
)
def test_every_import_is_used(path):
    # __init__.py files import names to re-export them, so they are not checked.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert unused == {}


def test_no_line_is_longer_than_the_limit():
    long_lines = [
        f"{path.relative_to(SRC)}:{lineno}"
        for path in MODULES
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if len(line) > MAX_COLUMNS
    ]
    assert long_lines == []


@pytest.mark.parametrize("package", ["ctxlens", "ctxlens.backends"])
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_no_module_imports_threads():
    # cli._in_workers forks, so no worker may inherit a lock that another thread holds.
    threaded = ("threading", "_thread", "concurrent.futures")
    found = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
            else:
                continue
            if any(name == m or name.startswith(m + ".") for name in names for m in threaded):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert found == []
