"""Lint: every module of the package uses each name it imports."""

import ast
from pathlib import Path

import pytest

import emgadapt

PACKAGE_DIR = Path(emgadapt.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names the module binds by import but never reads; names in `__all__` count as read."""
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_lint_flags_an_unused_import():
    source = "import os\nimport sys\nfrom a.b import c as d, e\nprint(sys, e)\n"
    assert unused_imports(source) == ["d", "os"]


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
