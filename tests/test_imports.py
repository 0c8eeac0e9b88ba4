"""Every module-level import in src/rankone is used.

A name counts as used if the module reads it or its import line carries
"# noqa: F401".  The package's __init__ is left out: its imports are the
re-exported API.
"""

import ast
from pathlib import Path

import pytest

import rankone

_MODULES = sorted(
    path for path in Path(rankone.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def _unused_imports(path: Path) -> list:
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", _MODULES, ids=lambda path: path.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(path) == []
