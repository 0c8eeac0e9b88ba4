"""Every module-level import, private constant and method in src/rankone is used.

An import counts as used if the module reads it or its import line carries
"# noqa: F401".  The package's __init__ is left out: its imports are the
re-exported API, each listed once in rankone.__all__, the one list of
public names.  A module-level _PRIVATE constant, function or class must be
read somewhere in the package, so no private helper lives on for the tests
alone.  A method defined on a class must be read, as an attribute or a
string, in the package, the benchmark or the tests.  `import rankone`
loads neither the acceptance suite nor the CLI.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rankone

_PACKAGE = sorted(Path(rankone.__file__).parent.glob("*.py"))
_ROOT = Path(__file__).resolve().parent.parent
_MODULES = [path for path in _PACKAGE if path.name != "__init__.py"]
_CONSTANT = re.compile(r"_[A-Z][A-Z0-9_]*")


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


def test_package_all_is_its_imports():
    tree = ast.parse(Path(rankone.__file__).read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    public = [name for name in rankone.__all__ if name != "__version__"]
    assert len(imported) == len(set(imported)), "a name is imported twice"
    assert len(public) == len(set(public)), "a name is listed twice in __all__"
    assert sorted(imported) == sorted(public)


def test_import_loads_neither_acceptance_nor_cli():
    # only `rankone verify` reads the acceptance suite, and it imports it
    # when it runs
    env = dict(os.environ, PYTHONPATH=str(Path(rankone.__file__).parent.parent))
    code = (
        "import sys, rankone\n"
        "print(sorted(m for m in ('rankone.acceptance', 'rankone.cli') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _constants(tree: ast.Module) -> set:
    targets = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets += node.targets
        elif isinstance(node, ast.AnnAssign):
            targets.append(node.target)
    return {
        name.id
        for target in targets
        for name in ast.walk(target)
        if isinstance(name, ast.Name) and _CONSTANT.fullmatch(name.id)
    }


def _read_in_package(trees: list) -> set:
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def test_no_unread_private_constants():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in _PACKAGE]
    defined = set().union(*(_constants(tree) for tree in trees))
    assert defined, "no private constants found"
    assert sorted(defined - _read_in_package(trees)) == []


def test_every_private_function_and_class_is_read_in_the_package():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in _PACKAGE}
    defined = {
        f"{module}.{node.name}": node.name
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
    }
    read = _read_in_package(list(trees.values()))
    assert len(defined) > 20, "too few private functions found"
    assert sorted(name for name, bare in defined.items() if bare not in read) == []


def test_every_method_is_read():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in _PACKAGE]
    methods = {
        f"{cls.name}.{node.name}": node.name
        for tree in trees
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }
    readers = [*_PACKAGE, *(_ROOT / "perfbench").glob("*.py"), *(_ROOT / "tests").glob("*.py")]
    read = set()
    for path in readers:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    assert len(methods) > 20, "too few methods found"
    assert sorted(name for name, method in methods.items() if method not in read) == []
