"""Every module-level import in the package is used by its module.

`__init__.py` is left out: its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

import evensets

MODULES = sorted(p for p in Path(evensets.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`.
                imported[(alias.asname or alias.name).partition(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_modules_are_found():
    assert {p.stem for p in MODULES} >= {"certificates", "cli", "formulas", "gf2",
                                         "surfaces", "verification"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_reported():
    assert unused_imports("import json\nimport os\nos.getcwd()\n") == ["line 1: json"]
