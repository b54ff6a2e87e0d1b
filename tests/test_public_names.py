"""Every public top-level name of a package module has a reader.

A name that a module other than `__init__.py` binds at its top level, and
that does not start with an underscore, must be read somewhere in the
package or be exported by `evensets.__all__`. The `cli.cmd_*` handlers are
exempt: `main` finds them by name at call time.
"""

import ast
from pathlib import Path

import evensets

PACKAGE = Path(evensets.__file__).parent


def public_names(tree: ast.Module) -> set[str]:
    """Names bound by the module's top-level definitions and plain assignments."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return {name for name in names if not name.startswith("_")}


def read_names(tree: ast.Module, modules: set[str]) -> set[str]:
    """Bare names the tree loads, and the `module.name` attributes it loads."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
              and isinstance(node.value, ast.Name) and node.value.id in modules):
            read.add(node.attr)
    return read


def unread_public_names(sources: dict[str, str], exported) -> list[str]:
    """`module.name` for each public name that no module reads or exports."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = set().union(*(read_names(tree, set(trees)) for tree in trees.values()))
    return sorted(f"{module}.{name}" for module, tree in trees.items()
                  if module != "__init__"
                  for name in public_names(tree)
                  if name not in read and name not in exported
                  and not (module == "cli" and name.startswith("cmd_")))


def test_every_public_name_is_read_or_exported():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in PACKAGE.glob("*.py")}
    assert {"certificates", "cli", "formulas", "gf2", "surfaces",
            "verification"} <= set(sources)
    assert unread_public_names(sources, set(evensets.__all__)) == []


def test_an_unread_name_is_reported():
    sources = {
        "a": "LIMIT = 3\ndef used(): return LIMIT\ndef exported(): pass\n"
             "def dead(): pass\ndef _private(): pass\ndef cmd_x(): pass\n",
        "b": "from . import a\nx = a.used()\n",
        "cli": "def cmd_emin(): pass\n",
    }
    assert unread_public_names(sources, {"exported"}) == ["a.cmd_x", "a.dead", "b.x"]
