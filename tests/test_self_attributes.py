"""Every attribute a package class assigns on `self` has a reader.

An attribute that a method of a package class stores as `self.name = ...`
must be loaded as `.name` somewhere in the package or the tests. A read is
matched by its spelling alone, so it cannot tell which class it reads when
another package class also defines `name` (as a field, a method, a property
or on `self`); such an attribute is reported as unread too.
"""

import ast
from pathlib import Path

import evensets

PACKAGE = Path(evensets.__file__).parent
TESTS = Path(__file__).parent


def self_attributes(cls: ast.ClassDef) -> set[str]:
    """Names the class's methods store as `self.name`."""
    return {node.attr for node in ast.walk(cls)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self"}


def class_names(cls: ast.ClassDef) -> set[str]:
    """Names the class defines: body fields, assignments and methods, and self attributes."""
    names = self_attributes(cls)
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def unread_self_attributes(package: list[str], readers: list[str]) -> list[str]:
    """`Class.name` for each self attribute no source reads, or whose name another class has."""
    package_trees = [ast.parse(text) for text in package]
    trees = package_trees + [ast.parse(text) for text in readers]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    classes = [node for tree in package_trees for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)]
    return sorted(f"{cls.name}.{name}" for cls in classes for name in self_attributes(cls)
                  if name not in read
                  or any(name in class_names(other) for other in classes if other is not cls))


def test_every_self_attribute_is_read():
    package = [path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))]
    tests = [path.read_text(encoding="utf-8") for path in sorted(TESTS.glob("*.py"))]
    assert len(package) >= 7 and tests
    assert unread_self_attributes(package, tests) == []


def test_an_unread_or_shared_attribute_is_reported():
    package = [
        "class A(Exception):\n"
        "    def __init__(self, n):\n"
        "        self.read = self.dead = self.shared = self.field = n\n"
        "class B:\n"
        "    field: int\n"
        "    def shared(self): pass\n",
    ]
    readers = ["def f(e, b):\n    return e.read, e.shared, b.field\n"]
    assert unread_self_attributes(package, readers) == ["A.dead", "A.field", "A.shared"]
