"""Every public name of the package has a caller outside the tests.

A public name is one a module of src/entroscope defines at top level without
a leading underscore. It counts as used when code under src/, scripts/ or
bench/ loads it by name, imports it, or reads it as an attribute of a name
spelled like one of the package's modules (chowliu.build_tree); its own
definition does not count. An attribute of anything else, such as json.dump
or model.root, says nothing about the package's names.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "entroscope"
# acceptance criterion 01 tests renyi as the package's general-order API
ALLOWED = {"renyi"}


def _defined(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id


MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _used(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in MODULES):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_public_name_has_a_caller_outside_tests():
    used = set()
    for folder in ("src", "scripts", "bench"):
        for path in (ROOT / folder).rglob("*.py"):
            used.update(_used(ast.parse(path.read_text(), str(path))))
    public = {
        f"{path.stem}.{name}"
        for path in PACKAGE.glob("*.py")
        for name in _defined(ast.parse(path.read_text(), str(path)))
        if not name.startswith("_")
    }
    unused = {q for q in public if q.split(".", 1)[1] not in used | ALLOWED}
    assert not unused, f"public names only tests use: {sorted(unused)}"
    # the allowlist holds nothing that has gained a caller
    assert not ALLOWED & used
