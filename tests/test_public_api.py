"""Every public name of the package has a caller outside the tests.

A public name is one a module of src/entroscope defines at top level without
a leading underscore. It counts as used when code under src/, scripts/ or
bench/ loads it by name, imports it, or reads it as an attribute of a name
spelled like one of the package's modules (chowliu.build_tree); its own
definition does not count. An attribute of anything else, such as json.dump
or model.root, says nothing about the package's names. A private top-level
name (one leading underscore) must be loaded in src/ outside the statement
that defines it, so none survives for the tests alone.

The README's library quickstart is run as written, so it cannot keep a
name the package no longer has.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "entroscope"
# public names that may lack a caller outside the tests; none today
ALLOWED: set[str] = set()


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


def test_every_private_name_has_a_caller_in_the_package():
    # each top-level statement: its module, the names it defines, those it loads
    statements = [
        (path.stem, set(_defined(ast.Module([node], []))), set(_used(node)))
        for path in PACKAGE.glob("*.py")
        for node in ast.parse(path.read_text(), str(path)).body
    ]
    loads = Counter(name for _, _, used in statements for name in used)
    private = {
        (f"{module}.{name}", loads[name] - (name in used))
        for module, defined, used in statements
        for name in defined if re.match(r"_[^_]", name)
    }
    assert private
    unused = sorted(name for name, callers in private if not callers)
    assert not unused, f"private names the package never loads: {unused}"


def test_readme_library_quickstart_runs(capsys):
    text = (ROOT / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    assert "Library quickstart" in text[:text.index(block)]
    exec(compile(block, "README.md", "exec"), {"__name__": "quickstart"})
    assert "expected guesses" in capsys.readouterr().out
