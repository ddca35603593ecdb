"""Every public name, function, class and method has a caller in the program.

A name in opvol.__all__ must be used in src/opvol outside the module that
defines it, or in perfbench/.  Every top-level function and class of
src/opvol, and every method other than a dunder, must be used in src/opvol
outside its own definition, or in perfbench/.  In src/opvol use is by name,
bare or as an attribute.  In perfbench/ it is an attribute read or a string
literal: the tracer binds engine names as patch(owner, "name"), and a bare
name there refers to perfbench's own definitions.  Code that only the tests
reach belongs in the tests, as a private helper or in tests/reference.py.
"""

import ast
from collections import Counter
from pathlib import Path

import opvol

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "opvol"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _defined(tree: ast.Module) -> set[str]:
    """Names a module binds at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _uses(tree: ast.AST) -> Counter:
    """How often a tree reads each name, bare or as an attribute (imports
    alone do not count)."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
    return names


def _used(tree: ast.Module) -> set[str]:
    return set(_uses(tree))


def _bench_used() -> set[str]:
    """Names perfbench/ reads as attributes or spells as string literals."""
    names = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def _definitions(tree: ast.Module):
    """(qualified name, node) of every top-level function and class and of
    every method that is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item


def test_every_public_name_has_a_caller():
    modules = {p.stem: _parse(p) for p in PACKAGE.glob("*.py") if p.stem != "__init__"}
    bench = _bench_used()
    orphans = []
    for name in opvol.__all__:
        (home,) = [stem for stem, tree in modules.items() if name in _defined(tree)]
        callers = [stem for stem, tree in modules.items() if stem != home and name in _used(tree)]
        if not callers and name not in bench:
            orphans.append(f"{home}.{name}")
    assert not orphans, f"public names with no caller outside tests: {orphans}"


def test_every_function_class_and_method_has_a_caller():
    trees = {p.stem: _parse(p) for p in PACKAGE.glob("*.py")}
    package = sum((_uses(tree) for tree in trees.values()), Counter())
    bench = _bench_used()
    orphans = []
    for stem, tree in trees.items():
        for qualname, node in _definitions(tree):
            outside = package[node.name] - _uses(node)[node.name]
            if outside <= 0 and node.name not in bench:
                orphans.append(f"{stem}.{qualname}")
    assert not orphans, f"definitions with no caller outside tests: {sorted(orphans)}"
