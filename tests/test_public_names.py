"""Every public name has a caller in the program.

A name in opvol.__all__ must be used in src/opvol outside the module that
defines it, or in perfbench/.  A name that only the tests reach belongs in
the tests, as a private helper, or in its own module without the export.
"""

import ast
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


def _used(tree: ast.Module) -> set[str]:
    """Names a module reads, bare or as an attribute (imports alone do not count)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_public_name_has_a_caller():
    modules = {p.stem: _parse(p) for p in PACKAGE.glob("*.py") if p.stem != "__init__"}
    bench = set().union(*(_used(_parse(p)) for p in (ROOT / "perfbench").glob("*.py")))
    orphans = []
    for name in opvol.__all__:
        (home,) = [stem for stem, tree in modules.items() if name in _defined(tree)]
        callers = [stem for stem, tree in modules.items() if stem != home and name in _used(tree)]
        if not callers and name not in bench:
            orphans.append(f"{home}.{name}")
    assert not orphans, f"public names with no caller outside tests: {orphans}"
