"""Every LAPACK decomposition in the program runs in one of three places.

A square root comes from operators.psd_sqrt_batch, an op norm from
variance._op_norms (for the op-norm sup's lead and surviving slots, and for
the per-slot norms behind the jump-free copy's running maxima), and the skew
forward semigroup's eigenbasis from forward.ForwardSemigroupSpec.modes.  A
second route to any of them (a closed form that must match LAPACK bit for
bit, say) would have to be kept in step with these by hand, so this test
walks src/opvol's syntax trees and names every other function that reads
eigh, eigvalsh, eig or svd, as a bare name, as an attribute or as an
import.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "opvol"

DECOMPOSITIONS = {"eigh", "eigvalsh", "eig", "svd"}

ALLOWED = {
    "operators.psd_sqrt_batch",
    "variance._op_norms",
    "forward.ForwardSemigroupSpec.modes",
}


def _reads(node: ast.AST) -> set[str]:
    """The decomposition names a node itself reads or imports."""
    if isinstance(node, ast.Attribute) and node.attr in DECOMPOSITIONS:
        return {node.attr}
    if isinstance(node, ast.Name) and node.id in DECOMPOSITIONS:
        return {node.id}
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return {a.name.rsplit(".", 1)[-1] for a in node.names} & DECOMPOSITIONS
    return set()


def _sites(tree: ast.AST, scope: str) -> set[str]:
    """Qualified names of the scopes under tree that read a decomposition;
    a function or class opens a scope of its own."""
    found = set()
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found |= _sites(child, f"{scope}.{child.name}")
        else:
            if _reads(child):
                found.add(scope)
            found |= _sites(child, scope)
    return found


def decomposition_sites() -> set[str]:
    sites = set()
    for path in sorted(PACKAGE.glob("*.py")):
        sites |= _sites(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return sites


def test_decompositions_run_only_in_their_three_places():
    assert decomposition_sites() == ALLOWED


def test_the_walk_finds_every_spelling():
    src = (
        "import numpy as np\n"
        "from numpy.linalg import svd\n"
        "def f(a):\n    return np.linalg.eigh(a)\n"
        "class C:\n    def g(self, a):\n        return eig(a)\n"
        "def h(a):\n    return np.linalg.norm(a)\n"
    )
    assert _sites(ast.parse(src), "m") == {"m", "m.f", "m.C.g"}
