"""Size of the opvol package, per module: raw lines, code lines and public names.

Code lines leave out docstrings (the first string statement of a module,
class or function, found with ast), comments and blank lines (found with
tokenize).  A module's public names are its __all__ when it has one, else
the top-level functions, classes and assigned names without a leading
underscore.

    python tools/src_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "opvol"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def _code_lines(source: str, tree: ast.Module) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(tree))


def _public_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    return [elt.value for elt in node.value.elts]
                if isinstance(target, ast.Name):
                    names.append(target.id)
    return [name for name in names if not name.startswith("_")]


def main() -> None:
    total_raw = total_code = total_names = 0
    print(f"{'module':<16}{'raw':>7}{'code':>7}{'names':>7}  public names")
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
        raw, code, names = len(source.splitlines()), _code_lines(source, tree), _public_names(tree)
        total_raw, total_code, total_names = total_raw + raw, total_code + code, total_names + len(names)
        print(f"{path.stem:<16}{raw:>7}{code:>7}{len(names):>7}  {' '.join(names)}")
    print(f"{'total':<16}{total_raw:>7}{total_code:>7}{total_names:>7}")


if __name__ == "__main__":
    main()
