"""Line counts of the kincal package, module by module.

For each module under src/kincal it prints the total lines and the code
lines, then their sums. A code line holds a token that is neither a
comment nor part of a docstring (the leading string of a module, class or
function), so blank lines, comments and docstrings do not count.

Usage: python3 scripts/code_lines.py   (from any working directory)
"""

import ast
import io
import pathlib
import tokenize

_PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "kincal"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree) -> set:
    """The line numbers that the docstrings of a parsed module span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: pathlib.Path) -> tuple:
    """(total lines, code lines) of one Python source file."""
    source = path.read_text()
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= _docstring_lines(ast.parse(source))
    return len(source.splitlines()), len(code)


def main() -> int:
    rows = [(path.name, *count(path)) for path in sorted(_PACKAGE.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':<16}{'lines':>8}{'code':>8}")
    for name, total, code in rows:
        print(f"{name:<16}{total:>8}{code:>8}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
