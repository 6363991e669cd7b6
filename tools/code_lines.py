"""Count the package's code lines: no blank, comment or docstring lines.

    python tools/code_lines.py

A Python line counts when a token other than a comment, a newline or
an indent starts or continues on it, unless that token is a docstring
(a bare string statement that opens a module, class or function).  A C
line counts when something other than a ``//`` or ``/* */`` comment is
left on it.
"""
import ast
import io
import re
import tokenize
from pathlib import Path

PACKAGE = (Path(__file__).resolve().parent.parent
           / "series_correction_project_updated_ray")

_C_COMMENT = re.compile(r"/\*.*?\*/|//[^\n]*", re.S)
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    doc = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - doc)


def c_code_lines(source):
    # each comment keeps its newlines, so the lines stay where they were
    bare = _C_COMMENT.sub(lambda m: "\n" * m.group().count("\n"), source)
    return sum(1 for line in bare.splitlines() if line.strip())


if __name__ == "__main__":
    print(sum(code_lines(p.read_text()) for p in PACKAGE.rglob("*.py"))
          + sum(c_code_lines(p.read_text()) for p in PACKAGE.rglob("*.c")))
