"""Count the code lines and the public names of each module of the package.

    python3 tools/code_lines.py [SRC]

``SRC`` is the source tree (default: this checkout's ``src``).  A code line
is a line that holds a token of code: blank lines, comment lines and the
lines of docstrings (the string that opens a module, class or function
body) do not count.  The public names of a module are the entries of the
list or tuple it assigns to ``__all__``, read from its syntax tree without
importing it (0 where it assigns none).  The script prints one line per
module of ``SRC/superint``, its code lines and its public names, and the
totals.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    """The line numbers of every docstring of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text):
    """The number of code lines of the Python source ``text``."""
    docs = _docstring_lines(ast.parse(text))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docs)
    return len(lines)


def public_names(text):
    """The number of entries of the ``__all__`` that the Python source ``text``
    assigns at module level (0 when it assigns none)."""
    for node in ast.parse(text).body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return len(node.value.elts)
    return 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    pkg = os.path.join(argv[0] if argv else os.path.join(ROOT, "src"), "superint")
    total = public = 0
    print("  code  public  module")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                text = fh.read()
            n, k = code_lines(text), public_names(text)
            total += n
            public += k
            print(f"{n:6d}  {k:6d}  {name}")
    print(f"{total:6d}  {public:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
