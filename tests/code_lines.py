"""Count the code lines of ``src/slabnn``: no docstrings, comments or blanks.

Run from a checkout::

    python tests/code_lines.py

prints one ``<count>  <module>`` line per ``src/slabnn/*.py`` file and
a ``<count>  total`` line.  A line counts when it holds at least one
token other than a comment, a newline or indentation, and is not part
of a docstring: a string literal standing alone as the first statement
of a module, class or function.  This is the "code lines" figure the
ROADMAP quotes.  An optional argument names another package directory.

The file has no ``test_`` prefix, so pytest does not collect it.
"""

import ast
import os
import sys
import tokenize

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree) -> set:
    """Line numbers covered by every docstring in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path) -> int:
    with open(path, "rb") as fh:
        source = fh.read()
    docs = docstring_lines(ast.parse(source))
    lines = set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in SKIPPED:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = argv[0] if argv else os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                             os.pardir, "src", "slabnn")
    total = 0
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            count = code_lines(os.path.join(root, name))
            total += count
            print(f"{count:6d}  {name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
