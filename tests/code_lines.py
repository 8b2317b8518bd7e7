"""Count the code lines of ``src/slabnn``: no docstrings, comments or blanks.

Run from a checkout::

    python tests/code_lines.py
    python tests/code_lines.py --rev REV

prints one ``<count>  <module>`` line per ``src/slabnn/*.py`` file and
a ``<count>  total`` line.  A line counts when it holds at least one
token other than a comment, a newline or indentation, and is not part
of a docstring: a string literal standing alone as the first statement
of a module, class or function.  This is the "code lines" figure the
ROADMAP quotes.  An optional argument names another package directory;
``--rev REV`` counts the modules as committed at the git revision REV
(read through ``git show``), so a change can quote its parent's figure
from its own checkout.

The file has no ``test_`` prefix, so pytest does not collect it.
"""

import argparse
import ast
import io
import os
import subprocess
import sys
import tokenize

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}

REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


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


def code_lines(source: bytes) -> int:
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def modules(root=None, rev=None):
    """``(name, source)`` of each ``.py`` file of the package, in name order.

    From the directory ``root`` (default ``src/slabnn``), or as committed
    at the git revision ``rev``.
    """
    if rev is None:
        root = root or os.path.join(REPO, "src", "slabnn")
        for name in sorted(os.listdir(root)):
            if name.endswith(".py"):
                with open(os.path.join(root, name), "rb") as fh:
                    yield name, fh.read()
        return
    git = ["git", "-C", REPO]
    paths = subprocess.run(git + ["ls-tree", "--name-only", rev, "src/slabnn/"],
                           check=True, capture_output=True, text=True).stdout.split()
    for path in sorted(paths):
        if path.endswith(".py"):
            source = subprocess.run(git + ["show", f"{rev}:{path}"], check=True,
                                    capture_output=True).stdout
            yield os.path.basename(path), source


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Code lines of src/slabnn, per module.")
    where = parser.add_mutually_exclusive_group()
    where.add_argument("root", nargs="?", help="another package directory")
    where.add_argument("--rev", help="count the modules as committed at this git revision")
    args = parser.parse_args(argv)
    total = 0
    for name, source in modules(args.root, args.rev):
        count = code_lines(source)
        total += count
        print(f"{count:6d}  {name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
