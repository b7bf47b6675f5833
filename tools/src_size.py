"""Count the lines of each module of ``src/mechmbqc`` by kind.

Usage (from anywhere):

    python3 tools/src_size.py [--src DIR]

Every line of a module is one of four kinds, decided in this order:

* ``docstring``: inside the docstring of the module, a class or a function,
  as the AST places it (its blank lines too);
* ``code``: carries a token of the program, a line of a multi-line string
  that is not a docstring included, whether or not a comment follows;
* ``comment``: carries a comment and nothing else;
* ``blank``: everything else.

It prints one row per module and a total, as plain columns. ``code`` is the
size that a change meant to simplify the package should shrink. Standard
library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mechmbqc"
KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """Line numbers spanned by every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count_lines(source: str) -> dict:
    """``{kind: number of lines}`` of one module's source."""
    docs = docstring_lines(ast.parse(source))
    code, comments = set(), set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            comments.add(token.start[0])
        elif token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number in range(1, len(source.splitlines()) + 1):
        if number in docs:
            kind = "docstring"
        elif number in code:
            kind = "code"
        elif number in comments:
            kind = "comment"
        else:
            kind = "blank"
        counts[kind] += 1
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=SRC,
                        help="package directory to count (default: src/mechmbqc)")
    args = parser.parse_args(argv)
    rows = [(path.name, count_lines(path.read_text()))
            for path in sorted(args.src.glob("*.py"))]
    total = {kind: sum(counts[kind] for _, counts in rows) for kind in KINDS}
    width = max([len("total"), *(len(name) for name, _ in rows)])
    print(f"{'module':<{width}}" + "".join(f"{kind:>11}" for kind in KINDS))
    for name, counts in [*rows, ("total", total)]:
        print(f"{name:<{width}}" + "".join(f"{counts[kind]:>11}" for kind in KINDS))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
