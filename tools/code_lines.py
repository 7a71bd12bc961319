"""Print the lines that hold code in each module of src/elegant, and their total.

A line holds code when some token on it is not a comment, and it is not
part of a docstring: the leading string of a module, class or function.
Blank lines, comment lines and docstrings are skipped; a string that is
not a docstring counts on every line it spans.  Run it from anywhere:

    python3 tools/code_lines.py
    python3 tools/code_lines.py --src ../parent/src

It prints one `<count> <module>` line per module, sorted by name, then a
`<count> total` line, and always exits with status 0.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import tokenize


def docstring_lines(tree: ast.Module) -> set:
    """The line numbers that the module's, classes' and functions' docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """How many lines of source hold a token other than a comment, outside its docstrings."""
    skipped = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in skipped:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", default=os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"), help="the source tree holding the elegant package (default: this checkout's src)")
    args = p.parse_args(argv)
    package = os.path.join(args.src, "elegant")
    total = 0
    for name in sorted(f for f in os.listdir(package) if f.endswith(".py")):
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            count = code_lines(fh.read())
        total += count
        print(f"{count:6d} {name}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
