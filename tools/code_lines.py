"""Count the code lines of Python source files.

A code line holds at least one code token.  Blank lines, comment lines
and the lines of module, class and function docstrings do not count.

Usage: python3 tools/code_lines.py PATH...

A `PATH` that names a directory stands for the `*.py` files under it,
in sorted order.  Prints one `count path` line per file, then the total.
"""

import ast
import glob
import io
import os
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
             tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers of every docstring in `tree`."""
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
    """Number of lines of `source` that hold a code token."""
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def source_files(paths):
    """`paths` with every directory replaced by its `*.py` files."""
    for path in paths:
        if os.path.isdir(path):
            yield from sorted(glob.glob(os.path.join(path, "**", "*.py"),
                                        recursive=True))
        else:
            yield path


def main(paths):
    total = 0
    for path in source_files(paths):
        with open(path, encoding="utf-8") as f:
            n = code_lines(f.read())
        total += n
        print("%6d %s" % (n, path))
    print("%6d total" % total)


if __name__ == "__main__":
    main(sys.argv[1:])
