"""Print the number of lines of each module that hold code.

A code line holds at least one token that is not a comment and is not part
of a docstring (the string that opens a module, class or function body).
Blank, comment-only and docstring lines do not count, so deleting a comment
does not shrink a module by this measure.  Usage:

    python tools/code_lines.py

It reads ``src/ummtest/*.py`` of the checkout it sits in, prints one line
per module, ``<code lines> <path>``, and a total, and writes no file.
"""

import ast
import glob
import io
import os
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers that docstrings span in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source):
    """The number of lines of ``source`` that hold code."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main():
    total = 0
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "ummtest", "*.py"))):
        with open(path, encoding="utf-8") as f:
            code = code_lines(f.read())
        total += code
        print("%6d %s" % (code, os.path.relpath(path)))
    print("%6d total" % total)


if __name__ == "__main__":
    main()
