"""tools/code_lines.py counts the lines that hold code, and nothing else."""

import importlib.util
import os

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "code_lines.py")
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

# a comment
X = 1  # code with a comment


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        s = """a string
        that is code"""
        return (s,
                X)
'''


def test_counts_code_and_skips_blank_comment_and_docstring_lines():
    # X = 1; class A; def f; the two lines of s; return and its continuation
    assert code_lines.code_lines(SOURCE) == 7


def test_a_deleted_comment_or_docstring_does_not_change_the_count():
    bare = SOURCE.replace("# a comment\n", "").replace('        """Function\n        docstring."""\n', "")
    assert code_lines.code_lines(bare) == code_lines.code_lines(SOURCE)
