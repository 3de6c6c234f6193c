"""tools/count_lines.py counts every line as `wc -l` does, and code lines
without blanks, comments and docstrings; the line counts of `src/` are
reported with it."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import count_lines  # noqa: E402

SOURCE = '''"""A module docstring
over two lines."""

# a comment line
GREETING = """an assigned string
over two lines"""


class Greeter:
    """A class docstring."""

    def greet(self, name):
        """A function docstring
        over two lines."""
        # another comment line
        return print(
            GREETING,
            name,  # a trailing comment keeps its line
        )
'''
BLANK = {3, 7, 8, 11}
COMMENTS = {4, 15}
DOCSTRINGS = {1, 2, 10, 13, 14}


def test_counts_all_lines_and_code_without_blanks_comments_and_docstrings():
    lines, code = count_lines.count(SOURCE)
    assert lines == SOURCE.count("\n") == 19
    # the assigned string (5-6) and the call split over four lines (16-19) count
    assert code == lines - len(BLANK | COMMENTS | DOCSTRINGS) == 8
