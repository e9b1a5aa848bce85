import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring."""

import math  # a comment

# a comment line
X = """a string
over two lines"""


class A:
    """Class docstring,
    two lines."""

    def f(self):
        """Function docstring."""
        return (1 +
                2)
'''


def test_counts_lines_with_a_token_outside_docstrings():
    # import, the two lines of X, class, def, and the two of the return
    assert code_lines.code_lines(SOURCE) == 7


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [["7", "a.py"], ["1", "b.py"], ["8", "total"]]
