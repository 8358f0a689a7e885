"""The code-line counter in ``tools/code_lines.py``."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""

import os  # a comment


class A:
    """Class docstring."""

    x = """a string that is
    not a docstring"""

    def f(self):
        # only a comment
        """Still the docstring: comments do not count as statements."""
        return (1,
                2)
'''


def test_counts_code_and_skips_blanks_comments_and_docstrings():
    # import, class, x = (two lines), def, return (two lines)
    assert code_lines.code_lines(SOURCE) == 7


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     1  b.py", "     7  pkg/a.py", "     8  total",
    ]
