"""The public-surface lister in ``tools/surface.py``."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "surface.py"
_spec = importlib.util.spec_from_file_location("surface", TOOL)
surface = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(surface)

FILES = {
    "src/pkg/__init__.py": (
        'from ._lazy import lazy_exports\n\n'
        '__getattr__, __dir__, __all__ = lazy_exports(globals(), {\n'
        '    ".mod": ("used", "lonely", "self_used"),\n'
        '    ".sub": ("sub",),\n'
        '})\n'
    ),
    "src/pkg/mod.py": (
        '"""``used`` and ``lonely`` are only named in this docstring."""\n\n\n'
        'def used():\n    return 1\n\n\n'
        'def lonely():\n    return 2\n\n\n'
        'def self_used():\n    return used  # not a use of lonely\n\n\n'
        'ANSWER = self_used()\n'
    ),
    "src/pkg/sub/__init__.py": (
        'from .._lazy import lazy_exports\n\n'
        '__getattr__, __dir__, __all__ = lazy_exports(globals(), {"..mod": ("used",)})\n'
    ),
    "src/pkg/other.py": "from .mod import used\n",
    "tests/test_pkg.py": "from pkg import lonely, used\n",
    "demos/demo.py": "import pkg\n\nprint(pkg.lonely())\n",
    "perfbench/bench.py": 'WRAPPED = ("pkg.used",)\n',
    "docs/notes.py": "lonely = 'outside the four roots'\n",
}


def _tree(tmp_path):
    for name, text in FILES.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    return tmp_path / "src" / "pkg"


def test_lists_each_exported_name_with_the_files_that_use_it(tmp_path):
    rows = dict((name, [p.as_posix() for p in users])
                for name, users in surface.surface(_tree(tmp_path)))
    assert rows == {
        "pkg.used": ["src/pkg/mod.py", "src/pkg/other.py", "tests/test_pkg.py",
                     "perfbench/bench.py"],
        "pkg.lonely": ["tests/test_pkg.py", "demos/demo.py"],
        "pkg.self_used": ["src/pkg/mod.py"],
        "pkg.sub": [],
        "pkg.sub.used": ["src/pkg/mod.py", "src/pkg/other.py", "tests/test_pkg.py",
                         "perfbench/bench.py"],
    }


def test_prints_each_name_and_last_those_with_no_user_under_src(tmp_path, capsys):
    assert surface.main([str(_tree(tmp_path))]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == ["pkg.used", "    src/pkg/mod.py", "    src/pkg/other.py"]
    assert out[-3:] == ["2 of 5 names have no user under src/:", "    pkg.lonely", "    pkg.sub"]
