"""The package runs on the standard library plus numpy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rulelab

_NEW_MODULES = """
import json, sys
before = set(sys.modules)
import rulelab.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_cli_imports_only_stdlib_numpy_and_rulelab():
    env = {**os.environ, "PYTHONPATH": str(Path(rulelab.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", _NEW_MODULES], env=env, capture_output=True, text=True, check=True
    ).stdout
    top_level = {name.split(".")[0] for name in json.loads(out)}
    assert "rulelab" in top_level
    assert top_level - set(sys.stdlib_module_names) <= {"numpy", "rulelab"}


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    dependencies = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
    assert [dep.split(">")[0].split("=")[0].strip() for dep in dependencies] == ["numpy"]


def test_the_dsl_imports_nothing_from_the_learner():
    """The DSL sits below the learner: no module of ``rulelab.dsl`` imports
    from ``rulelab.learner``, at module level or inside a function."""
    import ast
    import rulelab.dsl

    for path in sorted(Path(rulelab.dsl.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                # Resolve a relative import against the rulelab.dsl package;
                # "from .. import learner" names its module as an alias.
                package = ["rulelab", "dsl"][: 3 - node.level] if node.level else []
                base = ".".join([*package, *([node.module] if node.module else [])])
                names = [base, *(f"{base}.{alias.name}" for alias in node.names)]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                assert not name.startswith("rulelab.learner"), f"{path.name}:{node.lineno}"
