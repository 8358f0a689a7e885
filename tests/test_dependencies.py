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
