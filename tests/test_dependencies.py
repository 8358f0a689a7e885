"""The package runs on the standard library plus numpy, and each command
loads only the modules it runs."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rulelab
from rulelab.catalog import DEMO_RULES, write_rules_manifest

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


# Modules that a light entry point must not load: numpy, and the HTTP stack
# that only the llm engine's transport needs.
HEAVY = ("numpy", "http.client", "ssl", "email")
PACKAGES = ("rulelab", "rulelab.dsl", "rulelab.exemplars", "rulelab.harness",
            "rulelab.learner", "rulelab.metrics")

_MODULES_AFTER = """
import json, sys
exec(sys.argv[1])
print(json.dumps(sorted(sys.modules)))
"""

_COMMAND = """
import json, sys
exec(sys.argv[1])
from rulelab.cli import main
code = main(sys.argv[2:])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""

# An llm endpoint credential, and a transport that sends nothing: every
# reply is an empty message.
_OFFLINE_LLM = """
import os
os.environ["RULELAB_PRESENT_KEY"] = "k"
from rulelab.harness import session
session.http_transport = lambda url, payload, headers, timeout: {
    "choices": [{"message": {"content": ""}}]
}
"""


def _env() -> dict:
    return {**os.environ, "PYTHONPATH": str(Path(rulelab.__file__).parents[1])}


def _heavy(modules) -> set:
    return {name for name in modules if name.split(".")[0] in HEAVY or name in HEAVY}


@pytest.mark.parametrize("statement", [
    "import rulelab.cli",
    "import rulelab; rulelab.dsl, rulelab.exemplars, rulelab.harness, rulelab.metrics",
    "from rulelab.dsl import evaluate, parse_concept, count_contexts, MAX_CONTEXTS",
    "from rulelab.dsl import equivalent",
    "from rulelab.metrics import match_rate, grade_session",
    "from rulelab.harness import run_session, transcript_series, TransportError",
    "from rulelab.metrics import load_series, save_series, quantile, cohort_report",
    "from rulelab.learner import default_grammar, HypothesisBudgetError",
])
def test_light_imports_load_no_numpy_and_no_http(statement):
    out = subprocess.run(
        [sys.executable, "-c", _MODULES_AFTER, statement],
        env=_env(), capture_output=True, text=True, check=True,
    ).stdout
    assert not _heavy(json.loads(out))


def _run_command(workspace: Path, *argv: str, setup: str = "") -> set:
    """Run one rulelab command in a fresh interpreter, after the statements
    ``setup``; the modules it left loaded."""
    out = subprocess.run(
        [sys.executable, "-c", _COMMAND, setup, argv[0], "--config", "config.json", *argv[1:]],
        cwd=workspace, env=_env(), capture_output=True, text=True, check=True,
    ).stdout
    result = json.loads(out.splitlines()[-1])
    assert result["code"] == 0, out.splitlines()[:-1]
    return set(result["modules"])


def test_each_command_loads_only_what_it_runs(tmp_path):
    """gen, report and run --engine llm load no numpy; run --engine plot
    (either learner engine), grade and fit-noise load no HTTP stack, and
    run --engine plot no harness session; grade loads numpy only for a pair
    with more contexts, over the dimensions it reads, than ``evaluate``
    takes."""
    rules = [r for r in DEMO_RULES if r.rule_id in ("blue", "exists-triangle")]
    write_rules_manifest(rules, tmp_path / "rules.json")
    config = {
        "rules": "rules.json", "lists_dir": "out/lists", "output_dir": "out", "seed": 5,
        "learner": {"max_size": 2},
    }
    (tmp_path / "config.json").write_text(json.dumps(config))

    assert "numpy" not in _run_command(tmp_path, "gen")
    from rulelab.exemplars import load_list

    rows = ["subject_id,rule_id,set_index,object_index,response"]
    for rule in rules:
        gold = load_list(tmp_path / "out" / "lists" / f"{rule.rule_id}.json")
        for subject in range(4):
            rows += [
                f"s{subject},{rule.rule_id},{s},{o},{label if (s + o + subject) % 7 else not label}"
                for s, o, _ctx, label in gold.iter_items()
            ]
    (tmp_path / "humans.csv").write_text("\n".join(rows) + "\n")
    config["human_data"] = "humans.csv"
    (tmp_path / "config.json").write_text(json.dumps(config))

    run_modules = _run_command(tmp_path, "run", "--engine", "plot")
    assert "numpy" in run_modules and not {"http.client", "ssl"} & run_modules
    assert "rulelab.harness.session" not in run_modules
    grade_modules = _run_command(
        tmp_path, "grade", "--elicited", "out/runs/plot", "--series-dir", "out/runs/plot"
    )
    assert not {"http.client", "ssl"} & grade_modules

    def grade_elicited(finals: dict) -> set:
        (tmp_path / "elicited.json").write_text(json.dumps(
            {rule_id: [source] for rule_id, source in finals.items()}
        ))
        return _run_command(tmp_path, "grade", "--elicited", "elicited.json")

    # The gold rule itself, and one that differs on a one-object set.
    settled = {
        "blue": "(is-color blue)", "exists-triangle": "(exists others (is-shape triangle 0))",
    }
    assert not _heavy(grade_elicited(settled))
    # Equal to "(exists all (is-shape triangle 0))" on every set, and read
    # only shape: ``evaluate`` takes all 105 contexts of its three values.
    projected = {
        **settled,
        "exists-triangle": "(or (is-shape triangle) (exists others (is-shape triangle 0)))",
    }
    assert not _heavy(grade_elicited(projected))
    grading = json.loads((tmp_path / "out" / "reports" / "grading.json").read_text())
    assert grading["equivalence_rate"] == 1.0
    # Equal to it too, but reads all three dimensions, so only the walk over
    # sets of three to five objects can tell.
    walked = {
        **settled,
        "exists-triangle":
            "(exists all (or (is-shape triangle 0) (and (is-color blue 0) (size-gt 0 0))))",
    }
    assert "numpy" in grade_elicited(walked)
    grading = json.loads((tmp_path / "out" / "reports" / "grading.json").read_text())
    assert grading["equivalence_rate"] == 1.0
    report_modules = _run_command(tmp_path, "report", "--series", "plot=out/runs/plot")
    assert not _heavy(report_modules)
    assert (tmp_path / "out" / "reports" / "deltas_plot.csv").exists()

    # fit-noise and the mh engine bind names no other command binds first.
    config["fit_grid_step"] = 0.25
    (tmp_path / "config.json").write_text(json.dumps(config))
    fit_modules = _run_command(tmp_path, "fit-noise")
    assert "numpy" in fit_modules and not {"http.client", "ssl"} & fit_modules
    assert (tmp_path / "out" / "reports" / "noise_fit.json").exists()
    config["learner"].update(engine="mh", mh_iterations=200, seed=3)
    config["output_dir"] = "out-mh"
    (tmp_path / "config.json").write_text(json.dumps(config))
    mh_modules = _run_command(tmp_path, "run", "--engine", "plot")
    assert "numpy" in mh_modules and not {"http.client", "ssl"} & mh_modules
    assert (tmp_path / "out-mh" / "runs" / "plot" / "blue.series.json").exists()

    (tmp_path / "endpoint.json").write_text(json.dumps({
        "base_url": "https://example.test/v1", "model": "m",
        "credential_env": "RULELAB_PRESENT_KEY", "max_sets": 1,
    }))
    config["endpoint"] = "endpoint.json"
    (tmp_path / "config.json").write_text(json.dumps(config))
    llm_modules = _run_command(tmp_path, "run", "--engine", "llm", setup=_OFFLINE_LLM)
    assert not {"numpy", "rulelab.learner.inference"} & llm_modules
    assert (tmp_path / "out-mh" / "runs" / "llm" / "blue.series.json").exists()


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
    assert set(module.__all__) <= set(dir(module))
    with pytest.raises(AttributeError):
        getattr(module, "no_such_name")


def test_subpackages_resolve_through_the_top_package():
    out = subprocess.run(
        [sys.executable, "-c",
         "import rulelab; print(rulelab.learner.enumerate_hypotheses.__module__)"],
        env=_env(), capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "rulelab.learner.inference"


def test_each_command_binds_names_the_cli_can_resolve():
    """Each name in a command's entry is the named module's value."""
    import rulelab.cli as cli

    for command, bindings in cli._COMMANDS.items():
        for module_name, names in bindings.items():
            module = importlib.import_module(module_name, "rulelab")
            for name in names:
                want = module if module_name.endswith(f".{name}") else getattr(module, name)
                assert getattr(cli, name) is want, (command, name)

