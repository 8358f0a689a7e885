"""A full experiment through the command-line pipeline.

Generates lists for a small rule manifest, replays the task with the
Bayesian learner, grades its per-set MAP rules, and emits the report CSVs,
all inside a temporary directory:

    python3 demos/05_full_experiment.py
"""

import json
import tempfile
from pathlib import Path

from rulelab.catalog import DEMO_RULES, write_rules_manifest
from rulelab.cli import main

PICKED = (
    "blue", "not-circle", "circle-xor-blue", "small-and-blue",
    "same-shape-as-a-yellow", "exists-triangle", "majority-color",
)

with tempfile.TemporaryDirectory() as tmp:
    workspace = Path(tmp)
    rules = [r for r in DEMO_RULES if r.rule_id in PICKED]
    write_rules_manifest(rules, workspace / "rules.json")
    (workspace / "config.json").write_text(json.dumps({
        "rules": "rules.json",
        "lists_dir": "out/lists",
        "output_dir": "out",
        "seed": 7,
        "learner": {"max_size": 3, "alpha": 0.95, "beta": 0.5},
    }, indent=2))
    config = ["--config", str(workspace / "config.json")]

    print("== gen ==")
    assert main(["gen", *config]) == 0
    print("\n== run (Bayesian learner engine) ==")
    assert main(["run", "--engine", "plot", *config]) == 0
    run_dir = workspace / "out" / "runs" / "plot"
    print("\n== grade (the learner's own per-set MAP rules) ==")
    assert main(["grade", *config, "--elicited", str(run_dir), "--series-dir", str(run_dir)]) == 0
    print("\n== report ==")
    assert main(["report", *config, "--series", f"plot={run_dir}"]) == 0

    print("\n== summary.csv ==")
    for line in (workspace / "out" / "reports" / "summary.csv").read_text().splitlines()[1:]:
        print(" ", line)
    print("\n== grading_summary.csv (first rules) ==")
    for line in (workspace / "out" / "reports" / "grading_summary.csv").read_text().splitlines()[1:6]:
        print(" ", line)
    print("\n== per-rule trajectory rows (head) ==")
    for line in (workspace / "out" / "reports" / "trajectories.csv").read_text().splitlines()[1:6]:
        print(" ", line)
