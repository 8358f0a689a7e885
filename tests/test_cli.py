"""End-to-end command-line workflows on a small manifest."""

import csv
import dataclasses
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import rulelab
from rulelab.catalog import DEFAULT_VOCAB, DEMO_RULES, write_rules_manifest
from rulelab.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, load_config, main
from rulelab.dsl import FeatureVocab, evaluate, parse_concept, save_vocab
from rulelab.exemplars import load_list


@pytest.fixture()
def workspace(tmp_path):
    rules = [r for r in DEMO_RULES if r.rule_id in (
        "blue", "not-circle", "circle-or-blue", "small-and-blue",
        "exists-triangle", "same-color-as-another",
    )]
    write_rules_manifest(rules, tmp_path / "rules.json")
    config = {
        "rules": "rules.json",
        "lists_dir": "out/lists",
        "output_dir": "out",
        "seed": 11,
        "learner": {"max_size": 3, "alpha": 0.95, "beta": 0.5, "seed": 1},
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    return tmp_path


def run(workspace, *argv) -> int:
    return main([argv[0], "--config", str(workspace / "config.json"), *argv[1:]])


def test_missing_config_is_config_error(tmp_path):
    assert main(["gen", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG


def test_config_with_unknown_keys_rejected(tmp_path):
    (tmp_path / "config.json").write_text(json.dumps({"rules": "r", "surprise": 1}))
    assert main(["gen", "--config", str(tmp_path / "config.json")]) == EXIT_CONFIG


@pytest.mark.parametrize("key", ["rules", "lists_dir", "output_dir"])
def test_a_null_required_path_is_a_config_error(workspace, capsys, key):
    config = json.loads((workspace / "config.json").read_text())
    config[key] = None
    (workspace / "config.json").write_text(json.dumps(config))
    assert run(workspace, "gen") == EXIT_CONFIG
    assert f"config key {key!r} is required and must not be null" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    ("learner", "alpha", 1.5),
    ("learner", "alpha", -0.1),
    ("learner", "alpha", "high"),
    ("learner", "beta", 1.01),
    ("learner", "beta", -0.5),
    ("learner", "max_size", "abc"),
    ("learner", "max_size", 0),
    ("learner", "max_size", 2.5),
    ("learner", "max_size", True),
    ("learner", "mh_iterations", 0),
    ("learner", "mh_iterations", "many"),
    ("learner", "max_hypotheses", 0),
    ("learner", "max_hypotheses", -10),
    ("learner", "seed", "x"),
    ("learner", "seed", 1.5),
    (None, "seed", "x"),
    (None, "workers", 0),
    (None, "workers", "2"),
    (None, "fit_grid_step", 0),
    (None, "fit_grid_step", 1.5),
    (None, "fit_grid_step", 1e-5),
    (None, "fit_grid_step", "fine"),
    (None, "grade_max_set_size", 0),
    ("learner", "engine", "gibbs"),
    ("learner", "grammar", 5),
    # A JSON boolean is never a number.
    (None, "seed", True),
    (None, "workers", True),
    (None, "fit_grid_step", True),
    (None, "grade_max_set_size", True),
    ("learner", "alpha", True),
    ("learner", "max_hypotheses", True),
    ("learner", "surprise", 1),  # an unknown learner key
])
def test_bad_config_value_exits_2_before_any_work(workspace, capsys, section, key, value):
    config = json.loads((workspace / "config.json").read_text())
    config["learner"]["engine"] = "mh"
    (config[section] if section else config)[key] = value
    (workspace / "config.json").write_text(json.dumps(config))
    assert run(workspace, "run", "--engine", "plot") == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not (workspace / "out").exists()


def test_a_minimal_config_resolves_to_the_documented_defaults(workspace):
    (workspace / "config.json").write_text(json.dumps(
        {"rules": "rules.json", "lists_dir": "out/lists", "output_dir": "out"}
    ))
    config = load_config(workspace / "config.json")
    assert (config.rules, config.lists_dir, config.output_dir) == (
        workspace / "rules.json", workspace / "out" / "lists", workspace / "out"
    )
    assert (
        config.vocab, config.seed, config.endpoint, config.human_data,
        config.fit_grid_step, config.grade_max_set_size, config.workers,
    ) == (None, None, None, None, 0.05, 5, 1)
    assert dataclasses.asdict(config.learner) == {
        "grammar": None, "max_size": 3, "alpha": 0.95, "beta": 0.5, "engine": "enumerate",
        "mh_iterations": 20_000, "seed": None, "max_hypotheses": 200_000,
    }
    assert config.feature_vocab == DEFAULT_VOCAB


def _bad_bytes(path):
    path.write_bytes(b'{"rules": "\xff"}')


def test_a_config_path_that_is_a_directory_is_a_config_error(workspace, capsys):
    assert main(["gen", "--config", str(workspace)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: config {workspace} is unreadable: ")


def test_a_config_that_is_not_utf8_is_a_config_error(workspace, capsys):
    _bad_bytes(workspace / "config.json")
    assert run(workspace, "gen") == EXIT_CONFIG
    path = workspace / "config.json"
    assert capsys.readouterr().err.startswith(f"config error: config {path} is unreadable: ")


def test_gen_writes_one_list_per_rule(workspace):
    assert run(workspace, "gen") == EXIT_OK
    lists_dir = workspace / "out" / "lists"
    names = sorted(p.name for p in lists_dir.glob("*.json"))
    assert "blue.json" in names and "manifest.json" in names
    assert len(names) == 7  # 6 rules + manifest
    loaded = load_list(lists_dir / "blue.json")
    assert loaded.rule_id == "blue" and len(loaded.sets) == 25


def test_gen_rerun_is_byte_identical(workspace):
    assert run(workspace, "gen") == EXIT_OK
    first = {p.name: p.read_bytes() for p in (workspace / "out" / "lists").glob("*.json")}
    assert run(workspace, "gen") == EXIT_OK
    second = {p.name: p.read_bytes() for p in (workspace / "out" / "lists").glob("*.json")}
    assert first == second


def test_gen_empty_manifest_warns(tmp_path, capsys):
    (tmp_path / "rules.json").write_text(json.dumps({"rules": []}))
    (tmp_path / "config.json").write_text(
        json.dumps({"rules": "rules.json", "lists_dir": "lists", "output_dir": "out", "seed": 1})
    )
    assert main(["gen", "--config", str(tmp_path / "config.json")]) == EXIT_OK
    assert "empty" in capsys.readouterr().err
    assert not (tmp_path / "lists").exists()


@pytest.mark.parametrize("rule_id", [
    "manifest", "Manifest", "../escape", "a/b", "a.b", "", "-blue", "_blue", "blue\n", 5, None,
])
def test_a_rule_id_that_cannot_name_its_files_is_a_config_error(workspace, capsys, rule_id):
    """A rule's id names its list, series and trace files, beside each
    directory's manifest.json: ``manifest`` would overwrite the lists'
    manifest, and ``../escape`` would write outside the lists directory."""
    path = workspace / "rules.json"
    doc = json.loads(path.read_text())
    doc["rules"][0]["id"] = rule_id
    path.write_text(json.dumps(doc))
    assert run(workspace, "gen") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"rules file {path} is unreadable: rule id must match " in err and repr(rule_id) in err
    assert not (workspace / "out").exists()


@pytest.mark.parametrize("rule_id", ["blue", "B2", "0", "a_b-c", "manifest-2", "manifests"])
def test_a_rule_id_of_letters_digits_dashes_and_underscores_is_kept(workspace, rule_id):
    path = workspace / "rules.json"
    doc = json.loads(path.read_text())
    doc["rules"] = [{**doc["rules"][0], "id": rule_id}]
    path.write_text(json.dumps(doc))
    assert run(workspace, "gen") == EXIT_OK
    assert load_list(workspace / "out" / "lists" / f"{rule_id}.json").rule_id == rule_id


def test_gen_reports_parse_failures(tmp_path, capsys):
    (tmp_path / "rules.json").write_text(
        json.dumps({"rules": [
            {"id": "ok", "kind": "propositional", "source": "(is-color blue)"},
            {"id": "broken", "kind": "propositional", "source": "(is-color mauve)"},
            # A superscript digit passes str.isdigit() but not int().
            {"id": "superscript", "kind": "fol", "source": "(exists others (same-color 0 ²))"},
        ]})
    )
    (tmp_path / "config.json").write_text(
        json.dumps({"rules": "rules.json", "lists_dir": "lists", "output_dir": "out", "seed": 1})
    )
    assert main(["gen", "--config", str(tmp_path / "config.json")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "'broken' failed to parse" in err
    assert "'superscript' failed to parse" in err
    assert (tmp_path / "lists" / "ok.json").exists()


def test_run_plot_emits_series_elicited_posterior(workspace):
    run(workspace, "gen")
    assert run(workspace, "run", "--engine", "plot") == EXIT_OK
    run_dir = workspace / "out" / "runs" / "plot"
    for rule_id in ("blue", "exists-triangle"):
        assert (run_dir / f"{rule_id}.series.json").exists()
        posterior = (run_dir / f"{rule_id}.posterior.csv").read_text().splitlines()
        assert posterior[0] == "set_index,concept,log_prior,log_likelihood,log_posterior"
        assert posterior[1].startswith("0,")
        elicited = json.loads((run_dir / f"{rule_id}.elicited.json").read_text())
        assert len(elicited["per_set"]) == 25
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert "blue.series.json" in manifest["files"]


def test_run_plot_writes_the_library_top_trace(workspace):
    """Each rule's trace is run_enumerative's top trace, and its elicited
    file carries the posterior diagnostics of every set boundary."""
    from rulelab.catalog import DEFAULT_VOCAB
    from rulelab.learner import (
        NoiseParams, build_eval_matrix, default_grammar, enumerate_hypotheses, run_enumerative,
    )

    run(workspace, "gen")
    run_dir = workspace / "out" / "runs" / "plot"
    assert run(workspace, "run", "--engine", "plot") == EXIT_OK
    assert len(list(run_dir.glob("*.posterior.csv"))) == 6

    grammar = default_grammar(DEFAULT_VOCAB)
    for rule_id in ("blue", "exists-triangle"):
        exemplar_list = load_list(workspace / "out" / "lists" / f"{rule_id}.json")
        path = workspace / f"{rule_id}.top.csv"
        hypotheses = enumerate_hypotheses(grammar, 3)
        matrix = build_eval_matrix(hypotheses, exemplar_list)  # the list evaluated alone
        library = run_enumerative(exemplar_list, hypotheses, matrix, NoiseParams(0.95, 0.5),
                                  trace_path=path)
        assert (run_dir / f"{rule_id}.posterior.csv").read_bytes() == path.read_bytes()
        doc = json.loads((run_dir / f"{rule_id}.elicited.json").read_text())
        assert doc["posterior"] == [dataclasses.asdict(d) for d in library.posterior]
        assert len(doc["posterior"]) == len(doc["per_set"]) + 1
        assert set(doc["posterior"][0]) == {"entropy", "map_mass", "top_mass"}


def test_run_mh_engine(workspace):
    run(workspace, "gen")
    config = json.loads((workspace / "config.json").read_text())
    config["learner"]["engine"] = "mh"
    config["learner"]["mh_iterations"] = 1500
    (workspace / "config.json").write_text(json.dumps(config))
    assert run(workspace, "run", "--engine", "plot") == EXIT_OK
    elicited = json.loads(
        (workspace / "out" / "runs" / "plot" / "blue.elicited.json").read_text()
    )
    assert len(elicited["per_set"]) == 25
    assert "posterior" not in elicited  # the diagnostics are exact inference's


def test_an_mh_rule_no_hypothesis_explains_fails_alone(workspace):
    """At alpha = 1 and max_size 2 no hypothesis explains ``unique-blue``'s
    list: its chains find no start state, and the rule fails alone, as on
    the exact engine.  In a child process, so that a chain that never ends
    fails the test by its timeout."""
    rules = [r for r in DEMO_RULES if r.rule_id in ("blue", "unique-blue")]
    write_rules_manifest(rules, workspace / "rules.json")
    assert run(workspace, "gen") == EXIT_OK
    config = json.loads((workspace / "config.json").read_text())
    config["learner"].update(engine="mh", alpha=1.0, max_size=2, mh_iterations=100)
    (workspace / "config.json").write_text(json.dumps(config))
    src = str(Path(rulelab.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "rulelab.cli", "run", "--engine", "plot",
         "--config", str(workspace / "config.json")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == EXIT_DATA, done.stderr
    assert done.stderr.splitlines() == [
        "run[plot]: rule 'unique-blue' failed: rule 'unique-blue': "
        "101 states drawn, none explains the evidence",
    ]
    assert "completed 1 of 2 rules" in done.stdout
    assert (workspace / "out" / "runs" / "plot" / "blue.series.json").exists()


def _use_grammar(workspace, productions, **learner):
    """Point the config's learner at a grammar file of ``productions``."""
    (workspace / "grammar.json").write_text(json.dumps({"start": "S", "productions": [
        {"lhs": lhs, "template": template, **extra} for lhs, template, extra in productions
    ]}))
    config = json.loads((workspace / "config.json").read_text())
    config["learner"].update(grammar="grammar.json", **learner)
    (workspace / "config.json").write_text(json.dumps(config))


@pytest.mark.parametrize("weight", [float("nan"), float("inf")], ids=["nan", "infinity"])
def test_a_non_finite_grammar_weight_is_a_config_error(workspace, capsys, weight):
    assert run(workspace, "gen") == EXIT_OK
    _use_grammar(workspace, [("S", "(is-color blue)", {"weight": weight}),
                             ("S", "(is-shape circle)", {})])
    capsys.readouterr()
    assert run(workspace, "run", "--engine", "plot") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"has weight {weight}, not a finite number > 0" in err
    assert not (workspace / "out" / "runs").exists()


@pytest.mark.parametrize("weight", [True, "2"], ids=["true", "string"])
def test_a_grammar_weight_that_is_not_a_number_is_a_config_error(workspace, capsys, weight):
    assert run(workspace, "gen") == EXIT_OK
    _use_grammar(workspace, [("S", "(is-color blue)", {"weight": weight}),
                             ("S", "(is-shape circle)", {})])
    capsys.readouterr()
    assert run(workspace, "run", "--engine", "plot") == EXIT_CONFIG
    assert f"has weight {weight!r}, not a number" in capsys.readouterr().err
    assert not (workspace / "out" / "runs").exists()


@pytest.mark.parametrize("engine", ["enumerate", "mh"])
def test_a_max_size_below_every_concept_fails_each_rule(workspace, engine):
    """At the max_size below the grammar's smallest concept, each rule fails
    with the two sizes: the enumeration found no hypothesis, and the MH
    chain never ended (hence the timeout)."""
    assert run(workspace, "gen") == EXIT_OK
    _use_grammar(workspace, [("S", "(not T)", {}), ("T", "(is-color blue)", {})],
                 engine=engine, max_size=1)
    src = str(Path(rulelab.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "rulelab.cli", "run", "--engine", "plot",
         "--config", str(workspace / "config.json")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=30,
    )
    assert done.returncode == EXIT_DATA, done.stderr
    message = "max_size 1 is below 2, the size of the smallest concept the grammar derives"
    assert done.stderr.count(message) == 6  # one line per rule of the workspace


def test_transport_failure_exit_code(workspace, monkeypatch):
    import rulelab.cli as cli_module
    from rulelab.harness import TransportError

    run(workspace, "gen")
    (workspace / "endpoint.json").write_text(json.dumps({
        "base_url": "https://example.test/v1", "model": "m",
        "credential_env": "RULELAB_PRESENT_KEY",
    }))
    config = json.loads((workspace / "config.json").read_text())
    config["endpoint"] = "endpoint.json"
    (workspace / "config.json").write_text(json.dumps(config))
    monkeypatch.setenv("RULELAB_PRESENT_KEY", "k")

    def explode(*args, **kwargs):
        raise TransportError("endpoint unreachable")

    monkeypatch.setattr(cli_module, "run_session", explode)
    from rulelab.cli import EXIT_TRANSPORT

    assert run(workspace, "run", "--engine", "llm") == EXIT_TRANSPORT


def _llm_workspace(workspace, workers):
    run(workspace, "gen")
    (workspace / "endpoint.json").write_text(json.dumps({
        "base_url": "https://example.test/v1", "model": "m",
        "credential_env": "RULELAB_PRESENT_KEY",
    }))
    config = json.loads((workspace / "config.json").read_text())
    config["endpoint"] = "endpoint.json"
    config["workers"] = workers
    (workspace / "config.json").write_text(json.dumps(config))


def test_run_reports_failures_in_rule_order(workspace, monkeypatch, capsys):
    import rulelab.cli as cli_module

    _llm_workspace(workspace, workers=3)
    monkeypatch.setenv("RULELAB_PRESENT_KEY", "k")
    rule_ids = sorted(r["id"] for r in json.loads((workspace / "rules.json").read_text())["rules"])

    def fail_late_first(exemplar_list, *args, **kwargs):
        # Earlier rules finish later, so completion order reverses rule order.
        time.sleep(0.05 * (len(rule_ids) - rule_ids.index(exemplar_list.rule_id)))
        raise RuntimeError(f"no session for {exemplar_list.rule_id}")

    monkeypatch.setattr(cli_module, "run_session", fail_late_first)
    assert run(workspace, "run", "--engine", "llm") == EXIT_DATA
    failed = [line for line in capsys.readouterr().err.splitlines() if "failed" in line]
    assert failed == [
        f"run[llm]: rule {rule_id!r} failed: no session for {rule_id}" for rule_id in rule_ids
    ]


def test_both_engines_report_failures_in_rule_order(workspace, monkeypatch, capsys):
    import concurrent.futures

    import rulelab.cli as cli_module
    from rulelab.harness import SessionTranscript

    _llm_workspace(workspace, workers=3)
    monkeypatch.setenv("RULELAB_PRESENT_KEY", "k")
    # Every other rule fails, for either engine.
    rule_ids = sorted(r["id"] for r in json.loads((workspace / "rules.json").read_text())["rules"])
    failing = rule_ids[::2]

    def fail_some(real):
        def wrapped(exemplar_list, *args, **kwargs):
            if exemplar_list.rule_id in failing:
                raise RuntimeError(f"no result for {exemplar_list.rule_id}")
            return real(exemplar_list, *args, **kwargs)
        return wrapped

    def empty_session(exemplar_list, endpoint, mode, **kwargs):
        return SessionTranscript(exemplar_list.rule_id, mode, endpoint.public_fields())

    monkeypatch.setattr(cli_module, "run_session", fail_some(empty_session))
    assert run(workspace, "run", "--engine", "llm") == EXIT_DATA
    llm_err = capsys.readouterr().err

    class NoThreads:
        def __init__(self, *args, **kwargs):
            raise AssertionError("the plot engine runs its rules in a plain loop")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", NoThreads)
    monkeypatch.setattr(cli_module, "run_enumerative", fail_some(cli_module.run_enumerative))
    assert run(workspace, "run", "--engine", "plot") == EXIT_DATA
    plot_err = capsys.readouterr().err

    def failed(err, engine):
        return [line.removeprefix(f"run[{engine}]: ") for line in err.splitlines() if "failed" in line]

    assert failed(plot_err, "plot") == failed(llm_err, "llm") == [
        f"rule {rule_id!r} failed: no result for {rule_id}" for rule_id in failing
    ]
    run_dir = workspace / "out" / "runs" / "plot"
    assert sorted(p.name for p in run_dir.glob("*.posterior.csv")) == [
        f"{rule_id}.posterior.csv" for rule_id in rule_ids if rule_id not in failing
    ]


def test_run_plot_enumerates_once_for_all_rules(workspace, monkeypatch):
    from rulelab.learner import inference

    run(workspace, "gen")
    calls = []
    real = inference.enumerate_hypotheses

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(inference, "enumerate_hypotheses", counted)
    evaluated = []
    real_evaluate = inference.evaluate_packed

    def counted_evaluate(concepts, batch):
        evaluated.append(len(batch))
        return real_evaluate(concepts, batch)

    monkeypatch.setattr(inference, "evaluate_packed", counted_evaluate)
    assert run(workspace, "run", "--engine", "plot") == EXIT_OK
    assert len(calls) == 1
    lists = [load_list(p) for p in (workspace / "out" / "lists").glob("*.json")
             if p.name != "manifest.json"]
    distinct = {ctx for exemplar_list in lists for _s, _o, ctx, _label in exemplar_list.iter_items()}
    assert evaluated == [len(distinct)]  # and evaluates once
    assert len(list((workspace / "out" / "runs" / "plot").glob("*.posterior.csv"))) == 6


def test_run_plot_prints_only_the_traced_rows(workspace, monkeypatch):
    """Enumeration prints no hypothesis whole: its sort keys are folded
    from the plan, which prints each plan leaf once and each node kind's
    template once, with holes where the children go.  A rule prints only
    the rows its trace writes, at most TRACE_TOP_ROWS per set boundary, and
    each of them once."""
    from rulelab.catalog import DEFAULT_VOCAB
    from rulelab.dsl import parts
    from rulelab.learner import (
        TRACE_TOP_ROWS, Hole, default_grammar, enumerate_hypotheses, enumeration, inference,
    )

    run(workspace, "gen")
    max_size = json.loads((workspace / "config.json").read_text())["learner"]["max_size"]
    plan = enumerate_hypotheses(default_grammar(DEFAULT_VOCAB), max_size).plan
    printed = {enumeration: [], inference: []}
    for module, calls in printed.items():
        def counted(concept, vocab, calls=calls, real=module.print_concept):
            calls.append(concept)
            return real(concept, vocab)

        monkeypatch.setattr(module, "print_concept", counted)
    assert run(workspace, "run", "--engine", "plot") == EXIT_OK
    leaves = [leaf for _depth, _number, leaf in plan.leaves]
    kinds = {op for _height, _depth, op in plan.groups}
    assert printed[enumeration][:len(leaves)] == leaves
    templates = printed[enumeration][len(leaves):]
    assert len(templates) == len(kinds)
    assert all(parts(template)[0] and all(isinstance(hole, Hole) for hole in parts(template)[0])
               for template in templates)
    row_prints = printed[inference]
    traces = list((workspace / "out" / "runs" / "plot").glob("*.posterior.csv"))
    traced = [list(csv.DictReader(path.read_text().splitlines())) for path in traces]
    traced_rows = sum(map(len, traced))
    distinct_rows = sum(len({row["concept"] for row in rows}) for rows in traced)
    lists = [load_list(p) for p in (workspace / "out" / "lists").glob("*.json")
             if p.name != "manifest.json"]
    boundaries = sum(len(exemplar_list.sets) + 1 for exemplar_list in lists)
    assert len(traces) == 6
    assert 0 < traced_rows <= TRACE_TOP_ROWS * boundaries
    assert distinct_rows < traced_rows
    assert len(row_prints) == distinct_rows


def test_run_plot_reports_a_failed_enumeration_for_every_rule(workspace, monkeypatch, capsys):
    from rulelab.learner import inference

    run(workspace, "gen")
    config = json.loads((workspace / "config.json").read_text())
    config["learner"]["max_hypotheses"] = 10
    (workspace / "config.json").write_text(json.dumps(config))
    calls = []
    real = inference.enumerate_hypotheses

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(inference, "enumerate_hypotheses", counted)
    assert run(workspace, "run", "--engine", "plot") == EXIT_DATA
    failed = [line for line in capsys.readouterr().err.splitlines() if "failed" in line]
    assert len(failed) == 6
    assert all("more than 10 hypotheses" in line for line in failed)
    assert len(calls) == 1  # the failed enumeration is not run again for each rule


def test_run_plot_keeps_one_eval_matrix_alive_at_a_time(workspace, monkeypatch, capsys):
    """The rules share one evaluation, but each rule's matrix is gone
    before the next rule's is gathered, whether its rule succeeded or
    failed."""
    import weakref

    import rulelab.cli as cli_module

    run(workspace, "gen")
    handed_out = []  # weak references to each rule's matrix
    alive_at_start = []  # how many of them were alive as each rule started
    real = cli_module.run_enumerative

    def watched(exemplar_list, hypotheses, matrix, *args):
        alive_at_start.append(sum(ref() is not None for ref in handed_out))
        learner_run = real(exemplar_list, hypotheses, matrix, *args)
        handed_out.append(weakref.ref(matrix))
        if exemplar_list.rule_id == "blue":  # the first rule
            raise RuntimeError("no result for blue")
        return learner_run

    monkeypatch.setattr(cli_module, "run_enumerative", watched)
    assert run(workspace, "run", "--engine", "plot") == EXIT_DATA
    assert "rule 'blue' failed: no result for blue" in capsys.readouterr().err
    assert alive_at_start == [0] * 6
    assert [ref() for ref in handed_out] == [None] * 6


def test_llm_sessions_share_one_rate_limiter(workspace, monkeypatch):
    import rulelab.cli as cli_module

    run(workspace, "gen")
    (workspace / "endpoint.json").write_text(json.dumps({
        "base_url": "https://example.test/v1", "model": "m",
        "credential_env": "RULELAB_PRESENT_KEY", "rate_limit_per_s": 2.0,
    }))
    config = json.loads((workspace / "config.json").read_text())
    config["endpoint"] = "endpoint.json"
    config["workers"] = 3
    (workspace / "config.json").write_text(json.dumps(config))
    monkeypatch.setenv("RULELAB_PRESENT_KEY", "k")
    limiters = []

    def record(*args, **kwargs):
        limiters.append(kwargs.get("rate_limiter"))
        raise RuntimeError("stop after recording")

    monkeypatch.setattr(cli_module, "run_session", record)
    assert run(workspace, "run", "--engine", "llm") == EXIT_DATA
    assert len(limiters) == 6
    assert limiters[0] is not None
    assert all(limiter is limiters[0] for limiter in limiters)
    assert limiters[0].interval == 0.5


def test_run_manifest_lists_only_current_rules(workspace):
    run(workspace, "gen")
    assert run(workspace, "run", "--engine", "plot") == EXIT_OK
    rules = json.loads((workspace / "rules.json").read_text())
    rules["rules"] = [row for row in rules["rules"] if row["id"] == "blue"]
    (workspace / "rules.json").write_text(json.dumps(rules))
    assert run(workspace, "run", "--engine", "plot") == EXIT_OK
    run_dir = workspace / "out" / "runs" / "plot"
    assert (run_dir / "not-circle.series.json").exists()  # stale file left on disk
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert sorted(manifest["files"]) == [
        "blue.elicited.json", "blue.posterior.csv", "blue.series.json",
    ]


def test_run_llm_without_endpoint_is_config_error(workspace):
    run(workspace, "gen")
    assert run(workspace, "run", "--engine", "llm") == EXIT_CONFIG


def test_run_llm_without_credential_is_config_error(workspace, monkeypatch):
    run(workspace, "gen")
    (workspace / "endpoint.json").write_text(json.dumps({
        "base_url": "https://example.test/v1",
        "model": "m",
        "credential_env": "RULELAB_MISSING_KEY",
    }))
    config = json.loads((workspace / "config.json").read_text())
    config["endpoint"] = "endpoint.json"
    (workspace / "config.json").write_text(json.dumps(config))
    monkeypatch.delenv("RULELAB_MISSING_KEY", raising=False)
    assert run(workspace, "run", "--engine", "llm") == EXIT_CONFIG


_GOOD_ENDPOINT = {
    "base_url": "https://example.test/v1", "model": "m", "credential_env": "RULELAB_PRESENT_KEY",
    "max_retries": 4, "retry_backoff": 0.5,
}


@pytest.mark.parametrize("endpoint_text", [
    json.dumps({**_GOOD_ENDPOINT, "bogus": 1}),
    json.dumps({**_GOOD_ENDPOINT, "temperature": -1}),
    json.dumps({**_GOOD_ENDPOINT, "base_url": "notaurl"}),
    json.dumps({**_GOOD_ENDPOINT, "base_url": "file:///etc/passwd"}),
    json.dumps({key: v for key, v in _GOOD_ENDPOINT.items() if key != "model"}),
    '{"base_url": "https://example.test/v1", "model": ',
    json.dumps([_GOOD_ENDPOINT]),
    json.dumps({**_GOOD_ENDPOINT, "timeout": -5}),
    json.dumps({**_GOOD_ENDPOINT, "max_sets": 0}),
    json.dumps({**_GOOD_ENDPOINT, "credential_env": 5}),
    json.dumps({**_GOOD_ENDPOINT, "credential_env": None}),
    json.dumps({**_GOOD_ENDPOINT, "credential_env": ["RULELAB_PRESENT_KEY"]}),
], ids=["unknown-key", "negative-temperature", "notaurl", "file-url", "no-model",
        "truncated-json", "not-an-object", "negative-timeout", "zero-max-sets",
        "int-credential-env", "null-credential-env", "list-credential-env"])
def test_bad_endpoint_config_is_config_error(workspace, monkeypatch, capsys, endpoint_text):
    """A bad endpoint file exits 2 before any request: no POST, no backoff."""
    import functools

    import rulelab.cli as cli_module
    from rulelab.harness import TransportError
    from rulelab.harness import session as session_module

    run(workspace, "gen")
    (workspace / "endpoint.json").write_text(endpoint_text)
    config = json.loads((workspace / "config.json").read_text())
    config["endpoint"] = "endpoint.json"
    (workspace / "config.json").write_text(json.dumps(config))
    monkeypatch.setenv("RULELAB_PRESENT_KEY", "k")
    posts, sleeps = [], []

    def counted_transport(*args, **kwargs):  # records a request, and sends none
        posts.append(args[0])
        raise TransportError("no request may be sent")

    monkeypatch.setattr(session_module, "http_transport", counted_transport)
    monkeypatch.setattr(
        cli_module, "run_session", functools.partial(cli_module.run_session, sleep=sleeps.append)
    )
    assert run(workspace, "run", "--engine", "llm") == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")
    assert posts == [] and sleeps == []


def _offline_llm_workspace(workspace, monkeypatch, model) -> list[str]:
    """Set ``workspace`` up for the llm engine with ``model``, one set per
    rule, and a transport that answers every request with an empty reply.
    Returns the list the transport records each request's URL in."""
    from rulelab.harness import session as session_module

    run(workspace, "gen")
    (workspace / "endpoint.json").write_text(
        json.dumps({**_GOOD_ENDPOINT, "model": model, "max_sets": 1})
    )
    config = json.loads((workspace / "config.json").read_text())
    config["endpoint"] = "endpoint.json"
    (workspace / "config.json").write_text(json.dumps(config))
    monkeypatch.setenv("RULELAB_PRESENT_KEY", "k")
    posts = []

    def empty_reply(url, payload, headers, timeout):
        posts.append(url)
        return {"choices": [{"message": {"content": ""}}]}

    monkeypatch.setattr(session_module, "http_transport", empty_reply)
    return posts


def test_an_endpoint_model_that_leaves_the_output_directory_is_a_config_error(
    workspace, monkeypatch, capsys
):
    """The model names the directory transcripts go to, under the output
    directory: ``../../x`` would put them beside the config file."""
    posts = _offline_llm_workspace(workspace, monkeypatch, "../../x")
    out = workspace / "out"
    before = sorted(p for p in workspace.rglob("*") if out not in (p, *p.parents))
    assert run(workspace, "run", "--engine", "llm") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "model must be a relative path" in err
    assert sorted(p for p in workspace.rglob("*") if out not in (p, *p.parents)) == before
    assert not (out / "transcripts").exists()
    assert posts == []


def test_an_endpoint_model_with_an_org_prefix_nests_its_transcripts(workspace, monkeypatch):
    from rulelab.harness import load_transcript

    posts = _offline_llm_workspace(workspace, monkeypatch, "org/model")
    assert run(workspace, "run", "--engine", "llm") == EXIT_OK
    rule_ids = sorted(r["id"] for r in json.loads((workspace / "rules.json").read_text())["rules"])
    assert len(posts) == len(rule_ids)
    model_dir = workspace / "out" / "transcripts" / "org" / "model"
    assert sorted(p.name for p in model_dir.iterdir()) == [f"{r}.json" for r in rule_ids]
    assert load_transcript(model_dir / "blue.json").endpoint["model"] == "org/model"


def test_an_unreadable_reply_fails_its_rule_and_is_not_cached(workspace, monkeypatch, capsys):
    """A 200 reply carrying an error object in place of ``choices`` fails
    its rule alone, with a message that names it, and is not cached: the
    rerun asks for that rule's set again, once, and completes."""
    from rulelab.harness import session as session_module

    posts = _offline_llm_workspace(workspace, monkeypatch, "fake-model")
    good = session_module.http_transport
    calls = []
    errors = iter([{"error": {"message": "overloaded"}}])  # for whichever rule asks first

    def overloaded_once(url, payload, headers, timeout):
        calls.append(url)
        return next(errors, None) or good(url, payload, headers, timeout)

    monkeypatch.setattr(session_module, "http_transport", overloaded_once)
    rule_ids = sorted(r["id"] for r in json.loads((workspace / "rules.json").read_text())["rules"])
    assert run(workspace, "run", "--engine", "llm") == EXIT_DATA
    failed = [line for line in capsys.readouterr().err.splitlines() if "failed" in line]
    assert len(failed) == 1
    assert "reply cannot be read (KeyError: 'choices')" in failed[0] and "overloaded" in failed[0]
    cache_dir = workspace / "out" / "cache"
    assert len(list(cache_dir.iterdir())) == len(rule_ids) - 1 == len(posts)
    assert run(workspace, "run", "--engine", "llm") == EXIT_OK
    assert len(calls) == len(rule_ids) + 1
    assert len(list(cache_dir.iterdir())) == len(rule_ids)


def test_grade_gold_elicited_matches_everything(workspace):
    run(workspace, "gen")
    rules = json.loads((workspace / "rules.json").read_text())["rules"]
    elicited = {row["id"]: [row["source"]] * 25 for row in rules}
    (workspace / "elicited.json").write_text(json.dumps(elicited))
    assert run(workspace, "grade", "--elicited", str(workspace / "elicited.json")) == EXIT_OK
    doc = json.loads((workspace / "out" / "reports" / "grading.json").read_text())
    assert doc["match_rate"] == 1.0 and doc["equivalence_rate"] == 1.0


def test_grade_lists_unparseable_entries_as_no_match(workspace):
    run(workspace, "gen")
    rules = json.loads((workspace / "rules.json").read_text())["rules"]
    elicited = {row["id"]: [row["source"]] * 25 for row in rules}
    elicited["blue"] = ["(is-color ultraviolet)"] * 25
    (workspace / "elicited.json").write_text(json.dumps(elicited))
    assert run(workspace, "grade", "--elicited", str(workspace / "elicited.json")) == EXIT_OK
    doc = json.loads((workspace / "out" / "reports" / "grading.json").read_text())
    assert doc["match_rate"] == pytest.approx(5 / 6)
    assert len(doc["unparseable"]) == 25
    summary = (workspace / "out" / "reports" / "grading_summary.csv").read_text()
    blue_row = [line for line in summary.splitlines() if line.startswith("blue,")][0]
    assert blue_row.endswith("False,False")


def test_grade_per_set_csv_holds_each_sets_likelihood(workspace):
    run(workspace, "gen")
    rules = json.loads((workspace / "rules.json").read_text())["rules"]
    elicited = {row["id"]: [row["source"]] * 25 for row in rules}
    elicited["not-circle"] = [None, "(is-color ultraviolet)", "(is-color blue)", "(is-color blue)"]
    (workspace / "elicited.json").write_text(json.dumps(elicited))
    assert run(workspace, "grade", "--elicited", str(workspace / "elicited.json")) == EXIT_OK
    lines = (workspace / "out" / "reports" / "grading_per_set.csv").read_text().splitlines()
    rows = [row for row in csv.reader(lines[1:]) if row[0] == "not-circle"]
    assert [row[1] for row in rows] == [str(i) for i in range(25)]

    gold = load_list(workspace / "out" / "lists" / "not-circle.json")
    blue = parse_concept("(is-color blue)", gold.vocab)
    expected = []
    for set_index in (2, 3):
        earlier = [(c, lab) for s, _o, c, lab in gold.iter_items() if s < set_index]
        expected.append(f"{sum(evaluate(blue, c) == lab for c, lab in earlier) / len(earlier):.6g}")
    assert [row[2:] for row in rows[:4]] == [
        ["", ""],
        ["(is-color ultraviolet)", ""],
        ["(is-color blue)", expected[0]],
        ["(is-color blue)", expected[1]],
    ]
    assert all(row[2:] == ["", ""] for row in rows[4:])  # no rule reported


def test_grade_empty_elicited_file(workspace, capsys):
    run(workspace, "gen")
    (workspace / "elicited.json").write_text("{}")
    assert run(workspace, "grade", "--elicited", str(workspace / "elicited.json")) == EXIT_DATA
    doc = json.loads((workspace / "out" / "reports" / "grading.json").read_text())
    assert doc["match_rate"] is None


@pytest.mark.parametrize("text, error", [
    ('{"blue": ["(is-color blue)"', "is not valid JSON"),
    ('["(is-color blue)"]', "must hold a JSON object"),
], ids=["truncated", "not-an-object"])
def test_grade_malformed_elicited_file_exits_3(workspace, capsys, text, error):
    run(workspace, "gen")
    path = workspace / "elicited.json"
    path.write_text(text)
    assert run(workspace, "grade", "--elicited", str(path)) == EXIT_DATA
    assert f"data error: elicited file {path} {error}" in capsys.readouterr().err


_OTHER_RULES = {"not-circle", "circle-or-blue", "small-and-blue", "exists-triangle",
                "same-color-as-another"}


def _rule_ids(csv_path) -> set[str]:
    """The rule_id column of a report CSV, past its inputs line and header."""
    return {row[0] for row in csv.reader(csv_path.read_text().splitlines()[2:])}


@pytest.mark.parametrize("kind", ["elicited", "series"])
def test_grade_a_truncated_run_file_fails_only_its_rule(workspace, capsys, kind):
    run(workspace, "gen")
    run(workspace, "run", "--engine", "plot")
    run_dir = workspace / "out" / "runs" / "plot"
    bad = run_dir / f"blue.{kind}.json"
    bad.write_text(bad.read_text()[:100])
    capsys.readouterr()
    assert run(workspace, "grade", "--elicited", str(run_dir),
               "--series-dir", str(run_dir)) == EXIT_DATA
    assert f"rule 'blue' failed: unreadable {kind} file {bad}:" in capsys.readouterr().err
    assert _rule_ids(workspace / "out" / "reports" / "grading_summary.csv") == _OTHER_RULES



@pytest.mark.parametrize("name", ["plto", "blue.series.json"], ids=["missing", "a-file"])
def test_a_series_dir_that_is_not_a_directory_is_a_config_error(workspace, capsys, name):
    """A --series-dir that names no directory (a typo, say) would leave every
    rule's consistency blank: it is a config error, raised before anything
    is written, as a missing --elicited file is."""
    run(workspace, "gen")
    run(workspace, "run", "--engine", "plot")
    run_dir = workspace / "out" / "runs" / "plot"
    capsys.readouterr()
    assert run(workspace, "grade", "--elicited", str(run_dir),
               "--series-dir", str(run_dir / name)) == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        f"config error: --series-dir {run_dir / name} is not a directory"
    ]
    assert not (workspace / "out" / "reports").exists()


def test_a_list_file_that_is_a_directory_fails_only_its_rule(workspace, capsys):
    run(workspace, "gen")
    bad = workspace / "out" / "lists" / "blue.json"
    bad.unlink()
    bad.mkdir()
    capsys.readouterr()
    assert run(workspace, "run", "--engine", "plot") == EXIT_DATA
    assert f"rule 'blue' failed: unreadable list file {bad}: " in capsys.readouterr().err
    run_dir = workspace / "out" / "runs" / "plot"
    assert {p.name.split(".")[0] for p in run_dir.glob("*.series.json")} == _OTHER_RULES


def test_an_elicited_run_file_that_is_a_directory_fails_only_its_rule(workspace, capsys):
    run(workspace, "gen")
    run(workspace, "run", "--engine", "plot")
    run_dir = workspace / "out" / "runs" / "plot"
    bad = run_dir / "blue.elicited.json"
    bad.unlink()
    bad.mkdir()
    capsys.readouterr()
    assert run(workspace, "grade", "--elicited", str(run_dir)) == EXIT_DATA
    assert f"rule 'blue' failed: unreadable elicited file {bad}: " in capsys.readouterr().err
    assert _rule_ids(workspace / "out" / "reports" / "grading_summary.csv") == _OTHER_RULES


def test_an_elicited_file_that_is_not_utf8_is_a_data_error(workspace, capsys):
    run(workspace, "gen")
    path = workspace / "elicited.json"
    _bad_bytes(path)
    capsys.readouterr()
    assert run(workspace, "grade", "--elicited", str(path)) == EXIT_DATA
    assert f"data error: elicited file {path} is unreadable: " in capsys.readouterr().err


def test_grade_reads_only_each_rules_own_elicited_file(workspace, capsys):
    """A stray file in a run directory, even one that names a rule, does
    not replace that rule's elicited rules."""
    run(workspace, "gen")
    run(workspace, "run", "--engine", "plot")
    run_dir = workspace / "out" / "runs" / "plot"
    assert run(workspace, "grade", "--elicited", str(run_dir)) == EXIT_OK
    reports = workspace / "out" / "reports"
    expected = {path.name: path.read_bytes() for path in reports.iterdir()}
    blue = json.loads((run_dir / "blue.elicited.json").read_text())
    (run_dir / "copy_of_blue.elicited.json").write_text(
        json.dumps({**blue, "per_set": ["(is-color green)"] * 25})
    )
    (run_dir / "notes.elicited.json").write_text("not json")
    capsys.readouterr()
    assert run(workspace, "grade", "--elicited", str(run_dir)) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert {path.name: path.read_bytes() for path in reports.iterdir()} == expected


def test_grade_an_elicited_file_naming_another_rule_fails_its_rule(workspace, capsys):
    run(workspace, "gen")
    run(workspace, "run", "--engine", "plot")
    run_dir = workspace / "out" / "runs" / "plot"
    bad = run_dir / "blue.elicited.json"
    bad.write_text(json.dumps({**json.loads(bad.read_text()), "rule_id": "not-circle"}))
    capsys.readouterr()
    assert run(workspace, "grade", "--elicited", str(run_dir)) == EXIT_DATA
    err = capsys.readouterr().err
    assert (f"rule 'blue' failed: unreadable elicited file {bad}: "
            f"rule_id 'not-circle' is not 'blue'") in err
    assert _rule_ids(workspace / "out" / "reports" / "grading_summary.csv") == _OTHER_RULES


@pytest.mark.parametrize("sizes, set_size, reason", [
    (("small", "medium", "large"), 6, "grade_max_set_size must be at most 5, the largest "
                                      "displayed set, got 6"),
    (("tiny", "small", "medium", "large"), 5, "grade_max_set_size 5 spans 3290040 contexts of "
                                              "this vocab, above the equivalence check's cap"),
], ids=["above-five-objects", "over-the-context-cap"])
def test_a_grade_set_size_the_equivalence_walk_cannot_take_is_a_config_error(
    workspace, capsys, sizes, set_size, reason
):
    """grade compares each rule with its gold rule over every context up to
    ``grade_max_set_size`` objects; a size that walk cannot take is a
    config error naming the key, before any rule is graded."""
    save_vocab(FeatureVocab(sizes=sizes), workspace / "vocab.json")
    config = json.loads((workspace / "config.json").read_text())
    config["vocab"] = "vocab.json"
    config["grade_max_set_size"] = 4
    (workspace / "config.json").write_text(json.dumps(config))
    assert run(workspace, "gen") == EXIT_OK
    rules = json.loads((workspace / "rules.json").read_text())["rules"]
    # Not target-only, so the walk is not cut to one-object sets.
    elicited = {row["id"]: ["(exists others (is-color green 0))"] * 25 for row in rules}
    (workspace / "elicited.json").write_text(json.dumps(elicited))
    config["grade_max_set_size"] = set_size
    (workspace / "config.json").write_text(json.dumps(config))
    capsys.readouterr()
    assert run(workspace, "grade", "--elicited", str(workspace / "elicited.json")) == EXIT_CONFIG
    assert reason in capsys.readouterr().err
    assert not (workspace / "out" / "reports").exists()


_WRONG_SHAPE = "elicited entry must be a list of printed rules or nulls, got "


@pytest.mark.parametrize("entry, shown", [
    (5, "5"), ([1, 2], "[1, 2]"), ({"per_set": 5}, "5"), ("(is-color blue)", "'(is-color blue)'"),
], ids=["number", "numbers", "per-set-number", "string"])
def test_grade_a_wrong_shaped_elicited_entry_fails_only_its_rule(workspace, capsys, entry, shown):
    run(workspace, "gen")
    rules = json.loads((workspace / "rules.json").read_text())["rules"]
    elicited = {row["id"]: [row["source"]] * 25 for row in rules}
    elicited["blue"] = entry
    (workspace / "elicited.json").write_text(json.dumps(elicited))
    capsys.readouterr()
    assert run(workspace, "grade", "--elicited", str(workspace / "elicited.json")) == EXIT_DATA
    assert f"rule 'blue' failed: {_WRONG_SHAPE}{shown}" in capsys.readouterr().err
    assert _rule_ids(workspace / "out" / "reports" / "grading_summary.csv") == _OTHER_RULES


def test_grade_a_run_file_with_a_wrong_shaped_per_set_fails_only_its_rule(workspace, capsys):
    run(workspace, "gen")
    run(workspace, "run", "--engine", "plot")
    run_dir = workspace / "out" / "runs" / "plot"
    bad = run_dir / "blue.elicited.json"
    bad.write_text(json.dumps({**json.loads(bad.read_text()), "per_set": 5}))
    capsys.readouterr()
    assert run(workspace, "grade", "--elicited", str(run_dir)) == EXIT_DATA
    assert f"rule 'blue' failed: {_WRONG_SHAPE}5" in capsys.readouterr().err
    assert _rule_ids(workspace / "out" / "reports" / "grading_summary.csv") == _OTHER_RULES


def test_report_a_truncated_series_file_fails_only_its_rule(workspace, capsys):
    run(workspace, "gen")
    run(workspace, "run", "--engine", "plot")
    run_dir = workspace / "out" / "runs" / "plot"
    bad = run_dir / "blue.series.json"
    bad.write_text(bad.read_text()[:100])
    capsys.readouterr()
    assert run(workspace, "report", "--series", f"plot={run_dir}") == EXIT_DATA
    assert f"report: 'blue': unreadable series file {bad}:" in capsys.readouterr().err
    assert _rule_ids(workspace / "out" / "reports" / "trajectories.csv") == _OTHER_RULES


def _edit_blue_series(run_dir, edit) -> Path:
    path = run_dir / "blue.series.json"
    doc = json.loads(path.read_text())
    edit(doc, doc["records"])
    path.write_text(json.dumps(doc))
    return path


def _cut_inside_the_last_set(doc, records):
    assert records[-2]["set_index"] == records[-1]["set_index"]  # the last set has two objects
    del records[-1]


def _flip_every_gold(doc, records):
    for record in records:
        record["gold"] = not record["gold"]


def _retyped(key, retype):
    """An edit giving every record's ``key`` the value ``retype`` makes of
    it, where that value is equal to the old one in Python but of another
    JSON type."""
    def edit(doc, records):
        for record in records:
            record[key] = retype(record[key])
    return edit


_SERIES_EDITS = {
    "other-rule": lambda doc, records: doc.update(rule_id="not-circle"),
    "object-past-its-set": lambda doc, records: records[-1].update(object_index=8),
    "no-records": lambda doc, records: records.clear(),
    "cut-inside-a-set": _cut_inside_the_last_set,
    "every-gold-flipped": _flip_every_gold,
    # Values of the wrong JSON type, each scored or matched as a right one
    # would be unless refused.
    "false-written-no": _retyped("model", lambda model: "no" if model is False else model),
    "model-as-integer": _retyped("model", lambda model: model if model is None else int(model)),
    "gold-as-integer": _retyped("gold", int),
    "p-true-as-boolean": _retyped("p_true", lambda p: p > 0.5),
    "set-index-as-float": _retyped("set_index", float),
    "object-index-as-boolean": _retyped(
        "object_index", lambda index: bool(index) if index < 2 else index
    ),
}
_SERIES_COMMANDS = {
    "grade": lambda run_dir: ("grade", "--elicited", str(run_dir), "--series-dir", str(run_dir)),
    "report": lambda run_dir: ("report", "--series", f"plot={run_dir}"),
}


@pytest.mark.parametrize("command", sorted(_SERIES_COMMANDS))
@pytest.mark.parametrize("edit", sorted(_SERIES_EDITS))
def test_a_series_file_that_is_not_its_lists_fails_only_its_rule(workspace, capsys, command, edit):
    """A series must be its rule's, and walk the list's objects and gold
    labels over whole sets from the first, in order."""
    run(workspace, "gen")
    run(workspace, "run", "--engine", "plot")
    run_dir = workspace / "out" / "runs" / "plot"
    bad = _edit_blue_series(run_dir, _SERIES_EDITS[edit])
    capsys.readouterr()
    assert run(workspace, *_SERIES_COMMANDS[command](run_dir)) == EXIT_DATA
    err = capsys.readouterr().err
    prefix = "grade: rule 'blue' failed: " if command == "grade" else "report: 'blue': "
    assert f"{prefix}unreadable series file {bad}: " in err
    report = "grading_summary.csv" if command == "grade" else "trajectories.csv"
    assert _rule_ids(workspace / "out" / "reports" / report) == _OTHER_RULES


@pytest.mark.parametrize("command", sorted(_SERIES_COMMANDS))
def test_a_series_file_that_is_a_directory_fails_only_its_rule(workspace, capsys, command):
    run(workspace, "gen")
    run(workspace, "run", "--engine", "plot")
    run_dir = workspace / "out" / "runs" / "plot"
    bad = run_dir / "blue.series.json"
    bad.unlink()
    bad.mkdir()
    capsys.readouterr()
    assert run(workspace, *_SERIES_COMMANDS[command](run_dir)) == EXIT_DATA
    prefix = "grade: rule 'blue' failed: " if command == "grade" else "report: 'blue': "
    assert f"{prefix}unreadable series file {bad}: " in capsys.readouterr().err
    report = "grading_summary.csv" if command == "grade" else "trajectories.csv"
    assert _rule_ids(workspace / "out" / "reports" / report) == _OTHER_RULES


@pytest.mark.parametrize("command", sorted(_SERIES_COMMANDS))
def test_a_series_of_the_first_whole_sets_is_read(workspace, command):
    """A session capped by max_sets writes its list's first sets only."""
    run(workspace, "gen")
    run(workspace, "run", "--engine", "plot")
    run_dir = workspace / "out" / "runs" / "plot"
    _edit_blue_series(run_dir, lambda doc, records: doc.update(
        records=[r for r in records if r["set_index"] < 3]
    ))
    assert run(workspace, *_SERIES_COMMANDS[command](run_dir)) == EXIT_OK


def _write_human_csv(workspace, rule_ids, n_subjects=6, seed=0):
    rng = random.Random(seed)
    rows = ["subject_id,rule_id,set_index,object_index,response"]
    for rule_id in rule_ids:
        gold = load_list(workspace / "out" / "lists" / f"{rule_id}.json")
        for s in range(n_subjects):
            accuracy = 0.9 if s else 0.6
            for set_index, object_index, _ctx, label in gold.iter_items():
                response = label if rng.random() < accuracy else not label
                rows.append(f"s{s},{rule_id},{set_index},{object_index},{response}")
    (workspace / "humans.csv").write_text("\n".join(rows) + "\n")
    config = json.loads((workspace / "config.json").read_text())
    config["human_data"] = "humans.csv"
    (workspace / "config.json").write_text(json.dumps(config))


def test_report_model_only(workspace):
    run(workspace, "gen")
    run(workspace, "run", "--engine", "plot")
    assert run(workspace, "report", "--series", f"plot={workspace}/out/runs/plot") == EXIT_OK
    summary = (workspace / "out" / "reports" / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("# inputs:")
    header = summary[1].split(",")
    assert header[:3] == ["cohort", "all_overall", "all_overall_sd"]
    plot_row = [line for line in summary if line.startswith("plot,")]
    assert len(plot_row) == 1
    assert (workspace / "out" / "reports" / "trajectories.csv").exists()
    assert not list((workspace / "out" / "reports").glob("deltas_*.csv"))


def test_report_with_humans_adds_rows_and_deltas(workspace):
    run(workspace, "gen")
    run(workspace, "run", "--engine", "plot")
    rule_ids = [r["id"] for r in json.loads((workspace / "rules.json").read_text())["rules"]]
    _write_human_csv(workspace, rule_ids)
    assert run(workspace, "report", "--series", f"plot={workspace}/out/runs/plot") == EXIT_OK
    summary = (workspace / "out" / "reports" / "summary.csv").read_text().splitlines()
    human_rows = [line for line in summary if line.startswith("human,")]
    assert len(human_rows) == 1
    cells = human_rows[0].split(",")
    assert cells[1] and cells[2]  # mean and propagated SD both present
    deltas = (workspace / "out" / "reports" / "deltas_plot.csv").read_text().splitlines()
    assert deltas[1].split(",")[0] == "rule_id"
    assert len(deltas) == 2 + len(rule_ids)
    trajectories = (workspace / "out" / "reports" / "trajectories.csv").read_text()
    assert ",human," in trajectories and ",plot," in trajectories


def test_report_scores_each_label_vector_once(workspace, monkeypatch):
    """Each cohort's label vectors are scored once per window: a model
    cohort's summary row and its deltas read one table of window scores."""
    import rulelab.metrics.reports as reports

    run(workspace, "gen")
    run(workspace, "run", "--engine", "plot")
    rule_ids = [r["id"] for r in json.loads((workspace / "rules.json").read_text())["rules"]]
    _write_human_csv(workspace, rule_ids)
    scored = []

    def counted(labels, gold, window="overall", real=reports.accuracy):
        scored.append((id(labels), window))
        return real(labels, gold, window)

    monkeypatch.setattr(reports, "accuracy", counted)
    plot_dir = workspace / "out" / "runs" / "plot"
    assert run(workspace, "report", "--series", f"plot={plot_dir}",
               "--series", f"twin={plot_dir}") == EXIT_OK
    # Two model cohorts of six vectors and the humans' vectors, two windows each.
    assert len(scored) == len(set(scored)) > 2 * 2 * len(rule_ids)
    assert (workspace / "out" / "reports" / "deltas_twin.csv").exists()


@pytest.mark.parametrize("series, error", [
    pytest.param(["human=out/runs/plot"], "and not be 'human'", id="human"),
    pytest.param(["plot=out/runs/plot", "plot=out/runs/mh"], "names the cohort 'plot' twice",
                 id="repeated"),
    pytest.param(["=out/runs/plot"], "NAME must match", id="empty"),
    pytest.param(["../plot=out/runs/plot"], "NAME must match", id="parent-dir"),
    pytest.param(["a/b=out/runs/plot"], "NAME must match", id="separator"),
    pytest.param(["plot"], "expects NAME=DIR", id="no-dir"),
])
def test_a_series_name_that_cannot_name_its_cohort_is_a_config_error(workspace, capsys,
                                                                     series, error):
    """A cohort name labels its CSV rows and names its deltas file: "human"
    would merge with the subjects' rows, a repeated name would drop a
    directory, and an empty one would write deltas_.csv."""
    argv = [arg for item in series for arg in ("--series", item)]
    assert run(workspace, "report", *argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: --series ") and error in err
    assert not (workspace / "out").exists()


def test_report_keeps_each_named_cohort(workspace):
    run(workspace, "gen")
    run(workspace, "run", "--engine", "plot")
    plot_dir = workspace / "out" / "runs" / "plot"
    assert run(workspace, "report", "--series", f"plot={plot_dir}",
               "--series", f"model-4.1_b={plot_dir}") == EXIT_OK
    summary = (workspace / "out" / "reports" / "summary.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in summary[2:]] == ["model-4.1_b", "plot"]


def test_report_leaves_fully_excluded_set_blank(workspace):
    from rulelab.metrics import load_series, save_series

    run(workspace, "gen")
    run(workspace, "run", "--engine", "plot")
    path = workspace / "out" / "runs" / "plot" / "blue.series.json"
    series = load_series(path, load_list(workspace / "out" / "lists" / "blue.json"))
    start, stop = series.exemplar_list.offsets[2:4]
    labels = series.labels[:start] + (None,) * (stop - start) + series.labels[stop:]
    save_series(dataclasses.replace(series, labels=labels), path)
    assert run(workspace, "report", "--series", f"plot={workspace}/out/runs/plot") == EXIT_OK
    rows = (workspace / "out" / "reports" / "trajectories.csv").read_text().splitlines()
    cells = {tuple(row.split(",")[:3]): row.split(",")[3] for row in rows[2:]}
    assert cells[("blue", "plot", "2")] == ""
    assert cells[("blue", "plot", "3")] != ""
    assert cells[("not-circle", "plot", "2")] != ""


@pytest.fixture()
def every_input(workspace):
    """Inputs for every command that loads lists: the lists, a plot run,
    and human data for two rules (at max_size 2 and a coarse fit grid)."""
    config = json.loads((workspace / "config.json").read_text())
    config["learner"]["max_size"] = 2
    config["fit_grid_step"] = 0.5
    (workspace / "config.json").write_text(json.dumps(config))
    run(workspace, "gen")
    assert run(workspace, "run", "--engine", "plot") == EXIT_OK
    _write_human_csv(workspace, ["blue", "not-circle"])
    return workspace


def _list_command(workspace, command) -> int:
    run_dir = str(workspace / "out" / "runs" / "plot")
    return run(workspace, *{
        "gen": ("gen",),
        "run": ("run", "--engine", "plot"),
        "grade": ("grade", "--elicited", run_dir),
        "report": ("report", "--series", f"plot={run_dir}"),
        "fit-noise": ("fit-noise",),
    }[command])


_LIST_COMMANDS = ["run", "grade", "report", "fit-noise"]
_EVERY_COMMAND = ["gen", *_LIST_COMMANDS]


def _json_error(text: str) -> str:
    """The message json gives for ``text``, which does not parse."""
    with pytest.raises(json.JSONDecodeError) as raised:
        json.loads(text)
    return str(raised.value)


def test_each_commands_whole_stderr_names_each_failed_rule_once(every_input, capsys):
    """One list that does not parse, one series file that does not parse
    and one run-directory elicited file that names another rule: each
    command's exit code and every line it writes to stderr, in order."""
    lists = every_input / "out" / "lists"
    run_dir = every_input / "out" / "runs" / "plot"
    list_text, series_text = "{not json", '{"records": ['
    (lists / "circle-or-blue.json").write_text(list_text)
    (run_dir / "small-and-blue.series.json").write_text(series_text)
    elicited = run_dir / "exists-triangle.elicited.json"
    elicited.write_text(json.dumps({**json.loads(elicited.read_text()), "rule_id": "blue"}))
    bad_list = (f"unreadable list file {lists / 'circle-or-blue.json'}: "
                f"{_json_error(list_text)}")
    bad_series = (f"unreadable series file {run_dir / 'small-and-blue.series.json'}: "
                  f"{_json_error(series_text)}")
    bad_elicited = f"unreadable elicited file {elicited}: rule_id 'blue' is not 'exists-triangle'"
    expected = {
        ("grade", "--elicited", str(run_dir), "--series-dir", str(run_dir)): [
            f"grade: rule 'circle-or-blue' failed: {bad_list}",
            f"grade: rule 'exists-triangle' failed: {bad_elicited}",
            f"grade: rule 'small-and-blue' failed: {bad_series}",
        ],
        ("report", "--series", f"plot={run_dir}"): [
            f"report: 'circle-or-blue': {bad_list}",
            f"report: 'small-and-blue': {bad_series}",
        ],
        ("fit-noise",): [
            f"fit-noise: rule 'circle-or-blue': {bad_list}",
            "data error: fit-noise needs every rule's exemplar list and kept subjects",
        ],
        ("run", "--engine", "plot"): [  # last: it writes the series and elicited files again
            f"run[plot]: rule 'circle-or-blue' failed: {bad_list}",
        ],
    }
    capsys.readouterr()
    for argv, lines in expected.items():
        assert run(every_input, *argv) == EXIT_DATA, argv
        assert capsys.readouterr().err.splitlines() == lines, argv


@pytest.mark.parametrize("command", _LIST_COMMANDS)
@pytest.mark.parametrize("key, value", [
    ("seed", "abc"), ("seed", [1]), ("sets", 5),
    # Each would read as a seed of 7, 7 and 1 if not refused.
    ("seed", "7"), ("seed", 7.9), ("seed", True),
])
def test_a_wrong_typed_list_value_is_that_rules_data_error(every_input, capsys, command,
                                                           key, value):
    path = every_input / "out" / "lists" / "blue.json"
    doc = json.loads(path.read_text())
    doc[key] = value
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert _list_command(every_input, command) == EXIT_DATA
    err = capsys.readouterr().err
    assert "'blue'" in err and f"unreadable list file {path}: " in err


_LIST_REPORTS = {"grade": "grading_summary.csv", "report": "trajectories.csv"}


@pytest.mark.parametrize("command", _LIST_COMMANDS)
def test_a_list_filed_under_another_rule_is_that_rules_data_error(every_input, capsys, command):
    """A list copied over another rule's file keeps its own rule_id.  The
    rule it is filed under fails, naming both, instead of being learned and
    graded (at match rate 1) from the other rule's list."""
    lists_dir = every_input / "out" / "lists"
    (lists_dir / "blue.json").write_bytes((lists_dir / "not-circle.json").read_bytes())
    capsys.readouterr()
    assert _list_command(every_input, command) == EXIT_DATA
    err = capsys.readouterr().err
    assert "'blue'" in err
    assert f"list file {lists_dir / 'blue.json'} is for rule 'not-circle', not 'blue'" in err
    if command in _LIST_REPORTS:
        assert _rule_ids(every_input / "out" / "reports" / _LIST_REPORTS[command]) == _OTHER_RULES


@pytest.mark.parametrize("command", _LIST_COMMANDS)
@pytest.mark.parametrize("relabel", [
    pytest.param(lambda label: "yes" if label else "", id="strings"),
    pytest.param(int, id="integers"),
])
def test_a_label_that_is_not_a_json_boolean_is_that_rules_data_error(every_input, capsys,
                                                                      command, relabel):
    """Each label keeps its truth value, so a list that read it as a bool
    would still pass the gold-label check."""
    path = every_input / "out" / "lists" / "blue.json"
    doc = json.loads(path.read_text())
    doc["sets"][0]["labels"] = [relabel(label) for label in doc["sets"][0]["labels"]]
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert _list_command(every_input, command) == EXIT_DATA
    err = capsys.readouterr().err
    assert "'blue'" in err and f"unreadable list file {path}: {path}: set 0 labels" in err


def _no_sets(doc):
    doc["sets"] = []


def _an_empty_set(doc):
    doc["sets"][3] = {"objects": [], "labels": []}


@pytest.mark.parametrize("command", _LIST_COMMANDS)
@pytest.mark.parametrize("empty", [_no_sets, _an_empty_set])
def test_a_list_with_nothing_to_score_is_that_rules_data_error(every_input, capsys, command,
                                                               empty):
    """A list with no sets, or with a set of no objects, is unreadable: a
    plot run of it would have no per-set MAP for the report to read."""
    path = every_input / "out" / "lists" / "blue.json"
    doc = json.loads(path.read_text())
    empty(doc)
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert _list_command(every_input, command) == EXIT_DATA
    err = capsys.readouterr().err
    assert "'blue'" in err and f"unreadable list file {path}: " in err


@pytest.mark.parametrize("command", _LIST_COMMANDS)
def test_a_list_under_another_vocab_is_that_rules_data_error(every_input, capsys, command):
    """Its objects and labels agree with its own vocab, but the learner's
    batch uses the config's feature indices."""
    path = every_input / "out" / "lists" / "blue.json"
    doc = json.loads(path.read_text())
    doc["vocab"]["colors"].reverse()
    path.write_text(json.dumps(doc))
    assert load_list(path).vocab.colors == tuple(doc["vocab"]["colors"])
    capsys.readouterr()
    assert _list_command(every_input, command) == EXIT_DATA
    err = capsys.readouterr().err
    assert "'blue'" in err and f"list file {path} has a vocab other than the config's" in err


@pytest.mark.parametrize("command", _LIST_COMMANDS)
def test_a_malformed_vocab_file_is_a_config_error(every_input, capsys, command):
    (every_input / "vocab.json").write_text('{"sizes": ["small"]')
    config = json.loads((every_input / "config.json").read_text())
    config["vocab"] = "vocab.json"
    (every_input / "config.json").write_text(json.dumps(config))
    capsys.readouterr()
    assert _list_command(every_input, command) == EXIT_CONFIG
    assert "vocab.json is unreadable" in capsys.readouterr().err


@pytest.mark.parametrize("command", _EVERY_COMMAND)
@pytest.mark.parametrize("change, error", [
    pytest.param({"colors": ["light blue", "green"]}, "vocab color value 'light blue' is not",
                 id="space"),
    pytest.param({"sizes": [1, 2, 3]}, "vocab size value 1 is not", id="integers"),
    pytest.param({"sizes": "abc"}, "vocab sizes must be a JSON list, got 'abc'",
                 id="string-dimension"),
    pytest.param({"shapes": ["circle", "(square)"]}, "vocab shape value '(square)' is not",
                 id="parenthesis"),
    pytest.param({"shapes": ["circle", "square#1"]}, "vocab shape value 'square#1' is not",
                 id="comment-sign"),
])
def test_a_vocab_the_concept_syntax_cannot_read_back_is_a_config_error(
    workspace, capsys, command, change, error
):
    """A printed concept must parse back as itself, so a vocab value is a
    non-empty string with no whitespace, parenthesis or '#'; every command
    refuses any other with the config."""
    doc = {"sizes": ["small", "medium", "large"], "colors": ["blue", "green", "yellow"],
           "shapes": ["circle", "rectangle", "triangle"], **change}
    (workspace / "vocab.json").write_text(json.dumps(doc))
    _set_config_key(workspace, "vocab", "vocab.json")
    capsys.readouterr()
    assert _list_command(workspace, command) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "vocab.json is unreadable: " in err and error in err


def _set_config_key(workspace, dotted_key, value):
    config = json.loads((workspace / "config.json").read_text())
    *section, key = dotted_key.split(".")
    (config[section[0]] if section else config)[key] = value
    (workspace / "config.json").write_text(json.dumps(config))


@pytest.mark.parametrize("command", _EVERY_COMMAND)
@pytest.mark.parametrize("key, value", [
    ("rules", 5), ("lists_dir", ["lists"]), ("output_dir", {"dir": "out"}), ("vocab", 1.5),
    ("endpoint", True), ("human_data", ["humans.csv"]), ("learner.grammar", 3),
])
def test_a_path_key_that_is_not_a_string_is_a_config_error(workspace, capsys, command,
                                                            key, value):
    _set_config_key(workspace, key, value)
    assert _list_command(workspace, command) == EXIT_CONFIG
    assert f"config error: {key} must be a path string, got {value!r}" in capsys.readouterr().err
    assert not (workspace / "out").exists()


@pytest.mark.parametrize("command", _EVERY_COMMAND)
@pytest.mark.parametrize("value", [[], 5, "fast", None])
def test_a_learner_that_is_not_an_object_is_a_config_error(workspace, capsys, command, value):
    _set_config_key(workspace, "learner", value)
    assert _list_command(workspace, command) == EXIT_CONFIG
    assert f"config error: learner must be an object, got {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("command", _EVERY_COMMAND)
@pytest.mark.parametrize("text", ["[1, 2]", '"rules.json"', "null"])
def test_a_config_that_is_not_an_object_is_a_config_error(workspace, capsys, command, text):
    path = workspace / "config.json"
    path.write_text(text)
    assert _list_command(workspace, command) == EXIT_CONFIG
    assert f"config error: config {path} must hold a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("command", _EVERY_COMMAND)
@pytest.mark.parametrize("change, error", [
    pytest.param(lambda rules: rules + rules[:1], "duplicate rule ids", id="duplicate-ids"),
    pytest.param(lambda rules: [{**rules[0], "kind": "modal"}, *rules[1:]], "kind must be",
                 id="bad-kind"),
    pytest.param(lambda rules: [{**rules[0], "id": "../blue"}, *rules[1:]], "rule id must",
                 id="bad-id"),
    pytest.param(lambda rules: [{**rules[0], "source": 5}, *rules[1:]],
                 "source must be a string, got 5", id="int-source"),
    pytest.param(lambda rules: [{**rules[0], "source": None}, *rules[1:]],
                 "source must be a string, got None", id="null-source"),
    pytest.param(lambda rules: [{**rules[0], "source": ["(is-color blue)"]}, *rules[1:]],
                 "source must be a string, got ['(is-color blue)']", id="list-source"),
])
def test_a_bad_rules_manifest_is_a_config_error(every_input, capsys, command, change, error):
    path = every_input / "rules.json"
    doc = json.loads(path.read_text())
    doc["rules"] = change(doc["rules"])
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert _list_command(every_input, command) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"rules file {path} is unreadable: " in err and error in err


@pytest.mark.parametrize("command", _EVERY_COMMAND)
@pytest.mark.parametrize("text, error", [
    pytest.param('{"start": "S", "productions": [', "Expecting value", id="not-json"),
    pytest.param(json.dumps({"start": "S", "productions": [
        {"lhs": "S", "template": "(is-color blue)"}, {"lhs": "S", "template": "(not T)"},
    ]}), "nonterminal 'T' in '(not T)' has no productions", id="undefined-nonterminal"),
])
def test_a_bad_grammar_file_is_a_config_error(every_input, capsys, command, text, error):
    """Every command reads the grammar with the config, not only those
    that use it."""
    path = every_input / "grammar.json"
    path.write_text(text)
    config = json.loads((every_input / "config.json").read_text())
    config["learner"]["grammar"] = "grammar.json"
    (every_input / "config.json").write_text(json.dumps(config))
    capsys.readouterr()
    assert _list_command(every_input, command) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"learner.grammar file {path} is unreadable: " in err and error in err


@pytest.mark.parametrize("command", ["report", "fit-noise"])
@pytest.mark.parametrize("line, error", [
    pytest.param("s0,blue,0,1,maybe", "'maybe'", id="not-a-response"),
    pytest.param("s0,blue,0,1", "got ''", id="short-row"),
])
def test_an_unparseable_subject_file_is_a_data_error(every_input, capsys, command, line, error):
    path = every_input / "humans.csv"
    lines = path.read_text().splitlines()
    lines[5] = line
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert _list_command(every_input, command) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"subject file {path} is unreadable: " in err and error in err



@pytest.mark.parametrize("command", ["report", "fit-noise"])
def test_a_subject_file_answering_one_object_twice_is_a_data_error(every_input, capsys, command):
    path = every_input / "humans.csv"
    lines = path.read_text().splitlines()
    subject, rule_id, set_index, object_index, response = lines[1].split(",")
    flipped = "False" if response == "True" else "True"
    lines.append(",".join([subject, rule_id, set_index, object_index, flipped]))
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert _list_command(every_input, command) == EXIT_DATA
    err = capsys.readouterr().err
    assert (f"subject file {path} is unreadable: subject {subject} answers rule "
            f"{rule_id!r} set {set_index}, object {object_index} twice") in err


def _cut_short(row):  # every subject stops before the set filter's minimum
    return row if int(row[2]) < 4 else None


def _off_the_list(row):  # every response is to an object the list lacks, each once
    return [*row[:3], str(99 + int(row[3])), row[4]]


_UNFILTERABLE = [
    pytest.param(_cut_short, "no subjects left for rule 'blue'", id="all-subjects-excluded"),
    pytest.param(_off_the_list, "subject s0 has no responses", id="no-response-on-the-list"),
]


def _mangle_subjects(workspace, rule_id, change):
    path = workspace / "humans.csv"
    header, *rows = csv.reader(path.read_text().splitlines())
    rows = [change(row) if row[1] == rule_id else row for row in rows]
    path.write_text("\n".join(",".join(row) for row in [header, *rows] if row) + "\n")


@pytest.mark.parametrize("change, error", _UNFILTERABLE)
def test_report_goes_on_past_a_rule_whose_subjects_cannot_be_filtered(every_input, capsys,
                                                                      change, error):
    _mangle_subjects(every_input, "blue", change)
    capsys.readouterr()
    assert _list_command(every_input, "report") == EXIT_DATA
    assert f"report: 'blue': {error}" in capsys.readouterr().err
    reports = every_input / "out" / "reports"
    cohorts = {tuple(row.split(",")[:2]) for row in
               (reports / "trajectories.csv").read_text().splitlines()[2:]}
    assert ("not-circle", "human") in cohorts and ("blue", "human") not in cohorts
    assert ("blue", "plot") in cohorts
    summary = (reports / "summary.csv").read_text().splitlines()
    assert [line for line in summary if line.startswith("human,")][0].split(",")[1]


@pytest.mark.parametrize("change, error", _UNFILTERABLE)
def test_fit_noise_stops_at_a_rule_whose_subjects_cannot_be_filtered(every_input, monkeypatch,
                                                                     capsys, change, error):
    import rulelab.cli as cli_module

    _mangle_subjects(every_input, "blue", change)
    fits = []
    monkeypatch.setattr(cli_module, "fit_noise", lambda *args: fits.append(args))
    capsys.readouterr()
    assert _list_command(every_input, "fit-noise") == EXIT_DATA
    assert f"fit-noise: rule 'blue': {error}" in capsys.readouterr().err
    assert fits == []
    assert not (every_input / "out" / "reports" / "noise_fit.json").exists()


def test_fit_noise_over_its_hypothesis_budget_is_a_data_error(every_input, capsys):
    config = json.loads((every_input / "config.json").read_text())
    config["learner"]["max_hypotheses"] = 10
    (every_input / "config.json").write_text(json.dumps(config))
    capsys.readouterr()
    assert _list_command(every_input, "fit-noise") == EXIT_DATA
    assert "more than 10 hypotheses" in capsys.readouterr().err
    assert not (every_input / "out" / "reports" / "noise_fit.json").exists()


def test_fit_noise_on_constant_human_proportions_is_a_data_error(workspace, capsys):
    run(workspace, "gen")
    _write_human_csv(workspace, ["blue", "not-circle"])
    lines = (workspace / "humans.csv").read_text().splitlines()
    answers = [lines[0]] + [row.rsplit(",", 1)[0] + ",True" for row in lines[1:]]
    (workspace / "humans.csv").write_text("\n".join(answers) + "\n")
    config = json.loads((workspace / "config.json").read_text())
    config["learner"]["max_size"] = 2
    (workspace / "config.json").write_text(json.dumps(config))
    capsys.readouterr()
    assert run(workspace, "fit-noise") == EXIT_DATA
    assert "the human proportions are constant" in capsys.readouterr().err
    assert not (workspace / "out" / "reports" / "noise_fit.json").exists()


def test_split_is_an_unknown_command(workspace, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run(workspace, "split", "--held-out", "1")
    assert exit_info.value.code == EXIT_CONFIG
    assert "invalid choice: 'split'" in capsys.readouterr().err


def test_fit_noise_requires_human_data(workspace):
    run(workspace, "gen")
    assert run(workspace, "fit-noise") == EXIT_CONFIG


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one CPU: OpenBLAS runs one thread")
def test_noise_fit_does_not_depend_on_the_blas_thread_count(workspace):
    """numpy reads OPENBLAS_NUM_THREADS when it is imported, so fit-noise
    run in a process with one BLAS thread and in one with two must write
    the same noise_fit.json bytes (six rules at max_size 3, 441 points)."""
    rule_ids = ["blue", "circle-or-blue", "exists-triangle", "not-circle",
                "same-color-as-another", "small-and-blue"]
    run(workspace, "gen")
    _write_human_csv(workspace, rule_ids)
    env = {name: value for name, value in os.environ.items()
           if name not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(rulelab.__file__).resolve().parents[1])
    written = []
    for threads in ("1", "2"):
        subprocess.run([sys.executable, "-m", "rulelab.cli", "fit-noise", "--config",
                        str(workspace / "config.json")], env=dict(env, OPENBLAS_NUM_THREADS=threads),
                       check=True, capture_output=True, timeout=120)
        written.append((workspace / "out" / "reports" / "noise_fit.json").read_bytes())
    assert json.loads(written[0])["rules"] == rule_ids
    assert written[0] == written[1]


def test_fit_noise_end_to_end(workspace):
    run(workspace, "gen")
    rule_ids = ["blue", "not-circle"]
    _write_human_csv(workspace, rule_ids, n_subjects=8)
    config = json.loads((workspace / "config.json").read_text())
    config["fit_grid_step"] = 0.25
    config["learner"]["max_size"] = 2
    (workspace / "config.json").write_text(json.dumps(config))
    assert run(workspace, "fit-noise") == EXIT_OK
    doc = json.loads((workspace / "out" / "reports" / "noise_fit.json").read_text())
    assert 0.0 <= doc["alpha"] <= 1.0 and 0.0 <= doc["beta"] <= 1.0
    assert doc["rules"] == ["blue", "not-circle"]
    # What the fit computed: the winner's r2, the runner-up, and the grid
    # points with no defined r2 (alpha = 0 predicts a constant).
    runner_up = doc["runner_up"]
    assert 0.0 < runner_up["r2"] <= doc["r2"] <= 1.0
    assert (runner_up["alpha"], runner_up["beta"]) != (doc["alpha"], doc["beta"])
    assert (runner_up["r2"], runner_up["alpha"], runner_up["beta"]) < (
        doc["r2"], doc["alpha"], doc["beta"]
    )
    assert 5 <= doc["undefined_points"] < 25
    first = (workspace / "out" / "reports" / "noise_fit.json").read_bytes()
    assert run(workspace, "fit-noise") == EXIT_OK
    assert (workspace / "out" / "reports" / "noise_fit.json").read_bytes() == first


@pytest.mark.parametrize("step", [0.15, 0.35])
def test_fit_noise_at_a_step_that_does_not_divide_one(workspace, step):
    """The grid stops at the last multiple of the step below 1, so no point
    is an invalid noise parameter (at 0.15 the axis used to reach 1.05)."""
    run(workspace, "gen")
    _write_human_csv(workspace, ["blue", "not-circle"], n_subjects=8)
    config = json.loads((workspace / "config.json").read_text())
    config["fit_grid_step"] = step
    config["learner"]["max_size"] = 2
    (workspace / "config.json").write_text(json.dumps(config))
    assert run(workspace, "fit-noise") == EXIT_OK
    doc = json.loads((workspace / "out" / "reports" / "noise_fit.json").read_text())
    assert doc["grid_step"] == step
    assert 0.0 <= doc["alpha"] <= 1.0 and 0.0 <= doc["beta"] <= 1.0


def test_pipeline_outputs_are_byte_identical_across_workspaces(tmp_path):
    """gen -> run (plot) -> grade -> report, twice from the same config in two
    fresh workspaces: every file written, manifests and posterior traces
    included, is byte-identical.  The second workspace runs the CLI in a
    subprocess under another string hash seed, so no output may depend on
    the order of a set or on a hash value."""
    rules = [r for r in DEMO_RULES if r.rule_id in (
        "blue", "circle-or-blue", "exists-triangle", "same-color-as-another",
    )]
    src = str(Path(rulelab.__file__).resolve().parents[1])
    hash_seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)

    def in_subprocess(workspace, *argv) -> int:
        command = [sys.executable, "-m", "rulelab.cli", argv[0],
                   "--config", str(workspace / "config.json"), *argv[1:]]
        return subprocess.run(command, env=env, capture_output=True, timeout=300).returncode

    outputs = []
    for name, command in (("first", run), ("second", in_subprocess)):
        workspace = tmp_path / name
        workspace.mkdir()
        write_rules_manifest(rules, workspace / "rules.json")
        (workspace / "config.json").write_text(json.dumps({
            "rules": "rules.json", "lists_dir": "out/lists", "output_dir": "out", "seed": 11,
            "learner": {"max_size": 3, "alpha": 0.95, "beta": 0.5},
        }))
        assert command(workspace, "gen") == EXIT_OK
        _write_human_csv(workspace, [r.rule_id for r in rules])
        run_dir = workspace / "out" / "runs" / "plot"
        assert command(workspace, "run", "--engine", "plot") == EXIT_OK
        assert command(workspace, "grade", "--elicited", str(run_dir), "--series-dir", str(run_dir)) == EXIT_OK
        assert command(workspace, "report", "--series", f"plot={run_dir}") == EXIT_OK
        out = workspace / "out"
        outputs.append({
            str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
        })
    first, second = outputs
    assert sorted(first) == sorted(second)
    for expected in ("lists/manifest.json", "runs/plot/manifest.json", "runs/plot/blue.posterior.csv",
                     "reports/grading_per_set.csv", "reports/deltas_plot.csv"):
        assert expected in first
    assert [name for name in first if first[name] != second[name]] == []


def test_files_are_utf8_under_an_ascii_locale(tmp_path):
    """Files are read and written as UTF-8 whatever the locale's encoding:
    under an ASCII locale, a vocab, rules manifest and elicited file naming
    the color "vért" are read, the grading CSV that prints the rule is
    written, and a subject file of subject "sé" round-trips."""
    vocab = {"sizes": ["small", "large"], "colors": ["blue", "vért"], "shapes": ["circle"]}
    rules = {"rules": [{"id": "vert", "kind": "propositional", "source": "(is-color vért)"}]}
    elicited = {"vert": ["(is-color vért)"] * 25}
    for name, doc in (("vocab", vocab), ("rules", rules), ("elicited", elicited)):
        text = json.dumps(doc, ensure_ascii=False)
        (tmp_path / f"{name}.json").write_text(text, encoding="utf-8")
    (tmp_path / "config.json").write_text(json.dumps({
        "rules": "rules.json", "vocab": "vocab.json", "lists_dir": "out/lists",
        "output_dir": "out", "seed": 3,
    }))
    src = str(Path(rulelab.__file__).resolve().parents[1])
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0", PYTHONPATH=src)
    env.pop("PYTHONIOENCODING", None)

    def in_ascii_locale(*argv: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                              encoding="utf-8", timeout=120)

    probe = in_ascii_locale("-c", "import locale; print(locale.getpreferredencoding(False))")
    assert probe.stdout.strip() == "ANSI_X3.4-1968"
    config = str(tmp_path / "config.json")
    for argv in (["gen"], ["grade", "--elicited", str(tmp_path / "elicited.json")]):
        done = in_ascii_locale("-m", "rulelab.cli", argv[0], "--config", config, *argv[1:])
        assert done.returncode == EXIT_OK, done.stderr
    per_set = (tmp_path / "out" / "reports" / "grading_per_set.csv").read_bytes()
    assert "vert,1,(is-color vért),1".encode("utf-8") in per_set

    subjects = tmp_path / "subjects.csv"
    done = in_ascii_locale("-c", (
        "import sys\n"
        "from rulelab.exemplars import SubjectRecord, read_subject_csv, write_subject_csv\n"
        "record = SubjectRecord('s\\u00e9', 'vert', {(0, 0): True}, 1)\n"
        "write_subject_csv([record], sys.argv[1])\n"
        "assert read_subject_csv(sys.argv[1]) == [record]\n"
    ), str(subjects))
    assert done.returncode == 0, done.stderr
    assert "sé,vert,0,0,True".encode("utf-8") in subjects.read_bytes()


def test_a_command_process_runs_one_blas_thread():
    """Importing rulelab.cli sets OpenBLAS's thread count to 1 before numpy
    can load, so numpy starts no BLAS worker thread; a count the caller set
    is kept."""
    src = str(Path(rulelab.__file__).resolve().parents[1])
    code = (
        "import os, rulelab.cli, numpy\n"
        "tasks = '/proc/self/task'\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'])\n"
        "print(len(os.listdir(tasks)) if os.path.isdir(tasks) else 'no-proc')\n"
    )
    env = {name: value for name, value in os.environ.items()
           if name not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = src

    def child(**extra) -> list[str]:
        done = subprocess.run([sys.executable, "-c", code], env=dict(env, **extra),
                              capture_output=True, text=True, timeout=120, check=True)
        return done.stdout.split()

    count, threads = child()
    assert count == "1"
    if threads != "no-proc":
        assert threads == "1"
    assert child(OPENBLAS_NUM_THREADS="3")[0] == "3"
