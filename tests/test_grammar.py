"""Grammar construction, validation, sampling, and persistence."""

import json
import random
import re
import signal
from contextlib import contextmanager

import pytest

from rulelab.catalog import DEFAULT_VOCAB as V
from rulelab.dsl import UnboundVariableError
from rulelab.learner import (
    GrammarError,
    default_grammar,
    grammar_from_pairs,
    load_grammar,
    sample_derivation,
    save_grammar,
)


def test_default_grammar_shape():
    grammar = default_grammar(V)
    assert grammar.start == "S"
    assert {production.lhs for production in grammar.productions} == {"S", "Q"}
    assert grammar.min_size("S") == 1
    assert grammar.min_size("Q") == 1


def test_weights_must_be_positive():
    with pytest.raises(GrammarError):
        grammar_from_pairs("S", [("S", "(is-color blue)", 0.0)], V)


@pytest.mark.parametrize("weight", [float("nan"), float("inf")], ids=["nan", "infinity"])
def test_weights_must_be_finite(tmp_path, weight):
    """JSON reads NaN and Infinity: a grammar file with either is rejected,
    naming the production, not run with NaN priors."""
    message = rf"production S -> '\(is-color blue\)' has weight {weight}, not a finite number > 0"
    with pytest.raises(GrammarError, match=message):
        grammar_from_pairs("S", [("S", "(is-color blue)", weight), ("S", "(is-shape circle)")], V)
    path = tmp_path / "grammar.json"
    path.write_text(json.dumps({"start": "S", "productions": [
        {"lhs": "S", "template": "(is-color blue)", "weight": weight},
    ]}))
    with pytest.raises(GrammarError, match=message):
        load_grammar(path, V)


NOT_WEIGHTS = [
    pytest.param(True, "True, not a number", id="true"),
    pytest.param("2", "'2', not a number", id="string"),
    pytest.param(" 3 ", "' 3 ', not a number", id="padded-string"),
    pytest.param(10 ** 400, "inf, not a finite number > 0", id="integer-past-the-floats"),
]


@pytest.mark.parametrize("weight, error", NOT_WEIGHTS)
def test_a_grammar_files_weight_must_be_a_finite_json_number(tmp_path, weight, error):
    """A boolean or a string is not read as the number it converts to."""
    path = tmp_path / "grammar.json"
    path.write_text(json.dumps({"start": "S", "productions": [
        {"lhs": "S", "template": "(is-color blue)", "weight": weight},
    ]}))
    message = f"production S -> '(is-color blue)' has weight {error}"
    with pytest.raises(GrammarError, match=re.escape(message)):
        load_grammar(path, V)


@pytest.mark.parametrize("weight, error", NOT_WEIGHTS)
def test_a_library_callers_weight_must_be_a_finite_int_or_float(weight, error):
    """The library path checks a weight as a grammar file's is checked: a
    boolean is not read as 1, and a string or an integer past the floats
    raises GrammarError, not TypeError or OverflowError."""
    message = f"production S -> '(is-color blue)' has weight {error}"
    with pytest.raises(GrammarError, match=re.escape(message)):
        grammar_from_pairs("S", [("S", "(is-color blue)", weight)], V)


@contextmanager
def _deadline(seconds: int):
    """Fail, rather than hang, when the body runs ``seconds`` or longer."""
    def expire(_signum, _frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_a_max_size_below_every_concept_is_an_error_in_both_engines():
    """Every concept of this grammar has two nodes.  At max_size 1 the
    enumeration would find none and an MH chain would redraw its first
    state forever."""
    from rulelab.dsl import parse_concept
    from rulelab.exemplars import evidence_from_list, generate_list
    from rulelab.learner import NoiseParams, enumerate_hypotheses, mh_sample

    grammar = grammar_from_pairs("S", [("S", "(not T)"), ("T", "(is-color blue)")], V)
    message = "max_size 1 is below 2, the size of the smallest concept the grammar derives"
    with pytest.raises(GrammarError, match=message):
        enumerate_hypotheses(grammar, 1)
    exemplar_list = generate_list(parse_concept("(not (is-color blue))", V), V, seed=1,
                                  rule_id="not-blue")
    evidence = evidence_from_list(exemplar_list, upto_set=2)
    with _deadline(30), pytest.raises(GrammarError, match=message):
        mh_sample(grammar, evidence, NoiseParams(0.9, 0.5), 100, seed=1, max_size=1)
    assert len(enumerate_hypotheses(grammar, 2)) == 1


def test_missing_nonterminal_rejected():
    with pytest.raises(GrammarError):
        grammar_from_pairs("S", [("S", "(not T)")], V)


def test_start_symbol_must_exist():
    with pytest.raises(GrammarError):
        grammar_from_pairs("X", [("S", "(is-color blue)")], V)


def test_template_variable_scope_checked():
    # A comparison between the bound object and the target is only legal
    # under a binder; offering it at the top level is a grammar bug.
    with pytest.raises(UnboundVariableError):
        grammar_from_pairs("S", [("S", "(same-color 0 1)")], V)
    grammar_from_pairs(
        "S", [("S", "(exists others Q)"), ("Q", "(same-color 0 1)")], V
    )


def test_unproductive_nonterminal_rejected():
    with pytest.raises(GrammarError):
        grammar_from_pairs("S", [("S", "(not S)")], V)


def test_sampling_is_seeded():
    grammar = default_grammar(V)
    a = [sample_derivation(grammar, random.Random(5)).concept() for _ in range(20)]
    b = [sample_derivation(grammar, random.Random(5)).concept() for _ in range(20)]
    assert a == b


def test_sampled_derivations_are_well_formed():
    from rulelab.dsl import max_var_excess

    grammar = default_grammar(V)
    rng = random.Random(2)
    for _ in range(200):
        concept = sample_derivation(grammar, rng).concept()
        assert max_var_excess(concept) == 0


def test_derivation_accounting():
    grammar = grammar_from_pairs(
        "S",
        [("S", "(is-color blue)"), ("S", "(not (is-color green))"), ("S", "(and S S)")],
        V,
    )
    rng = random.Random(0)
    for _ in range(50):
        derivation = sample_derivation(grammar, rng)
        assert derivation.concept_size() >= derivation.n_applications()


def test_grammar_json_roundtrip(tmp_path):
    grammar = default_grammar(V)
    path = tmp_path / "grammar.json"
    save_grammar(grammar, path)
    loaded = load_grammar(path, V)
    assert [(p.lhs, p.source, p.weight) for p in loaded.productions] == [
        (p.lhs, p.source, p.weight) for p in grammar.productions
    ]
    assert loaded.start == grammar.start


def test_each_template_is_walked_once_per_production_not_per_step(monkeypatch):
    """``holes``, ``skeleton_size`` and ``build`` are compiled once, when the
    production is made, so MH chains, which size and build every proposal,
    walk no template."""
    from collections import Counter

    from rulelab.dsl import parse_concept
    from rulelab.exemplars import generate_list
    from rulelab.learner import NoiseParams, evidence_from_list, grammar, mh_sample

    walks, scope_checks = Counter(), Counter()
    compile_, var_excess = grammar._compile, grammar.max_var_excess

    def counted(node, depth, holes, nodes):
        walks[id(node)] += 1
        return compile_(node, depth, holes, nodes)

    def counted_excess(template, binders=0):
        scope_checks[id(template)] += 1
        return var_excess(template, binders)

    monkeypatch.setattr(grammar, "_compile", counted)
    monkeypatch.setattr(grammar, "max_var_excess", counted_excess)
    built = default_grammar(V)
    templates = {id(p.template) for p in built.productions}
    at_build = {key: n for key, n in walks.items() if key in templates}
    # One compile walk per template; the variable-scope check reads each
    # template's max_var_excess once.
    assert at_build == dict.fromkeys(templates, 1)
    assert scope_checks == Counter(templates)

    exemplar_list = generate_list(parse_concept("(is-color blue)", V), V, seed=3, rule_id="blue")
    evidence = evidence_from_list(exemplar_list, upto_set=4)
    for seed in (1, 2):
        mh_sample(built, evidence, NoiseParams(0.9, 0.5), 2_000, seed, max_size=3)
    assert {key: n for key, n in walks.items() if key in templates} == at_build
    assert scope_checks == Counter(templates)
