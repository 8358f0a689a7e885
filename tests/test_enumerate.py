"""Hypothesis enumeration and prior mass accounting."""

import hashlib
import math
import random
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import SIZE4_RULES, dry_run_lists, random_concept, random_context
from enumeration_reference import reference_enumerate, substitute
from rulelab.catalog import ALTERNATE_VOCAB, DEFAULT_VOCAB as V, DEMO_RULES
from rulelab.dsl import (
    Concept, ContextBatch, DslError, evaluate_packed, parse_concept, parts, print_concept, size,
)
from rulelab.dsl.sexpr import parse_template
from rulelab.exemplars import generate_list
from rulelab.learner import (
    Derivation,
    GrammarError,
    HypothesisBudgetError,
    Production,
    build_eval_matrices,
    default_grammar,
    enumerate_hypotheses,
    grammar_from_pairs,
    sample_derivation,
)
from rulelab.learner.enumeration import concepts, sort_keys


def two_leaf_grammar():
    return grammar_from_pairs(
        "S", [("S", "(is-color blue)", 0.5), ("S", "(is-shape circle)", 0.5)], V
    )


def and_grammar():
    return grammar_from_pairs(
        "S",
        [
            ("S", "(is-color blue)", 0.4),
            ("S", "(is-shape circle)", 0.4),
            ("S", "(and S S)", 0.2),
        ],
        V,
    )


def test_two_leaves():
    hypotheses = enumerate_hypotheses(two_leaf_grammar(), max_size=1)
    assert len(hypotheses) == 2
    for _concept, log_prior in hypotheses:
        assert log_prior == pytest.approx(math.log(0.5))


def test_size_three_count_is_six():
    # Two leaves plus the four ordered and-combinations of them.
    hypotheses = enumerate_hypotheses(and_grammar(), max_size=3)
    assert len(hypotheses) == 6
    and_nodes = [c for c, _lp in hypotheses if size(c) == 3]
    assert len(and_nodes) == 4


def test_prior_mass_accounting():
    # A recursive grammar always keeps some mass on larger concepts.
    partial = sum(math.exp(lp) for _c, lp in enumerate_hypotheses(and_grammar(), 5))
    assert partial < 1.0
    # A finite grammar's enumeration reaches exactly 1.
    finite = two_leaf_grammar()
    total = sum(math.exp(lp) for _c, lp in enumerate_hypotheses(finite, 9))
    assert total == pytest.approx(1.0)


def test_exact_prior_values():
    hypotheses = dict(enumerate_hypotheses(and_grammar(), 3))
    blue = parse_concept("(is-color blue)", V)
    both = parse_concept("(and (is-color blue) (is-shape circle))", V)
    assert hypotheses[blue] == pytest.approx(math.log(0.4))
    assert hypotheses[both] == pytest.approx(math.log(0.2 * 0.4 * 0.4))


def duplicate_grammar():
    return grammar_from_pairs(
        "S",
        [
            ("S", "(is-color blue)", 0.25),
            ("S", "(not (not (is-color blue)))", 0.25),
            ("S", "(not S)", 0.5),
        ],
        V,
    )


def two_depth_grammar():
    """S derives both a whole concept and a quantifier's body."""
    return grammar_from_pairs("S", [
        ("S", "(is-color blue)"), ("S", "(is-shape circle)"), ("S", "(majority-color)"),
        ("S", "(not S)"), ("S", "(and S S)"),
        ("S", "(exists others S)"), ("S", "(exactly-one all S)"),
    ], V)


def test_duplicate_derivations_merge():
    # Two productions deriving the same concept: its prior is their sum.
    grammar = duplicate_grammar()
    hypotheses = dict(enumerate_hypotheses(grammar, 3))
    double_negation = parse_concept("(not (not (is-color blue)))", V)
    # Directly (0.25) or via not(not(leaf)) (0.5 * 0.5 * 0.25).
    assert hypotheses[double_negation] == pytest.approx(math.log(0.25 + 0.0625))


def test_budget_error():
    with pytest.raises(HypothesisBudgetError):
        enumerate_hypotheses(default_grammar(V), max_size=4, max_hypotheses=1000)


def test_default_grammar_counts():
    grammar = default_grammar(V)
    assert len(enumerate_hypotheses(grammar, 1)) == 11
    assert len(enumerate_hypotheses(grammar, 2)) == 70
    assert len(enumerate_hypotheses(grammar, 3)) == 782


def test_enumeration_is_deterministic():
    grammar = default_grammar(V)
    first = enumerate_hypotheses(grammar, 3)
    second = enumerate_hypotheses(grammar, 3)
    assert first == second
    printed = [print_concept(c, V) for c, _ in first]
    assert printed == sorted(printed, key=lambda s: (size(parse_concept(s, V)), s))


def test_budget_error_stops_the_enumeration():
    """The budget is checked as the start cell fills: at size 5, 12,000
    hypotheses are passed long before the 109,167 concepts of that size
    are built, and memory stays far below what building them takes."""
    grammar = default_grammar(V)
    tracemalloc.start()
    try:
        with pytest.raises(HypothesisBudgetError, match="more than 12000 hypotheses at size 5"):
            enumerate_hypotheses(grammar, 5, max_hypotheses=12_000)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10e6  # building the whole size-5 cell first took 20 MB


def assert_same_as_reference(hypotheses, expected):
    assert len(hypotheses) == len(expected)
    for (concept, log_prior), (want, want_prior) in zip(hypotheses, expected):
        assert concept == want
        assert struct.pack("<d", log_prior) == struct.pack("<d", want_prior)


@pytest.mark.parametrize("vocab", [V, ALTERNATE_VOCAB], ids=["default", "alternate"])
def test_enumeration_is_the_reference_enumerators(vocab):
    """The same concepts in the same order and bitwise the same log priors
    at every max_size up to 5; each smaller max_size's list is a prefix."""
    grammar = default_grammar(vocab)
    expected = reference_enumerate(grammar, 5)
    for max_size in range(1, 6):
        hypotheses = enumerate_hypotheses(grammar, max_size)
        assert_same_as_reference(hypotheses, expected[:len(hypotheses)])
    assert len(hypotheses) == len(expected) == 118_735


@pytest.mark.parametrize("grammar", [duplicate_grammar(), two_depth_grammar()],
                         ids=["duplicate-derivations", "two-binder-depths"])
@pytest.mark.parametrize("max_size", [3, 5])
def test_enumeration_is_the_reference_enumerators_on_odd_grammars(grammar, max_size):
    assert_same_as_reference(enumerate_hypotheses(grammar, max_size),
                             reference_enumerate(grammar, max_size))


# Productions of the random grammars: leaves, connectives over holes, and
# multi-node templates that overlap the others' derivations.
TEMPLATE_POOL = (
    "(is-color blue)", "(is-shape circle)", "(majority-color)", "(same-shape 0 1)",
    "(not S)", "(and S S)", "(exists others Q)", "(and (is-color blue) S)",
    "(or Q (is-shape circle 0))",
)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(
    st.lists(st.tuples(st.sampled_from("SQ"), st.sampled_from(TEMPLATE_POOL),
                       st.floats(0.1, 10.0)), min_size=1, max_size=8),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
)
def test_enumeration_and_its_plan_match_the_references_on_random_grammars(
    productions, max_size, seed
):
    """The pairs are the reference enumerator's, bitwise; the plan that
    comes with them folds each root into the reference's concept and its
    printed form, and evaluates each pair's concept to the rows the same
    concepts get when numbered afresh."""
    try:
        grammar = grammar_from_pairs("S", productions, V)
    except DslError:  # a hole with no productions, a variable out of scope, no finite concept
        assume(False)
    if max_size < grammar.min_size("S"):  # no concept fits: an error, not an empty list
        with pytest.raises(GrammarError, match=f"max_size {max_size} is below"):
            enumerate_hypotheses(grammar, max_size)
        return
    hypotheses = enumerate_hypotheses(grammar, max_size)
    expected = reference_enumerate(grammar, max_size)
    assert_same_as_reference(hypotheses, expected)
    built, keys = concepts(hypotheses.plan), sort_keys(hypotheses.plan, V)
    for root, (concept, _lp) in zip(hypotheses.plan.roots, expected):
        assert built[root] == concept
        assert keys[root] == print_concept(concept, V)
    rng = random.Random(seed)
    batch = ContextBatch.from_contexts([random_context(rng) for _ in range(20)], V)
    table, rows = evaluate_packed(hypotheses.plan, batch)
    fresh, fresh_rows = evaluate_packed([concept for concept, _lp in hypotheses], batch)
    np.testing.assert_array_equal(table[rows], fresh[fresh_rows])


def test_a_concept_in_two_cells_has_one_plan_number():
    """(not A) is derived in S's cell at size 2 and in B's, at the same
    depth: one plan node, not one per cell."""
    grammar = grammar_from_pairs("S", [
        ("S", "(not A)"), ("S", "(and B B)"), ("B", "(not A)"),
        ("A", "(is-color blue)"), ("A", "(is-shape circle)"),
    ], V)
    hypotheses = enumerate_hypotheses(grammar, 5)
    assert_same_as_reference(hypotheses, reference_enumerate(grammar, 5))
    # two leaves, their two negations, and the four conjunctions of those
    assert len(hypotheses.plan.heights[0]) == 8
    assert len(hypotheses) == 6


def test_enumeration_hashes_no_concept_but_a_leaf(monkeypatch):
    """A cell keys each concept by its plan number, so no concept is built
    and hashed per derivation: only the leaves are hashed, as plan keys."""
    grammar = default_grammar(V)
    hashed = []
    for cls in Concept.__subclasses__():
        def counted(concept, real=cls.__hash__):
            hashed.append(concept)
            return real(concept)

        monkeypatch.setattr(cls, "__hash__", counted)
    assert len(enumerate_hypotheses(grammar, 4)) == 9568
    assert hashed and not [concept for concept in hashed if parts(concept)[0]]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted({*TEMPLATE_POOL, *(p.source for p in default_grammar(V).productions)})),
    st.integers(0, 2**32 - 1),
)
def test_a_productions_build_is_the_reference_substitution(source, seed):
    """A compiled production builds what the oracle's own walk does, for
    every template of the random grammars' pool and the stock grammar."""
    production = Production("S", source, parse_template(source, V), 1.0)
    rng = random.Random(seed)
    fills = [random_concept(rng, rng.randint(1, 4), depth) for _nt, depth in production.holes]
    assert production.build(*fills) == substitute(production.template, fills)


def _reference_concept(derivation: Derivation):
    return substitute(derivation.production.template,
                      [_reference_concept(child) for child in derivation.children])


@pytest.mark.parametrize("grammar", [
    default_grammar(V), duplicate_grammar(), two_depth_grammar(),
    grammar_from_pairs("S", [
        ("S", "(is-color blue)"), ("S", "(majority-color)"), ("S", "(not S)"), ("S", "(and S S)"),
        ("S", "(exists others Q)"), ("S", "(and (is-color blue) S)"),
        ("Q", "(same-shape 0 1)"), ("Q", "(is-color blue)"), ("Q", "(or Q (is-shape circle 0))"),
    ], V),
], ids=["default", "duplicate-derivations", "two-binder-depths", "multi-node-templates"])
def test_a_derivations_concept_is_the_reference_substitution(grammar):
    rng = random.Random(7)
    for _ in range(300):
        derivation = sample_derivation(grammar, rng)
        assert derivation.concept() == _reference_concept(derivation)


def size4_lists():
    """The four FOL rules the max_size 4 benchmark runs, seeded 1 onward."""
    rules = [rule for rule in DEMO_RULES if rule.rule_id in SIZE4_RULES]
    return [generate_list(parse_concept(rule.source, V), V, seed=1 + i, rule_id=rule.rule_id)
            for i, rule in enumerate(rules)]


def _digests(matrices):
    return [
        hashlib.sha256(b"".join(part.tobytes() for part in
                                (m.log_priors, m.classes, m.inverse))).hexdigest()
        for m in matrices
    ]


@pytest.mark.parametrize("max_size", [3, 4])
def test_eval_matrices_through_the_plan_are_the_numbered_ones(max_size):
    """build_eval_matrices through the enumeration's plan, which it spends,
    and again on the same pairs as a plain list: bitwise the same matrices."""
    lists = size4_lists() + dry_run_lists()
    hypotheses = enumerate_hypotheses(default_grammar(V), max_size)
    assert hypotheses.plan is not None
    planned = _digests(build_eval_matrices(hypotheses, lists))
    assert hypotheses.plan is None
    assert planned == _digests(build_eval_matrices(list(hypotheses), lists))
