"""Hypothesis enumeration and prior mass accounting."""

import math

import pytest

from rulelab.catalog import DEFAULT_VOCAB as V
from rulelab.dsl import parse_concept, print_concept, size
from rulelab.learner import (
    HypothesisBudgetError,
    default_grammar,
    enumerate_hypotheses,
    grammar_from_pairs,
)


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


def test_duplicate_derivations_merge():
    # Two productions deriving the same concept: its prior is their sum.
    grammar = grammar_from_pairs(
        "S",
        [
            ("S", "(is-color blue)", 0.25),
            ("S", "(not (not (is-color blue)))", 0.25),
            ("S", "(not S)", 0.5),
        ],
        V,
    )
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
