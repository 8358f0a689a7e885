"""Pointwise logical identities over random concepts and contexts, and the
AST folds checked against the printed form."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import concept_strategy, context_strategy, random_concept
from rulelab.catalog import DEFAULT_VOCAB as V
from rulelab.dsl import (
    And,
    Context,
    DslError,
    FeatureVocab,
    Iff,
    Implies,
    Not,
    Or,
    Quant,
    UnboundVariableError,
    Xor,
    depth,
    evaluate,
    is_target_only,
    max_var_excess,
    parse_concept,
    print_concept,
    size,
)


@settings(max_examples=300, deadline=None)
@given(concept_strategy(), concept_strategy(), context_strategy())
def test_de_morgan(a, b, ctx):
    assert evaluate(Not(And(a, b)), ctx) == evaluate(Or(Not(a), Not(b)), ctx)


@settings(max_examples=300, deadline=None)
@given(concept_strategy(), concept_strategy(), context_strategy())
def test_xor_is_not_iff(a, b, ctx):
    assert evaluate(Xor(a, b), ctx) == evaluate(Not(Iff(a, b)), ctx)


@settings(max_examples=300, deadline=None)
@given(concept_strategy(), concept_strategy(), context_strategy())
def test_implies_is_or_not(a, b, ctx):
    assert evaluate(Implies(a, b), ctx) == evaluate(Or(Not(a), b), ctx)


@settings(max_examples=300, deadline=None)
@given(concept_strategy(max_budget=5, binders=1), context_strategy())
def test_quantifier_duality(body, ctx):
    for scope in ("others", "all"):
        universal = Quant("forall", scope, body)
        dual = Not(Quant("exists", scope, Not(body)))
        assert evaluate(universal, ctx) == evaluate(dual, ctx)


@settings(max_examples=300, deadline=None)
@given(concept_strategy(), concept_strategy(), context_strategy())
def test_double_negation_and_commutativity(a, b, ctx):
    assert evaluate(Not(Not(a)), ctx) == evaluate(a, ctx)
    assert evaluate(And(a, b), ctx) == evaluate(And(b, a), ctx)
    assert evaluate(Or(a, b), ctx) == evaluate(Or(b, a), ctx)


@settings(max_examples=300, deadline=None)
@given(concept_strategy(max_budget=9))
def test_size_and_depth_count_the_printed_parens(concept):
    text = print_concept(concept, V)
    assert size(concept) == text.count("(")
    nesting, deepest = 0, 0
    for char in text:
        nesting += {"(": 1, ")": -1}.get(char, 0)
        deepest = max(deepest, nesting)
    assert depth(concept) == deepest


@settings(max_examples=300, deadline=None)
@given(concept_strategy(max_budget=7, binders=2))
def test_max_var_excess_is_zero_exactly_when_the_parser_binds_every_variable(concept):
    text = print_concept(concept, V)
    if max_var_excess(concept) == 0:
        parse_concept(text, V)
    else:
        with pytest.raises(UnboundVariableError):
            parse_concept(text, V)


@settings(max_examples=300, deadline=None)
@given(concept_strategy(), context_strategy())
def test_a_target_only_concept_sees_only_the_target(concept, ctx):
    if is_target_only(concept):
        alone = Context((ctx.objects[ctx.target],), 0)
        assert evaluate(concept, ctx) == evaluate(concept, alone)


# Short distinct values over every character, the syntax's delimiters
# included, so that some drawn vocabs are refused.
_VALUES = st.lists(st.text(st.characters(), min_size=1, max_size=4), min_size=1, max_size=3,
                   unique=True)


@settings(max_examples=300, deadline=None)
@given(_VALUES, _VALUES, _VALUES, st.integers(0, 2**32 - 1), st.integers(1, 9))
def test_every_accepted_vocab_prints_concepts_that_read_back(sizes, colors, shapes, seed, budget):
    try:
        vocab = FeatureVocab(sizes=sizes, colors=colors, shapes=shapes)
    except DslError:
        assume(False)
    concept = random_concept(random.Random(seed), budget, vocab=vocab)
    assert parse_concept(print_concept(concept, vocab), vocab) == concept
