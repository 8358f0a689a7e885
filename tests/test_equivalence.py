"""Bounded-universe truth-functional equivalence."""

import tracemalloc

import pytest
from hypothesis import given, settings

from conftest import concept_strategy
from rulelab.catalog import DEFAULT_VOCAB as V
from rulelab.dsl import (
    And,
    ContextBudgetError,
    FeatureVocab,
    Or,
    count_contexts,
    enumerate_contexts,
    equivalent,
    evaluate,
    parse_concept,
)
from rulelab.dsl.equivalence import operand_order_form


def test_context_count_matches_enumeration():
    assert count_contexts(V, 2) == sum(1 for _ in enumerate_contexts(V, 2))
    assert count_contexts(V, 1) == 27


def test_not_circle_equals_triangle_or_rectangle():
    a = parse_concept("(not (is-shape circle))", V)
    b = parse_concept("(or (is-shape triangle) (is-shape rectangle))", V)
    assert equivalent(a, b, V)


def test_circle_or_blue_rewrites():
    a = parse_concept("(or (is-shape circle) (is-color blue))", V)
    b = parse_concept(
        "(or (is-color blue) (or (is-color yellow 0) (and (is-color green) (is-shape circle))))",
        V,
    )
    # "blue or (yellow or green circle)": yellow-or-green circle covers
    # exactly the non-blue circles under the three-color vocabulary.
    b = parse_concept(
        "(or (is-color blue) (and (or (is-color yellow) (is-color green)) (is-shape circle)))",
        V,
    )
    assert equivalent(a, b, V)


def test_blue_or_green_equals_not_yellow():
    a = parse_concept("(or (is-color blue) (is-color green))", V)
    b = parse_concept("(not (is-color yellow))", V)
    assert equivalent(a, b, V)


def test_non_equivalent_pair():
    a = parse_concept("(is-color blue)", V)
    b = parse_concept("(is-shape circle)", V)
    assert not equivalent(a, b, V)


def test_quantifier_duality_via_equivalence():
    a = parse_concept("(forall others (size-ge 1 0))", V)
    b = parse_concept("(not (exists others (not (size-ge 1 0))))", V)
    assert equivalent(a, b, V, max_set_size=3)


def test_scope_matters():
    a = parse_concept("(exists others (is-color blue 0))", V)
    b = parse_concept("(exists all (is-color blue 0))", V)
    assert not equivalent(a, b, V, max_set_size=3)


def test_budget_error():
    a = parse_concept("(exists others (is-color blue 0))", V)
    b = parse_concept("(exists all (is-color blue 0))", V)
    with pytest.raises(ContextBudgetError):
        equivalent(a, b, V, max_set_size=5, max_contexts=1000)


@settings(max_examples=60, deadline=None)
@given(concept_strategy(max_budget=4))
def test_reflexive(concept):
    assert equivalent(concept, concept, V, max_set_size=2)


@settings(max_examples=30, deadline=None)
@given(concept_strategy(max_budget=3), concept_strategy(max_budget=3))
def test_symmetric(a, b):
    assert equivalent(a, b, V, max_set_size=2) == equivalent(b, a, V, max_set_size=2)


def test_target_only_pairs_are_decided_by_evaluate_on_one_object_sets(monkeypatch):
    """Two concepts that read only the target are compared by ``evaluate``
    over the one-object contexts of the dimensions they read (the 3 shapes
    here), with no chunk, no context budget and no set-size bound."""
    from rulelab.dsl import equivalence

    def refuse(vocab, set_size):
        raise AssertionError("canonical_chunks called")

    walked, evaluated = [], []
    enumerate_contexts, evaluate = equivalence.enumerate_contexts, equivalence.evaluate

    def recording(vocab, max_set_size):
        walked.append(max_set_size)
        return enumerate_contexts(vocab, max_set_size)

    def counting(concept, ctx):
        evaluated.append(len(ctx.objects))
        return evaluate(concept, ctx)

    monkeypatch.setattr(equivalence, "canonical_chunks", refuse)
    monkeypatch.setattr(equivalence, "enumerate_contexts", recording)
    monkeypatch.setattr(equivalence, "evaluate", counting)
    not_circle = parse_concept("(not (is-shape circle))", V)
    triangle_or_rectangle = parse_concept("(or (is-shape triangle) (is-shape rectangle))", V)
    blue = parse_concept("(is-color blue)", V)
    assert equivalent(not_circle, triangle_or_rectangle, V, max_set_size=9, max_contexts=1)
    assert evaluated == [1] * 2 * 3
    assert not equivalent(not_circle, blue, V, max_set_size=9, max_contexts=1)
    assert walked == [1, 1]


# One pair per level that can settle it: the smallest set they differ on
# (None when they agree on every set of up to three objects), and whether
# the batch walk over sets of three objects is reached.  Only a pair that
# reads all three dimensions has more than 756 contexts up to three
# objects, so only such a pair reaches it.
LEVEL_PAIRS = {
    "identical": (
        "(exists others (same-shape 0 1))", "(exists others (same-shape 0 1))", None, False,
    ),
    "operands swapped under a quantifier": (
        "(exists others (and (is-color yellow 0) (same-shape 0 1)))",
        "(exists others (and (same-shape 0 1) (is-color yellow 0)))",
        None, False,
    ),
    "target-only": (
        "(not (is-shape circle))", "(or (is-shape triangle) (is-shape rectangle))", None, False,
    ),
    "differs on one object": (
        "(exists others (is-color blue 0))", "(exists all (is-color blue 0))", 1, False,
    ),
    "differs only on two objects": (
        "(exists others (is-color blue 0))", "(exists others (is-shape circle 0))", 2, False,
    ),
    # "Exactly one other is my twin" is "some other is" until a third object
    # can be one too.
    "differs only on three objects": (
        "(exists others (and (same-size 0 1) (and (same-color 0 1) (same-shape 0 1))))",
        "(exactly-one others (and (same-size 0 1) (and (same-color 0 1) (same-shape 0 1))))",
        3, True,
    ),
    "equivalent, not by operand order": (
        "(exists others (and (same-size 0 1) (and (same-color 0 1) (same-shape 0 1))))",
        "(exists others (and (same-size 1 0) (and (same-color 1 0) (same-shape 1 0))))",
        None, True,
    ),
    # Over the three shapes alone, ``evaluate`` takes every set of up to
    # three objects (30 contexts).
    "reads one dimension, differs only on three objects": (
        "(exists others (same-shape 0 1))", "(exactly-one others (same-shape 0 1))", 3, False,
    ),
    "reads one dimension, equivalent": (
        "(exists others (same-shape 0 1))", "(exists others (same-shape 1 0))", None, False,
    ),
}


@pytest.mark.parametrize("name", list(LEVEL_PAIRS))
def test_each_level_keeps_the_reference_walks_verdict(monkeypatch, name):
    """Every pair gets the verdict of ``evaluate`` over every context of up to
    three objects, and only a pair that reads all three dimensions, agrees
    on every set of one and two objects, and is not equal by operand order,
    reaches the chunked walk."""
    from rulelab.dsl import equivalence

    left, right, first_difference, walks = LEVEL_PAIRS[name]
    a, b = parse_concept(left, V), parse_concept(right, V)
    chunked = []
    canonical_chunks = equivalence.canonical_chunks

    def recording(vocab, set_size):
        chunked.append(set_size)
        return canonical_chunks(vocab, set_size)

    monkeypatch.setattr(equivalence, "canonical_chunks", recording)
    differ_on = _differ_on(a, b)
    assert min(differ_on, default=None) == first_difference
    assert equivalent(a, b, V, max_set_size=3) == (not differ_on)
    assert chunked == ([3] if walks else [])


@pytest.mark.parametrize("name", ["identical", "operands swapped under a quantifier"])
def test_equal_operand_order_forms_skip_the_budget(name):
    left, right, _first_difference, _walks = LEVEL_PAIRS[name]
    assert equivalent(parse_concept(left, V), parse_concept(right, V), V, max_contexts=1)


_UP_TO_THREE = list(enumerate_contexts(V, 3))


@settings(max_examples=25, deadline=None)
@given(concept_strategy(max_budget=6))
def test_operand_order_form_agrees_with_the_concept(concept):
    form = operand_order_form(concept)
    assert operand_order_form(form) == form
    assert all(evaluate(form, ctx) == evaluate(concept, ctx) for ctx in _UP_TO_THREE)


def _differ_on(a, b) -> list[int]:
    """The set sizes of the contexts of up to three objects, over the whole
    default vocabulary, on which ``a`` and ``b`` differ."""
    return [len(ctx.objects) for ctx in _UP_TO_THREE if evaluate(a, ctx) != evaluate(b, ctx)]


@settings(max_examples=40, deadline=None)
@given(concept_strategy(max_budget=5), concept_strategy(max_budget=5))
def test_the_projected_walk_keeps_the_unprojected_verdict(a, b):
    """``equivalent`` walks only the dimensions a pair reads, with the verdict
    of ``evaluate`` over every context of the whole vocabulary.  ``a or (a
    and b)`` is ``a`` whatever ``b`` is, and reads what both read."""
    assert equivalent(a, b, V, max_set_size=3) == (not _differ_on(a, b))
    assert equivalent(a, Or(a, And(a, b)), V, max_set_size=3)


# Pairs for each node that reads a dimension, over one, two and three
# dimensions: the dimensions read, and the smallest set they differ on
# (None when they agree on every set of up to three objects).
PROJECTED_PAIRS = {
    "size-gt": (
        "(exists others (size-gt 0 1))", "(not (forall others (size-ge 1 0)))", 1, None,
    ),
    "size-ge, differs only on three objects": (
        "(exists others (size-ge 0 1))", "(exactly-one others (size-ge 0 1))", 1, 3,
    ),
    "majority and minority, differ only on three objects": (
        "(majority-color)", "(minority-color)", 1, 3,
    ),
    "majority and same-color, differ only on three objects": (
        "(majority-color)", "(forall others (same-color 0 1))", 1, 3,
    ),
    "minority and same-color": (
        "(minority-color)", "(not (exists others (same-color 0 1)))", 1, 2,
    ),
    "same-shape and same-size, differ only on three objects": (
        "(exists others (and (same-shape 0 1) (same-size 0 1)))",
        "(exactly-one others (and (same-size 0 1) (same-shape 0 1)))",
        2, 3,
    ),
    "same-color and size-gt, equivalent": (
        "(exists others (and (same-color 0 1) (size-gt 0 1)))",
        "(not (forall others (or (not (same-color 1 0)) (size-ge 1 0))))",
        2, None,
    ),
    "three dimensions, equivalent": (
        "(and (is-shape circle) (exists others (and (is-color blue 0) (size-gt 1 0))))",
        "(exists others (and (is-shape circle 1) (and (is-color blue 0) (size-gt 1 0))))",
        3, None,
    ),
    "three dimensions, differ only on three objects": (
        "(and (majority-color) (exists others (and (same-shape 0 1) (same-size 0 1))))",
        "(and (majority-color) (exactly-one others (and (same-shape 0 1) (same-size 0 1))))",
        3, 3,
    ),
}


@pytest.mark.parametrize("name", list(PROJECTED_PAIRS))
def test_each_dimension_reading_node_keeps_the_unprojected_verdict(name):
    from rulelab.dsl.equivalence import _dimensions_read

    left, right, n_dimensions, first_difference = PROJECTED_PAIRS[name]
    a, b = parse_concept(left, V), parse_concept(right, V)
    assert len(_dimensions_read(a) | _dimensions_read(b)) == n_dimensions
    differ_on = _differ_on(a, b)
    assert min(differ_on, default=None) == first_difference
    assert equivalent(a, b, V, max_set_size=3) == (not differ_on)


def test_a_full_walk_holds_one_chunk_at_a_time(monkeypatch):
    """Comparing two equivalent concepts that read all three dimensions over
    all 849,555 contexts up to set size 5 walks sets of three to five objects
    chunk by chunk and stays within a few chunks' memory.  The vocab's value
    names are used by no other test, so the walk builds its own universe."""
    from rulelab.dsl import equivalence

    vocab = FeatureVocab(
        sizes=("s1", "s2", "s3"), colors=("c1", "c2", "c3"), shapes=("h1", "h2", "h3")
    )
    twin = "(exists others (and (same-size {0}) (and (same-color {0}) (same-shape {0}))))"
    a = parse_concept(twin.format("0 1"), vocab)
    b = parse_concept(twin.format("1 0"), vocab)
    assert count_contexts(vocab, 5) == 849_555
    walked = []
    canonical_chunks = equivalence.canonical_chunks

    def recording(vocab, set_size):
        walked.append(set_size)
        return canonical_chunks(vocab, set_size)

    monkeypatch.setattr(equivalence, "canonical_chunks", recording)
    tracemalloc.start()
    try:
        assert equivalent(a, b, vocab, max_set_size=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert walked == [3, 4, 5]
    assert peak < 8 * 2**20
