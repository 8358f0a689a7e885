"""Bounded-universe truth-functional equivalence."""

import tracemalloc

import pytest
from hypothesis import given, settings

from conftest import concept_strategy
from rulelab.catalog import DEFAULT_VOCAB as V
from rulelab.dsl import (
    ContextBudgetError,
    FeatureVocab,
    count_contexts,
    enumerate_contexts,
    equivalent,
    parse_concept,
)


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


def test_target_only_pairs_walk_one_object_contexts_in_a_batch(monkeypatch):
    """Two concepts that read only the target are compared over the
    one-object block by the batch evaluator, with no per-object
    evaluate, no context budget and no set-size bound."""
    import rulelab.dsl
    from rulelab.dsl import core, equivalence

    def refuse(*args, **kwargs):
        raise AssertionError("per-object evaluate called")

    assert "evaluate" not in vars(equivalence)
    monkeypatch.setattr(rulelab.dsl, "evaluate", refuse)
    monkeypatch.setattr(core, "evaluate", refuse)
    blocks = []
    canonical_chunks = equivalence.canonical_chunks

    def counting(vocab, set_size):
        blocks.append(set_size)
        return canonical_chunks(vocab, set_size)

    monkeypatch.setattr(equivalence, "canonical_chunks", counting)
    not_circle = parse_concept("(not (is-shape circle))", V)
    triangle_or_rectangle = parse_concept("(or (is-shape triangle) (is-shape rectangle))", V)
    blue = parse_concept("(is-color blue)", V)
    assert equivalent(not_circle, triangle_or_rectangle, V, max_set_size=9, max_contexts=1)
    assert not equivalent(not_circle, blue, V, max_set_size=9, max_contexts=1)
    assert blocks == [1, 1]


def test_a_full_walk_holds_one_chunk_at_a_time():
    """Comparing two equivalent concepts over all 849,555 contexts up to set
    size 5 stays within a few chunks' memory.  The vocab's value names are
    used by no other test, so the walk builds its own universe."""
    vocab = FeatureVocab(
        sizes=("s1", "s2", "s3"), colors=("c1", "c2", "c3"), shapes=("h1", "h2", "h3")
    )
    a = parse_concept("(exists others (same-shape 0 1))", vocab)
    b = parse_concept("(exists others (same-shape 1 0))", vocab)
    assert count_contexts(vocab, 5) == 849_555
    tracemalloc.start()
    try:
        assert equivalent(a, b, vocab, max_set_size=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
