"""The packed evaluation kernel against the per-node memo walk it replaced
(:mod:`batch_reference`) and against the reference ``evaluate``.

The kernel must give the walk's truth values bit for bit, keep every
padding bit of its packed rows zero, and agree with ``evaluate`` on
sampled cells, for batches whose context counts fill the last byte
exactly, leave one bit of it, and leave seven."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batch_reference import walk_evaluate_batch
from conftest import concept_strategy, random_concept, random_context
from rulelab.catalog import DEFAULT_VOCAB as V
from rulelab.dsl import (
    And,
    ContextBatch,
    Not,
    Or,
    Quant,
    QUANT_KINDS,
    QUANT_SCOPES,
    evaluate,
    evaluate_batch,
    evaluate_packed,
)
from rulelab.exemplars import generate_list
from rulelab.learner import build_eval_matrices, enumerate_hypotheses
from rulelab.learner.grammar import grammar_from_pairs

# Every tail-byte case: one context, a short byte, a full byte, one bit
# past it, and the same around 64.
BATCH_SIZES = (1, 7, 8, 9, 63, 64, 65)


def batch_of(n: int, seed: int) -> tuple[list, ContextBatch]:
    rng = random.Random(seed)
    contexts = [random_context(rng) for _ in range(n)]
    return contexts, ContextBatch.from_contexts(contexts, V)


def assert_kernel_is_the_walk(concepts, contexts, batch, rng):
    n = len(batch)
    table, rows = evaluate_packed(concepts, batch)
    assert table.dtype == np.uint8 and table.shape[1] == (n + 7) // 8
    assert rows.shape == (len(concepts),)
    if n % 8:  # the tail byte's padding bits are zero in every row
        assert not np.any(table[:, -1] & ((1 << (8 - n % 8)) - 1))
    truth = evaluate_batch(concepts, batch)
    walked = walk_evaluate_batch(concepts, batch)
    assert truth.dtype == bool and truth.shape == (len(concepts), n)
    np.testing.assert_array_equal(truth, walked)
    np.testing.assert_array_equal(np.unpackbits(table[rows], axis=1, count=n).view(bool), walked)
    for _ in range(min(40, len(concepts) * n)):
        i, j = rng.randrange(len(concepts)), rng.randrange(n)
        assert truth[i, j] == evaluate(concepts[i], contexts[j])


def nested(kinds, scopes, body):
    """``body``, a concept over two bound variables, under two binders."""
    return Quant(kinds[0], scopes[0], Quant(kinds[1], scopes[1], body))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(concept_strategy(max_budget=9), min_size=1, max_size=12),
    st.lists(concept_strategy(max_budget=5, binders=2), min_size=1, max_size=4),
    st.lists(st.tuples(st.sampled_from(QUANT_KINDS), st.sampled_from(QUANT_KINDS)),
             min_size=4, max_size=4),
    st.lists(st.tuples(st.sampled_from(QUANT_SCOPES), st.sampled_from(QUANT_SCOPES)),
             min_size=4, max_size=4),
    st.sampled_from(BATCH_SIZES),
    st.integers(0, 2**32 - 1),
)
def test_kernel_equals_the_walk_bitwise(flat, deep, kinds, scopes, n, seed):
    """Random concepts, concepts with binders nested two deep, repeated
    concepts, and concepts sharing subterms with each other at several
    depths."""
    rng = random.Random(seed)
    two_deep = [nested(k, s, body) for body, k, s in zip(deep, kinds, scopes)]
    x, y = flat[0], flat[-1]
    shared = [And(x, y), Or(Not(x), y), Not(And(x, y)), Quant(kinds[0][0], scopes[0][0], x)]
    concepts = flat + two_deep + shared + [x, two_deep[0], shared[0]]  # repeats, too
    contexts, batch = batch_of(n, seed)
    assert_kernel_is_the_walk(concepts, contexts, batch, rng)


@pytest.mark.parametrize("n", BATCH_SIZES)
def test_each_tail_byte_case_on_fixed_concepts(n):
    rng = random.Random(n)
    concepts = [random_concept(rng, rng.randint(1, 10)) for _ in range(200)]
    contexts, batch = batch_of(n, n)
    assert_kernel_is_the_walk(concepts, contexts, batch, rng)


def test_empty_concept_lists_and_empty_batches():
    concepts = [random_concept(random.Random(i), 6) for i in range(5)]
    _contexts, batch = batch_of(9, 3)
    table, rows = evaluate_packed([], batch)
    assert table.shape == (0, 2) and rows.shape == (0,)
    assert evaluate_batch([], batch).shape == (0, 9)
    _contexts, empty = batch_of(0, 3)
    table, rows = evaluate_packed(concepts, empty)
    assert table.shape[1] == 0 and len(rows) == len(concepts)
    truth = evaluate_batch(concepts, empty)
    assert truth.dtype == bool and truth.shape == (5, 0)
    np.testing.assert_array_equal(truth, walk_evaluate_batch(concepts, empty))
    assert evaluate_batch([], empty).shape == (0, 0)


def test_a_nonterminal_reached_at_two_binder_depths():
    """S derives both a whole concept and a quantifier's body, so its
    leaves read the target at depth 0 and the bound object at depth 1,
    and one subterm is numbered at both depths."""
    grammar = grammar_from_pairs("S", [
        ("S", "(is-color blue)"), ("S", "(is-shape circle)"), ("S", "(majority-color)"),
        ("S", "(not S)"), ("S", "(and S S)"),
        ("S", "(exists others S)"), ("S", "(exactly-one all S)"),
    ], V)
    hypotheses = enumerate_hypotheses(grammar, 5)
    concepts = [concept for concept, _lp in hypotheses]
    assert Quant("exists", "others", concepts[0]) in concepts  # a depth-0 leaf, at depth 1
    lists = [generate_list(concept, V, seed=seed, rule_id=f"r{seed}")
             for seed, concept in ((1, concepts[0]), (2, concepts[-1]))]
    contexts = [ctx for lst in lists for ctx in lst.contexts]
    batch = ContextBatch.from_contexts(contexts, V)
    assert_kernel_is_the_walk(concepts, contexts, batch, random.Random(4))
    for lst, matrix in zip(lists, build_eval_matrices(hypotheses, lists), strict=True):
        alone = ContextBatch.from_contexts(lst.contexts, V)
        np.testing.assert_array_equal(
            matrix.classes[matrix.inverse], walk_evaluate_batch(concepts, alone)
        )
