"""The batched evaluator against the one-context reference ``evaluate``."""

import random

import numpy as np
import pytest

from conftest import random_concept, random_context
from rulelab.catalog import DEFAULT_VOCAB as V
from rulelab.dsl import (
    And,
    ContextBatch,
    DslError,
    FeatureIs,
    FeatureVocab,
    Iff,
    Implies,
    MajorityColor,
    Not,
    Or,
    Quant,
    UnboundVariableError,
    canonical_chunks,
    count_contexts,
    enumerate_contexts,
    equivalent,
    evaluate,
    evaluate_batch,
    parse_concept,
)
from rulelab.dsl import equivalence
from rulelab.dsl.batch import _Plan, feature_dtype
from rulelab.dsl.core import Hole
from rulelab.dsl.sexpr import parse_template
from rulelab.exemplars import generate_list
from rulelab.learner import (
    build_eval_matrices,
    build_eval_matrix,
    default_grammar,
    enumerate_hypotheses,
    inference,
)

# Nested quantifiers in both scopes, exactly-one, and color majority and
# minority of bound variables as well as the target.
COVERAGE = (
    "(exists others (forall all (size-ge 1 0)))",
    "(forall others (exists all (and (same-color 0 1) (not (same-shape 0 2)))))",
    "(exactly-one others (same-shape 0 1))",
    "(exactly-one all (exactly-one others (same-color 0 1)))",
    "(exists all (and (majority-color 0) (not (same-color 0 1))))",
    "(forall others (minority-color 0))",
    "(exists others (exists others (and (minority-color 1) (majority-color 0))))",
    "(forall all (implies (is-color blue 0) (size-gt 1 0)))",
    "(iff (majority-color) (minority-color))",
    "(xor (is-shape circle) (exists others (is-shape circle 0)))",
)


def reference(concepts, contexts):
    return np.array([[evaluate(c, ctx) for ctx in contexts] for c in concepts], dtype=bool)


def test_coverage_concepts_match_evaluate():
    rng = random.Random(5)
    contexts = [random_context(rng) for _ in range(400)]
    concepts = [parse_concept(source, V) for source in COVERAGE]
    batch = ContextBatch.from_contexts(contexts, V)
    np.testing.assert_array_equal(evaluate_batch(concepts, batch), reference(concepts, contexts))


@pytest.mark.parametrize("seed", range(4))
def test_random_concepts_match_evaluate_cell_for_cell(seed):
    rng = random.Random(seed)
    contexts = [random_context(rng) for _ in range(150)]
    concepts = [random_concept(rng, rng.randint(1, 9)) for _ in range(300)]
    batch = ContextBatch.from_contexts(contexts, V)
    np.testing.assert_array_equal(evaluate_batch(concepts, batch), reference(concepts, contexts))


def test_sharing_across_concepts_does_not_leak_between_depths():
    # The same subterm under different binder counts refers to different
    # objects; the memo must keep them apart.
    rng = random.Random(9)
    contexts = [random_context(rng) for _ in range(200)]
    inner = FeatureIs("color", 0, 0)
    concepts = [
        inner,
        Quant("exists", "others", inner),
        Quant("forall", "all", Quant("exists", "others", inner)),
    ]
    batch = ContextBatch.from_contexts(contexts, V)
    np.testing.assert_array_equal(evaluate_batch(concepts, batch), reference(concepts, contexts))


def test_unbound_variable_raises():
    batch = ContextBatch.from_contexts([random_context(random.Random(0))], V)
    with pytest.raises(UnboundVariableError):
        evaluate_batch([Quant("exists", "all", MajorityColor(2))], batch)


def test_a_templates_holes_are_its_fills_left_to_right():
    """A template numbered with its holes' fills is the concept it derives,
    with no new node; a hole with no fill left raises DslError, and so does
    a bare hole, which no kernel can evaluate."""
    plan = _Plan()
    concept = parse_concept("(and (is-color blue) (exists others (is-shape circle 0)))", V)
    expected = plan.number(concept, 0)
    nodes = len(plan.heights[0]), len(plan.heights[1])
    blue, circle = plan.number(FeatureIs("color", 0), 0), plan.number(FeatureIs("shape", 0), 1)
    template = parse_template("(and S (exists others Q))", V)
    assert plan.number(template, 0, iter([blue, circle])) == expected
    assert (len(plan.heights[0]), len(plan.heights[1])) == nodes
    with pytest.raises(DslError, match="'Q' has no fill"):
        plan.number(template, 0, iter([blue]))
    batch = ContextBatch.from_contexts([random_context(random.Random(0))], V)
    with pytest.raises(DslError):
        evaluate_batch([Hole("S")], batch)


def test_feature_dtype_follows_vocab_size():
    assert feature_dtype(V) == np.uint8
    wide = FeatureVocab(colors=tuple(f"c{i}" for i in range(300)))
    assert feature_dtype(wide) == np.uint16
    ctx = random_context(random.Random(1), wide)
    assert ContextBatch.from_contexts([ctx], wide).features.dtype == np.uint16


def test_eval_matrix_matches_per_cell_loop():
    concept = parse_concept("(exists others (same-shape 0 1))", V)
    exemplar_list = generate_list(concept, V, seed=3, rule_id="same-shape")
    hypotheses = enumerate_hypotheses(default_grammar(V), 3)
    matrix = build_eval_matrix(hypotheses, exemplar_list)
    contexts = [ctx for _s, _o, ctx, _label in exemplar_list.iter_items()]
    expected = reference([c for c, _lp in hypotheses], contexts)
    assert matrix.classes.dtype == bool
    assert len({row.tobytes() for row in matrix.classes}) == len(matrix.classes)
    np.testing.assert_array_equal(matrix.classes[matrix.inverse], expected)


def test_shared_table_matches_each_list_evaluated_alone(monkeypatch):
    """One evaluate_packed call over the distinct contexts of every list;
    each list's matrix is bitwise its own evaluate_batch matrix, and
    sampled cells agree with evaluate."""
    hypotheses = enumerate_hypotheses(default_grammar(V), 3)
    concepts = [c for c, _lp in hypotheses]
    same_shape = parse_concept("(exists others (same-shape 0 1))", V)
    blue = parse_concept("(is-color blue)", V)
    lists = [
        generate_list(same_shape, V, seed=3, rule_id="same-shape"),
        # The same seed draws the same objects: every context is shared.
        generate_list(blue, V, seed=3, rule_id="blue-on-the-same-objects"),
        generate_list(blue, V, seed=4, rule_id="blue"),
    ]
    lists.append(lists[0])  # one list passed twice
    per_list = [[ctx for _s, _o, ctx, _label in lst.iter_items()] for lst in lists]
    distinct = {ctx for contexts in per_list for ctx in contexts}
    assert len(distinct) == len(per_list[0]) + len(per_list[2]) < sum(map(len, per_list))

    batches = []
    real = inference.evaluate_packed

    def counted(concepts, batch):
        batches.append(len(batch))
        return real(concepts, batch)

    monkeypatch.setattr(inference, "evaluate_packed", counted)
    matrices = list(build_eval_matrices(hypotheses, lists))
    assert batches == [len(distinct)]

    rng = random.Random(7)
    for exemplar_list, contexts, matrix in zip(lists, per_list, matrices, strict=True):
        alone = evaluate_batch(concepts, ContextBatch.from_contexts(contexts, V))
        assert matrix.classes.dtype == bool and matrix.classes.flags.c_contiguous
        np.testing.assert_array_equal(matrix.classes[matrix.inverse], alone)
        np.testing.assert_array_equal(
            matrix.gold, [label for _s, _o, _ctx, label in exemplar_list.iter_items()]
        )
        assert matrix.offsets == np.cumsum([0] + [len(s.labels) for s in exemplar_list.sets]).tolist()
        np.testing.assert_array_equal(matrix.log_priors, [lp for _c, lp in hypotheses])
        for _ in range(300):
            i, j = rng.randrange(len(concepts)), rng.randrange(len(contexts))
            assert matrix.classes[matrix.inverse[i], j] == evaluate(concepts[i], contexts[j])


def test_shared_table_needs_one_vocab():
    hypotheses = enumerate_hypotheses(default_grammar(V), 1)
    assert list(build_eval_matrices(hypotheses, [])) == []
    other = FeatureVocab(colors=("green", "blue", "yellow"))
    lists = [
        generate_list(parse_concept("(is-color blue)", V), V, seed=1),
        generate_list(parse_concept("(is-color blue)", other), other, seed=1),
    ]
    with pytest.raises(ValueError, match="vocab"):
        build_eval_matrices(hypotheses, lists)


def test_canonical_chunks_are_enumerate_contexts_in_order(monkeypatch):
    """Joined, the chunks of set sizes 1..4 are the packed enumeration field
    by field, at the default chunk size, at 97 contexts and at 1, which is
    below the 27-object universe: a chunk then holds every target of one
    multiset of the other objects."""
    walked = ContextBatch.from_contexts(list(enumerate_contexts(V, 4)), V)
    for chunk_contexts in (equivalence._CHUNK_CONTEXTS, 97, 1):
        monkeypatch.setattr(equivalence, "_CHUNK_CONTEXTS", chunk_contexts)
        chunks = [chunk for set_size in (1, 2, 3, 4) for chunk in canonical_chunks(V, set_size)]
        assert sum(len(chunk) for chunk in chunks) == count_contexts(V, 4)
        assert max(len(chunk) for chunk in chunks) <= max(chunk_contexts, 27)
        for name in ("features", "present", "target", "others", "color_counts"):
            joined = np.concatenate([getattr(chunk, name) for chunk in chunks])
            assert joined.dtype == getattr(walked, name).dtype, name
            np.testing.assert_array_equal(joined, getattr(walked, name), err_msg=name)
    assert len(chunks) == count_contexts(V, 4) // 27
    assert not chunks[-1].present.flags.writeable
    for set_size in (0, 6):
        with pytest.raises(DslError):
            next(canonical_chunks(V, set_size))


def walk_equivalent(a, b, contexts):
    return all(evaluate(a, ctx) == evaluate(b, ctx) for ctx in contexts)


def equal_pairs(rng, count):
    """Structurally different but truth-functionally equal pairs."""
    pairs = []
    for _ in range(count):
        x = random_concept(rng, 4)
        y = random_concept(rng, 4)
        pairs.append(rng.choice([
            (x, Not(Not(x))),
            (And(x, y), And(y, x)),
            (Not(Or(x, y)), And(Not(x), Not(y))),
            (Implies(x, y), Or(Not(x), y)),
            (Iff(x, y), Iff(y, x)),
            (Quant("forall", "others", x), Not(Quant("exists", "others", Not(x)))),
        ]))
    return pairs


def test_equivalent_agrees_with_reference_walk():
    rng = random.Random(11)
    contexts = list(enumerate_contexts(V, 3))
    unequal = [(random_concept(rng, 5), random_concept(rng, 5)) for _ in range(15)]
    for a, b in equal_pairs(rng, 15) + unequal:
        assert equivalent(a, b, V, max_set_size=3) == walk_equivalent(a, b, contexts)


def test_equivalent_across_many_chunks(monkeypatch):
    # Small chunks put the differences of most pairs past the first chunk.
    monkeypatch.setattr(equivalence, "_CHUNK_CONTEXTS", 97)
    rng = random.Random(12)
    contexts = list(enumerate_contexts(V, 3))
    unequal = [(random_concept(rng, 6), random_concept(rng, 6)) for _ in range(10)]
    # Differ only on sets of three: "exactly one other is my twin" is "some
    # other is" until a third object can be one too.  They read all three
    # dimensions, so the chunked walk, not ``evaluate``, finds it.
    twin = "others (and (same-size 0 1) (and (same-color 0 1) (same-shape 0 1)))"
    late = (
        parse_concept(f"(exists {twin})", V),
        parse_concept(f"(exactly-one {twin})", V),
    )
    for a, b in equal_pairs(rng, 10) + unequal + [late]:
        assert equivalent(a, b, V, max_set_size=3) == walk_equivalent(a, b, contexts)
    assert not equivalent(*late, V, max_set_size=3)
    assert equivalent(*late, V, max_set_size=2)
