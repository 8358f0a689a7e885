"""Evaluation semantics, size/depth, and vocabulary invariants."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import rulelab

from rulelab.catalog import DEFAULT_VOCAB as V
from rulelab.dsl import (
    And,
    Context,
    DslError,
    FeatureIs,
    FeatureVocab,
    Iff,
    Implies,
    MajorityColor,
    MinorityColor,
    Not,
    Obj,
    Or,
    Quant,
    Rel,
    Xor,
    depth,
    evaluate,
    is_target_only,
    parse_concept,
    parts,
    rebuild,
    size,
)
from rulelab.dsl.core import Hole


def obj(text: str) -> Obj:
    size_name, color_name, shape_name = text.split()
    return Obj(V.index("size", size_name), V.index("color", color_name), V.index("shape", shape_name))


def test_vocab_rejects_empty_dimension():
    with pytest.raises(DslError):
        FeatureVocab(sizes=())


def test_vocab_rejects_duplicates():
    with pytest.raises(DslError):
        FeatureVocab(colors=("blue", "blue", "green"))


def test_context_bounds():
    with pytest.raises(DslError):
        Context((), 0)
    with pytest.raises(DslError):
        Context(tuple(obj("small blue circle") for _ in range(6)), 0)
    with pytest.raises(DslError):
        Context((obj("small blue circle"),), 1)


def test_not_circle_on_triangle():
    concept = parse_concept("(not (is-shape circle))", V)
    ctx = Context((obj("medium blue triangle"),), 0)
    assert evaluate(concept, ctx) is True


def test_implication_with_false_antecedent():
    concept = parse_concept("(implies (is-shape circle) (is-color blue))", V)
    ctx = Context((obj("medium green rectangle"),), 0)
    assert evaluate(concept, ctx) is True


def test_unique_blue_object_hand_enumeration():
    # "the unique blue object": target is blue and no other object is blue.
    # Set: small blue circle (target), large blue rectangle, medium green circle.
    concept = parse_concept("(and (is-color blue) (not (exists others (is-color blue 0))))", V)
    objects = (obj("small blue circle"), obj("large blue rectangle"), obj("medium green circle"))
    assert evaluate(concept, Context(objects, 0)) is False  # another blue exists
    # The same reading via a whole-set uniqueness count agrees.
    counted = parse_concept("(and (is-color blue) (exactly-one all (is-color blue 0)))", V)
    assert evaluate(counted, Context(objects, 0)) is False
    # Dropping the second blue flips both encodings to True.
    smaller = (obj("small blue circle"), obj("medium green circle"))
    assert evaluate(concept, Context(smaller, 0)) is True
    assert evaluate(counted, Context(smaller, 0)) is True


def test_quantifier_scopes_differ_on_target():
    others = parse_concept("(exists others (is-color blue 0))", V)
    everyone = parse_concept("(exists all (is-color blue 0))", V)
    objects = (obj("small blue circle"), obj("medium green circle"))
    assert evaluate(others, Context(objects, 0)) is False
    assert evaluate(everyone, Context(objects, 0)) is True


def test_superlative_via_forall_size_ge():
    largest = parse_concept("(forall others (size-ge 1 0))", V)
    objects = (obj("large blue circle"), obj("large green circle"), obj("small blue circle"))
    assert evaluate(largest, Context(objects, 0)) is True  # ties admitted
    assert evaluate(largest, Context(objects, 2)) is False


def test_majority_minority_strictness():
    majority = parse_concept("(majority-color)", V)
    minority = parse_concept("(minority-color)", V)
    # Two blues vs one green: blue is the majority, green the minority.
    objects = (obj("small blue circle"), obj("large blue circle"), obj("small green circle"))
    assert evaluate(majority, Context(objects, 0)) is True
    assert evaluate(minority, Context(objects, 0)) is False
    assert evaluate(majority, Context(objects, 2)) is False
    assert evaluate(minority, Context(objects, 2)) is True
    # On a 2-2 color tie both are strict and thus False everywhere.
    tied = (
        obj("small blue circle"),
        obj("large blue circle"),
        obj("small green circle"),
        obj("large green circle"),
    )
    for target in range(4):
        assert evaluate(majority, Context(tied, target)) is False
        assert evaluate(minority, Context(tied, target)) is False


def test_exactly_one_counts():
    concept = parse_concept("(exactly-one all (is-shape triangle 0))", V)
    one = (obj("small blue triangle"), obj("small blue circle"))
    two = (obj("small blue triangle"), obj("large green triangle"))
    assert evaluate(concept, Context(one, 1)) is True
    assert evaluate(concept, Context(two, 0)) is False


def test_size_and_depth():
    leaf = FeatureIs("color", 0)
    assert size(leaf) == 1 and depth(leaf) == 1
    negated = Not(leaf)
    assert size(negated) == 2 and depth(negated) == 2
    tree = And(leaf, Or(leaf, leaf))
    assert size(tree) == 5 and depth(tree) == 3


def test_size_at_least_depth():
    import random

    from conftest import random_concept

    rng = random.Random(4)
    for _ in range(200):
        concept = random_concept(rng, budget=9)
        assert size(concept) >= depth(concept)


@pytest.mark.parametrize("concept", [
    FeatureIs("color", 0), MajorityColor(1), MinorityColor(), Rel("size-gt", 0, 1),
    Hole("S"), Not(FeatureIs("shape", 2)), Quant("exactly-one", "all", Rel("same-color", 0, 1)),
    *(kind(FeatureIs("color", 0), MajorityColor()) for kind in (And, Or, Xor, Implies, Iff)),
], ids=lambda concept: type(concept).__name__)
def test_rebuild_over_a_nodes_own_parts_is_the_node(concept):
    rebuilt = rebuild(concept, parts(concept)[0])
    assert rebuilt == concept and type(rebuilt) is type(concept)


def test_rebuild_puts_new_sub_concepts_under_the_same_head():
    blue, circle = FeatureIs("color", 0), FeatureIs("shape", 0)
    assert rebuild(Quant("forall", "others", blue), [circle]) == Quant("forall", "others", circle)
    assert rebuild(Implies(blue, circle), [circle, blue]) == Implies(circle, blue)


def test_eval_is_pure():
    import random

    from conftest import random_concept, random_context

    rng = random.Random(11)
    for _ in range(50):
        concept = random_concept(rng, budget=7)
        ctx = random_context(rng)
        assert evaluate(concept, ctx) == evaluate(concept, ctx)


def test_is_target_only():
    assert is_target_only(parse_concept("(and (is-color blue) (not (is-shape circle)))", V))
    assert not is_target_only(parse_concept("(exists others (is-color blue 0))", V))
    assert not is_target_only(parse_concept("(majority-color)", V))
    # Outside any quantifier both variables of a relation are the target.
    assert is_target_only(parse_concept("(same-color 0 0)", V))


# Concepts of every composite kind, each built twice from text.
HASHED = [
    "(not (is-color blue))",
    "(and (is-color blue) (or (is-shape circle) (xor (is-size small) (majority-color))))",
    "(implies (is-color green) (iff (is-shape triangle) (minority-color)))",
    "(exists others (same-color 0 1))",
    "(forall all (implies (is-color blue 0) (size-ge 1 0)))",
    "(exactly-one all (and (is-color blue 0) (not (same-shape 0 1))))",
]


@pytest.mark.parametrize("text", HASHED)
def test_equal_concepts_built_apart_hash_equal(text):
    a, b = parse_concept(text, V), parse_concept(text, V)
    assert a is not b and a == b
    hash(a)  # keep a's hash; b computes its own
    assert hash(a) == hash(b)
    assert {a: 1}[b] == 1
    # The kept hash is the hash of the node's kind and fields.
    fields = tuple(getattr(a, name) for name in a.__match_args__)
    assert hash(a) == hash((type(a).__name__, *fields))


def test_hashes_tell_node_kinds_apart():
    from rulelab.learner import default_grammar, enumerate_hypotheses

    concepts = [concept for concept, _log_prior in enumerate_hypotheses(default_grammar(V), 4)]
    assert len(concepts) == 9_568
    assert len({hash(concept) for concept in concepts}) == 9_568
    left, right = parse_concept("(is-color blue)", V), parse_concept("(is-shape circle)", V)
    binary = [node(left, right) for node in (And, Or, Xor, Implies, Iff)]
    assert len({hash(concept) for concept in binary}) == 5
    assert hash(MajorityColor(0)) != hash(MinorityColor(0))


def test_pickled_concept_rehashes_under_another_hash_seed(tmp_path):
    """A kept hash is valid only in the process that computed it."""
    concepts = [parse_concept(text, V) for text in HASHED]
    for concept in concepts:
        hash(concept)
    (tmp_path / "concepts.pickle").write_bytes(pickle.dumps(concepts))
    script = (
        "import pickle, sys\n"
        "from rulelab.catalog import DEFAULT_VOCAB as V\n"
        "from rulelab.dsl import parse_concept\n"
        f"texts = {HASHED!r}\n"
        "loaded = pickle.loads(open(sys.argv[1], 'rb').read())\n"
        "built = {parse_concept(t, V): t for t in texts}\n"
        "assert [built[c] for c in loaded] == texts\n"
        "assert all(c in set(built) for c in loaded)\n"
        "print(hash(loaded[0].body.dim))\n"
    )
    src = str(Path(rulelab.__file__).resolve().parents[1])
    seen = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "concepts.pickle")],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        seen.add(result.stdout)
    assert len(seen) == 2  # the two processes really hash strings differently
