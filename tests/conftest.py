"""Shared fixtures and random generators for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from rulelab.catalog import DEFAULT_VOCAB, DEMO_RULES
from rulelab.dsl import (
    And,
    Concept,
    Context,
    DIMENSIONS,
    FeatureIs,
    Iff,
    Implies,
    MajorityColor,
    MinorityColor,
    Not,
    Obj,
    Or,
    Quant,
    Rel,
    REL_KINDS,
    Xor,
    parse_concept,
)
from rulelab.exemplars import ExemplarList, SubjectRecord, generate_list

_BINARY_NODES = (And, Or, Xor, Implies, Iff)

# The lab's 12 dry-run rules.  Most have a gold rule within max_size 3;
# same-shape-as-a-yellow's has size 4 and unique-blue's size 5.
DRY_RUN_RULES = (
    "blue", "not-circle", "circle-implies-blue", "circle-or-blue", "small-and-blue",
    "circle-xor-blue", "same-shape-as-a-yellow", "unique-blue", "exists-triangle",
    "one-of-the-largest", "same-color-as-another", "majority-color",
)
# The four FOL rules of the max_size 4 benchmark workload.
SIZE4_RULES = ("circle-xor-blue", "same-shape-as-a-yellow", "exists-triangle", "unique-blue")


def dry_run_lists() -> list[ExemplarList]:
    """The dry-run rules' lists, in catalog order, seeded 2024 onward."""
    rules = [rule for rule in DEMO_RULES if rule.rule_id in DRY_RUN_RULES]
    return [
        generate_list(parse_concept(rule.source, DEFAULT_VOCAB), DEFAULT_VOCAB,
                      seed=2024 + i, rule_id=rule.rule_id)
        for i, rule in enumerate(rules)
    ]


@pytest.fixture(scope="session")
def vocab():
    return DEFAULT_VOCAB


def random_object(rng: random.Random, vocab=DEFAULT_VOCAB) -> Obj:
    return Obj(
        rng.randrange(len(vocab.sizes)),
        rng.randrange(len(vocab.colors)),
        rng.randrange(len(vocab.shapes)),
    )


def random_context(rng: random.Random, vocab=DEFAULT_VOCAB) -> Context:
    count = rng.randint(1, 5)
    objects = tuple(random_object(rng, vocab) for _ in range(count))
    return Context(objects, rng.randrange(count))


def random_concept(
    rng: random.Random, budget: int, binders: int = 0, vocab=DEFAULT_VOCAB
) -> Concept:
    """A random well-formed concept with node count <= ``budget``."""
    assert budget >= 1
    choices = ["leaf"]
    if budget >= 2:
        choices += ["not", "quant"]
    if budget >= 3:
        choices += ["binary"]
    kind = rng.choice(choices)
    if kind == "leaf":
        leaf_kinds = ["feature", "feature", "majority", "minority"]
        if binders >= 1:
            leaf_kinds += ["rel", "rel"]
        leaf = rng.choice(leaf_kinds)
        if leaf == "feature":
            dim = rng.choice(DIMENSIONS)
            return FeatureIs(dim, rng.randrange(len(vocab.values(dim))), rng.randint(0, binders))
        if leaf == "majority":
            return MajorityColor(rng.randint(0, binders))
        if leaf == "minority":
            return MinorityColor(rng.randint(0, binders))
        return Rel(rng.choice(REL_KINDS), rng.randint(0, binders), rng.randint(0, binders))
    if kind == "not":
        return Not(random_concept(rng, budget - 1, binders, vocab))
    if kind == "quant":
        return Quant(
            rng.choice(("exists", "forall", "exactly-one")),
            rng.choice(("others", "all")),
            random_concept(rng, budget - 1, binders + 1, vocab),
        )
    left_budget = rng.randint(1, budget - 2)
    left = random_concept(rng, left_budget, binders, vocab)
    right = random_concept(rng, budget - 1 - left_budget, binders, vocab)
    return rng.choice(_BINARY_NODES)(left, right)


def concept_strategy(max_budget: int = 7, binders: int = 0) -> st.SearchStrategy[Concept]:
    return st.builds(
        lambda seed, budget: random_concept(random.Random(seed), budget, binders),
        st.integers(0, 2**32 - 1),
        st.integers(1, max_budget),
    )


def context_strategy() -> st.SearchStrategy[Context]:
    return st.builds(lambda seed: random_context(random.Random(seed)), st.integers(0, 2**32 - 1))


def seeded_subjects(gold: ExemplarList, rng: random.Random, n: int) -> list[SubjectRecord]:
    """Subjects who skip some objects, answer objects past the end of a
    set, and answer sets past the end of the list."""
    records = []
    for i in range(n):
        responses = {}
        for s, o, _ctx, label in gold.iter_items():
            if rng.random() < 0.7:
                responses[(s, o)] = label if rng.random() < 0.8 else not label
        for _ in range(rng.randint(0, 4)):
            s = rng.randrange(len(gold.sets) + 3)
            responses[(s, rng.randint(5, 7) if s < len(gold.sets) else rng.randrange(5))] = (
                rng.random() < 0.5
            )
        records.append(SubjectRecord(f"s{i}", gold.rule_id, responses, len(gold.sets)))
    return records
