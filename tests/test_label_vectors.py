"""The label-vector metrics against the per-record walk of ``metrics_reference``.

Seeded lists of 1 to 30 sets; model label vectors over the first 1..n whole
sets, with None labels; seeded subjects who skip objects.  Every score must
equal the reference's exactly.
"""

import random

import pytest

import metrics_reference as reference
from conftest import seeded_subjects
from rulelab.catalog import DEFAULT_VOCAB as V
from rulelab.catalog import DEMO_RULES
from rulelab.dsl import parse_concept, print_concept
from rulelab.exemplars import generate_list
from rulelab.metrics import (
    AccuracySummary,
    grade_session,
    set_trajectory,
    summarize_series,
    summarize_subjects,
    window_scores,
)

SEEDS = range(8)


def seeded_lists(rng: random.Random, n_rules: int):
    return {
        rule.rule_id: generate_list(parse_concept(rule.source, V), V, seed=rng.randrange(1000),
                                    n_sets=rng.randint(1, 30), rule_id=rule.rule_id)
        for rule in rng.sample(DEMO_RULES, n_rules)
    }


def model_labels(exemplar_list, rng: random.Random) -> tuple:
    """Labels over the list's first 1..n whole sets: mostly the gold label,
    else its flip or None, and now and then None throughout."""
    n_labels = exemplar_list.offsets[rng.randint(1, len(exemplar_list.sets))]
    if rng.random() < 0.1:
        return (None,) * n_labels
    return tuple(
        gold if rng.random() < 0.6 else rng.choice((not gold, None))
        for gold in exemplar_list.gold[:n_labels]
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_window_scores_and_summaries_are_the_record_walk(seed):
    rng = random.Random(seed)
    lists = seeded_lists(rng, 3)
    kinds = {rule.rule_id: rule.kind for rule in DEMO_RULES}
    gold = {rule_id: exemplar_list.gold for rule_id, exemplar_list in lists.items()}
    labels_by_rule = {rule_id: model_labels(l, rng) for rule_id, l in lists.items()}
    one_each = {}
    for rule_id, exemplar_list in lists.items():
        labels = labels_by_rule[rule_id]
        one_each[rule_id] = reference.window_scores([reference.series_of(labels, exemplar_list)])
        assert window_scores([labels], gold[rule_id]) == one_each[rule_id]
        answers = [r.answers(exemplar_list) for r in seeded_subjects(exemplar_list, rng, 5)]
        assert window_scores(answers, gold[rule_id]) == reference.window_scores(
            [reference.series_of(a, exemplar_list) for a in answers]
        )
    assert summarize_series("m", labels_by_rule, gold, kinds) == AccuracySummary(
        "m", summarize_subjects("m", one_each, kinds).cells, sds={}
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_set_trajectory_is_the_record_walk(seed):
    rng = random.Random(seed)
    for exemplar_list in seeded_lists(rng, 3).values():
        models = [model_labels(exemplar_list, rng) for _ in range(rng.randint(1, 4))]
        answers = [r.answers(exemplar_list) for r in seeded_subjects(exemplar_list, rng, 5)]
        for vectors in (models, answers, models + answers):
            series = [reference.series_of(labels, exemplar_list) for labels in vectors]
            assert set_trajectory(vectors, exemplar_list, "c") == reference.set_trajectory(
                series, "c"
            )


@pytest.mark.parametrize("seed", SEEDS)
def test_grade_session_is_the_record_walk(seed):
    rng = random.Random(seed)
    for exemplar_list in seeded_lists(rng, 3).values():
        pool = [rule.source for rule in rng.sample(DEMO_RULES, 4)]
        pool += [print_concept(exemplar_list.concept, V), None, "(is-color mauve)"]
        n_sources = len(exemplar_list.sets) + rng.choice((-3, 0, 2))
        sources = [rng.choice(pool) for _ in range(n_sources)]
        for labels in ((), model_labels(exemplar_list, rng)):
            assert grade_session(exemplar_list, sources, V, labels) == reference.per_set_grade(
                exemplar_list, sources, V, reference.series_of(labels, exemplar_list)
            )
