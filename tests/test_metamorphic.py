"""Metamorphic relations: transform a list in a way the learner must not
care about, and check that its outputs transform to match.

Within-set object order: every concept is invariant to the order of a set's
objects (quantifiers range over the set, majority and minority color count
it), so shuffling each set's objects, with their labels, permutes each
object's P(True) and label with it.  The running sums add the objects'
log factors in a new order, so P(True) moves within 1e-12, not bitwise, and
a label may flip only where P(True) is within 1e-12 of 0.5.  The MAP is not
checked: rows tied in exact arithmetic can round apart differently under the
new order, and the MAP then moves with them.
"""

import dataclasses
import random

import pytest

from conftest import dry_run_lists
from rulelab.catalog import DEFAULT_VOCAB as V
from rulelab.exemplars import ExemplarList, ExemplarSet
from rulelab.learner import (
    NoiseParams,
    build_eval_matrices,
    default_grammar,
    enumerate_hypotheses,
    run_enumerative,
)


def shuffled_within_sets(
    exemplar_list: ExemplarList, rng: random.Random
) -> tuple[ExemplarList, list[int]]:
    """``exemplar_list`` with each set's objects shuffled by ``rng``, with
    their labels, and each new layout position's old one."""
    sets, source = [], []
    for start, exemplar_set in zip(exemplar_list.offsets, exemplar_list.sets):
        order = list(range(len(exemplar_set.objects)))
        rng.shuffle(order)
        sets.append(ExemplarSet(tuple(exemplar_set.objects[i] for i in order),
                                tuple(exemplar_set.labels[i] for i in order)))
        source += [start + i for i in order]
    return dataclasses.replace(exemplar_list, sets=tuple(sets)), source


@pytest.fixture(scope="module")
def hypotheses():
    return enumerate_hypotheses(default_grammar(V), 3)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_p_true_and_labels_permute_with_the_objects_within_each_set(hypotheses, seed):
    """On the 12 dry-run lists at max_size 3, shuffled with one seeded
    generator in rule-id order.  Seeds 3, 4 and 5 move the MAP of
    ``same-shape-as-a-yellow`` at sets 6 and 7 (and 8, for seed 3)."""
    rng = random.Random(seed)
    lists = sorted(dry_run_lists(), key=lambda exemplar_list: exemplar_list.rule_id)
    shuffled, sources = zip(*(shuffled_within_sets(x, rng) for x in lists))
    assert any(source != sorted(source) for source in sources)
    noise = NoiseParams(0.95, 0.5)
    matrices = build_eval_matrices(hypotheses, [*lists, *shuffled])
    runs = [run_enumerative(x, hypotheses, next(matrices), noise) for x in [*lists, *shuffled]]
    for exemplar_list, moved_list, source, original, moved in zip(
        lists, shuffled, sources, runs, runs[len(lists):]
    ):
        assert moved_list.gold == tuple(exemplar_list.gold[j] for j in source)
        for i, j in enumerate(source):
            assert abs(moved.p_true[i] - original.p_true[j]) <= 1e-12
            if abs(original.p_true[j] - 0.5) >= 1e-12:
                assert moved.labels[i] == original.labels[j]
