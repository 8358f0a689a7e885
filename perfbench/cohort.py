"""Seeded synthetic human cohort with planted subjects.

Each rule gets a pool of simulated participants:

* noisy labellers, who complete every set and give the gold label except
  for an exact number of errors, placed mostly in early sets so that the
  cohort shows a learning curve;
* planted early quitters, who stop before ``MIN_SETS`` sets;
* planted accuracy outliers, who guess at chance over the whole list.

Noisy labellers' accuracies lie in a narrow band (0.82 to 0.90) and the
outliers sit near 0.5, so the two-stage subject filter excludes exactly
the planted subjects.  ``Cohort.planted`` lists them, and the
benchmark's tests hold the filter to that.

The cohort's substance (who answers what) is fixed by ``substance_seed``.
``label_seed`` only renames subjects and shuffles their order, which must
not change any result computed from the cohort.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from rulelab.exemplars import MIN_SETS, ExemplarList, SubjectRecord

NOISY_PER_RULE = 12
QUITTERS_PER_RULE = 2
OUTLIERS_PER_RULE = 1
NOISY_ERROR_RANGE = (0.10, 0.18)
LEARNING_SCALE_SETS = 8.0


@dataclass(frozen=True)
class Cohort:
    records: list[SubjectRecord]
    planted: dict[str, set[str]]  # rule_id -> subject ids the filter must drop


def _weighted_sample(rng: random.Random, weights: list[float], k: int) -> list[int]:
    """k distinct indices, drawn with probability proportional to weight
    (Efraimidis-Spirakis keys)."""
    keyed = sorted(range(len(weights)), key=lambda i: -(rng.random() ** (1.0 / weights[i])))
    return keyed[:k]


def _flipped_responses(
    exemplar_list: ExemplarList, error_rate: float, rng: random.Random, n_sets: int
) -> dict[tuple[int, int], bool]:
    items = [
        (set_index, object_index, label)
        for set_index, object_index, _ctx, label in exemplar_list.iter_items()
        if set_index < n_sets
    ]
    weights = [math.exp(-set_index / LEARNING_SCALE_SETS) for set_index, _o, _l in items]
    flips = set(_weighted_sample(rng, weights, round(error_rate * len(items))))
    return {
        (set_index, object_index): label != (i in flips)
        for i, (set_index, object_index, label) in enumerate(items)
    }


def rule_cohort(exemplar_list: ExemplarList, seed: int) -> tuple[list[SubjectRecord], set[str]]:
    """Subjects for one rule, with the ids of the planted ones."""
    rng = random.Random(f"{seed}:{exemplar_list.rule_id}")
    n_sets = len(exemplar_list.sets)
    records = []
    planted = set()

    def add(kind: str, responses: dict[tuple[int, int], bool], is_planted: bool) -> None:
        subject_id = f"{exemplar_list.rule_id}-{kind}{len(records):02d}"
        sets_completed = len({set_index for set_index, _ in responses})
        records.append(SubjectRecord(subject_id, exemplar_list.rule_id, responses, sets_completed))
        if is_planted:
            planted.add(subject_id)

    for _ in range(NOISY_PER_RULE):
        error_rate = rng.uniform(*NOISY_ERROR_RANGE)
        add("noisy", _flipped_responses(exemplar_list, error_rate, rng, n_sets), False)
    for _ in range(QUITTERS_PER_RULE):
        quit_after = rng.randint(1, MIN_SETS - 1)
        add("quit", _flipped_responses(exemplar_list, 0.2, rng, quit_after), True)
    for _ in range(OUTLIERS_PER_RULE):
        add("guess", _flipped_responses(exemplar_list, 0.5, rng, n_sets), True)
    return records, planted


def build_cohort(lists: list[ExemplarList], substance_seed: int, label_seed: int) -> Cohort:
    """The whole cohort over ``lists``, renamed and shuffled by ``label_seed``."""
    records: list[SubjectRecord] = []
    planted: dict[str, set[str]] = {}
    for exemplar_list in lists:
        rule_records, rule_planted = rule_cohort(exemplar_list, substance_seed)
        records += rule_records
        planted[exemplar_list.rule_id] = rule_planted

    relabel = random.Random(label_seed)
    names = relabel.sample(range(10**6, 10**7), len(records))
    renamed = {record.subject_id: f"s{name}" for record, name in zip(records, names)}
    records = [
        SubjectRecord(renamed[r.subject_id], r.rule_id, r.responses, r.sets_completed)
        for r in records
    ]
    relabel.shuffle(records)
    planted = {rule_id: {renamed[s] for s in ids} for rule_id, ids in planted.items()}
    return Cohort(records=records, planted=planted)
