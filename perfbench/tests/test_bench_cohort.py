"""The synthetic cohort's planted subjects are exactly the filtered ones."""

import pytest

from rulelab.catalog import DEFAULT_VOCAB, DEMO_RULES
from rulelab.dsl import parse_concept
from rulelab.exemplars import filter_subjects, human_proportions, generate_list

from cohort import build_cohort
from workloads import DRY_RUN_RULES


def _lists(seed):
    return [
        generate_list(parse_concept(rule.source, DEFAULT_VOCAB), DEFAULT_VOCAB, seed=seed + i,
                      rule_id=rule.rule_id)
        for i, rule in enumerate(DEMO_RULES) if rule.rule_id in DRY_RUN_RULES
    ]


@pytest.mark.parametrize("seed", [2024, 1, 2, 3])
def test_planted_subjects_are_exactly_the_excluded(seed):
    lists = _lists(seed)
    cohort = build_cohort(lists, substance_seed=seed, label_seed=seed + 100)
    for exemplar_list in lists:
        records = [r for r in cohort.records if r.rule_id == exemplar_list.rule_id]
        _kept, report = filter_subjects(records, exemplar_list)
        excluded = {e.subject_id for e in report.exclusions}
        assert excluded == cohort.planted[exemplar_list.rule_id]
        assert {e.reason for e in report.exclusions} == {"min-sets", "outlier"}


def test_label_seed_changes_names_not_responses():
    lists = _lists(2024)
    a = build_cohort(lists, substance_seed=7, label_seed=1)
    b = build_cohort(lists, substance_seed=7, label_seed=2)
    assert {r.subject_id for r in a.records} != {r.subject_id for r in b.records}
    for exemplar_list in lists:
        tables = [
            human_proportions(
                filter_subjects([r for r in c.records if r.rule_id == exemplar_list.rule_id],
                                exemplar_list)[0],
                exemplar_list,
            )
            for c in (a, b)
        ]
        assert tables[0].n_true == tables[1].n_true and tables[0].n_total == tables[1].n_total
