"""Cohort comparison and trajectory aggregation."""

import itertools
import math
import random
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulelab.metrics import (
    LabelSeries,
    ObjectRecord,
    cohort_report,
    quantile,
    set_trajectory,
    subsample_baseline,
)


def test_interpolated_quantile_fixture():
    values = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    assert quantile(values, 25.0) == pytest.approx(0.325)
    assert quantile(values, 50.0) == pytest.approx(0.55)


def test_cohort_of_one_collapses():
    report = cohort_report({"r": [0.7]}, {"r": 0.9})
    row = report.rows[0]
    assert row.cohort_median == 0.7
    assert all(band == 0.7 for band in row.percentile_bands)
    assert row.delta == pytest.approx(0.2)


def test_rows_sorted_by_descending_delta():
    cohort = {"a": [0.5, 0.6, 0.7], "b": [0.5, 0.6, 0.7], "c": [0.5, 0.6, 0.7]}
    model = {"a": 0.4, "b": 0.9, "c": 0.65}
    report = cohort_report(cohort, model)
    assert [row.rule_id for row in report.rows] == ["b", "c", "a"]
    assert report.rows[-1].rule_id == "a"
    assert report.rows[0].delta > report.rows[-1].delta


def test_model_above_every_human_sorts_first():
    cohort = {"won": [0.1, 0.2, 0.3], "even": [0.5, 0.5, 0.5]}
    model = {"won": 0.9, "even": 0.5}
    report = cohort_report(cohort, model)
    assert report.rows[0].rule_id == "won"
    assert report.rows[0].delta > 0
    assert not any(report.rows[0].below_band)


def test_bottom_quartile_rate():
    cohort = {"a": [0.0, 0.5, 1.0], "b": [0.0, 0.5, 1.0]}
    report = cohort_report(cohort, {"a": 0.1, "b": 0.9})
    assert report.bottom_quartile_rate() == 0.5


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@settings(max_examples=400, deadline=None)
@given(
    values=st.one_of(
        # Ties: a few distinct values, drawn repeatedly.
        st.lists(st.sampled_from([-1.5, -0.25, 0.0, 0.1, 0.3, 1 / 3, 0.7, 2.0]), min_size=1),
        st.lists(st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=True), min_size=1),
    ),
    q=st.one_of(
        st.sampled_from([0, 1, 10, 20, 25, 50, 100, 0.0, 25.0, 50.0, 100.0]),
        st.floats(0.0, 100.0),
    ),
)
def test_quantile_is_bitwise_numpy_percentile(values, q):
    """A single value, ties, negatives, the report's percentiles and any q
    in [0, 100].  Zeros compare by value: numpy's partition leaves equal
    values in no set order, so which of 0.0 and -0.0 it returns is its own."""
    expected = float(np.percentile(np.asarray(values, dtype=float), q))
    result = quantile(values, q)
    assert _bits(result) == _bits(expected) or result == expected == 0.0


def test_quantile_rejects_a_percentile_outside_0_100():
    for q in (-1e-9, 100.5):
        with pytest.raises(ValueError):
            quantile([0.1, 0.2], q)


def exhaustive_baseline(cohort_scores):
    """Mean and SD of the bottom-quartile rate over every one-member-per-rule
    draw, each equally likely, in exact arithmetic."""
    rule_ids = sorted(cohort_scores)
    flags = []
    for r in rule_ids:
        band = float(np.percentile(np.asarray(cohort_scores[r], dtype=float), 25.0))
        flags.append([score < band for score in cohort_scores[r]])
    rates = [Fraction(sum(draw), len(rule_ids)) for draw in itertools.product(*flags)]
    mean = sum(rates, Fraction(0)) / len(rates)
    variance = sum(((rate - mean) ** 2 for rate in rates), Fraction(0)) / len(rates)
    return mean, variance


def _random_cohort(seed):
    rng = random.Random(seed)
    return {
        f"r{i}": [rng.randint(0, 6) / 6 for _ in range(rng.randint(1, 6))]
        for i in range(rng.randint(1, 5))
    }


@pytest.mark.parametrize("cohort", [
    # Ties at the band: 0.5 is the 25th percentile and three members hold it.
    {"ties": [0.0, 0.5, 0.5, 0.5, 1.0]},
    {
        "ties": [0.0, 0.5, 0.5, 0.5, 1.0],
        "all-equal": [0.7, 0.7, 0.7],  # p_r = 0
        "one-member": [0.3],  # p_r = 0
        "spread": [0.1, 0.2, 0.4, 0.8],
        "low-ties": [0.0, 0.0, 1.0, 1.0],  # the band is the lowest score: p_r = 0
    },
    {"all-equal": [0.4] * 4, "one-member": [1.0]},
    *(_random_cohort(seed) for seed in range(6)),
], ids=["ties", "mixed", "all-zero", *(f"random-{seed}" for seed in range(6))])
def test_subsample_baseline_is_the_exhaustive_draw(cohort):
    mean, sd = subsample_baseline(cohort)
    expected_mean, expected_variance = exhaustive_baseline(cohort)
    assert abs(mean - float(expected_mean)) <= 1e-12
    assert abs(sd - math.sqrt(expected_variance)) <= 1e-12


def test_subsample_baseline_of_no_rules_raises():
    with pytest.raises(ValueError):
        subsample_baseline({})


def series(labels_by_set, gold=True) -> LabelSeries:
    records = []
    for set_index, labels in enumerate(labels_by_set):
        for object_index, label in enumerate(labels):
            records.append(ObjectRecord(set_index, object_index, gold, label))
    return LabelSeries("r", records)


def test_set_trajectory_means():
    member_a = series([[True, True], [True, False]])
    member_b = series([[True, False], [True, True]])
    report = set_trajectory([member_a, member_b], "cohort")
    assert report.per_set_accuracy == (0.75, 0.75)
    assert report.cohort == "cohort"
    assert report.chance == 1.0  # every gold label True


def test_set_trajectory_skips_missing_members():
    member_a = series([[True, True], [None, None]])
    member_b = series([[True, False], [True, True]])
    report = set_trajectory([member_a, member_b], "cohort")
    assert report.per_set_accuracy == (0.75, 1.0)
