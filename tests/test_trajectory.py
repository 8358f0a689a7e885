"""Cohort comparison and trajectory aggregation."""

import random
import struct

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


def test_subsample_baseline_deterministic():
    cohort = {f"r{i}": [0.2, 0.4, 0.6, 0.8, 1.0] for i in range(10)}
    first = subsample_baseline(cohort, n_subsamples=500, seed=5)
    second = subsample_baseline(cohort, n_subsamples=500, seed=5)
    assert first == second
    mean, sd = first
    # One of five scores sits below the interpolated 25th percentile.
    assert mean == pytest.approx(0.2, abs=0.05)
    assert sd > 0


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


def numpy_subsample_baseline(cohort_scores, n_subsamples, seed, percentile=25.0):
    """The numpy form of :func:`subsample_baseline`: a copy of the cohort
    per draw, and the mean and SD of the float rates."""
    rng = random.Random(seed)
    rule_ids = sorted(cohort_scores)
    bands = {
        r: float(np.percentile(np.asarray(cohort_scores[r], dtype=float), percentile))
        for r in rule_ids
    }
    rates = np.empty(n_subsamples, dtype=float)
    for i in range(n_subsamples):
        below = sum(rng.choice(list(cohort_scores[r])) < bands[r] for r in rule_ids)
        rates[i] = below / len(rule_ids)
    return float(rates.mean()), float(rates.std())


@pytest.mark.parametrize("seed", range(8))
def test_subsample_baseline_matches_the_numpy_form(seed):
    rng = random.Random(seed)
    cohort = {
        f"r{i}": [rng.randint(0, 12) / 12 for _ in range(rng.randint(1, 25))]
        for i in range(rng.randint(1, 12))
    }
    n_subsamples = (1, 7, 500, 2000)[seed % 4]
    mean, sd = subsample_baseline(cohort, n_subsamples, seed=seed)
    expected_mean, expected_sd = numpy_subsample_baseline(cohort, n_subsamples, seed)
    assert abs(mean - expected_mean) <= 1e-12
    assert abs(sd - expected_sd) <= 1e-12


def test_subsample_baseline_needs_a_draw():
    with pytest.raises(ValueError):
        subsample_baseline({"r": [0.5]}, n_subsamples=0, seed=1)


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
