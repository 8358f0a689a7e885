"""Cohort comparisons and learning-trajectory aggregation.

Quantiles use linear interpolation throughout.  The subsample baseline
repeatedly picks one cohort member per rule at random and measures how
often that member falls in the cohort's bottom quartile, which calibrates
how a single learner-sized sample deviates from the cohort median.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import chance_baseline
from .series import LabelSeries

DEFAULT_PERCENTILES = (25.0, 20.0, 10.0, 1.0)


def quantile(values: Sequence[float], q: float) -> float:
    """q-th percentile (0-100) with linear interpolation."""
    if not values:
        raise ValueError("no values")
    return float(np.percentile(np.asarray(values, dtype=float), q))


@dataclass(frozen=True)
class RuleComparison:
    rule_id: str
    model_score: float
    cohort_median: float
    delta: float
    percentile_bands: tuple[float, ...]
    below_band: tuple[bool, ...]


@dataclass(frozen=True)
class CohortReport:
    """Per-rule model-vs-cohort comparison, sorted by descending delta."""

    rows: tuple[RuleComparison, ...]
    percentiles: tuple[float, ...]

    def bottom_quartile_rate(self) -> float:
        return sum(row.below_band[0] for row in self.rows) / len(self.rows)


def cohort_report(
    cohort_scores: Mapping[str, Sequence[float]],
    model_scores: Mapping[str, float],
    percentiles: Sequence[float] = DEFAULT_PERCENTILES,
) -> CohortReport:
    """Compare one score per rule against a cohort's score distribution."""
    if set(cohort_scores) != set(model_scores):
        raise ValueError("cohort and model must cover the same rules")
    if not cohort_scores:
        raise ValueError("no rules")
    if list(percentiles) != sorted(percentiles, reverse=True):
        raise ValueError("percentiles must be in descending order")
    rows = []
    for rule_id in sorted(cohort_scores):
        scores = list(cohort_scores[rule_id])
        if not scores:
            raise ValueError(f"rule {rule_id!r} has an empty cohort")
        median = quantile(scores, 50.0)
        bands = tuple(quantile(scores, q) for q in percentiles)
        model = model_scores[rule_id]
        rows.append(
            RuleComparison(
                rule_id=rule_id,
                model_score=model,
                cohort_median=median,
                delta=model - median,
                percentile_bands=bands,
                below_band=tuple(model < band for band in bands),
            )
        )
    rows.sort(key=lambda row: (-row.delta, row.rule_id))
    return CohortReport(rows=tuple(rows), percentiles=tuple(percentiles))


def subsample_baseline(
    cohort_scores: Mapping[str, Sequence[float]],
    n_subsamples: int,
    seed: int,
    percentile: float = 25.0,
) -> tuple[float, float]:
    """Mean and SD of the bottom-band rate when one cohort member stands in
    for the model on every rule."""
    if not cohort_scores:
        raise ValueError("no rules")
    rng = random.Random(seed)
    rule_ids = sorted(cohort_scores)
    bands = {rule_id: quantile(list(cohort_scores[rule_id]), percentile) for rule_id in rule_ids}
    rates = np.empty(n_subsamples, dtype=float)
    for i in range(n_subsamples):
        below = sum(
            rng.choice(list(cohort_scores[rule_id])) < bands[rule_id] for rule_id in rule_ids
        )
        rates[i] = below / len(rule_ids)
    return float(rates.mean()), float(rates.std())


@dataclass(frozen=True)
class TrajectoryReport:
    """Mean accuracy per set index for one cohort, with the list's chance
    baseline.  A set no member labelled at all reads None."""

    cohort: str
    per_set_accuracy: tuple[float | None, ...]
    chance: float


def set_trajectory(series_by_member: Sequence[LabelSeries], cohort: str) -> TrajectoryReport:
    """Mean per-set accuracy across a cohort's label series (all series must
    describe the same exemplar list)."""
    if not series_by_member:
        raise ValueError("no series")
    n_sets = max(r.set_index for s in series_by_member for r in s.records) + 1
    per_set = []
    for set_index in range(n_sets):
        scores = []
        for series in series_by_member:
            records = [
                r for r in series.records if r.set_index == set_index and r.model is not None
            ]
            if records:
                scores.append(sum(r.model == r.gold for r in records) / len(records))
        per_set.append(sum(scores) / len(scores) if scores else None)
    gold = [r.gold for r in series_by_member[0].records]
    return TrajectoryReport(
        cohort=cohort,
        per_set_accuracy=tuple(per_set),
        chance=chance_baseline(sum(gold) / len(gold)),
    )
