"""Cohort comparisons and learning-trajectory aggregation.

Quantiles use linear interpolation throughout, bit for bit as
``numpy.percentile`` computes it, in pure Python.  The subsample baseline
is the exact mean and SD of how often one cohort member per rule, drawn at
random, falls in the cohort's bottom quartile, which calibrates how a
single learner-sized sample deviates from the cohort median.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .core import chance_baseline
from .series import LabelSeries

DEFAULT_PERCENTILES = (25.0, 20.0, 10.0, 1.0)


def quantile(values: Sequence[float], q: float) -> float:
    """q-th percentile (0-100) with linear interpolation: the virtual index
    ``(n - 1) * q / 100`` between its two neighbours, and past the last
    value the last value, in ``numpy.percentile``'s operations and order."""
    if not values:
        raise ValueError("no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError("Percentiles must be in the range [0, 100]")
    ordered = sorted(float(v) for v in values)
    if any(math.isnan(v) for v in ordered):
        return math.nan
    virtual = (len(ordered) - 1) * (q / 100)
    below = math.floor(virtual)
    if virtual >= len(ordered) - 1:
        lower = upper = len(ordered) - 1
        below = -1  # numpy's index of the last value, which its weight reads
    else:
        lower, upper = below, below + 1
    weight = virtual - below
    a, b = ordered[lower], ordered[upper]
    if weight >= 0.5:  # interpolated from the upper end, as numpy's _lerp does
        return b - (b - a) * (1 - weight)
    return a + (b - a) * weight


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


def subsample_baseline(cohort_scores: Mapping[str, Sequence[float]]) -> tuple[float, float]:
    """Exact mean and SD of the bottom-band rate when one cohort member per
    rule, drawn uniformly, stands in for the model.  Each rule's flag is an
    independent Bernoulli(p_r), p_r its members' share below the band that
    :meth:`CohortReport.bottom_quartile_rate` reads, so over R rules the
    rate has mean sum(p_r) / R and SD sqrt(sum(p_r (1 - p_r))) / R."""
    if not cohort_scores:
        raise ValueError("no rules")
    shares = []
    for scores in cohort_scores.values():
        band = quantile(scores, DEFAULT_PERCENTILES[0])
        shares.append(sum(score < band for score in scores) / len(scores))
    n_rules = len(shares)
    mean = math.fsum(shares) / n_rules
    sd = math.sqrt(math.fsum(p * (1 - p) for p in shares)) / n_rules
    return mean, sd


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
