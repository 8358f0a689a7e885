"""The per-record metrics the library's label-vector metrics are tested against.

The library scores one label vector per session or subject, in the list's
layout order, and slices it by the list's ``offsets``.  The functions here
walk a :class:`~rulelab.metrics.LabelSeries` one :class:`ObjectRecord` at a
time instead, keyed by ``(set_index, object_index)``, and evaluate a
reported rule separately for each score.  Tests compare the two with ``==``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from rulelab.dsl import Concept, Context, DslError, evaluate, parse_concept
from rulelab.exemplars import ExemplarList, Observation
from rulelab.metrics import (
    WINDOWS,
    EmptyWindowError,
    LabelSeries,
    ObjectRecord,
    RuleGrade,
    TrajectoryReport,
    chance_baseline,
    last_quarter_count,
)


def series_of(labels: Sequence[bool | None], exemplar_list: ExemplarList) -> LabelSeries:
    """The series of ``labels``, one per object of the list's first objects."""
    items = list(exemplar_list.iter_items())[:len(labels)]
    return LabelSeries(exemplar_list.rule_id, [
        ObjectRecord(s, o, gold, label) for (s, o, _ctx, gold), label in zip(items, labels)
    ])


def accuracy(series: LabelSeries, window: str = "overall") -> float:
    if window not in WINDOWS:
        raise ValueError(f"window must be one of {WINDOWS}, got {window!r}")
    records = series.records
    if window == "last_quarter":
        records = records[len(records) - last_quarter_count(len(records)):]
    attempted = [r for r in records if r.model is not None]
    if not attempted:
        raise EmptyWindowError(f"no labeled objects in the {window} window")
    return sum(r.model == r.gold for r in attempted) / len(attempted)


def window_scores(series: Sequence[LabelSeries]) -> dict[str, list[float]]:
    scores: dict[str, list[float]] = {window: [] for window in WINDOWS}
    for one in series:
        for window in WINDOWS:
            try:
                scores[window].append(accuracy(one, window))
            except EmptyWindowError:
                continue
    return scores


def set_trajectory(series_by_member: Sequence[LabelSeries], cohort: str) -> TrajectoryReport:
    """Every set's mean accuracy, scanning every member's records once per
    set; the chance baseline reads the first member's gold labels."""
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


def rule_likelihood(concept: Concept, evidence: Sequence[Observation]) -> float:
    if not evidence:
        raise ValueError("evidence must be non-empty")
    return sum(evaluate(concept, ctx) == label for ctx, label in evidence) / len(evidence)


@dataclass(frozen=True)
class SetReport:
    """One set's reported rule with each labeled object's context and its
    emitted label (None where it was excluded)."""

    concept: Concept | None
    labels: tuple[tuple[Context, bool | None], ...]


def consistency(session: Sequence[SetReport]) -> float:
    """Fraction of labeled objects agreeing with the rule reported with
    them; sets without a reported rule are skipped."""
    agreed = total = 0
    for report in session:
        if report.concept is None:
            continue
        for ctx, label in report.labels:
            if label is None:
                continue
            total += 1
            agreed += evaluate(report.concept, ctx) == label
    if total == 0:
        raise ValueError("no labeled objects under a reported rule")
    return agreed / total


def per_set_grade(exemplar_list: ExemplarList, sources, vocab, series=None) -> RuleGrade:
    """:func:`rulelab.metrics.grade_session` set by set: every set re-scores
    its rule on the whole evidence grown so far, and its labels are looked
    up by (set, object) and scored by :func:`consistency`."""
    concepts, unparseable = [], []
    for set_index, source in enumerate(sources):
        try:
            concepts.append(None if source is None else parse_concept(source, vocab))
        except DslError as error:
            concepts.append(None)
            unparseable.append((set_index, source, str(error)))
    labels_by_set: dict[int, dict[int, bool | None]] = {}
    for record in series.records if series is not None else ():
        labels_by_set.setdefault(record.set_index, {})[record.object_index] = record.model
    n_sets = len(exemplar_list.sets)
    concepts_by_set = concepts[:n_sets] + [None] * (n_sets - len(concepts))
    evidence, likelihoods, session = [], [], []
    for set_index, (exemplar_set, concept) in enumerate(zip(exemplar_list.sets, concepts_by_set)):
        likelihoods.append(
            rule_likelihood(concept, evidence) if concept is not None and evidence else None
        )
        if concept is not None:
            labels = labels_by_set.get(set_index, {}).items()
            session.append(SetReport(concept, tuple(
                (exemplar_set.context_for(i), label) for i, label in labels
            )))
        evidence += [
            (exemplar_set.context_for(i), label) for i, label in enumerate(exemplar_set.labels)
        ]
    labeled = any(label is not None for report in session for _ctx, label in report.labels)
    return RuleGrade(
        sources=tuple(sources[:n_sets]) + (None,) * (n_sets - len(sources)),
        likelihoods=tuple(likelihoods),
        consistency=consistency(session) if labeled else None,
        final=concepts[-1] if concepts else None,
        unparseable=tuple(unparseable),
    )
