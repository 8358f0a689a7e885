"""The per-record metrics and series writer the library is tested against.

The library holds one label vector (and one P(True) vector) per session or
subject, in the list's layout order, and slices it by the list's
``offsets``.  The functions here walk a :class:`RecordSeries` one
:class:`ObjectRecord` at a time instead, keyed by ``(set_index,
object_index)``, and evaluate a reported rule separately for each score.
Tests compare the two with ``==``; :func:`write_records` writes a record
series as a series file, for byte comparison with
:func:`rulelab.metrics.save_series`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from rulelab.dsl import Concept, Context, DslError, evaluate, parse_concept
from rulelab.exemplars import ExemplarList, Observation
from rulelab.metrics import (
    WINDOWS,
    EmptyWindowError,
    RuleGrade,
    TrajectoryReport,
    chance_baseline,
    last_quarter_count,
)


@dataclass(frozen=True)
class ObjectRecord:
    """One labeled (or excluded) object in presentation order: ``model`` is
    None when it was excluded, ``p_true`` when the source gives none."""

    set_index: int
    object_index: int
    gold: bool
    model: bool | None = None
    p_true: float | None = None


@dataclass
class RecordSeries:
    rule_id: str
    records: list[ObjectRecord] = field(default_factory=list)


def records_from_sets(
    rule_id: str,
    exemplar_list: ExemplarList,
    per_set: Iterable[tuple[int, Sequence[bool | None], Sequence[float | None] | None]],
) -> RecordSeries:
    """A series from per-set vectors: each item is ``(set_index, labels,
    p_true)``, one entry per object of that set, ``p_true`` None when the
    source gives no probabilities."""
    return RecordSeries(rule_id, [
        ObjectRecord(set_index, object_index, gold, labels[object_index],
                     None if p_true is None else p_true[object_index])
        for set_index, labels, p_true in per_set
        for object_index, gold in enumerate(exemplar_list.sets[set_index].labels)
    ])


def write_records(series: RecordSeries, path: str | Path) -> None:
    """The series file of ``series``: its rule id and every record, as
    indented JSON with sorted keys."""
    doc = {
        "rule_id": series.rule_id,
        "records": [
            {"set_index": r.set_index, "object_index": r.object_index, "gold": r.gold,
             "model": r.model, "p_true": r.p_true}
            for r in series.records
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def series_of(labels: Sequence[bool | None], exemplar_list: ExemplarList) -> RecordSeries:
    """The series of ``labels``, one per object of the list's first objects."""
    items = list(exemplar_list.iter_items())[:len(labels)]
    return RecordSeries(exemplar_list.rule_id, [
        ObjectRecord(s, o, gold, label) for (s, o, _ctx, gold), label in zip(items, labels)
    ])


def accuracy(series: RecordSeries, window: str = "overall") -> float:
    if window not in WINDOWS:
        raise ValueError(f"window must be one of {WINDOWS}, got {window!r}")
    records = series.records
    if window == "last_quarter":
        records = records[len(records) - last_quarter_count(len(records)):]
    attempted = [r for r in records if r.model is not None]
    if not attempted:
        raise EmptyWindowError(f"no labeled objects in the {window} window")
    return sum(r.model == r.gold for r in attempted) / len(attempted)


def window_scores(series: Sequence[RecordSeries]) -> dict[str, list[float]]:
    scores: dict[str, list[float]] = {window: [] for window in WINDOWS}
    for one in series:
        for window in WINDOWS:
            try:
                scores[window].append(accuracy(one, window))
            except EmptyWindowError:
                continue
    return scores


def set_trajectory(series_by_member: Sequence[RecordSeries], cohort: str) -> TrajectoryReport:
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
