"""Human response ingest, subject preprocessing, and baseline statistics.

The subject filter mirrors the standard two-stage preprocessing for this
task: drop subjects who completed fewer than five sets, then drop subjects
whose accuracy falls outside two standard deviations of the per-rule mean,
with mean and SD computed once over the post-first-filter pool (a single
pass, never iterated).
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass, field
from pathlib import Path

from ..harness.extract import label_token_family
from .lists import ExemplarList, write_csv

MIN_SETS = 5
SD_LIMIT = 2.0


class EmptyPoolError(ValueError):
    """Every subject was excluded."""


@dataclass(frozen=True)
class SubjectRecord:
    """One participant's responses to one rule's exemplar list, as read.

    ``responses`` maps (set_index, object_index) to the given label;
    objects the subject never reached are simply absent.  Readers take the
    answers in the list's layout order from :meth:`answers`.
    """

    subject_id: str
    rule_id: str
    responses: dict[tuple[int, int], bool]
    sets_completed: int

    def answers(self, gold: ExemplarList) -> tuple[bool | None, ...]:
        """The subject's answer to each object of ``gold``, in the list's
        layout order (``gold.contexts``), None where there is none.
        Answers to objects or sets the list lacks are not read."""
        get = self.responses.get
        return tuple(get((s, o)) for s, o, _ctx, _label in gold.iter_items())

    def accuracy(self, gold: ExemplarList) -> float:
        scored = [answer == label for answer, label in zip(self.answers(gold), gold.gold)
                  if answer is not None]
        if not scored:
            raise ValueError(f"subject {self.subject_id} has no responses")
        return sum(scored) / len(scored)


@dataclass(frozen=True)
class Exclusion:
    subject_id: str
    reason: str  # "min-sets" | "outlier"
    detail: str = ""


@dataclass
class FilterReport:
    exclusions: list[Exclusion] = field(default_factory=list)
    pool_mean: float | None = None
    pool_sd: float | None = None


def filter_subjects(
    records: list[SubjectRecord], gold: ExemplarList
) -> tuple[list[SubjectRecord], FilterReport]:
    """Apply the two-stage subject filter for one rule.

    A subject's completed sets, tested against :data:`MIN_SETS`, are the
    sets of ``gold`` it has a response in, and at most the record's
    ``sets_completed``: responses to sets the list lacks do not count.

    Raises :class:`EmptyPoolError` if no subject survives either stage.
    """
    report = FilterReport()
    pool = []
    for record in records:
        if record.rule_id != gold.rule_id:
            raise ValueError(
                f"subject {record.subject_id} is for rule {record.rule_id!r}, "
                f"not {gold.rule_id!r}"
            )
        answered = {s for s, _o in record.responses if 0 <= s < len(gold.sets)}
        completed = min(record.sets_completed, len(answered))
        if completed < MIN_SETS:
            report.exclusions.append(
                Exclusion(record.subject_id, "min-sets", f"completed {completed} sets")
            )
        else:
            pool.append(record)
    if not pool:
        raise EmptyPoolError(f"no subjects left for rule {gold.rule_id!r} after the set filter")

    accuracies = [record.accuracy(gold) for record in pool]
    mean = sum(accuracies) / len(accuracies)
    sd = math.sqrt(sum((a - mean) ** 2 for a in accuracies) / len(accuracies))
    report.pool_mean, report.pool_sd = mean, sd

    kept = []
    for record, accuracy in zip(pool, accuracies):
        if abs(accuracy - mean) > SD_LIMIT * sd:
            report.exclusions.append(
                Exclusion(
                    record.subject_id,
                    "outlier",
                    f"accuracy {accuracy:.4f} vs pool {mean:.4f} +/- {SD_LIMIT}*{sd:.4f}",
                )
            )
        else:
            kept.append(record)
    if not kept:
        raise EmptyPoolError(f"no subjects left for rule {gold.rule_id!r} after the SD filter")
    return kept, report


class Proportions(tuple):
    """One share of True answers per object of a list, in its layout order,
    None where no subject answered.  ``n_true`` and ``n_total`` are the
    per-object counts (True answers, answers) that the shares are made of."""

    def __new__(cls, n_true: tuple[int, ...], n_total: tuple[int, ...]) -> Proportions:
        self = super().__new__(cls, (t / n if n else None for t, n in zip(n_true, n_total)))
        self.n_true, self.n_total = n_true, n_total
        return self


def human_proportions(kept: list[SubjectRecord], gold: ExemplarList) -> Proportions:
    """The share of ``kept`` subjects who answered True at each object of
    ``gold``, among those who answered there, in the list's layout order:
    a tuple of one value per object, None where no subject answered, with
    the counts it is made of (:class:`Proportions`)."""
    if not kept:
        raise EmptyPoolError("no kept subjects")
    columns = zip(*(record.answers(gold) for record in kept))  # one per object
    answered = [[answer for answer in column if answer is not None] for column in columns]
    return Proportions(tuple(map(sum, answered)), tuple(map(len, answered)))


def propagated_baseline(per_rule_stats: list[tuple[float, float]]) -> tuple[float, float]:
    """Grand mean and propagated SD of per-rule (mean, SD) accuracy pairs.

    The SD propagates as for a mean of independent estimates:
    sqrt(sum of variances) / n.
    """
    if not per_rule_stats:
        raise ValueError("need at least one rule")
    n = len(per_rule_stats)
    grand_mean = sum(mean for mean, _sd in per_rule_stats) / n
    propagated_sd = math.sqrt(sum(sd * sd for _mean, sd in per_rule_stats)) / n
    return grand_mean, propagated_sd


def _parse_response(text: str) -> bool:
    label = label_token_family(text)
    if label is None:
        raise ValueError(f"response must be a True/False variant, got {text!r}")
    return label


_COLUMNS = ("subject_id", "rule_id", "set_index", "object_index", "response")


def _dict_fields(header: list[str], row: list[str]) -> tuple[str, ...]:
    """``row``'s fields in :data:`_COLUMNS` order as ``csv.DictReader``
    reads them: a field past the row's end reads as "" (which fails to
    parse), and a column the header lacks raises KeyError where reading it
    would, after the checks of the columns read before it."""
    fields = dict(zip(header, row))
    fields.update(dict.fromkeys(header[len(row):], ""))
    if all(name in fields for name in _COLUMNS):
        return tuple(fields[name] for name in _COLUMNS)
    fields["subject_id"], fields["rule_id"]
    int(fields["set_index"]), int(fields["object_index"])
    _parse_response(fields["response"])
    raise AssertionError("unreachable: some column is missing")


def read_subject_csv(path: str | Path) -> list[SubjectRecord]:
    """Read human responses from CSV with columns
    subject_id, rule_id, set_index, object_index, response.

    The file is UTF-8, with or without a leading byte-order mark (as
    spreadsheet programs' "CSV UTF-8" export writes).  The header names the
    columns, in any order; other columns are ignored, and a name given
    twice means its last column.  Blank lines are skipped.  Raises
    ValueError for a row that does not parse, or for a second response by
    one subject to one object of one rule's list."""
    grouped: dict[tuple[str, str], dict[tuple[int, int], bool]] = {}
    labels: dict[str, bool] = {}  # each response token's label, parsed once
    with open(path, newline="", encoding="utf-8-sig") as handle:
        rows = csv.reader(handle)
        header = next(rows, [])
        position = {name: i for i, name in enumerate(header)}  # the last column of a name
        if all(name in position for name in _COLUMNS):
            pick = operator.itemgetter(*(position[name] for name in _COLUMNS))
            width = max(position[name] for name in _COLUMNS) + 1
        else:
            width = math.inf  # every row fails, as csv.DictReader's would
        for row in rows:
            if not row:
                continue  # a blank line
            subject_id, rule_id, set_index, object_index, token = (
                pick(row) if len(row) >= width else _dict_fields(header, row)
            )
            item = (int(set_index), int(object_index))
            response = labels.get(token)
            if response is None:
                response = labels[token] = _parse_response(token)
            responses = grouped.setdefault((subject_id, rule_id), {})
            if item in responses:
                raise ValueError(
                    f"subject {subject_id} answers rule {rule_id!r} set {item[0]}, "
                    f"object {item[1]} twice"
                )
            responses[item] = response
    return sorted((SubjectRecord(subject_id, rule_id, responses, len({s for s, _o in responses}))
                   for (subject_id, rule_id), responses in grouped.items()),
                  key=lambda r: (r.rule_id, r.subject_id))


def write_subject_csv(records: list[SubjectRecord], path: str | Path) -> None:
    """Write ``records`` atomically in :func:`read_subject_csv`'s format,
    with no byte-order mark."""
    write_csv(path, ["subject_id", "rule_id", "set_index", "object_index", "response"], (
        [record.subject_id, record.rule_id, set_index, object_index, response]
        for record in records
        for (set_index, object_index), response in sorted(record.responses.items())
    ))
