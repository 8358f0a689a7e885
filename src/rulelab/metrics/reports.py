"""CSV report emission.

Every emitted file starts with a ``#`` comment line recording the SHA-256
of each input that produced it, so reports are traceable to their data.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

from ..exemplars.humans import propagated_baseline
from ..exemplars.lists import write_csv
from .core import WINDOWS, EmptyWindowError, accuracy
from .trajectory import CohortReport, TrajectoryReport

if TYPE_CHECKING:  # grading needs the learner, and with it numpy
    from .grading import RuleGrade, RuleVerdict

RULE_CLASSES = ("all", "propositional", "fol")


def hash_inputs(paths: Sequence[str | Path]) -> dict[str, str]:
    digests = {}
    for path in paths:
        path = Path(path)
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def _write_csv(path: str | Path, header: list[str], rows: list[list], inputs: Mapping[str, str]):
    write_csv(path, header, rows, "# inputs: " + json.dumps(dict(sorted(inputs.items()))) + "\n")


def _format(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


@dataclass(frozen=True)
class AccuracySummary:
    """One cohort's accuracy cells for the summary table, keyed by
    (rule class, window); SDs are optional (human rows carry them)."""

    cohort: str
    cells: dict[tuple[str, str], float]
    sds: dict[tuple[str, str], float]


def summarize_series(
    cohort: str,
    labels_by_rule: Mapping[str, Sequence[bool | None]],
    gold: Mapping[str, Sequence[bool]],
    kinds: Mapping[str, str],
) -> AccuracySummary:
    """Mean per-rule accuracy for each (rule class, window) cell, from one
    label vector per rule scored against that rule's gold labels."""
    one_each = {
        rule_id: window_scores([labels], gold[rule_id]) for rule_id, labels in labels_by_rule.items()
    }
    return AccuracySummary(cohort, summarize_subjects(cohort, one_each, kinds).cells, sds={})


def window_scores(
    vectors: Sequence[Sequence[bool | None]], gold: Sequence[bool]
) -> dict[str, list[float]]:
    """Each label vector's :func:`accuracy` against one list's ``gold`` in
    every window; a vector whose window has no label is left out of that
    window."""
    scores: dict[str, list[float]] = {window: [] for window in WINDOWS}
    for labels in vectors:
        for window in WINDOWS:
            try:
                scores[window].append(accuracy(labels, gold, window))
            except EmptyWindowError:
                continue
    return scores


def summarize_subjects(
    cohort: str,
    scores_by_rule: Mapping[str, Mapping[str, Sequence[float]]],
    kinds: Mapping[str, str],
) -> AccuracySummary:
    """Per (rule class, window): the grand mean over rules of the subjects'
    mean accuracy, with the per-rule SDs propagated into the cell's SD."""
    cells = {}
    sds = {}
    for rule_class in RULE_CLASSES:
        for window in WINDOWS:
            stats = []
            for rule_id, by_window in scores_by_rule.items():
                scores = by_window[window]
                if not scores or (rule_class != "all" and kinds[rule_id] != rule_class):
                    continue
                mean = sum(scores) / len(scores)
                variance = sum((s - mean) ** 2 for s in scores) / len(scores)
                stats.append((mean, variance ** 0.5))
            if stats:
                cells[(rule_class, window)], sds[(rule_class, window)] = propagated_baseline(stats)
    return AccuracySummary(cohort=cohort, cells=cells, sds=sds)


def write_summary_csv(
    path: str | Path, summaries: Sequence[AccuracySummary], inputs: Mapping[str, str]
) -> None:
    """The summary table: one row per cohort, accuracy (and optional SD)
    columns for every rule class and window."""
    header = ["cohort"]
    for rule_class in RULE_CLASSES:
        for window in ("overall", "last_quarter"):
            header.append(f"{rule_class}_{window}")
            header.append(f"{rule_class}_{window}_sd")
    rows = []
    for summary in summaries:
        row = [summary.cohort]
        for rule_class in RULE_CLASSES:
            for window in ("overall", "last_quarter"):
                key = (rule_class, window)
                row.append(_format(summary.cells.get(key)))
                row.append(_format(summary.sds.get(key)))
        rows.append(row)
    _write_csv(path, header, rows, inputs)


def write_trajectory_csv(
    path: str | Path,
    reports: Mapping[str, Sequence[TrajectoryReport]],
    inputs: Mapping[str, str],
) -> None:
    """Per-rule learning trajectories: one row per (rule, cohort, set)."""
    rows = []
    for rule_id in sorted(reports):
        for report in reports[rule_id]:
            for set_index, mean_accuracy in enumerate(report.per_set_accuracy):
                rows.append(
                    [rule_id, report.cohort, set_index, _format(mean_accuracy), _format(report.chance)]
                )
    _write_csv(
        path, ["rule_id", "cohort", "set_index", "mean_accuracy", "chance_baseline"], rows, inputs
    )


def write_delta_csv(
    path: str | Path,
    report: CohortReport,
    kinds: Mapping[str, str],
    inputs: Mapping[str, str],
) -> None:
    """Model-minus-median rows sorted by descending delta, with the cohort's
    percentile bands."""
    header = ["rule_id", "kind", "model_score", "cohort_median", "delta"]
    for q in report.percentiles:
        header.append(f"pct{q:g}")
        header.append(f"below_pct{q:g}")
    rows = []
    for row in report.rows:
        out = [
            row.rule_id,
            kinds.get(row.rule_id, ""),
            _format(row.model_score),
            _format(row.cohort_median),
            _format(row.delta),
        ]
        for band, below in zip(row.percentile_bands, row.below_band):
            out.append(_format(band))
            out.append(str(below))
        rows.append(out)
    _write_csv(path, header, rows, inputs)


def write_grading_csvs(
    reports_dir: str | Path,
    grades: Mapping[str, RuleGrade],
    verdicts: Mapping[str, RuleVerdict],
    inputs: Mapping[str, str],
) -> None:
    """``grading_per_set.csv`` (one row per rule and set) and
    ``grading_summary.csv`` (one row per rule, with its match verdict)."""
    per_set = []
    summary = []
    for rule_id, grade in sorted(grades.items()):
        for set_index, (source, likelihood) in enumerate(zip(grade.sources, grade.likelihoods)):
            per_set.append([rule_id, set_index, source, _format(likelihood)])
        verdict = verdicts[rule_id]
        final = None if verdict.likelihood is None else float(verdict.likelihood)
        summary.append([
            rule_id, _format(grade.mean_likelihood), _format(grade.consistency), _format(final),
            str(verdict.matches), str(verdict.equivalent),
        ])
    reports_dir = Path(reports_dir)
    _write_csv(reports_dir / "grading_per_set.csv",
               ["rule_id", "set_index", "source", "likelihood"], per_set, inputs)
    _write_csv(reports_dir / "grading_summary.csv", [
        "rule_id", "mean_likelihood", "consistency", "final_likelihood", "match", "equivalent",
    ], summary, inputs)
