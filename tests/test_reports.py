"""CSV emission details."""

import csv
import io

from rulelab.metrics import (
    AccuracySummary,
    cohort_report,
    summarize_subjects,
    window_scores,
    write_delta_csv,
    write_summary_csv,
    write_trajectory_csv,
)
from rulelab.metrics.trajectory import TrajectoryReport


def _labels(n_correct, n_total):
    """Labels for ``n_total`` objects whose gold labels are all True."""
    return [i < n_correct for i in range(n_total)]


def _read(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# inputs:")
    return list(csv.reader(io.StringIO("\n".join(lines[1:]))))


def test_summary_rows_split_by_kind(tmp_path):
    labels = {"p1": _labels(8, 10), "f1": _labels(5, 10)}
    gold = {"p1": [True] * 10, "f1": [True] * 10}
    kinds = {"p1": "propositional", "f1": "fol"}
    scores = {rule_id: window_scores([labels[rule_id]], gold[rule_id]) for rule_id in labels}
    summary = AccuracySummary("m", summarize_subjects("m", scores, kinds).cells, sds={})
    assert summary.cells[("all", "overall")] == 0.65
    assert summary.cells[("propositional", "overall")] == 0.8
    assert summary.cells[("fol", "overall")] == 0.5
    path = tmp_path / "summary.csv"
    write_summary_csv(path, [summary], {"x": "1"})
    rows = _read(path)
    header, data = rows[0], rows[1]
    assert data[header.index("propositional_overall")] == "0.8"
    assert data[header.index("fol_overall")] == "0.5"
    assert data[header.index("all_overall_sd")] == ""


def test_trajectory_rows(tmp_path):
    report = TrajectoryReport(cohort="m", per_set_accuracy=(0.5, 1.0), chance=0.6)
    path = tmp_path / "trajectories.csv"
    write_trajectory_csv(path, {"r": [report]}, {})
    rows = _read(path)
    assert rows[0] == ["rule_id", "cohort", "set_index", "mean_accuracy", "chance_baseline"]
    assert rows[1] == ["r", "m", "0", "0.5", "0.6"]
    assert rows[2] == ["r", "m", "1", "1", "0.6"]


def test_delta_rows_ordered_and_flagged(tmp_path):
    cohort = {"good": [0.2, 0.4, 0.6, 0.8], "bad": [0.2, 0.4, 0.6, 0.8]}
    model = {"good": 0.9, "bad": 0.1}
    report = cohort_report(cohort, model)
    path = tmp_path / "deltas.csv"
    write_delta_csv(path, report, {"good": "propositional", "bad": "fol"}, {})
    rows = _read(path)
    assert rows[1][0] == "good" and rows[2][0] == "bad"
    header = rows[0]
    below_25 = header.index("below_pct25")
    assert rows[1][below_25] == "False"
    assert rows[2][below_25] == "True"
    assert rows[2][header.index("kind")] == "fol"
