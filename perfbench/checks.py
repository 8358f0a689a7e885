"""Output checks.

Every workload is compared with references recorded from the commit
that defined the benchmark (``references/<workload>.json``):
the per-set MAP strings of every ``*.elicited.json``, the grading
verdicts with ``match_rate`` and ``equivalence_rate``, the ``fit-noise``
``(alpha, beta)``, and every series' labels and ``p_true`` (within 1e-9).
The posterior-trace CSVs are deliberately not compared, so a change in
how they are written shows in ``disk_mb`` rather than as a failure.

The session phases of ``lab-s3`` are checked by invariants that hold for
any oracle seed: the replayed transcripts are byte-identical to the cold
ones, replay and resume make no requests, and every set's labelled plus
excluded objects equal the queried ones.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

from workloads import Workload

REFERENCES = Path(__file__).resolve().parent / "references"
P_TRUE_TOLERANCE = 1e-9


@dataclass
class CheckLog:
    results: list[tuple[str, bool, str]] = field(default_factory=list)

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failures(self) -> list[tuple[str, bool, str]]:
        return [r for r in self.results if not r[1]]


def _csv_rows(path: Path) -> list[dict]:
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return list(csv.DictReader(lines))


def observe(workload: Workload, out: Path, run_dir: Path) -> dict:
    """The checked results of one pass, in reference form."""
    reports = out / "reports"
    grading = json.loads((reports / "grading.json").read_text())
    doc = {
        "grading": {
            "verdicts": {
                row["rule_id"]: [row["final_likelihood"], row["match"], row["equivalent"]]
                for row in _csv_rows(reports / "grading_summary.csv")
            },
            "match_rate": grading["match_rate"],
            "equivalence_rate": grading["equivalence_rate"],
            "unparseable": len(grading["unparseable"]),
        },
        "summary_cohorts": sorted(row["cohort"] for row in _csv_rows(reports / "summary.csv")),
    }
    doc["map"] = {}
    doc["series"] = {}
    for path in sorted(run_dir.glob("*.elicited.json")):
        elicited = json.loads(path.read_text())
        doc["map"][elicited["rule_id"]] = {"per_set": elicited["per_set"], "final": elicited["final"]}
    for path in sorted(run_dir.glob("*.series.json")):
        series = json.loads(path.read_text())
        doc["series"][series["rule_id"]] = {
            "model": [r["model"] for r in series["records"]],
            "p_true": [r["p_true"] for r in series["records"]],
        }
    if workload.fit_noise:
        fit = json.loads((reports / "noise_fit.json").read_text())
        doc["fit"] = [fit["alpha"], fit["beta"]]
    return doc


def _compare_series(log: CheckLog, rule_id: str, seen: dict | None, want: dict) -> None:
    name = f"series[{rule_id}]"
    if seen is None:
        log.record(name, False, "missing")
        return
    if seen["model"] != want["model"]:
        log.record(name, False, "labels differ")
        return
    worst = max(
        (abs(a - b) for a, b in zip(seen["p_true"], want["p_true"])), default=0.0
    )
    ok = len(seen["p_true"]) == len(want["p_true"]) and worst <= P_TRUE_TOLERANCE
    log.record(name, ok, f"max |p_true - reference| = {worst:.3g}")


def compare(log: CheckLog, seen: dict, want: dict) -> None:
    for rule_id, reference in want.get("map", {}).items():
        log.record(f"map[{rule_id}]", seen["map"].get(rule_id) == reference)
    for rule_id, reference in want.get("series", {}).items():
        _compare_series(log, rule_id, seen["series"].get(rule_id), reference)
    for rule_id, verdict in want["grading"]["verdicts"].items():
        log.record(f"verdict[{rule_id}]", seen["grading"]["verdicts"].get(rule_id) == verdict,
                   f"{seen['grading']['verdicts'].get(rule_id)} vs {verdict}")
    for key in ("match_rate", "equivalence_rate", "unparseable"):
        log.record(key, seen["grading"][key] == want["grading"][key],
                   f"{seen['grading'][key]} vs {want['grading'][key]}")
    log.record("summary_cohorts", seen["summary_cohorts"] == want["summary_cohorts"],
               f"{seen['summary_cohorts']}")
    if "fit" in want:
        log.record("fit_noise", seen.get("fit") == want["fit"], f"{seen.get('fit')} vs {want['fit']}")


def reference_path(workload: Workload) -> Path:
    return REFERENCES / f"{workload.name}.json"


def check_outputs(log: CheckLog, workload: Workload, out: Path, run_dir: Path) -> dict | None:
    try:
        seen = observe(workload, out, run_dir)
    except (OSError, KeyError, ValueError) as error:
        log.record("outputs readable", False, repr(error))
        return None
    if not reference_path(workload).exists():
        log.record("reference recorded", False, str(reference_path(workload)))
        return seen
    want = json.loads(reference_path(workload).read_text())
    compare(log, seen, want)
    return seen


def _transcript_bytes(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(directory.glob("*.json"))}


def check_llm_phase(
    log: CheckLog, phase: str, stats: dict, transcripts: Path, cold: dict[str, bytes] | None
) -> dict[str, bytes]:
    """Check one session phase; returns the cold phase's transcripts."""
    current = _transcript_bytes(transcripts)
    log.record(f"{phase}: sessions", stats.get("failed") == 0 and stats.get("sessions") == len(current),
               f"{stats}")
    if phase == "cold":
        queried = 0
        for name, raw in current.items():
            doc = json.loads(raw)
            lists_dir = transcripts.parents[1] / "lists"
            sets = json.loads((lists_dir / name).read_text())["sets"]
            balanced = all(
                len(entry["labels"]) == len(sets[entry["set_index"]]["objects"])
                and sum(label is not None for label in entry["labels"]) + len(entry["exclusions"])
                == len(entry["labels"])
                for entry in doc["sets"]
            )
            log.record(f"cold: labelled + excluded = queried [{name}]", balanced)
            queried += len(doc["sets"])
        log.record("cold: one request per set", stats.get("requests") == queried,
                   f"{stats.get('requests')} requests for {queried} sets")
        return current
    log.record(f"{phase}: no requests", stats.get("requests") == 0, f"{stats.get('requests')}")
    log.record(f"{phase}: transcripts identical to cold", current == cold)
    return cold
