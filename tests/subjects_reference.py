"""The subject file reader the library is tested against: one
``csv.DictReader`` dict per row, each column read by name as the row is
checked.  :func:`read_subject_csv` here returns what
:func:`rulelab.exemplars.read_subject_csv` returns, or raises the same
error with the same message."""

from __future__ import annotations

import csv
from pathlib import Path

from rulelab.exemplars import SubjectRecord
from rulelab.harness.extract import label_token_family


def read_subject_csv(path: str | Path) -> list[SubjectRecord]:
    grouped: dict[tuple[str, str], dict[tuple[int, int], bool]] = {}
    with open(path, newline="", encoding="utf-8-sig") as handle:
        for row in csv.DictReader(handle, restval=""):
            key = (row["subject_id"], row["rule_id"])
            responses = grouped.setdefault(key, {})
            item = (int(row["set_index"]), int(row["object_index"]))
            response = label_token_family(row["response"])
            if response is None:
                raise ValueError(f"response must be a True/False variant, got {row['response']!r}")
            if item in responses:
                raise ValueError(
                    f"subject {key[0]} answers rule {key[1]!r} set {item[0]}, "
                    f"object {item[1]} twice"
                )
            responses[item] = response
    return sorted((SubjectRecord(subject_id, rule_id, responses, len({s for s, _o in responses}))
                   for (subject_id, rule_id), responses in grouped.items()),
                  key=lambda r: (r.rule_id, r.subject_id))
