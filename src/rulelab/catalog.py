"""Stock vocabularies and a demonstration rule catalog.

Two vocabularies ship: the default one used by every fixture in this
repository, and an alternate (red/square) set.  The catalog below is a
representative sample of the task's rule space: simple feature rules,
Boolean combinations up to xor, first-order rules with uniqueness,
superlatives, and cross-object comparisons, plus the two color-majority
rules.  It is not the original experiment's rule inventory, which was
never published alongside it.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

from .dsl import FeatureVocab
from .exemplars.lists import write_json

DEFAULT_VOCAB = FeatureVocab(
    sizes=("small", "medium", "large"),
    colors=("blue", "green", "yellow"),
    shapes=("circle", "rectangle", "triangle"),
)

ALTERNATE_VOCAB = FeatureVocab(
    sizes=("small", "medium", "large"),
    colors=("blue", "green", "red"),
    shapes=("circle", "triangle", "square"),
)


# A rule id names the rule's files (``<id>.json``, ``<id>.series.json``, ...)
# beside each directory's ``manifest.json``, so it holds no path separator
# or dot, and is not ``manifest`` in any case (file systems may fold case).
_RULE_ID = re.compile(r"[A-Za-z0-9][A-Za-z0-9_-]*")


@dataclass(frozen=True)
class RuleSpec:
    rule_id: str
    kind: str  # "propositional" | "fol"
    source: str

    def __post_init__(self):
        if self.kind not in ("propositional", "fol"):
            raise ValueError(f"kind must be propositional or fol, got {self.kind!r}")
        if (not isinstance(self.rule_id, str) or not _RULE_ID.fullmatch(self.rule_id)
                or self.rule_id.casefold() == "manifest"):
            raise ValueError(
                f"rule id must match {_RULE_ID.pattern} and not be 'manifest', "
                f"got {self.rule_id!r}"
            )
        if not isinstance(self.source, str):
            raise ValueError(f"source must be a string, got {self.source!r}")


DEMO_RULES: tuple[RuleSpec, ...] = (
    # Feature rules and Boolean combinations over the target object.
    RuleSpec("blue", "propositional", "(is-color blue)"),
    RuleSpec("not-circle", "propositional", "(not (is-shape circle))"),
    RuleSpec("circle-and-not-blue", "propositional",
             "(and (is-shape circle) (not (is-color blue)))"),
    RuleSpec("not-blue-implies-not-circle", "propositional",
             "(implies (not (is-color blue)) (not (is-shape circle)))"),
    RuleSpec("circle-or-triangle-implies-blue", "propositional",
             "(or (is-shape circle) (implies (is-shape triangle) (is-color blue)))"),
    RuleSpec("circle-implies-blue", "propositional", "(implies (is-shape circle) (is-color blue))"),
    RuleSpec("circle-or-blue", "propositional", "(or (is-shape circle) (is-color blue))"),
    RuleSpec("blue-or-green", "propositional", "(or (is-color blue) (is-color green))"),
    RuleSpec("blue-or-small", "propositional", "(or (is-color blue) (is-size small))"),
    RuleSpec("small-and-blue", "propositional", "(and (is-size small) (is-color blue))"),
    RuleSpec("circle-and-blue", "propositional", "(and (is-shape circle) (is-color blue))"),
    RuleSpec("circle-xor-not-blue", "propositional", "(xor (is-shape circle) (not (is-color blue)))"),
    RuleSpec("circle-xor-blue", "propositional", "(xor (is-shape circle) (is-color blue))"),
    RuleSpec("not-circle-xor-blue", "propositional", "(not (xor (is-shape circle) (is-color blue)))"),
    # First-order rules: quantification over the rest of the displayed set.
    RuleSpec("same-shape-as-a-yellow", "fol",
             "(exists others (and (same-shape 0 1) (is-color yellow 0)))"),
    RuleSpec("unique-blue", "fol",
             "(and (is-color blue) (not (exists others (is-color blue 0))))"),
    RuleSpec("unique-blue-circle", "fol",
             "(and (and (is-color blue) (is-shape circle))"
             " (not (exists others (and (is-color blue 0) (is-shape circle 0)))))"),
    RuleSpec("unique-medium", "fol",
             "(and (is-size medium) (not (exists others (is-size medium 0))))"),
    RuleSpec("exactly-one-blue", "fol", "(exactly-one all (is-color blue 0))"),
    RuleSpec("exists-triangle", "fol", "(exists all (is-shape triangle 0))"),
    RuleSpec("same-color-as-another", "fol", "(exists others (same-color 0 1))"),
    RuleSpec("larger-than-a-blue", "fol",
             "(exists others (and (is-color blue 0) (size-gt 1 0)))"),
    RuleSpec("one-of-the-largest", "fol", "(forall others (size-ge 1 0))"),
    RuleSpec("one-of-the-smallest", "fol", "(forall others (size-ge 0 1))"),
    RuleSpec("blue-or-one-of-the-largest", "fol",
             "(or (is-color blue) (not (exists others (size-gt 0 1))))"),
    RuleSpec("same-color-as-all-same-shape", "fol",
             "(forall others (implies (same-shape 0 1) (same-color 0 1)))"),
    RuleSpec("majority-color", "fol", "(majority-color)"),
    RuleSpec("minority-color", "fol", "(minority-color)"),
)


def write_rules_manifest(rules: list[RuleSpec], path: str | Path) -> None:
    doc = {
        "rules": [
            {"id": rule.rule_id, "kind": rule.kind, "source": rule.source} for rule in rules
        ]
    }
    write_json(path, doc)


def read_rules_manifest(path: str | Path) -> list[RuleSpec]:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    rules = [RuleSpec(row["id"], row["kind"], row["source"]) for row in doc["rules"]]
    ids = [rule.rule_id for rule in rules]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate rule ids in manifest")
    return rules
