"""Seeded train/held-out partitions of a rule set."""

from __future__ import annotations

import json
import random
from pathlib import Path

from .lists import write_json


def split_rules(
    rule_ids: list[str], held_out: int, seed: int
) -> tuple[list[str], list[str]]:
    """Partition ``rule_ids`` into (train, held-out) deterministically.

    Both sides preserve the input order.  ``held_out`` must be smaller
    than the rule set.
    """
    if held_out >= len(rule_ids):
        raise ValueError(f"held_out={held_out} must be below the rule count {len(rule_ids)}")
    if held_out < 0:
        raise ValueError("held_out must be non-negative")
    shuffled = list(rule_ids)
    random.Random(seed).shuffle(shuffled)
    held_set = set(shuffled[:held_out])
    train = [rule_id for rule_id in rule_ids if rule_id not in held_set]
    held = [rule_id for rule_id in rule_ids if rule_id in held_set]
    return train, held


def write_split_manifest(
    train: list[str], held: list[str], seed: int, path: str | Path
) -> None:
    doc = {"seed": seed, "train": train, "held_out": held}
    write_json(path, doc)


def read_split_manifest(path: str | Path) -> tuple[list[str], list[str]]:
    doc = json.loads(Path(path).read_text())
    return list(doc["train"]), list(doc["held_out"])
