"""Label series files: a session's per-object labels as written to disk.

The metrics score label vectors in the list's layout order; a series is the
file form of one, read back and checked by the command that scores it."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from ..exemplars.lists import ExemplarList, write_json


@dataclass(frozen=True)
class ObjectRecord:
    """One labeled (or excluded) object in presentation order.

    ``model`` is None when the object was excluded; ``p_true`` is the
    source's probability of True, when it gives one.
    """

    set_index: int
    object_index: int
    gold: bool
    model: bool | None = None
    p_true: float | None = None

    def __post_init__(self):
        if self.p_true is not None and not 0.0 <= self.p_true <= 1.0:
            raise ValueError(f"p_true must lie in [0, 1], got {self.p_true}")


@dataclass
class LabelSeries:
    rule_id: str
    records: list[ObjectRecord] = field(default_factory=list)

    def __post_init__(self):
        order = [(r.set_index, r.object_index) for r in self.records]
        if order != sorted(order):
            raise ValueError("records must be in presentation order")
        if len(set(order)) != len(order):
            raise ValueError("duplicate (set, object) positions")

    def __len__(self) -> int:
        return len(self.records)


def series_from_sets(
    rule_id: str,
    exemplar_list: ExemplarList,
    per_set: Iterable[tuple[int, Sequence[bool | None], Sequence[float | None] | None]],
) -> LabelSeries:
    """A series from per-set label vectors: each item is ``(set_index,
    labels, p_true)``, one entry per object of that set, ``p_true`` None
    when the source gives no probabilities."""
    return LabelSeries(rule_id=rule_id, records=[
        ObjectRecord(
            set_index=set_index,
            object_index=object_index,
            gold=gold,
            model=labels[object_index],
            p_true=None if p_true is None else p_true[object_index],
        )
        for set_index, labels, p_true in per_set
        for object_index, gold in enumerate(exemplar_list.sets[set_index].labels)
    ])


def save_series(series: LabelSeries, path: str | Path) -> None:
    doc = {
        "rule_id": series.rule_id,
        "records": [
            {
                "set_index": r.set_index,
                "object_index": r.object_index,
                "gold": r.gold,
                "model": r.model,
                "p_true": r.p_true,
            }
            for r in series.records
        ],
    }
    write_json(path, doc)


def load_series(path: str | Path) -> LabelSeries:
    """Read a :func:`save_series` file.  Files written before records lost
    their always-null ``"human"`` key still load; the key is ignored."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    records = [
        ObjectRecord(
            set_index=r["set_index"],
            object_index=r["object_index"],
            gold=r["gold"],
            model=r["model"],
            p_true=r["p_true"],
        )
        for r in doc["records"]
    ]
    return LabelSeries(rule_id=doc["rule_id"], records=records)
