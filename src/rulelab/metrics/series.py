"""Label series: a session's per-object labels and P(True), and their files.

A series holds two vectors in its list's layout order, over the list's
first k whole sets: one label per object (None where it was excluded) and
one P(True) per object (None where the source gives none, or None for the
whole series).  The file form repeats each object's (set_index,
object_index, gold) beside its label and P(True); it is written and read
here alone, and read back only against its list."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from ..exemplars.lists import ExemplarList, write_json


@dataclass(frozen=True)
class LabelSeries:
    exemplar_list: ExemplarList
    labels: tuple[bool | None, ...]
    p_true: tuple[float | None, ...] | None = None


def save_series(series: LabelSeries, path: str | Path) -> None:
    """Write ``series`` as its rule id and one record per object."""
    p_true = series.p_true or (None,) * len(series.labels)
    write_json(path, {
        "rule_id": series.exemplar_list.rule_id,
        "records": [
            {"set_index": s, "object_index": o, "gold": gold, "model": label, "p_true": p}
            for (s, o, _ctx, gold), label, p in zip(
                series.exemplar_list.iter_items(), series.labels, p_true
            )
        ],
    })


def load_series(path: str | Path, exemplar_list: ExemplarList) -> LabelSeries:
    """Read a :func:`save_series` file of ``exemplar_list``'s rule.  Its
    ``rule_id`` must be the list's, and its records' (set_index,
    object_index, gold) the list's objects over its first k >= 1 whole
    sets, in order, as a session capped by ``max_sets`` writes them; the
    indices are integers, ``gold`` and ``model`` JSON booleans (``model``
    or null), and ``p_true`` a number in [0, 1] or null.  A file whose
    every ``p_true`` is null gives ``p_true`` None.  Raises ValueError for
    any other file.  Files written before records lost their always-null
    ``"human"`` key still load; the key is ignored."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if doc["rule_id"] != exemplar_list.rule_id:
        raise ValueError(f"rule_id {doc['rule_id']!r} is not {exemplar_list.rule_id!r}")
    records = doc["records"]
    found = [(r["set_index"], r["object_index"], r["gold"]) for r in records]
    items = [(s, o, gold) for s, o, _ctx, gold in exemplar_list.iter_items()]
    # Whole sets end at a set boundary: the record count is one of the
    # offsets.  Types are compared too: True == 1 and 1.0 == 1 in Python.
    if (not found or len(found) not in exemplar_list.offsets or found != items[:len(found)]
            or any(tuple(map(type, where)) != (int, int, bool) for where in found)):
        raise ValueError("its records are not the list's objects and gold labels over whole sets")
    labels = tuple(r["model"] for r in records)
    p_true = tuple(r["p_true"] for r in records)
    for label in labels:
        if label is not None and type(label) is not bool:
            raise ValueError(f"model must be a boolean or null, got {label!r}")
    for p in p_true:
        if p is not None and (type(p) not in (int, float) or not 0.0 <= p <= 1.0):
            raise ValueError(f"p_true must be a number in [0, 1] or null, got {p!r}")
    has_p = any(p is not None for p in p_true)
    return LabelSeries(exemplar_list, labels, p_true if has_p else None)
