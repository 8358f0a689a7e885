"""Deterministic prompt construction for the iterated labeling task.

Prompts accrete: each queried set is preceded by every earlier set's
objects with their *gold* labels (never the model's own answers), chat
history carrying the labels as assistant turns and completion prompts
carrying them inline as "object -> label" lines.  Completion models are
queried one object at a time, with the current set's earlier objects
already labeled in the prompt.

The instruction texts below are this repository's fixed templates; golden
files under tests/golden freeze their rendered form byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exemplars import ExemplarList

MODES = ("chat", "completion", "chat+elicitation")

CHAT_PREAMBLE = """\
We are playing a labeling game. A hidden rule decides whether each object \
is labeled True or False. Objects are described by their size, color, and shape.
You will be shown groups of objects, one group at a time. For every group, \
reply with one line per object, in the order given, formatted exactly as:
- <object> -> True
or
- <object> -> False
After you answer, the correct labels for that group are revealed and the \
game continues with the next group. Use the revealed labels to work out the \
hidden rule. Always label every object, even if you are unsure."""

ELICITATION_ADDENDUM = """
Before the labels, state your best current guess of the hidden rule on a \
single line formatted exactly as:
Rule: <one concise sentence>"""

COMPLETION_PREAMBLE = """\
Every object below is labeled True or False according to a hidden rule. \
Objects are described by their size, color, and shape, and appear in groups. \
Continue the pattern by labeling the next object."""


@dataclass(frozen=True)
class PromptBundle:
    """A rendered prompt: role-tagged turns for chat modes, a flat prefix
    for completion mode."""

    mode: str
    system: str | None = None
    turns: tuple[tuple[str, str], ...] | None = None
    prefix: str | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "completion":
            if self.prefix is None or self.turns is not None:
                raise ValueError("completion bundles carry a prefix only")
        else:
            if self.turns is None or self.prefix is not None:
                raise ValueError("chat bundles carry turns only")

    def as_document(self) -> dict:
        doc = {"mode": self.mode}
        if self.mode == "completion":
            doc["prefix"] = self.prefix
        else:
            doc["system"] = self.system
            doc["turns"] = [list(t) for t in self.turns]
        return doc


def _group_query(exemplar_list: ExemplarList, set_index: int) -> str:
    lines = [f"Group {set_index + 1}:"]
    lines += [
        f"- {obj.render(exemplar_list.vocab)}"
        for obj in exemplar_list.sets[set_index].objects
    ]
    return "\n".join(lines)


def _group_answer(exemplar_list: ExemplarList, set_index: int) -> str:
    exemplar_set = exemplar_list.sets[set_index]
    return "\n".join(
        f"- {obj.render(exemplar_list.vocab)} -> {label}"
        for obj, label in zip(exemplar_set.objects, exemplar_set.labels)
    )


def build_prompt(
    exemplar_list: ExemplarList,
    upto_set: int,
    mode: str,
    upto_object: int = 0,
) -> PromptBundle:
    """Prompt querying set ``upto_set``, with gold-label history for all
    earlier sets.

    ``upto_object`` applies to completion mode only: the queried set's
    first ``upto_object`` objects appear already labeled and the prompt
    ends awaiting the label of object ``upto_object``.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if not 0 <= upto_set < len(exemplar_list.sets):
        raise ValueError(f"upto_set {upto_set} out of range")

    if mode == "completion":
        queried = exemplar_list.sets[upto_set]
        if not 0 <= upto_object < len(queried.objects):
            raise ValueError(f"upto_object {upto_object} out of range")
        parts = [COMPLETION_PREAMBLE, ""]
        for prior in range(upto_set):
            parts.append(f"Group {prior + 1}:")
            parts.append(_group_answer(exemplar_list, prior))
            parts.append("")
        parts.append(f"Group {upto_set + 1}:")
        for j in range(upto_object):
            obj = queried.objects[j]
            parts.append(f"- {obj.render(exemplar_list.vocab)} -> {queried.labels[j]}")
        parts.append(f"- {queried.objects[upto_object].render(exemplar_list.vocab)} ->")
        return PromptBundle(mode=mode, prefix="\n".join(parts))

    system = CHAT_PREAMBLE + (ELICITATION_ADDENDUM if mode == "chat+elicitation" else "")
    turns: list[tuple[str, str]] = []
    for prior in range(upto_set):
        turns.append(("user", _group_query(exemplar_list, prior)))
        turns.append(("assistant", _group_answer(exemplar_list, prior)))
    turns.append(("user", _group_query(exemplar_list, upto_set)))
    return PromptBundle(mode=mode, system=system, turns=tuple(turns))
