"""Label and probability extraction from model responses.

True/False variant matching (case and surrounding whitespace insensitive)
lives in one function, :func:`label_token_family`, shared by text
extraction and log-probability summing so the two can never drift apart.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence


class DegenerateMassError(ValueError):
    """No True or False variant appears among the top tokens."""


def label_token_family(token: str) -> bool | None:
    """True/False when the token is a variant of that label, else None."""
    word = token.strip().casefold()
    if word == "true":
        return True
    if word == "false":
        return False
    return None


def true_probability(top_logprobs: Mapping[str, float] | Iterable[tuple[str, float]]) -> float:
    """Normalized True-mass from the top-k token log-probabilities at a
    label position: sum each family's exp(logprob), return mT/(mT+mF)."""
    items = top_logprobs.items() if isinstance(top_logprobs, Mapping) else top_logprobs
    mass = {True: 0.0, False: 0.0}
    for token, logprob in items:
        family = label_token_family(token)
        if family is not None:
            mass[family] += math.exp(logprob)
    total = mass[True] + mass[False]
    if total == 0.0:
        raise DegenerateMassError("no True/False variants among the top tokens")
    return mass[True] / total


@dataclass(frozen=True)
class Exclusion:
    object_index: int
    reason: str


@dataclass
class ExtractionResult:
    """Per-object labels aligned with the queried set; excluded objects are
    None and carry a reason.  In chat modes, ``lines`` holds each object's
    matched line as an index into ``response.splitlines()``, None for an
    object-mismatch exclusion; completion mode leaves it empty."""

    labels: list[bool | None]
    exclusions: list[Exclusion] = field(default_factory=list)
    rule_text: str | None = None
    lines: list[int | None] = field(default_factory=list)


_LABEL_LINE = re.compile(r"^(?P<desc>.+?)->(?P<label>.+)$")
_RULE_LINE = re.compile(r"^\s*rule\s*:\s*(?P<text>.+)$", re.IGNORECASE)


def _normalize_description(text: str) -> str:
    text = text.strip().strip("-*").strip()
    text = re.sub(r"^\d+[:.)]\s*", "", text)
    return re.sub(r"\s+", " ", text).casefold()


def extract_labels(
    response: str, expected_objects: Sequence[str], mode: str
) -> ExtractionResult:
    """Extract per-object labels from a raw response.

    Completion mode expects a single object: the first line's leading word
    must be a True/False variant, otherwise the object is excluded with
    reason "non-boolean completion".  Chat modes align the response's
    "object -> label" lines to the queried objects by description; objects
    the model re-described differently or never mentioned are excluded with
    reason "object-mismatch", and matched lines with an unreadable label
    with reason "non-boolean label".  Extraction never fails: exclusions
    are the error channel.
    """
    if mode == "completion":
        if len(expected_objects) != 1:
            raise ValueError("completion extraction expects exactly one object")
        first_line = response.lstrip().split("\n", 1)[0]
        token = first_line.split()[0] if first_line.split() else ""
        family = label_token_family(token.rstrip(".,;!"))
        if family is None:
            return ExtractionResult(
                labels=[None], exclusions=[Exclusion(0, "non-boolean completion")]
            )
        return ExtractionResult(labels=[family])

    rule_text = None
    candidates: dict[int, tuple[str, str]] = {}  # line -> (normalized description, label text)
    for line_index, raw_line in enumerate(response.splitlines()):
        rule_match = _RULE_LINE.match(raw_line)
        if rule_match and rule_text is None:
            rule_text = rule_match.group("text").strip()
            continue
        label_match = _LABEL_LINE.match(raw_line.strip())
        if label_match:
            candidates[line_index] = (
                _normalize_description(label_match.group("desc")),
                label_match.group("label"),
            )

    result = ExtractionResult(labels=[], rule_text=rule_text)
    for index, description in enumerate(expected_objects):
        wanted = _normalize_description(description)
        line_index = next((i for i, (desc, _) in candidates.items() if desc == wanted), None)
        result.lines.append(line_index)
        if line_index is None:
            result.labels.append(None)
            result.exclusions.append(Exclusion(index, "object-mismatch"))
            continue
        family = label_token_family(candidates.pop(line_index)[1])
        result.labels.append(family)
        if family is None:
            result.exclusions.append(Exclusion(index, "non-boolean label"))
    return result
