"""Grading elicited rules: likelihood, consistency, and match rate.

*Likelihood* of a rule is the fraction of already-seen gold labels it
accounts for.  *Consistency* is the fraction of a session's emitted labels
that agree with the rule reported alongside them.  Both read one truth
vector per reported rule, in the list's layout order.  *Match rate* is the
fraction of rules whose final reported rule reaches likelihood exactly 1.0
over the full list; the stricter bounded-universe equivalence rate is
reported next to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Mapping, Sequence

from ..dsl import Concept, DslError, FeatureVocab, equivalent, evaluate, parse_concept
from ..exemplars import ExemplarList, Observation, evidence_from_list


def rule_likelihood_counts(concept: Concept, evidence: Sequence[Observation]) -> tuple[int, int]:
    """(correct, total) over the evidence; exact integers so that a
    likelihood of exactly 1.0 is decidable without float comparison."""
    if not evidence:
        raise ValueError("evidence must be non-empty")
    correct = sum(evaluate(concept, ctx) == label for ctx, label in evidence)
    return correct, len(evidence)


@dataclass(frozen=True)
class RuleGrade:
    """One rule's reported rules, graded per set of its list.

    ``likelihoods[k]`` scores set k's rule against the gold labels of the
    sets before it; it is None for set 0 and for a missing or unparsed
    rule.  ``consistency`` is None when no label falls under a rule.
    """

    sources: tuple[str | None, ...]  # the reported rule per set, as elicited
    likelihoods: tuple[float | None, ...]
    consistency: float | None
    final: Concept | None  # the last reported rule, if it parsed
    unparseable: tuple[tuple[int, str, str], ...]  # (set_index, source, error)

    @property
    def mean_likelihood(self) -> float | None:
        scored = [lik for lik in self.likelihoods if lik is not None]
        return sum(scored) / len(scored) if scored else None


def grade_session(
    exemplar_list: ExemplarList,
    sources: Sequence[str | None],
    vocab: FeatureVocab,
    labels: Sequence[bool | None] = (),
) -> RuleGrade:
    """Grade the rules reported for each set (``sources``, printed).

    Set k's rule is scored for likelihood on the objects before set k, the
    first ``offsets[k]``.  ``labels``, if given, holds the label emitted for
    each object, None where it was excluded, in the list's layout order
    over its first whole sets; each label of set k is scored for
    consistency against set k's rule.  Each distinct rule is evaluated once
    per object, up to the last object it is scored on, and both scores are
    read from that one truth vector.
    """
    offsets = exemplar_list.offsets
    if len(labels) not in offsets:
        raise ValueError("labels must cover the list's first whole sets")
    concepts: list[Concept | None] = []
    unparseable = []
    # A session often repeats one rule: each distinct source is parsed once,
    # to its concept or its parse error.
    parsed: dict[str, tuple[Concept | None, str | None]] = {}
    for set_index, source in enumerate(sources):
        if source is None:
            concepts.append(None)
            continue
        if source not in parsed:
            try:
                parsed[source] = parse_concept(source, vocab), None
            except DslError as error:
                parsed[source] = None, str(error)
        concept, error = parsed[source]
        concepts.append(concept)
        if error is not None:
            unparseable.append((set_index, source, error))

    n_sets = len(exemplar_list.sets)
    concepts_by_set = concepts[:n_sets] + [None] * (n_sets - len(concepts))
    # Set k's rule is scored on the objects before set k and on set k's
    # labels; offsets grow with k, so each rule's last set reaches furthest.
    reach = {
        concept: max(offsets[k], min(offsets[k + 1], len(labels)))
        for k, concept in enumerate(concepts_by_set) if concept is not None
    }
    truth = {
        concept: [evaluate(concept, ctx) for ctx in exemplar_list.contexts[:n]]
        for concept, n in reach.items()
    }
    correct_before = {
        concept: list(accumulate((t == g for t, g in zip(row, exemplar_list.gold)), initial=0))
        for concept, row in truth.items()
    }
    likelihoods = [
        correct_before[concept][offsets[k]] / offsets[k]
        if concept is not None and offsets[k] else None
        for k, concept in enumerate(concepts_by_set)
    ]
    agreed = [
        truth[concept][i] == labels[i]
        for k, concept in enumerate(concepts_by_set) if concept is not None
        for i in range(offsets[k], min(offsets[k + 1], len(labels))) if labels[i] is not None
    ]
    return RuleGrade(
        sources=tuple(sources[:n_sets]) + (None,) * (n_sets - len(sources)),
        likelihoods=tuple(likelihoods),
        consistency=sum(agreed) / len(agreed) if agreed else None,
        final=concepts[-1] if concepts else None,
        unparseable=tuple(unparseable),
    )


@dataclass(frozen=True)
class RuleVerdict:
    rule_id: str
    likelihood: Fraction | None  # None when the final rule did not parse
    matches: bool
    equivalent: bool


@dataclass(frozen=True)
class MatchReport:
    verdicts: tuple[RuleVerdict, ...]

    @property
    def match_rate(self) -> float:
        return sum(v.matches for v in self.verdicts) / len(self.verdicts)

    @property
    def equivalence_rate(self) -> float:
        return sum(v.equivalent for v in self.verdicts) / len(self.verdicts)


def match_rate(
    final_concepts: Mapping[str, Concept | None],
    lists: Mapping[str, ExemplarList],
    vocab: FeatureVocab,
    max_set_size: int = 5,
) -> MatchReport:
    """Grade one final concept per rule against its full exemplar list.

    A missing or unparsed final concept (None) counts as a non-match.
    """
    if set(final_concepts) != set(lists):
        raise ValueError("need exactly one final concept per rule")
    verdicts = []
    for rule_id in sorted(lists):
        exemplar_list = lists[rule_id]
        concept = final_concepts[rule_id]
        if concept is None:
            verdicts.append(RuleVerdict(rule_id, None, False, False))
            continue
        correct, total = rule_likelihood_counts(concept, evidence_from_list(exemplar_list))
        verdicts.append(
            RuleVerdict(
                rule_id=rule_id,
                likelihood=Fraction(correct, total),
                matches=correct == total,
                equivalent=equivalent(
                    concept, exemplar_list.concept, vocab, max_set_size=max_set_size
                ),
            )
        )
    return MatchReport(verdicts=tuple(verdicts))
