"""Grading elicited rules: likelihood, consistency, and match rate.

*Likelihood* of a rule is the fraction of already-seen gold labels it
accounts for.  *Consistency* is the fraction of a session's emitted labels
that agree with the rule reported alongside them.  Both read one truth
vector per reported rule, in the list's layout order, and so does the
last reported rule's likelihood over the whole list.  *Match rate* is the
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
from ..exemplars import ExemplarList


@dataclass(frozen=True)
class RuleGrade:
    """One rule's reported rules, graded per set of its list.

    ``likelihoods[k]`` scores set k's rule against the gold labels of the
    sets before it; it is None for set 0 and for a missing or unparsed
    rule.  ``consistency`` is None when no label falls under a rule.
    ``final_likelihood`` scores ``final`` against every gold label of the
    list, exactly, so that a likelihood of 1 is decided without float
    comparison; it is None when ``final`` is.
    """

    sources: tuple[str | None, ...]  # the reported rule per set, as elicited
    likelihoods: tuple[float | None, ...]
    consistency: float | None
    final: Concept | None  # the last reported rule, if it parsed
    final_likelihood: Fraction | None
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
    consistency against set k's rule; the last reported rule is scored
    over the whole list.  Each distinct rule is evaluated once per object,
    up to the last object it is scored on, and every score is read from
    that one truth vector.
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
    # The last reported rule reaches every object.
    final = concepts[-1] if concepts else None
    reach = {
        concept: max(offsets[k], min(offsets[k + 1], len(labels)))
        for k, concept in enumerate(concepts_by_set) if concept is not None
    }
    if final is not None:
        reach[final] = offsets[-1]
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
        final=final,
        final_likelihood=(
            None if final is None else Fraction(correct_before[final][-1], offsets[-1])
        ),
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
    grades: Mapping[str, RuleGrade],
    lists: Mapping[str, ExemplarList],
    vocab: FeatureVocab,
    max_set_size: int = 5,
) -> MatchReport:
    """Each rule's final reported rule, as :func:`grade_session` graded it,
    against its full exemplar list: the grade's ``final_likelihood``, and
    whether the rule is equivalent to the list's gold concept.

    A missing or unparsed final rule (None) counts as a non-match.
    """
    if set(grades) != set(lists):
        raise ValueError("need exactly one grade per rule")
    verdicts = []
    for rule_id in sorted(lists):
        final, likelihood = grades[rule_id].final, grades[rule_id].final_likelihood
        verdicts.append(RuleVerdict(
            rule_id, likelihood, matches=likelihood == 1,
            equivalent=final is not None
            and equivalent(final, lists[rule_id].concept, vocab, max_set_size=max_set_size),
        ))
    return MatchReport(verdicts=tuple(verdicts))
