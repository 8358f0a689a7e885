"""Rule grading: likelihood, consistency, match rate."""

import random
from fractions import Fraction

import pytest

from metrics_reference import per_set_grade, series_of
from rulelab.catalog import DEFAULT_VOCAB as V
from rulelab.catalog import DEMO_RULES
from rulelab.dsl import Not, equivalent, evaluate, parse_concept, print_concept
from rulelab.exemplars import generate_list
from rulelab.learner import evidence_from_list
from rulelab.metrics import grade_session, match_rate, rule_likelihood_counts

GOLD = parse_concept("(implies (is-shape circle) (is-color blue))", V)
GOLD_SOURCE = print_concept(GOLD, V)


def reported_each_set(exemplar_list, source: str) -> list[str]:
    return [source] * len(exemplar_list.sets)


def test_gold_concept_has_likelihood_one():
    exemplar_list = generate_list(GOLD, V, seed=3)
    evidence = evidence_from_list(exemplar_list)
    correct, total = rule_likelihood_counts(GOLD, evidence)
    assert correct == total == exemplar_list.n_objects
    grade = grade_session(exemplar_list, reported_each_set(exemplar_list, GOLD_SOURCE), V)
    assert grade.likelihoods[0] is None  # no earlier evidence
    assert grade.likelihoods[1:] == (1.0,) * (len(exemplar_list.sets) - 1)


def test_negated_concept_has_complementary_likelihood():
    exemplar_list = generate_list(GOLD, V, seed=3)
    evidence = evidence_from_list(exemplar_list)
    correct, total = rule_likelihood_counts(GOLD, evidence)
    assert rule_likelihood_counts(Not(GOLD), evidence) == (total - correct, total)
    negated = print_concept(Not(GOLD), V)
    gold_grade = grade_session(exemplar_list, reported_each_set(exemplar_list, GOLD_SOURCE), V)
    negated_grade = grade_session(exemplar_list, reported_each_set(exemplar_list, negated), V)
    for likelihood, complement in zip(gold_grade.likelihoods[1:], negated_grade.likelihoods[1:]):
        assert complement == pytest.approx(1.0 - likelihood)


def test_equivalent_concepts_share_likelihood():
    # "not circle" and "triangle or rectangle" agree on every context, so
    # they agree on every list; here against a different gold rule.
    a = parse_concept("(not (is-shape circle))", V)
    b = parse_concept("(or (is-shape triangle) (is-shape rectangle))", V)
    assert equivalent(a, b, V)
    for seed in range(5):
        exemplar_list = generate_list(GOLD, V, seed=seed)
        evidence = evidence_from_list(exemplar_list)
        assert rule_likelihood_counts(a, evidence) == rule_likelihood_counts(b, evidence)
        grades = [
            grade_session(exemplar_list, reported_each_set(exemplar_list, print_concept(c, V)), V)
            for c in (a, b)
        ]
        assert grades[0].likelihoods == grades[1].likelihoods


def test_empty_evidence_rejected():
    with pytest.raises(ValueError):
        rule_likelihood_counts(GOLD, [])


def test_consistency_of_self_applied_rule():
    exemplar_list = generate_list(GOLD, V, seed=5)
    labels = [evaluate(GOLD, ctx) for ctx in exemplar_list.contexts]
    sources = reported_each_set(exemplar_list, GOLD_SOURCE)
    assert grade_session(exemplar_list, sources, V, labels).consistency == 1.0


def test_consistency_counts_flips():
    exemplar_list = generate_list(GOLD, V, seed=5)
    # Ten labeled objects over the first whole sets; flip exactly one.
    n_labels = next(n for n in exemplar_list.offsets if n >= 10)
    labels = [evaluate(GOLD, ctx) for ctx in exemplar_list.contexts[:10]]
    labels[3] = not labels[3]
    labels += [None] * (n_labels - 10)
    sources = reported_each_set(exemplar_list, GOLD_SOURCE)
    assert grade_session(exemplar_list, sources, V, labels).consistency == 0.9


def test_consistency_skips_excluded_and_unreported():
    exemplar_list = generate_list(GOLD, V, seed=5)
    start, second, end = exemplar_list.offsets[:3]
    assert second - start >= 2  # set 0 holds a labeled and an excluded object
    truth = [evaluate(GOLD, ctx) for ctx in exemplar_list.contexts[:end]]
    labels = [truth[0]] + [None] * (second - 1) + [not t for t in truth[second:end]]
    sources = [GOLD_SOURCE, None]  # set 1, labeled against the rule, reports none
    assert grade_session(exemplar_list, sources, V, labels).consistency == 1.0


def test_consistency_closed_form_under_noise():
    # A noisy labeler follows the rule with probability alpha, else flips a
    # beta coin; its expected agreement with the rule is
    # alpha + (1-alpha) * (beta * P(rule True) + (1-beta) * P(rule False)).
    rng = random.Random(19)
    alpha, beta = 0.75, 0.4
    exemplar_list = generate_list(GOLD, V, seed=9)
    rule_true = [evaluate(GOLD, ctx) for ctx in exemplar_list.contexts]
    p_true = sum(rule_true) / len(rule_true)
    expected = alpha + (1 - alpha) * (beta * p_true + (1 - beta) * (1 - p_true))

    sources = reported_each_set(exemplar_list, GOLD_SOURCE)
    trials = 4000
    agreements = 0
    for _ in range(trials):
        labels = [truth if rng.random() < alpha else rng.random() < beta for truth in rule_true]
        agreements += grade_session(exemplar_list, sources, V, labels).consistency
    observed = agreements / trials
    assert observed == pytest.approx(expected, abs=0.01)


def test_match_rate_strict_threshold():
    lists = {
        "gold": generate_list(GOLD, V, seed=1, rule_id="gold"),
        "other": generate_list(parse_concept("(is-color blue)", V), V, seed=2, rule_id="other"),
    }
    finals = {
        "gold": GOLD,  # exact match
        "other": parse_concept("(is-color green)", V),  # wrong rule
    }
    report = match_rate(finals, lists, V)
    assert report.match_rate == 0.5
    by_rule = {v.rule_id: v for v in report.verdicts}
    assert by_rule["gold"].matches and by_rule["gold"].equivalent
    assert by_rule["gold"].likelihood == Fraction(1)
    assert not by_rule["other"].matches
    assert by_rule["other"].likelihood < 1


def test_match_rate_accepts_equivalent_rewrites():
    gold = parse_concept("(not (is-shape circle))", V)
    lists = {"r": generate_list(gold, V, seed=4, rule_id="r")}
    finals = {"r": parse_concept("(or (is-shape triangle) (is-shape rectangle))", V)}
    report = match_rate(finals, lists, V)
    assert report.match_rate == 1.0 and report.equivalence_rate == 1.0


def test_match_rate_counts_missing_final_as_no_match():
    lists = {"r": generate_list(GOLD, V, seed=4, rule_id="r")}
    report = match_rate({"r": None}, lists, V)
    assert report.match_rate == 0.0 and report.verdicts[0].likelihood is None


def test_almost_perfect_likelihood_is_not_a_match():
    gold = parse_concept("(is-color blue)", V)
    exemplar_list = generate_list(gold, V, seed=8, rule_id="r")
    # A rule disagreeing on exactly the small blue circles of the list.
    near = parse_concept("(and (is-color blue) (not (and (is-size small) (is-shape circle))))", V)
    evidence = evidence_from_list(exemplar_list)
    correct, total = rule_likelihood_counts(near, evidence)
    assert correct < total  # the list does contain a small blue circle
    report = match_rate({"r": near}, {"r": exemplar_list}, V)
    assert not report.verdicts[0].matches


BLUE_SOURCE = "(is-color blue)"


def _blue_session_labels(exemplar_list) -> list[bool | None]:
    """Labels following "blue", with every set's first object excluded, a
    flip in set 3 (graded) and flips in sets 1 and 2 (no parsed rule)."""
    blue = parse_concept(BLUE_SOURCE, V)
    labels = []
    for set_index, object_index, ctx, _label in exemplar_list.iter_items():
        label = evaluate(blue, ctx)
        if object_index == 0:
            label = None
        elif set_index in (1, 2) or (set_index == 3 and object_index == 1):
            label = not label
        labels.append(label)
    return labels


def test_grade_session_per_set_likelihood():
    exemplar_list = generate_list(GOLD, V, seed=7, rule_id="gold")
    blue = parse_concept(BLUE_SOURCE, V)
    sources = [BLUE_SOURCE, "(is-color ultraviolet)", None] + [BLUE_SOURCE] * 30
    grade = grade_session(exemplar_list, sources, V)

    n_sets = len(exemplar_list.sets)
    assert len(grade.likelihoods) == len(grade.sources) == n_sets
    assert grade.likelihoods[0] is None  # no earlier evidence
    assert grade.likelihoods[1] is None  # did not parse
    assert grade.likelihoods[2] is None  # no rule reported
    for set_index in range(3, n_sets):
        earlier = [
            (ctx, label) for s, _o, ctx, label in exemplar_list.iter_items() if s < set_index
        ]
        correct = sum(evaluate(blue, ctx) == label for ctx, label in earlier)
        assert grade.likelihoods[set_index] == correct / len(earlier)
    scored = grade.likelihoods[3:]
    assert grade.mean_likelihood == sum(scored) / len(scored)
    assert [(s, src) for s, src, _error in grade.unparseable] == [(1, "(is-color ultraviolet)")]
    assert grade.final == blue
    assert grade.consistency is None  # no series given


def test_grade_session_consistency_skips_excluded_labels():
    exemplar_list = generate_list(GOLD, V, seed=7, rule_id="gold")
    sources = [BLUE_SOURCE, "(is-color ultraviolet)", None] + [BLUE_SOURCE] * (
        len(exemplar_list.sets) - 3
    )
    grade = grade_session(exemplar_list, sources, V, _blue_session_labels(exemplar_list))
    # Scored: every object but the first, in the sets with a parsed rule.
    scored = sum(
        len(s.labels) - 1 for i, s in enumerate(exemplar_list.sets) if i not in (1, 2)
    )
    assert len(exemplar_list.sets[3].labels) > 1  # so set 3 holds the one scored flip
    assert grade.consistency == (scored - 1) / scored


def test_grade_session_without_labels_under_a_rule():
    exemplar_list = generate_list(GOLD, V, seed=7, rule_id="gold")
    labels = _blue_session_labels(exemplar_list)
    grade = grade_session(exemplar_list, [None] * len(exemplar_list.sets), V, labels)
    assert grade.consistency is None
    assert all(likelihood is None for likelihood in grade.likelihoods)
    assert grade.final is None and grade.mean_likelihood is None


def _reported_rules(exemplar_list, rng: random.Random) -> list[str | None]:
    """One printed rule per set, drawn with repeats from a few catalog
    rules, the gold rule, no rule and one that does not parse."""
    pool = [rule.source for rule in rng.sample(DEMO_RULES, 4)]
    pool += [print_concept(exemplar_list.concept, V), None, "(is-color mauve)"]
    n_sets = len(exemplar_list.sets)
    return [rng.choice(pool) for _ in range(n_sets + rng.choice((-3, 0, 2)))]


def _sampled_labels(exemplar_list, rng: random.Random) -> list[bool | None]:
    return [rng.choice((True, False, None)) for _ in range(exemplar_list.n_objects)]


@pytest.mark.parametrize("rule", DEMO_RULES, ids=[rule.rule_id for rule in DEMO_RULES])
def test_grade_session_is_the_per_set_loop(rule, monkeypatch):
    """The same RuleGrade as the per-set loop on every catalog rule, with
    each distinct rule evaluated at most once per object of the list."""
    import rulelab.metrics.grading as grading

    rng = random.Random(rule.rule_id)
    exemplar_list = generate_list(parse_concept(rule.source, V), V, seed=11, rule_id=rule.rule_id)
    sources = _reported_rules(exemplar_list, rng)
    labels = _sampled_labels(exemplar_list, rng)
    assert grade_session(exemplar_list, sources, V) == per_set_grade(exemplar_list, sources, V)
    assert grade_session(exemplar_list, sources, V, labels) == per_set_grade(
        exemplar_list, sources, V, series_of(labels, exemplar_list)
    )

    calls = []

    def counted(concept, ctx):
        calls.append(concept)
        return evaluate(concept, ctx)

    monkeypatch.setattr(grading, "evaluate", counted)
    distinct = {parse_concept(s, V) for s in sources if s is not None and "mauve" not in s}
    for given in ((), labels):  # likelihood and consistency read one truth vector
        calls.clear()
        grade_session(exemplar_list, sources, V, given)
        assert len(calls) <= exemplar_list.n_objects * len(distinct)


def test_grade_session_parses_each_distinct_source_once(monkeypatch):
    """A session that repeats rules, reports none and repeats an unparseable
    rule parses each distinct source once, keeps one unparseable entry per
    failing set and grades as the per-set loop does."""
    import rulelab.metrics.grading as grading

    exemplar_list = generate_list(GOLD, V, seed=7, rule_id="gold")
    bad = "(is-color ultraviolet)"
    sources = [BLUE_SOURCE, bad, None, GOLD_SOURCE, bad] + [BLUE_SOURCE, None, GOLD_SOURCE] * 6
    parsed = []

    def counted(source, vocab):
        parsed.append(source)
        return parse_concept(source, vocab)

    monkeypatch.setattr(grading, "parse_concept", counted)
    grade = grade_session(exemplar_list, sources, V)
    assert sorted(parsed) == sorted({BLUE_SOURCE, bad, GOLD_SOURCE})
    assert [(s, src) for s, src, _error in grade.unparseable] == [(1, bad), (4, bad)]
    assert grade == per_set_grade(exemplar_list, sources, V)
