"""Grading elicited rules and scoring learning behavior.

    python3 demos/04_grading_and_metrics.py
"""

from rulelab.catalog import DEFAULT_VOCAB as vocab
from rulelab.dsl import evaluate, parse_concept
from rulelab.exemplars import generate_list
from rulelab.metrics import (
    accuracy,
    chance_baseline,
    cross_entropy,
    grade_session,
    last_quarter_count,
    match_rate,
    r_squared,
)

# Every score reads label vectors: one label (or None, excluded) per object,
# in the list's layout order, so set k is the slice offsets[k]:offsets[k + 1].

# --- 1. Accuracy windows -------------------------------------------------------
# "Last quarter" means the final ceil(N/4) objects by presentation order;
# excluded objects are dropped after the window is cut.
gold_rule = parse_concept("(is-color blue)", vocab)
exemplar_list = generate_list(gold_rule, vocab, seed=3, rule_id="blue")
labels = [
    label if (set_index + object_index) % 7 else not label  # imperfect labeler
    for set_index, object_index, _ctx, label in exemplar_list.iter_items()
]
n = exemplar_list.n_objects
print(f"list of {n} objects; last-quarter window = {last_quarter_count(n)} objects")
print(f"overall accuracy      : {accuracy(labels, exemplar_list.gold):.3f}")
print(f"last-quarter accuracy : {accuracy(labels, exemplar_list.gold, 'last_quarter'):.3f}")
true_rate = sum(exemplar_list.gold) / n
print(f"chance baseline at p={true_rate:.2f}: {chance_baseline(true_rate):.3f}")

# --- 2. Likelihood: how much of the seen evidence a rule explains ---------------
# Set k's reported rule is scored on the gold labels of the sets before it.
for source in ("(is-color blue)", "(not (is-color yellow))", "(is-shape circle)"):
    grade = grade_session(exemplar_list, [source] * 13, vocab)
    print(f"likelihood of {source:24s} after 12 sets: {grade.likelihoods[12]:.3f}")

# --- 3. Consistency: do emitted labels follow the reported rule? ----------------
# The labels of the first 10 sets, each emitted under the rule reported for it.
reported = "(is-color blue)"
emitted = [
    evaluate(parse_concept(reported, vocab), ctx)
    for ctx in exemplar_list.contexts[:exemplar_list.offsets[10]]
]
grade = grade_session(exemplar_list, [reported] * 10, vocab, emitted)
print(f"consistency of a self-applied rule: {grade.consistency:.3f}")

# --- 4. Match rate: strict likelihood-1.0 plus bounded-universe equivalence -----
lists = {
    "not-circle": generate_list(parse_concept("(not (is-shape circle))", vocab), vocab,
                                seed=5, rule_id="not-circle"),
    "blue": generate_list(gold_rule, vocab, seed=6, rule_id="blue"),
}
# Each rule's session reports one rule; grade_session scores the last one
# over the whole list, and match_rate adds the equivalence verdict.
finals = {
    "not-circle": "(or (is-shape triangle) (is-shape rectangle))",
    "blue": "(is-color green)",
}
grades = {rule_id: grade_session(lists[rule_id], [finals[rule_id]], vocab) for rule_id in lists}
report = match_rate(grades, lists, vocab)
for verdict in report.verdicts:
    print(f"rule {verdict.rule_id!r}: likelihood {verdict.likelihood}, "
          f"match={verdict.matches}, equivalent={verdict.equivalent}")
print(f"match rate {report.match_rate:.2f}, equivalence rate {report.equivalence_rate:.2f}")

# --- 5. Correlation with human proportions and the tuning loss ------------------
model_p = [0.9, 0.8, 0.6, 0.3, 0.2, 0.75]
human_p = [0.95, 0.7, 0.55, 0.4, 0.1, 0.8]
print(f"r^2 against human proportions: {r_squared(model_p, human_p):.3f}")
loss = sum(cross_entropy(h, m) for h, m in zip(human_p, model_p))
print(f"summed cross-entropy to the human targets: {loss:.3f} nats")
