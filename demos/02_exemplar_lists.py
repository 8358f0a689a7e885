"""Exemplar lists and human-data preprocessing.

An exemplar list is a rule's fixed sequence of 25 labeled object sets.
This script generates lists, shows their statistics, persists one, and
walks through the subject filter on a synthetic cohort:

    python3 demos/02_exemplar_lists.py
"""

import statistics
import tempfile
from pathlib import Path

from rulelab.catalog import DEFAULT_VOCAB as vocab
from rulelab.dsl import parse_concept
from rulelab.exemplars import (
    SubjectRecord,
    filter_subjects,
    generate_list,
    human_proportions,
    load_list,
    propagated_baseline,
    save_list,
)

# --- 1. Generation is seeded and reproducible --------------------------------
rule = parse_concept("(implies (is-shape circle) (is-color blue))", vocab)
exemplar_list = generate_list(rule, vocab, seed=7, rule_id="circle-implies-blue")
print("== one exemplar list ==")
print(f"  sets: {len(exemplar_list.sets)}, total objects: {exemplar_list.n_objects}")
first = exemplar_list.sets[0]
for obj, label in zip(first.objects, first.labels):
    print(f"  set 1: {obj.render(vocab):28s} -> {label}")

totals = [generate_list(rule, vocab, seed=s).n_objects for s in range(300)]
print(f"  mean objects over 300 seeds: {statistics.mean(totals):.1f} (expect ~75)")

# --- 2. Persistence round-trips and re-verifies labels -----------------------
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "list.json"
    save_list(exemplar_list, path)
    assert load_list(path) == exemplar_list
    print(f"\n== persisted and re-verified {path.name} ({path.stat().st_size} bytes) ==")

# --- 3. Subject preprocessing -------------------------------------------------
# Subjects who completed fewer than five sets are dropped first; then a
# single two-standard-deviation accuracy pass over the remaining pool.
print("\n== subject filtering ==")


def subject(subject_id, n_wrong, sets_completed=25):
    responses = {}
    wrong = 0
    for set_index, object_index, _ctx, label in exemplar_list.iter_items():
        if set_index >= sets_completed:
            break
        response = label
        if wrong < n_wrong:
            response = not label
            wrong += 1
        responses[(set_index, object_index)] = response
    return SubjectRecord(subject_id, exemplar_list.rule_id, responses, sets_completed)


cohort = [subject(f"s{i}", n_wrong=7) for i in range(9)]      # ~0.9 accuracy
cohort.append(subject("slacker", n_wrong=0, sets_completed=3))  # too few sets
cohort.append(subject("confused", n_wrong=68))                  # ~0.1 accuracy

kept, report = filter_subjects(cohort, exemplar_list)
print(f"  kept {len(kept)} of {len(cohort)} subjects "
      f"(pool mean {report.pool_mean:.3f}, sd {report.pool_sd:.3f})")
for exclusion in report.exclusions:
    print(f"  excluded {exclusion.subject_id!r}: {exclusion.reason} ({exclusion.detail})")

proportions = human_proportions(kept, exemplar_list)  # one per object, in layout order
print(f"  proportion True at set 1, object 1: {proportions[0]:.2f}")

# --- 4. Aggregating per-rule accuracies ---------------------------------------
mean, sd = propagated_baseline([(0.83, 0.04), (0.71, 0.06), (0.92, 0.03)])
print(f"\n== propagated baseline over three rules: {mean:.3f} +/- {sd:.3f} ==")
