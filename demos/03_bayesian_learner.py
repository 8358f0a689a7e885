"""The Bayesian learner: grammar, posterior evolution, and MCMC.

The learner scores every concept its grammar derives (up to a node budget)
against the labels seen so far, under a two-parameter noise model: labels
follow the rule with probability alpha, otherwise they are True with
probability beta.

    python3 demos/03_bayesian_learner.py
"""

import math
from itertools import islice

from rulelab.catalog import DEFAULT_VOCAB as vocab
from rulelab.dsl import parse_concept, print_concept
from rulelab.exemplars import generate_list
from rulelab.learner import (
    NoiseParams,
    build_eval_matrix,
    default_grammar,
    enumerate_hypotheses,
    evidence_from_list,
    mh_sample,
    posterior_by_set,
    run_enumerative,
)

grammar = default_grammar(vocab)
noise = NoiseParams(alpha=0.95, beta=0.5)

# --- 1. The hypothesis space --------------------------------------------------
for bound in (1, 2, 3):
    hypotheses = enumerate_hypotheses(grammar, bound)
    mass = sum(math.exp(lp) for _c, lp in hypotheses)
    print(f"size <= {bound}: {len(hypotheses):4d} concepts, prior mass {mass:.3f}")

# --- 2. Watching the posterior learn a rule -----------------------------------
rule = parse_concept("(and (is-color blue) (is-shape circle))", vocab)
exemplar_list = generate_list(rule, vocab, seed=23, rule_id="blue-circle")
hypotheses = enumerate_hypotheses(grammar, 3)
run = run_enumerative(exemplar_list, hypotheses, build_eval_matrix(hypotheses, exemplar_list), noise)

# The run's labels and P(True) are vectors in the list's layout order: set k
# is the slice offsets[k]:offsets[k + 1], as in the list's gold labels.
offsets, labels = exemplar_list.offsets, run.labels
print("\nset | MAP rule so far                                  | set accuracy")
for set_index, map_concept in enumerate(run.set_maps):
    start, stop = offsets[set_index], offsets[set_index + 1]
    gold = exemplar_list.gold[start:stop]
    set_accuracy = sum(a == b for a, b in zip(labels[start:stop], gold)) / len(gold)
    if set_index % 4 == 0 or set_index == 24:
        printed = print_concept(map_concept, vocab)
        print(f" {set_index + 1:2d} | {printed:48s} | {set_accuracy:.2f}")
print(f"final MAP: {print_concept(run.final_map, vocab)}")

# --- 3. The posterior-predictive mixes rule following with baseline noise -----
# Set 10 is predicted from the posterior over sets 0..9.
first = offsets[10]
ctx = exemplar_list.contexts[first]
print(f"\nafter 10 sets: MAP = {print_concept(run.set_maps[10], vocab)}")
print(f"P(True) for {ctx.objects[ctx.target].render(vocab)!r}: "
      f"{run.p_true[first]:.3f} -> label {labels[first]}")

# --- 4. MCMC agrees with exact enumeration ------------------------------------
# Metropolis-Hastings with subtree-regeneration proposals targets the same
# truncated posterior; on small spaces the two coincide closely.  Row 6 of
# posterior_by_set is the exact posterior over sets 0..5.
hypotheses = enumerate_hypotheses(grammar, 2)
steps = posterior_by_set(build_eval_matrix(hypotheses, exemplar_list), noise)
_ll, log_posterior, _map = next(islice(steps, 6, None))
exact_mass = {c: math.exp(lp) for (c, _prior), lp in zip(hypotheses, log_posterior.tolist())}
evidence = evidence_from_list(exemplar_list, upto_set=6)
empirical = mh_sample(grammar, evidence, noise, iterations=60_000, seed=4, max_size=2)

empirical_mass = {e.concept: math.exp(e.log_weight) for e in empirical.entries}
support = set(exact_mass) | set(empirical_mass)
tv = 0.5 * sum(abs(exact_mass.get(c, 0) - empirical_mass.get(c, 0)) for c in support)
print(f"\nMH vs enumeration total-variation distance: {tv:.4f} (60k iterations)")

top = sorted(exact_mass.items(), key=lambda item: -item[1])[:3]
print("top exact posterior mass:")
for concept, mass in top:
    print(f"  {mass:6.3f}  {print_concept(concept, vocab)}")
