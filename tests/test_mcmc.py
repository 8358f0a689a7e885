"""MH sampling validated against exact enumeration."""

import math
import os
import pkgutil
import subprocess
import sys
import textwrap
from importlib import import_module
from pathlib import Path
from itertools import islice

import numpy as np
import pytest

import rulelab
from reference import PosteriorState, log_likelihood, posterior_predictive, set_prediction
from rulelab.catalog import DEFAULT_VOCAB as V
from rulelab.dsl import ContextBatch, evaluate, evaluate_batch, parse_concept
from rulelab.exemplars import generate_list
from rulelab.learner import (
    NoiseParams,
    build_eval_matrix,
    default_grammar,
    enumerate_hypotheses,
    evidence_from_list,
    grammar_from_pairs,
    map_rule,
    mh_sample,
    posterior_by_set,
    run_mh,
)


def tv_distance(state_a: PosteriorState, state_b: PosteriorState) -> float:
    mass_a = {e.concept: math.exp(e.log_weight) for e in state_a.entries}
    mass_b = {e.concept: math.exp(e.log_weight) for e in state_b.entries}
    support = set(mass_a) | set(mass_b)
    return 0.5 * sum(abs(mass_a.get(c, 0.0) - mass_b.get(c, 0.0)) for c in support)


def small_grammar():
    return grammar_from_pairs(
        "S",
        [
            ("S", "(is-color blue)", 1.0),
            ("S", "(is-shape circle)", 1.0),
            ("S", "(is-size small)", 1.0),
            ("S", "(and S S)", 0.6),
            ("S", "(or S S)", 0.6),
            ("S", "(not S)", 0.6),
        ],
        V,
    )


def test_same_seed_identical_chain():
    grammar = default_grammar(V)
    exemplar_list = generate_list(parse_concept("(is-color blue)", V), V, seed=1)
    evidence = evidence_from_list(exemplar_list, upto_set=3)
    noise = NoiseParams(0.9, 0.5)
    a = mh_sample(grammar, evidence, noise, iterations=5000, seed=13, max_size=2)
    b = mh_sample(grammar, evidence, noise, iterations=5000, seed=13, max_size=2)
    assert [(e.concept, e.log_weight) for e in a.entries] == [
        (e.concept, e.log_weight) for e in b.entries
    ]
    c = mh_sample(grammar, evidence, noise, iterations=5000, seed=14, max_size=2)
    assert [(e.concept, e.log_weight) for e in a.entries] != [
        (e.concept, e.log_weight) for e in c.entries
    ]


def test_mode_matches_enumeration_mode():
    grammar = default_grammar(V)
    exemplar_list = generate_list(parse_concept("(is-color blue)", V), V, seed=2)
    evidence = evidence_from_list(exemplar_list, upto_set=10)
    noise = NoiseParams(1.0, 0.5)
    empirical = mh_sample(grammar, evidence, noise, iterations=20_000, seed=5, max_size=2)
    exact = PosteriorState.from_hypotheses(enumerate_hypotheses(grammar, 2), V)
    exact = exact.update_batch(evidence, noise)
    best_exact = max(exact.entries, key=lambda e: e.log_weight).concept
    best_empirical = max(empirical.entries, key=lambda e: e.log_weight).concept
    assert best_exact == best_empirical == parse_concept("(is-color blue)", V)


def test_prior_agreement_without_evidence():
    grammar = small_grammar()
    hypotheses = enumerate_hypotheses(grammar, 3)
    assert len(hypotheses) <= 50
    exact = PosteriorState.from_hypotheses(hypotheses, V)
    empirical = mh_sample(
        grammar, [], NoiseParams(1.0, 0.5), iterations=100_000, seed=3, max_size=3
    )
    assert tv_distance(exact, empirical) < 0.05


def test_posterior_agreement_with_evidence():
    grammar = default_grammar(V)
    exemplar_list = generate_list(parse_concept("(is-shape circle)", V), V, seed=6)
    evidence = evidence_from_list(exemplar_list, upto_set=4)
    noise = NoiseParams(0.85, 0.5)
    hypotheses = enumerate_hypotheses(grammar, 2)
    assert len(hypotheses) <= 200
    exact = PosteriorState.from_hypotheses(hypotheses, V).update_batch(evidence, noise)
    empirical = mh_sample(grammar, evidence, noise, iterations=100_000, seed=9, max_size=2)
    assert tv_distance(exact, empirical) < 0.05


def test_size_bound_respected():
    grammar = default_grammar(V)
    empirical = mh_sample(
        grammar, [], NoiseParams(1.0, 0.5), iterations=20_000, seed=1, max_size=2
    )
    from rulelab.dsl import size

    assert all(size(e.concept) <= 2 for e in empirical.entries)


def test_run_mh_learns_a_simple_rule():
    grammar = default_grammar(V)
    concept = parse_concept("(is-color blue)", V)
    exemplar_list = generate_list(concept, V, seed=17, rule_id="blue")
    run = run_mh(exemplar_list, grammar, NoiseParams(0.95, 0.5), iterations=4000, seed=2, max_size=2)
    assert run.final_map == concept
    late = exemplar_list.offsets[-6]  # the first object of the last five sets
    gold = exemplar_list.gold[late:]
    correct = sum(a == b for a, b in zip(run.labels[late:], gold))
    assert correct / len(gold) >= 0.9


EXACTLY_ONE_BLUE = parse_concept("(exactly-one all (is-color blue 0))", V)


def test_posterior_agreement_under_fol_evidence():
    # "Exactly one blue object" list (list seed 2), first 3 sets (8 objects),
    # max_size 3 (782 concepts); the chain runs 100,000 steps from seed 1.
    grammar = default_grammar(V)
    exemplar_list = generate_list(EXACTLY_ONE_BLUE, V, seed=2, rule_id="one-blue")
    noise = NoiseParams(0.85, 0.5)
    hypotheses = enumerate_hypotheses(grammar, 3)
    steps = posterior_by_set(build_eval_matrix(hypotheses, exemplar_list), noise)
    _ll, log_posterior, _map = next(islice(steps, 3, None))
    exact = {c: math.exp(lp) for (c, _prior), lp in zip(hypotheses, log_posterior.tolist())}
    evidence = evidence_from_list(exemplar_list, upto_set=3)
    empirical = mh_sample(grammar, evidence, noise, iterations=100_000, seed=1, max_size=3)
    mass = {e.concept: math.exp(e.log_weight) for e in empirical.entries}
    tv = 0.5 * sum(abs(exact.get(c, 0.0) - mass.get(c, 0.0)) for c in set(exact) | set(mass))
    assert tv < 0.05


def test_entries_carry_no_single_derivation_prior():
    # (or A B) and (or B A) are one concept: its prior sums both derivations,
    # and a chain sees one at a time.
    state = mh_sample(small_grammar(), [], NoiseParams(1.0, 0.5), iterations=2000, seed=3)
    assert state.entries and all(math.isnan(e.log_prior) for e in state.entries)


@pytest.mark.parametrize("noise", [
    NoiseParams(0.85, 0.5), NoiseParams(1.0, 0.5), NoiseParams(0.0, 0.3), NoiseParams(0.6, 0.9),
])
def test_entry_log_likelihood_is_the_reference_sum(noise):
    grammar = default_grammar(V)
    exemplar_list = generate_list(EXACTLY_ONE_BLUE, V, seed=2, rule_id="one-blue")
    for upto_set in (0, 2, 6):
        evidence = evidence_from_list(exemplar_list, upto_set=upto_set)
        state = mh_sample(grammar, evidence, noise, iterations=3000, seed=upto_set, max_size=3)
        for entry in state.entries:
            assert entry.log_likelihood == log_likelihood(entry.concept, evidence, noise)


def test_truth_row_scores_are_the_reference_sums_bitwise():
    from rulelab.learner.mcmc import _TruthRows

    exemplar_list = generate_list(EXACTLY_ONE_BLUE, V, seed=2, rule_id="one-blue")
    hypotheses = enumerate_hypotheses(default_grammar(V), 2)
    gold, offsets = np.array(exemplar_list.gold, dtype=bool), exemplar_list.offsets
    batch = ContextBatch.from_contexts(exemplar_list.contexts, V)
    prefixes = (0, 1, 4, 25)
    for alpha, beta in ((0.0, 0.5), (1.0, 0.5), (0.95, 0.5), (0.85, 0.3), (0.5, 1.0), (0.7, 0.0)):
        noise = NoiseParams(alpha, beta)
        rows = _TruthRows(batch, gold, offsets, noise)
        for upto_set in prefixes:
            evidence = evidence_from_list(exemplar_list, upto_set=upto_set)
            for concept, _prior in hypotheses:
                expected = log_likelihood(concept, evidence, noise)
                assert rows[concept][1][upto_set] == expected


def test_run_mh_predicts_with_its_chains_posterior():
    """Each set's P(True) is, within 1e-12, both the per-object reference
    predictive of its chain and the product of the chain's concept weights
    and the concepts' truth over the set, summed exactly."""
    grammar = default_grammar(V)
    exemplar_list = generate_list(EXACTLY_ONE_BLUE, V, seed=4, n_sets=6, rule_id="one-blue")
    noise = NoiseParams(0.9, 0.5)
    run = run_mh(exemplar_list, grammar, noise, iterations=1500, seed=7, max_size=3)
    for set_index, exemplar_set in enumerate(exemplar_list.sets):
        evidence = evidence_from_list(exemplar_list, upto_set=set_index)
        state = mh_sample(grammar, evidence, noise, 1500, seed=7 + set_index, max_size=3)
        assert run.set_maps[set_index] == map_rule(state)
        start, stop = exemplar_list.offsets[set_index:set_index + 2]
        contexts = [exemplar_set.context_for(i) for i in range(stop - start)]
        weights = np.exp([entry.log_weight for entry in state.entries])
        truth = np.array([[evaluate(entry.concept, ctx) for ctx in contexts]
                          for entry in state.entries])
        exact = set_prediction(weights, truth, noise)
        for p, label, ctx, q in zip(run.p_true[start:stop], run.labels[start:stop], contexts, exact):
            expected = posterior_predictive(state, ctx, noise)
            assert abs(p - expected) <= 1e-12
            assert abs(p - q) <= 1e-12
            assert label == (expected > 0.5)
    final = mh_sample(grammar, evidence_from_list(exemplar_list), noise, 1500, seed=13, max_size=3)
    assert run.final_map == map_rule(final)


def test_learner_scores_without_the_per_object_evaluator(monkeypatch):
    import rulelab.dsl
    import rulelab.learner
    from rulelab.dsl import core

    for info in pkgutil.iter_modules(rulelab.learner.__path__):
        module = import_module(f"rulelab.learner.{info.name}")
        assert "evaluate" not in vars(module), info.name

    def refuse(*args, **kwargs):
        raise AssertionError("per-object evaluate called")

    monkeypatch.setattr(rulelab.dsl, "evaluate", refuse)
    monkeypatch.setattr(core, "evaluate", refuse)
    grammar = default_grammar(V)
    exemplar_list = generate_list(EXACTLY_ONE_BLUE, V, seed=4, n_sets=4, rule_id="one-blue")
    noise = NoiseParams(0.9, 0.5)
    mh_sample(grammar, evidence_from_list(exemplar_list), noise, 500, seed=1, max_size=3)
    mh_sample(grammar, [], noise, 500, seed=1, max_size=3)
    run_mh(exemplar_list, grammar, noise, iterations=500, seed=1, max_size=3)


def test_run_mh_evaluates_each_concept_once(monkeypatch):
    from rulelab.learner import mcmc

    evaluated = []

    def counting(concepts, batch):
        evaluated.extend(concepts)
        return evaluate_batch(concepts, batch)

    monkeypatch.setattr(mcmc, "evaluate_batch", counting)
    exemplar_list = generate_list(EXACTLY_ONE_BLUE, V, seed=4, n_sets=5, rule_id="one-blue")
    run = run_mh(exemplar_list, default_grammar(V), NoiseParams(0.9, 0.5), 800, seed=5, max_size=3)
    assert len(evaluated) == len(set(evaluated)) > 1
    assert set(run.set_maps) | {run.final_map} <= set(evaluated)


def test_a_chain_with_no_state_that_explains_the_evidence_raises():
    """At alpha = 1 no concept of size 2 or less explains the list of
    a blue object with exactly one other blue object in its set (seed 3):
    the exact engine raises on the size-2 enumeration, and
    an MH chain gives up after redrawing its start state ``iterations``
    times instead of drawing forever.  In a child process, so that a chain
    that never ends fails the test by its timeout."""
    script = textwrap.dedent("""
        from rulelab.catalog import DEFAULT_VOCAB as V
        from rulelab.dsl import parse_concept
        from rulelab.exemplars import generate_list
        from rulelab.learner import (
            DegeneratePosteriorError, NoiseParams, build_eval_matrix, default_grammar,
            enumerate_hypotheses, evidence_from_list, mh_sample, run_enumerative, run_mh,
        )
        rule = parse_concept("(and (is-color blue) (exactly-one others (is-color blue 0)))", V)
        exemplar_list = generate_list(rule, V, seed=3, rule_id="blue-among-two")
        grammar, noise = default_grammar(V), NoiseParams(1.0, 0.5)
        hypotheses = enumerate_hypotheses(grammar, 2)
        calls = [
            lambda: run_enumerative(exemplar_list, hypotheses,
                                    build_eval_matrix(hypotheses, exemplar_list), noise),
            lambda: mh_sample(grammar, evidence_from_list(exemplar_list), noise, 100,
                              seed=1, max_size=2),
            lambda: run_mh(exemplar_list, grammar, noise, 100, seed=1, max_size=2),
        ]
        for call in calls:
            try:
                call()
            except DegeneratePosteriorError as error:
                print(error)
    """)
    src = str(Path(rulelab.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "rule 'blue-among-two': no hypothesis explains the evidence",
        "101 states drawn, none explains the evidence",
        "rule 'blue-among-two': 101 states drawn, none explains the evidence",
    ]
