"""The noise likelihood, posterior states, prediction, and MAP extraction."""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rulelab
from conftest import SIZE4_RULES, dry_run_lists, random_context
from reference import PosteriorState, classify, log_likelihood, posterior_predictive, set_prediction
from rulelab.catalog import DEFAULT_VOCAB as V
from rulelab.dsl import Context, Obj, parse_concept
from rulelab.exemplars import generate_list
from rulelab.learner import (
    DegeneratePosteriorError,
    EmptyStateError,
    NoiseParams,
    build_eval_matrices,
    build_eval_matrix,
    default_grammar,
    enumerate_hypotheses,
    evidence_from_list,
    map_rule,
    posterior_by_set,
    run_enumerative,
)
from rulelab.learner.fit import _GroupTable

BLUE = parse_concept("(is-color blue)", V)
CIRCLE = parse_concept("(is-shape circle)", V)
BLUE_CTX = Context((Obj(0, V.index("color", "blue"), 0),), 0)
GREEN_CTX = Context((Obj(0, V.index("color", "green"), 0),), 0)


def test_noise_params_validate():
    with pytest.raises(ValueError):
        NoiseParams(1.5, 0.5)
    with pytest.raises(ValueError):
        NoiseParams(0.5, -0.1)


def test_consistent_hypothesis_at_alpha_one():
    evidence = [(BLUE_CTX, True), (GREEN_CTX, False)]
    assert log_likelihood(BLUE, evidence, NoiseParams(1.0, 0.5)) == 0.0


def test_inconsistent_hypothesis_at_alpha_one_is_minus_inf():
    evidence = [(BLUE_CTX, False)]
    assert log_likelihood(BLUE, evidence, NoiseParams(1.0, 0.5)) == float("-inf")


def test_alpha_zero_ignores_the_rule():
    noise = NoiseParams(0.0, 0.3)
    evidence = [(BLUE_CTX, True), (GREEN_CTX, True), (BLUE_CTX, False)]
    expected = 2 * math.log(0.3) + math.log(0.7)
    for hypothesis in (BLUE, CIRCLE):
        assert log_likelihood(hypothesis, evidence, noise) == pytest.approx(expected)


def test_mixture_factor_values():
    noise = NoiseParams(0.75, 0.5)
    agree = log_likelihood(BLUE, [(BLUE_CTX, True)], noise)
    disagree = log_likelihood(BLUE, [(BLUE_CTX, False)], noise)
    assert agree == pytest.approx(math.log(0.875))
    assert disagree == pytest.approx(math.log(0.125))


def state_of(*hypotheses) -> PosteriorState:
    priors = [(h, math.log(1.0 / len(hypotheses))) for h in hypotheses]
    return PosteriorState.from_hypotheses(priors, V)


def test_predictive_single_hypothesis_alpha_one():
    state = state_of(BLUE)
    noise = NoiseParams(1.0, 0.5)
    assert posterior_predictive(state, BLUE_CTX, noise) == 1.0
    assert posterior_predictive(state, GREEN_CTX, noise) == 0.0


def test_predictive_alpha_zero_is_beta():
    state = state_of(BLUE, CIRCLE)
    assert posterior_predictive(state, BLUE_CTX, NoiseParams(0.0, 0.37)) == 0.37


def test_predictive_disagreeing_hypotheses():
    state = state_of(BLUE, CIRCLE)  # equal posterior, disagree on a blue square
    ctx = Context((Obj(0, V.index("color", "blue"), V.index("shape", "rectangle")),), 0)
    assert posterior_predictive(state, ctx, NoiseParams(1.0, 0.5)) == pytest.approx(0.5)


def test_classify_thresholds():
    state = state_of(BLUE)
    assert classify(state, BLUE_CTX, NoiseParams(0.9, 0.5)) is True  # 0.95
    assert classify(state, GREEN_CTX, NoiseParams(0.9, 0.5)) is False  # 0.05
    # An exact 0.5 classifies False by the documented tie-break.
    half = state_of(BLUE, CIRCLE)
    ctx = Context((Obj(0, V.index("color", "blue"), V.index("shape", "rectangle")),), 0)
    assert posterior_predictive(half, ctx, NoiseParams(1.0, 0.5)) == 0.5
    assert classify(half, ctx, NoiseParams(1.0, 0.5)) is False


def test_map_single_hypothesis():
    assert map_rule(state_of(BLUE)) == BLUE


def test_map_consistent_beats_inconsistent():
    state = state_of(BLUE, CIRCLE).update(BLUE_CTX, True, NoiseParams(1.0, 0.5))
    # BLUE_CTX is a blue circle-shape-0 object; pick evidence that separates:
    state = state.update(GREEN_CTX, False, NoiseParams(1.0, 0.5))
    assert map_rule(state) == BLUE


def test_map_tie_breaks_smaller_then_lexicographic():
    small = parse_concept("(is-color blue)", V)
    big = parse_concept("(and (is-color blue) (is-color blue))", V)
    state = PosteriorState.from_hypotheses([(big, math.log(0.5)), (small, math.log(0.5))], V)
    assert map_rule(state) == small
    other = parse_concept("(is-color green)", V)
    state = PosteriorState.from_hypotheses([(other, math.log(0.5)), (small, math.log(0.5))], V)
    assert map_rule(state) == small  # "(is-color blue)" < "(is-color green)"


def test_map_empty_state():
    with pytest.raises(EmptyStateError):
        PosteriorState.from_hypotheses([], V)


def test_normalization_after_every_update():
    rng = random.Random(8)
    noise = NoiseParams(0.8, 0.4)
    grammar = default_grammar(V)
    state = PosteriorState.from_hypotheses(enumerate_hypotheses(grammar, 2), V)
    assert state.weight_sum() == pytest.approx(1.0, abs=1e-9)
    for _ in range(30):
        ctx = random_context(rng)
        state = state.update(ctx, rng.random() < 0.5, noise)
        assert state.weight_sum() == pytest.approx(1.0, abs=1e-9)


def test_incremental_equals_batch():
    grammar = default_grammar(V)
    noise = NoiseParams(0.9, 0.4)
    exemplar_list = generate_list(BLUE, V, seed=21)
    evidence = evidence_from_list(exemplar_list, upto_set=6)
    hypotheses = enumerate_hypotheses(grammar, 2)
    incremental = PosteriorState.from_hypotheses(hypotheses, V)
    for ctx, label in evidence:
        incremental = incremental.update(ctx, label, noise)
    for entry, (concept, log_prior) in zip(incremental.entries, hypotheses):
        batch_ll = log_likelihood(concept, evidence, noise)
        assert entry.log_likelihood == pytest.approx(batch_ll, abs=1e-9)
        assert entry.log_prior == log_prior


def test_degenerate_posterior_raises():
    state = state_of(BLUE)
    with pytest.raises(DegeneratePosteriorError):
        state.update(BLUE_CTX, False, NoiseParams(1.0, 0.5))


def test_inconsistent_hypotheses_stay_dead_under_alpha_one():
    noise = NoiseParams(1.0, 0.5)
    state = state_of(BLUE, CIRCLE).update(GREEN_CTX, True, noise)  # kills both? no: circle(G)=False
    # GREEN_CTX object has shape circle index 0 -> CIRCLE holds, BLUE dies.
    dead = [e for e in state.entries if e.concept == BLUE][0]
    assert dead.log_weight == float("-inf")
    state = state.update(BLUE_CTX, True, noise)
    dead = [e for e in state.entries if e.concept == BLUE][0]
    assert dead.log_weight == float("-inf")


@settings(max_examples=100, deadline=None)
@given(
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
)
def test_predictive_bounds(alpha, beta, seed):
    noise = NoiseParams(alpha, beta)
    rng = random.Random(seed)
    state = state_of(BLUE, CIRCLE)
    ctx = random_context(rng)
    predictive = posterior_predictive(state, ctx, noise)
    low = (1.0 - alpha) * beta
    high = alpha + (1.0 - alpha) * beta
    assert low - 1e-12 <= predictive <= high + 1e-12


def test_vectorized_runner_matches_reference():
    grammar = default_grammar(V)
    noise = NoiseParams(0.85, 0.4)
    exemplar_list = generate_list(BLUE, V, seed=33, rule_id="blue")
    hypotheses = enumerate_hypotheses(grammar, 2)
    matrix = build_eval_matrix(hypotheses, exemplar_list)
    run = run_enumerative(exemplar_list, hypotheses, matrix, noise)

    state = PosteriorState.from_hypotheses(hypotheses, V)
    for set_index, map_concept in enumerate(run.set_maps):
        exemplar_set = exemplar_list.sets[set_index]
        start = exemplar_list.offsets[set_index]
        for object_index in range(len(exemplar_set.objects)):
            ctx = exemplar_set.context_for(object_index)
            expected = posterior_predictive(state, ctx, noise)
            assert run.p_true[start + object_index] == pytest.approx(expected, abs=1e-9)
        assert map_concept == map_rule(state)
        for object_index, label in enumerate(exemplar_set.labels):
            state = state.update(exemplar_set.context_for(object_index), label, noise)


# "Exactly one blue object": a FOL rule no concept of size <= 2 expresses,
# so under alpha = 1 the evidence eliminates every hypothesis by set 7.
EXACTLY_ONE_BLUE = parse_concept("(exactly-one all (is-color blue 0))", V)


@pytest.mark.parametrize("alpha, beta", [(0.9, 0.5), (0.75, 0.3), (0.55, 0.8)])
def test_posterior_kernel_matches_reference_on_fol_list(alpha, beta):
    grammar = default_grammar(V)
    noise = NoiseParams(alpha, beta)
    exemplar_list = generate_list(EXACTLY_ONE_BLUE, V, seed=5, rule_id="exactly-one-blue")
    hypotheses = enumerate_hypotheses(grammar, 2)
    matrix = build_eval_matrix(hypotheses, exemplar_list)
    trajectory = _GroupTable.build([matrix]).predict(noise)
    run = run_enumerative(exemplar_list, hypotheses, matrix, noise)
    assert len(run.set_maps) == len(exemplar_list.sets)
    assert len(run.p_true) == len(trajectory) == exemplar_list.n_objects

    state = PosteriorState.from_hypotheses(hypotheses, V)
    flat = 0
    for set_index, map_concept in enumerate(run.set_maps):
        exemplar_set = exemplar_list.sets[set_index]
        for object_index, label in enumerate(exemplar_set.labels):
            expected = posterior_predictive(state, exemplar_set.context_for(object_index), noise)
            assert abs(run.p_true[flat] - expected) <= 1e-12
            assert abs(trajectory[flat] - expected) <= 1e-12
            flat += 1
        assert map_concept == map_rule(state)
        for object_index, label in enumerate(exemplar_set.labels):
            state = state.update(exemplar_set.context_for(object_index), label, noise)
    assert run.final_map == map_rule(state)


@pytest.mark.parametrize("alpha, beta", [(0.95, 0.5), (0.75, 0.9)])
def test_run_and_the_noise_fit_table_agree_on_the_dry_run_lists(alpha, beta):
    """The learner's P(True) vector and the noise fit's are one per object of
    the list, in its layout order, and agree there within 1e-12, on each of
    the 12 dry-run lists at max_size 3."""
    noise = NoiseParams(alpha, beta)
    hypotheses = enumerate_hypotheses(default_grammar(V), 3)
    lists = dry_run_lists()
    for exemplar_list, matrix in zip(lists, build_eval_matrices(hypotheses, lists)):
        run = run_enumerative(exemplar_list, hypotheses, matrix, noise)
        trajectory = _GroupTable.build([matrix]).predict(noise).tolist()
        assert len(run.p_true) == len(trajectory) == exemplar_list.n_objects
        assert max(abs(a - b) for a, b in zip(run.p_true, trajectory)) <= 1e-12


@pytest.fixture(scope="module")
def size4_dry_run():
    """The 12 dry-run lists with their hypotheses at max_size 4 and their
    matrices."""
    hypotheses = enumerate_hypotheses(default_grammar(V), 4)
    lists = dry_run_lists()
    return hypotheses, lists, list(build_eval_matrices(hypotheses, lists))


@pytest.mark.parametrize("alpha, beta", [(0.95, 0.5), (0.75, 0.9)])
def test_run_predicts_as_the_hypothesis_level_product(size4_dry_run, alpha, beta):
    """Predicting from behaviour-class masses gives, within 1e-12 and with
    the same labels, the product of each boundary's hypothesis masses and
    the hypotheses' truth over the set, summed exactly, on the 12 dry-run
    lists at max_size 4."""
    noise = NoiseParams(alpha, beta)
    hypotheses, lists, matrices = size4_dry_run
    for exemplar_list, matrix in zip(lists, matrices):
        run = run_enumerative(exemplar_list, hypotheses, matrix, noise)
        expected = []
        for set_index, (_ll, log_posterior, _map) in zip(range(len(exemplar_list.sets)),
                                                          posterior_by_set(matrix, noise)):
            start, stop = exemplar_list.offsets[set_index:set_index + 2]
            truth = matrix.classes[matrix.inverse, start:stop]
            expected += set_prediction(np.exp(log_posterior), truth, noise)
        assert len(run.p_true) == len(expected) == exemplar_list.n_objects
        assert max(abs(a - b) for a, b in zip(run.p_true, expected)) <= 1e-12
        assert run.labels == tuple(p > 0.5 for p in expected)


# Prints run_enumerative's p_true on the four size-4 rules' lists at max_size 5.
_P_TRUE_AT_SIZE_5 = """
import sys
from rulelab.catalog import DEFAULT_VOCAB as V, DEMO_RULES
from rulelab.dsl import parse_concept
from rulelab.exemplars import generate_list
from rulelab.learner import (
    NoiseParams, build_eval_matrices, default_grammar, enumerate_hypotheses, run_enumerative,
)
rules = [rule for rule in DEMO_RULES if rule.rule_id in sys.argv[1:]]
lists = [generate_list(parse_concept(rule.source, V), V, seed=2024 + i, rule_id=rule.rule_id)
         for i, rule in enumerate(rules)]
hypotheses = enumerate_hypotheses(default_grammar(V), 5)
for exemplar_list, matrix in zip(lists, build_eval_matrices(hypotheses, lists)):
    print(run_enumerative(exemplar_list, hypotheses, matrix, NoiseParams(0.95, 0.5)).p_true)
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one CPU: OpenBLAS runs one thread")
def test_predictions_do_not_depend_on_the_blas_thread_count():
    """numpy reads OPENBLAS_NUM_THREADS when it is imported, so two
    processes, one with one BLAS thread and one with two, must print the
    same p_true bytes."""
    env = {name: value for name, value in os.environ.items()
           if name not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(rulelab.__file__).resolve().parents[1])
    children = [
        subprocess.Popen([sys.executable, "-c", _P_TRUE_AT_SIZE_5, *SIZE4_RULES],
                         env=dict(env, OPENBLAS_NUM_THREADS=threads),
                         stdout=subprocess.PIPE, text=True)
        for threads in ("1", "2")
    ]
    outputs = [child.communicate(timeout=120)[0] for child in children]
    assert [child.returncode for child in children] == [0, 0]
    assert len(outputs[0].splitlines()) == len(SIZE4_RULES)
    assert outputs[0] == outputs[1]


def test_posterior_kernel_and_reference_both_degenerate_at_alpha_one(tmp_path):
    grammar = default_grammar(V)
    noise = NoiseParams(1.0, 0.5)
    exemplar_list = generate_list(EXACTLY_ONE_BLUE, V, seed=5, rule_id="exactly-one-blue")
    hypotheses = enumerate_hypotheses(grammar, 2)
    matrix = build_eval_matrix(hypotheses, exemplar_list)
    with pytest.raises(DegeneratePosteriorError):
        _GroupTable.build([matrix]).predict(noise)
    trace = tmp_path / "exactly-one-blue.posterior.csv"
    with pytest.raises(DegeneratePosteriorError, match="exactly-one-blue"):
        run_enumerative(exemplar_list, hypotheses, matrix, noise, trace_path=trace)
    assert not trace.exists()  # no partial trace is left behind

    # The reference dies in the same set: boundary k is the first the
    # kernel cannot normalise, so sets 0..k-2 leave a hypothesis alive.
    reached = []
    with pytest.raises(DegeneratePosteriorError):
        for step in posterior_by_set(matrix, noise):
            reached.append(step)
    k = len(reached)
    assert 0 < k < len(exemplar_list.sets)
    state = PosteriorState.from_hypotheses(hypotheses, V)
    state.update_batch(evidence_from_list(exemplar_list, upto_set=k - 1), noise)
    with pytest.raises(DegeneratePosteriorError):
        state.update_batch(evidence_from_list(exemplar_list, upto_set=k), noise)
