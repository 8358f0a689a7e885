"""The posterior's running sum against the per-cell form it replaced, bit for bit.

The oracle works on every hypothesis row of a list's truth table
(:class:`Rows`).  It takes ``math.log`` of every (hypothesis, object)
cell's factor, the log the per-object reference learner takes, sums with
``cumsum``, pads with ``np.pad`` and normalises each boundary as it is
reached.  :func:`posterior_by_set` takes the log of four factor values,
adds the ones each object's cell codes pick to one running sum per
behaviour class, and gathers the class scores back to the hypotheses at
each boundary; its scores must have the same bits
(compared as ``int64`` views), the same MAP rows, and a degenerate boundary
must raise at the same place.  The classes themselves are checked against
the ``np.unique(axis=0)`` collapse the noise fit used to make.  The noise
fit's predictions come from (aT, aF) groups, whose ``count * log factor``
sums round apart from the object-order sums, so they are checked
against the oracle on the classes within 1e-12, with the same undefined
points and the same winner.  The exact engine, MH's truth rows and the
reference sum must also agree bitwise at noise points where ``np.log`` and
``math.log`` round apart.
"""

import heapq
import math
import tracemalloc
from itertools import islice
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SIZE4_RULES, dry_run_lists
from reference import PosteriorState, log_likelihood, posterior_predictive
from rulelab.catalog import DEFAULT_VOCAB as V
from rulelab.catalog import DEMO_RULES
from rulelab.dsl import ContextBatch, evaluate_batch, parse_concept, print_concept
from rulelab.exemplars import generate_list
from rulelab.learner import (
    DegeneratePosteriorError,
    EvalMatrix,
    NoiseParams,
    build_eval_matrices,
    build_eval_matrix,
    default_grammar,
    enumerate_hypotheses,
    evidence_from_list,
    noise_grid,
    posterior_by_set,
)
from rulelab.learner import inference
from rulelab.learner.fit import _GroupTable, _grid_r2
from rulelab.learner.inference import _collapse
from rulelab.learner.mcmc import _TruthRows

GRID = noise_grid(0.05)
# No concept of size <= 3 expresses it, so at alpha = 1 the evidence
# eliminates every hypothesis part-way through the list.
EXACTLY_ONE_BLUE = parse_concept("(exactly-one all (is-color blue 0))", V)
CIRCLE_XOR_BLUE = parse_concept("(xor (is-shape circle) (is-color blue))", V)


def math_log(factors: np.ndarray) -> np.ndarray:
    """``math.log`` of every cell, -inf where it is 0.  A log is a function
    of its argument alone, so it is taken once per distinct value and
    gathered back to every cell holding that value."""
    values, inverse = np.unique(factors, return_inverse=True)
    logs = np.array([math.log(v) if v > 0.0 else -math.inf for v in values.tolist()])
    return logs[inverse].reshape(factors.shape)


class Rows(NamedTuple):
    """A list's truth table with one row per hypothesis: what the oracle
    scores."""

    log_priors: np.ndarray  # (n_rows,)
    truth: np.ndarray  # (n_rows, n_objects) bool
    gold: np.ndarray
    offsets: list[int]


def rows_of(matrix: EvalMatrix) -> Rows:
    return Rows(matrix.log_priors, matrix.classes[matrix.inverse], matrix.gold, matrix.offsets)


def matrix_of(rows: Rows) -> EvalMatrix:
    classes = _collapse(np.packbits(rows.truth, axis=1), rows.truth.shape[1])
    return EvalMatrix(rows.log_priors, *classes, rows.gold, rows.offsets)


def oracle_classes(rows: Rows) -> tuple[Rows, np.ndarray]:
    """The behaviour classes as the noise fit made them before the kernel
    took classes: one row per distinct truth row, in ``np.unique(axis=0)``
    order, with the log of its members' summed prior mass; and each row's
    class."""
    truth, inverse, counts = np.unique(
        rows.truth, axis=0, return_inverse=True, return_counts=True
    )
    members = np.argsort(inverse.reshape(-1), kind="stable")  # grouped by class
    log_priors = np.logaddexp.reduceat(rows.log_priors[members], np.cumsum(counts) - counts)
    return Rows(log_priors, truth, rows.gold, rows.offsets), inverse.reshape(-1)


def oracle_boundary_log_likelihood(matrix: Rows, noise: NoiseParams) -> np.ndarray:
    base = np.where(matrix.gold, noise.beta, 1.0 - noise.beta)
    agree = matrix.truth == matrix.gold
    factors = math_log(noise.alpha * agree + (1.0 - noise.alpha) * base)
    cumulative = np.pad(np.cumsum(factors, axis=1), ((0, 0), (1, 0)))  # column j: first j objects
    return np.ascontiguousarray(cumulative[:, matrix.offsets].T)


def oracle_posterior_by_set(matrix: Rows, noise: NoiseParams):
    log_likelihood = oracle_boundary_log_likelihood(matrix, noise)
    log_post_unnorm = log_likelihood + matrix.log_priors
    map_index = np.argmax(log_post_unnorm, axis=1)
    peak = log_post_unnorm[np.arange(len(map_index)), map_index]
    with np.errstate(invalid="ignore"):
        mass = np.sum(np.exp(log_post_unnorm - peak[:, None]), axis=1)
    for row, (row_peak, row_mass) in enumerate(zip(peak.tolist(), mass.tolist())):
        if row_peak == float("-inf"):
            raise DegeneratePosteriorError("no hypothesis explains the evidence")
        log_z = row_peak + math.log(row_mass)
        yield log_likelihood[row], log_post_unnorm[row] - log_z, int(map_index[row])


def oracle_predictive_trajectory(matrix: Rows, noise: NoiseParams) -> np.ndarray:
    n_sets = len(matrix.offsets) - 1
    steps = islice(oracle_posterior_by_set(matrix, noise), n_sets)
    posteriors = np.exp([log_posterior for _ll, log_posterior, _map in steps])
    posteriors = posteriors.reshape(n_sets, len(matrix.log_priors))
    set_of_object = np.repeat(np.arange(n_sets), np.diff(matrix.offsets))
    rule_mass = (posteriors @ matrix.truth)[set_of_object, np.arange(len(set_of_object))]
    return noise.alpha * rule_mass + (1.0 - noise.alpha) * noise.beta


def oracle_fit_trajectory():
    """What the noise fit scored before it took (aT, aF) groups: the
    oracle's predictions on a matrix's rows collapsed by
    ``np.unique(axis=0)``.  Each matrix is collapsed once, and kept, so its
    ``id`` stays its own."""
    seen: dict[int, tuple[EvalMatrix, Rows]] = {}

    def trajectory(matrix: EvalMatrix, noise: NoiseParams) -> np.ndarray:
        if id(matrix) not in seen:
            seen[id(matrix)] = matrix, oracle_classes(rows_of(matrix))[0]
        return oracle_predictive_trajectory(seen[id(matrix)][1], noise)

    return trajectory


def table_trajectory(matrix: EvalMatrix, noise: NoiseParams) -> np.ndarray:
    """The noise fit's predictions for one list: its group table's."""
    return _GroupTable.build([matrix]).predict(noise)


def trajectory_or_none(trajectory, matrix, noise):
    try:
        return trajectory(matrix, noise)
    except DegeneratePosteriorError:
        return None


def class_path_trajectory(matrix: EvalMatrix, noise: NoiseParams) -> np.ndarray:
    """The noise fit's predictions as they were on behaviour classes: the
    oracle's class scores (bitwise the posterior's) before each set,
    normalised with each class's summed prior, times the classes."""
    sizes = np.bincount(matrix.inverse, minlength=len(matrix.classes))
    members = np.argsort(matrix.inverse, kind="stable")  # grouped by class
    class_priors = np.logaddexp.reduceat(matrix.log_priors[members], np.cumsum(sizes) - sizes)
    before_each_set = matrix.offsets[:-1]
    classes = Rows(class_priors, matrix.classes, matrix.gold, before_each_set)
    log_likelihood = oracle_boundary_log_likelihood(classes, noise)
    log_posterior = np.array([inference._normalise(row)[0] for row in log_likelihood + class_priors])
    set_of_object = np.repeat(np.arange(len(before_each_set)), np.diff(matrix.offsets))
    rule_mass = (np.exp(log_posterior) @ matrix.classes)[set_of_object, np.arange(len(set_of_object))]
    return noise.alpha * rule_mass + (1.0 - noise.alpha) * noise.beta


def oracle_grid_r2(prepared, human, grid, trajectory=None):
    """The noise fit's grid loop as it was on classes, with the oracle's
    predictions (or ``trajectory``'s): ``(alpha, beta, r2)`` per point,
    ``r2`` None where it is undefined.  ``prepared`` holds each list's
    matrix and its mask of objects with human data."""
    trajectory = trajectory or oracle_fit_trajectory()
    for alpha, beta in grid:
        noise = NoiseParams(alpha, beta)
        try:
            model = np.concatenate([trajectory(matrix, noise)[keep] for matrix, keep in prepared])
        except DegeneratePosteriorError:
            yield alpha, beta, None
            continue
        if model.size < 2 or np.ptp(model) == 0.0 or np.ptp(human) == 0.0:
            yield alpha, beta, None
            continue
        r = float(np.corrcoef(model, human)[0, 1])
        yield alpha, beta, None if math.isnan(r) else r * r


def assert_same_scores(actual, expected):
    """Two grid sequences of ``(alpha, beta, r2)``: the same points, the
    same undefined ones, every other r2 within 1e-12, and the same best two
    points."""
    assert [(a, b) for a, b, _r2 in actual] == [(a, b) for a, b, _r2 in expected]
    assert [r2 is None for *_point, r2 in actual] == [r2 is None for *_point, r2 in expected]
    for (alpha, beta, r2), (*_point, expected_r2) in zip(actual, expected):
        assert r2 is None or abs(r2 - expected_r2) <= 1e-12, (alpha, beta)

    def best_two(scores):
        ranked = heapq.nlargest(2, [(r2, a, b) for a, b, r2 in scores if r2 is not None])
        return [(a, b) for _r2, a, b in ranked]

    assert best_two(actual) == best_two(expected)


def bits(kernel, matrix, noise):
    """Every boundary the kernel yields as (log-likelihood bits,
    log-posterior bits, MAP row), and whether it then raised."""
    steps = []
    try:
        for log_likelihood, log_posterior, map_index in kernel(matrix, noise):
            steps.append((log_likelihood.view(np.int64).copy(),
                          log_posterior.view(np.int64).copy(), map_index))
    except DegeneratePosteriorError:
        return steps, True
    return steps, False


def row_kernel_posterior_by_set(matrix: Rows, noise: NoiseParams):
    """The oracle's sums on every hypothesis row, every boundary normalised
    at once, as :func:`posterior_by_set` scored before it took classes."""
    log_likelihood = oracle_boundary_log_likelihood(matrix, noise)
    log_post_unnorm = log_likelihood + matrix.log_priors
    map_index = np.argmax(log_post_unnorm, axis=1)
    peak = log_post_unnorm[np.arange(len(map_index)), map_index]
    with np.errstate(invalid="ignore"):  # a degenerate row is -inf - -inf
        mass = np.sum(np.exp(log_post_unnorm - peak[:, None]), axis=1)
        log_z = [p + math.log(m) for p, m in zip(peak.tolist(), mass.tolist())]
        log_posterior = log_post_unnorm - np.array(log_z)[:, None]
    for row, (row_peak, row_map) in enumerate(zip(peak.tolist(), map_index.tolist())):
        if row_peak == float("-inf"):
            raise DegeneratePosteriorError("no hypothesis explains the evidence")
        yield log_likelihood[row], log_posterior[row], row_map


def assert_bitwise_equal(matrix, noise, reference=oracle_posterior_by_set):
    """Returns how many boundaries were reached and whether the kernel
    raised, once it and ``reference`` on the matrix's rows agree."""
    expected, expected_raised = bits(reference, rows_of(matrix), noise)
    actual, actual_raised = bits(posterior_by_set, matrix, noise)
    where = f"at (alpha, beta) = ({noise.alpha}, {noise.beta})"
    assert (len(actual), actual_raised) == (len(expected), expected_raised), where
    for boundary, (got, want) in enumerate(zip(actual, expected)):
        assert np.array_equal(got[0], want[0]), f"log-likelihood, boundary {boundary} {where}"
        assert np.array_equal(got[1], want[1]), f"log-posterior, boundary {boundary} {where}"
        assert got[2] == want[2], f"MAP row, boundary {boundary} {where}"
    return len(actual), actual_raised


@pytest.fixture(scope="module")
def size3_matrices():
    hypotheses = enumerate_hypotheses(default_grammar(V), 3)
    matrices = {}
    for name, concept, seed in (("xor", CIRCLE_XOR_BLUE, 5), ("one-blue", EXACTLY_ONE_BLUE, 2)):
        full = build_eval_matrix(hypotheses, generate_list(concept, V, seed=seed, rule_id=name))
        matrices[f"{name}-full"] = full
        # Each class one hypothesis, with its members' summed prior.
        matrices[f"{name}-collapsed"] = matrix_of(oracle_classes(rows_of(full))[0])
    return matrices


@pytest.fixture(scope="module")
def catalog_tables():
    """Per max_size, ``(matrix, truth)`` for lists of catalog rules: every
    rule at max_size 3 and the four size-4 rules at max_size 4.  ``truth``
    is the list's evaluation alone, one row per hypothesis."""
    tables = {}
    for max_size in (3, 4):
        hypotheses = enumerate_hypotheses(default_grammar(V), max_size)
        concepts = [concept for concept, _lp in hypotheses]
        rules = [rule for rule in DEMO_RULES if max_size == 3 or rule.rule_id in SIZE4_RULES]
        lists = [
            generate_list(parse_concept(rule.source, V), V, seed=seed, rule_id=rule.rule_id)
            for seed, rule in enumerate(rules)
        ]
        tables[max_size] = [
            (matrix, evaluate_batch(concepts, ContextBatch.from_contexts(lst.contexts, V)))
            for lst, matrix in zip(lists, build_eval_matrices(hypotheses, lists))
        ]
    assert len(tables[4][0][1]) == 9568
    return tables


NOISE_POINTS = [(0.95, 0.5), (0.134, 0.847), (1.0, 0.5), (0.75, 1.0), (0.5, 0.2), (0.0, 0.0)]


@pytest.mark.parametrize("max_size", [3, 4])
def test_class_kernel_gathered_to_rows_is_the_row_kernel(catalog_tables, size3_matrices, max_size):
    """On real lists, the kernel on behaviour classes, gathered back to the
    hypotheses, gives every score, MAP row and degenerate boundary of the
    kernel run on every hypothesis row."""
    matrices = [matrix for matrix, _truth in catalog_tables[max_size]]
    if max_size == 3:
        matrices.append(size3_matrices["one-blue-full"])
    raised_at = {}
    for i, matrix in enumerate(matrices):
        assert len(matrix.classes) < len(matrix.log_priors)
        for alpha, beta in NOISE_POINTS:
            noise = NoiseParams(alpha, beta)
            reached, raised = assert_bitwise_equal(matrix, noise, row_kernel_posterior_by_set)
            if raised:
                raised_at[i, alpha, beta] = reached
    if max_size == 3:  # alpha 1 on exactly-one-blue: no size-3 concept fits
        n_sets = len(matrices[-1].offsets) - 1
        assert 0 < raised_at[len(matrices) - 1, 1.0, 0.5] < n_sets


def assert_collapse_is_the_oracles(log_priors: np.ndarray, truth: np.ndarray) -> EvalMatrix:
    """``_collapse`` gives ``np.unique(axis=0)``'s classes and inverse."""
    n_objects = truth.shape[1]
    rows = Rows(log_priors, truth, np.zeros(n_objects, dtype=bool), [0, n_objects])
    matrix = matrix_of(rows)
    expected, inverse = oracle_classes(rows)
    assert matrix.classes.dtype == bool and matrix.classes.flags.c_contiguous
    assert matrix.classes.shape == expected.truth.shape
    assert np.array_equal(matrix.classes, expected.truth)
    assert np.array_equal(matrix.inverse, inverse)
    return matrix


@pytest.mark.parametrize("max_size", [3, 4])
def test_collapse_is_the_unique_rows_collapse(catalog_tables, max_size):
    for matrix, truth in catalog_tables[max_size]:
        collapsed = assert_collapse_is_the_oracles(matrix.log_priors, truth)
        assert np.array_equal(matrix.classes, collapsed.classes)
        assert np.array_equal(matrix.inverse, collapsed.inverse)


@pytest.mark.parametrize("n_hyps, n_objects, draw, n_classes", [
    (3, 0, "random", 1),  # no objects: one class
    (0, 5, "random", 0),  # no hypotheses: no class
    (4, 9, "equal", 1),  # every row equal, over two bytes
    (1, 1, "random", 1),
    (60, 3, "random", 8),  # rows repeat
    (60, 17, "one-hot", 17),  # rows that differ in one bit, in every byte
])
def test_collapse_edge_cases(n_hyps, n_objects, draw, n_classes):
    rng = np.random.default_rng(n_hyps * 100 + n_objects)
    if draw == "equal":
        truth = np.tile(rng.random(n_objects) < 0.5, (n_hyps, 1))
    elif draw == "one-hot":
        truth = np.eye(n_objects, dtype=bool)[rng.permutation(n_hyps) % n_objects]
    else:
        truth = rng.random((n_hyps, n_objects)) < 0.5
    log_priors = rng.uniform(-20.0, 0.0, size=n_hyps)
    matrix = assert_collapse_is_the_oracles(log_priors, truth)
    assert len(matrix.classes) == n_classes


def test_posterior_by_set_traces_under_one_mib(catalog_tables):
    """Iterating the posterior of a size-4 list (9,568 hypotheses, 26
    boundaries, 3,920 classes) traces under 1 MiB, its cell codes
    included: one running score per class, and one boundary's hypothesis
    vectors.  Scoring every boundary's classes up front held a (26, 3,920)
    array of 0.78 MiB and traced 1.77 MiB without the cell codes."""
    matrix = catalog_tables[4][0][0]
    assert (len(matrix.log_priors), len(matrix.offsets), len(matrix.classes)) == (9568, 26, 3920)
    tracemalloc.start()
    try:
        reached = sum(1 for _step in posterior_by_set(matrix, NoiseParams(0.95, 0.5)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert reached == 26
    assert peak < 2**20


@pytest.mark.parametrize("name", ["xor-full", "xor-collapsed", "one-blue-full", "one-blue-collapsed"])
def test_kernel_matches_per_cell_oracle_on_the_grid(size3_matrices, name):
    matrix = size3_matrices[name]
    corners = {(a, b) for a in (0.0, 1.0) for b in (0.0, 1.0)}
    assert corners <= set(GRID)
    raised_at = {}
    fit_oracle = oracle_fit_trajectory()
    for alpha, beta in GRID:
        noise = NoiseParams(alpha, beta)
        reached, raised = assert_bitwise_equal(matrix, noise)
        if raised:
            raised_at[(alpha, beta)] = reached
        if alpha == 0.0:  # the fit scores no alpha = 0 point
            continue
        # The groups' count sums round apart from the classes' object-order sums.
        expected = trajectory_or_none(fit_oracle, matrix, noise)
        actual = trajectory_or_none(table_trajectory, matrix, noise)
        assert (actual is None) == (expected is None), f"trajectory at {noise}"
        assert actual is None or np.max(np.abs(actual - expected)) <= 1e-12, f"trajectory at {noise}"
    n_sets = len(matrix.offsets) - 1
    # (0, 0) gives a True label zero probability under every hypothesis.
    assert raised_at[(0.0, 0.0)] < n_sets
    if name.startswith("one-blue"):
        assert 0 < raised_at[(1.0, 0.5)] < n_sets


def test_degenerate_boundary_is_the_same_full_and_collapsed(size3_matrices):
    noise = NoiseParams(1.0, 0.5)
    full = bits(posterior_by_set, size3_matrices["one-blue-full"], noise)
    collapsed = bits(posterior_by_set, size3_matrices["one-blue-collapsed"], noise)
    assert full[1] and collapsed[1]
    oracle = bits(oracle_posterior_by_set, rows_of(size3_matrices["one-blue-full"]), noise)
    assert len(full[0]) == len(collapsed[0]) == len(oracle[0])


def test_grid_r2_is_the_oracles_sequence(size3_matrices):
    """The whole fit loop, pooled over lists, gives the per-cell oracle's
    r2 values within 1e-12, and the same skipped points and winner."""
    prepared, human = [], []
    rng = np.random.default_rng(3)
    for name in ("xor-full", "one-blue-full"):
        matrix = size3_matrices[name]
        keep = rng.random(matrix.offsets[-1]) < 0.9
        prepared.append((matrix, keep))
        human.append(rng.random(int(keep.sum())))
    human = np.concatenate(human)
    table = _GroupTable.build(matrix for matrix, _keep in prepared)
    keep = np.concatenate([keep for _matrix, keep in prepared])
    actual = list(_grid_r2(table, keep, human, GRID))
    assert_same_scores(actual, list(oracle_grid_r2(prepared, human, GRID)))
    assert sum(r2 is None for _a, _b, r2 in actual) > 0


def test_fit_pools_the_oracles_scores():
    """fit_noise's winner and runner-up are the oracle's, their r2 within
    1e-12, and it counts the oracle's undefined points."""
    from rulelab.learner import fit_noise

    hypotheses = enumerate_hypotheses(default_grammar(V), 3)
    lists, humans = [], []
    for i, (concept, seed) in enumerate(((CIRCLE_XOR_BLUE, 5), (EXACTLY_ONE_BLUE, 2))):
        exemplar_list = generate_list(concept, V, seed=seed, rule_id=f"r{i}")
        lists.append(exemplar_list)
        humans.append([((700 if label else 300) - 37 * (o % 3)) / 1000
                       for _s, o, _c, label in exemplar_list.iter_items()])
    grid = noise_grid(0.1)
    actual = fit_noise(lists, humans, grid, hypotheses)
    prepared = [(matrix, np.ones(matrix.offsets[-1], dtype=bool))
                for matrix in build_eval_matrices(hypotheses, lists)]
    human = np.array([p for proportions in humans for p in proportions])
    scored = [(r2, a, b) for a, b, r2 in oracle_grid_r2(prepared, human, grid) if r2 is not None]
    best, runner_up = heapq.nlargest(2, scored)
    assert (actual.noise, actual.runner_up) == (NoiseParams(*best[1:]), NoiseParams(*runner_up[1:]))
    assert abs(actual.r2 - best[0]) <= 1e-12 and abs(actual.runner_up_r2 - runner_up[0]) <= 1e-12
    assert actual.undefined_points == len(grid) - len(scored) > 0


def test_keeps_the_rounded_map_of_unique_blue():
    """Rows 71 and 80 tie in exact arithmetic at boundary 24 of lab-s3's
    unique-blue list (equal priors, 64 agreements and 9 disagreements), but
    their summed logs round apart and row 80 wins.  Summing in object order
    keeps that choice; a count-based likelihood would give row 71."""
    grammar = default_grammar(V)
    hypotheses = enumerate_hypotheses(grammar, 3)
    concept = parse_concept("(and (is-color blue) (not (exists others (is-color blue 0))))", V)
    exemplar_list = generate_list(concept, V, seed=17653031796352614897, rule_id="unique-blue")
    matrix = build_eval_matrix(hypotheses, exemplar_list)
    noise = NoiseParams(0.95, 0.5)
    assert_bitwise_equal(matrix, noise)
    log_likelihood, _lp, map_index = list(posterior_by_set(matrix, noise))[24]
    assert map_index == 80
    assert hypotheses[71][1] == hypotheses[80][1]
    assert log_likelihood[80] > log_likelihood[71]
    assert print_concept(hypotheses[71][0], V) == "(and (is-color blue) (is-color green))"
    assert print_concept(hypotheses[80][0], V) == "(and (is-color blue) (minority-color))"


@st.composite
def small_matrices(draw):
    n_hyps = draw(st.integers(1, 6))
    set_sizes = draw(st.lists(st.integers(0, 4), min_size=0, max_size=5))
    n_objects = sum(set_sizes)
    truth = np.array(
        draw(st.lists(st.booleans(), min_size=n_hyps * n_objects, max_size=n_hyps * n_objects)),
        dtype=bool,
    ).reshape(n_hyps, n_objects)
    gold = np.array(draw(st.lists(st.booleans(), min_size=n_objects, max_size=n_objects)), dtype=bool)
    prior_pool = st.sampled_from([-1.0, -2.5, -0.1]) | st.floats(-50.0, 0.0)
    log_priors = np.array(draw(st.lists(prior_pool, min_size=n_hyps, max_size=n_hyps)))
    offsets = np.concatenate([[0], np.cumsum(set_sizes)]).astype(int).tolist()
    # Few hypotheses over few objects: rows often repeat, so classes merge.
    return matrix_of(Rows(log_priors, truth, gold, offsets))


unit = st.sampled_from([0.0, 1.0, 0.5, 0.05, 0.95]) | st.floats(0.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(small_matrices(), unit, unit)
def test_kernel_matches_oracle_on_random_matrices(matrix, alpha, beta):
    assert_bitwise_equal(matrix, NoiseParams(alpha, beta))


@pytest.mark.parametrize("alpha, beta", [
    (0.134, 0.847), (0.95, 0.5), (0.05, 0.85), (0.35, 0.1), (0.75, 0.9), (0.0, 0.4),
])
def test_engines_and_reference_score_bitwise_alike(alpha, beta):
    """The exact engine, MH's truth rows and the per-object reference sum
    give each hypothesis the same bits at every boundary.  At (0.134,
    0.847) ``np.log`` of one factor rounds away from ``math.log`` with
    numpy 2.4.6 on an x86-64 machine, which put 27 of these 1,820 scores
    of an exact engine that took ``np.log`` one bit away from the other
    two; the rest are grid points."""
    noise = NoiseParams(alpha, beta)
    exemplar_list = generate_list(EXACTLY_ONE_BLUE, V, seed=2, rule_id="one-blue")
    hypotheses = enumerate_hypotheses(default_grammar(V), 2)
    gold, offsets = np.array(exemplar_list.gold, dtype=bool), exemplar_list.offsets
    rows = _TruthRows(ContextBatch.from_contexts(exemplar_list.contexts, V), gold, offsets, noise)
    matrix = build_eval_matrix(hypotheses, exemplar_list)
    exact = np.array([ll for ll, _lp, _map in posterior_by_set(matrix, noise)])
    assert exact.shape == (len(offsets), len(hypotheses)) == (26, 70)
    evidence = evidence_from_list(exemplar_list)
    for (concept, _prior), exact_row in zip(hypotheses, exact.T):
        printed = print_concept(concept, V)
        reference = np.array([log_likelihood(concept, evidence[:end], noise) for end in offsets])
        mh = np.array(rows[concept][1])
        assert np.array_equal(mh.view(np.int64), reference.view(np.int64)), printed
        assert np.array_equal(exact_row.view(np.int64), reference.view(np.int64)), printed


# --- the noise fit's (aT, aF) groups ---------------------------------------

# Every third grid point with alpha above 0 (the table does not predict at
# alpha = 0), and points where a factor is 0 or where np.log and math.log
# round apart.
REFERENCE_POINTS = [
    (a, b) for a, b in GRID[::3] if a > 0.0
] + [(0.134, 0.847), (0.75, 1.0), (1.0, 0.5), (0.5, 0.0)]


def reference_trajectory(hypotheses, exemplar_list, noise):
    """The per-object reference learner's P(True) for each object, from
    the posterior over the sets before its own; None where that posterior
    loses all its mass."""
    state = PosteriorState.from_hypotheses(hypotheses, V)
    predictions, seen = [], []
    try:
        for exemplar_set in exemplar_list.sets:
            state = state.update_batch(seen, noise)  # the set before this one
            contexts = [exemplar_set.context_for(i) for i in range(len(exemplar_set.labels))]
            predictions += [posterior_predictive(state, ctx, noise) for ctx in contexts]
            seen = list(zip(contexts, exemplar_set.labels))
    except DegeneratePosteriorError:
        return None
    return np.array(predictions)


def test_group_predictions_are_the_reference_learners():
    """Within 1e-12 of the per-object reference learner, which fails at the
    same points; 8 sets of a list that no size-2 concept explains, so that
    alpha = 1 leaves no hypothesis before the last set."""
    hypotheses = enumerate_hypotheses(default_grammar(V), 2)
    exemplar_list = generate_list(EXACTLY_ONE_BLUE, V, seed=5, n_sets=8, rule_id="one-blue")
    matrix = build_eval_matrix(hypotheses, exemplar_list)
    undefined = set()
    for alpha, beta in REFERENCE_POINTS:
        noise = NoiseParams(alpha, beta)
        expected = reference_trajectory(hypotheses, exemplar_list, noise)
        actual = trajectory_or_none(table_trajectory, matrix, noise)
        assert (actual is None) == (expected is None), noise
        if expected is None:
            undefined.add((alpha, beta))
        else:
            assert np.max(np.abs(actual - expected)) <= 1e-12, noise
    # Both kinds of zero factor: some points fail, and (0.5, 0), where only
    # a disagreement with a True label has factor 0, leaves some hypothesis.
    assert {(1.0, 0.5), (0.75, 1.0)} <= undefined
    assert {(0.134, 0.847), (0.5, 0.0)}.isdisjoint(undefined)


@settings(max_examples=300, deadline=None)
@given(small_matrices(), unit, unit)
def test_group_predictions_match_the_oracle_on_random_matrices(matrix, alpha, beta):
    """Empty sets, lists without objects, and rows that merge: within 1e-12
    of the per-cell oracle on every hypothesis row, failing where it fails.
    A list without sets has no table, and the table refuses alpha = 0."""
    if len(matrix.offsets) == 1:
        with pytest.raises(ValueError):
            _GroupTable.build([matrix])
        return
    noise = NoiseParams(alpha, beta)
    if alpha == 0.0:
        with pytest.raises(ValueError, match="alpha = 0"):
            table_trajectory(matrix, noise)
        return
    expected = trajectory_or_none(oracle_predictive_trajectory, rows_of(matrix), noise)
    actual = trajectory_or_none(table_trajectory, matrix, noise)
    assert (actual is None) == (expected is None)
    assert actual is None or (actual.shape == expected.shape and np.all(np.abs(actual - expected) <= 1e-12))


def test_group_counts_widen_past_255_objects():
    """A list of 600 objects counts disagreements in uint16, and predicts as
    the oracle."""
    rng = np.random.default_rng(1)
    truth = rng.random((40, 600)) < 0.5
    gold = truth[3] ^ (rng.random(600) < 0.1)  # row 3 disagrees with 10% of the labels
    rows = Rows(rng.uniform(-10.0, 0.0, 40), truth, gold, list(range(0, 601, 4)))
    matrix = matrix_of(rows)
    assert _GroupTable.build([matrix]).wrong.dtype == np.uint16
    for alpha, beta in [(0.9, 0.5), (0.99, 0.6), (0.134, 0.847)]:
        noise = NoiseParams(alpha, beta)
        expected = oracle_predictive_trajectory(rows, noise)
        assert np.max(np.abs(table_trajectory(matrix, noise) - expected)) <= 1e-12, noise


def prefix(matrix: EvalMatrix, n_sets: int) -> EvalMatrix:
    """``matrix`` cut after its first ``n_sets`` sets."""
    end = matrix.offsets[n_sets]
    return EvalMatrix(matrix.log_priors, matrix.classes[:, :end], matrix.inverse,
                      matrix.gold[:end], matrix.offsets[:n_sets + 1])


@pytest.mark.parametrize("name", ["xor-full", "one-blue-full"])
def test_groups_degenerate_where_the_class_kernel_does(size3_matrices, name):
    """At every grid point a list's prediction fails exactly when the class
    kernel finds a boundary before one of its sets with no mass: cut just
    before that boundary's set the list predicts, and cut just after it it
    fails."""
    matrix = size3_matrices[name]
    n_sets = len(matrix.offsets) - 1
    degenerate = 0
    for alpha, beta in GRID:
        if alpha == 0.0:  # the fit scores no alpha = 0 point
            continue
        noise = NoiseParams(alpha, beta)
        steps, raised = bits(posterior_by_set, matrix, noise)
        failed_at = len(steps) if raised else n_sets + 1  # the first boundary with no mass
        prediction = trajectory_or_none(table_trajectory, matrix, noise)
        assert (prediction is None) == (failed_at < n_sets), noise
        if failed_at < n_sets:
            degenerate += 1
            assert trajectory_or_none(table_trajectory, prefix(matrix, failed_at), noise) is not None
            assert trajectory_or_none(table_trajectory, prefix(matrix, failed_at + 1), noise) is None
    # A size-3 concept states xor-full's rule, and no evidence kills it at
    # alpha above 0; no size-3 concept states one-blue's.
    assert (degenerate > 0) == name.startswith("one-blue")


def dense_shares(table, n_objects: int) -> np.ndarray:
    """(n_groups, n_objects): the table's shares, zeros included."""
    dense = np.zeros((len(table.log_priors), n_objects))
    for shares in (table.whole, table.partial):
        ends = [*shares.starts[1:].tolist(), len(shares.group)]
        for obj, start, end in zip(shares.objects.tolist(), shares.starts.tolist(), ends):
            dense[shares.group[start:end], obj] = 1.0 if shares.values is None else shares.values[start:end]
    return dense


def test_equal_counts_at_a_boundary_share_one_group():
    """Rows 0 and 4 differ only on the second set's object, so before it
    they disagree with no label: one group, holding both priors, whose
    share of that object is row 0's part of them."""
    truth = np.array([
        [1, 0, 1], [0, 1, 0], [1, 1, 0], [0, 0, 1], [1, 0, 0],
    ], dtype=bool)
    gold = np.array([True, False, True])
    log_priors = np.log([0.1, 0.2, 0.3, 0.15, 0.25])
    matrix = matrix_of(Rows(log_priors, truth, gold, [0, 2, 3]))
    table = _GroupTable.build([matrix])
    assert table.sizes.tolist() == [1, 4] and table.starts.tolist() == [0, 1]
    assert table.wrong[:, 0].tolist() == [0, 0]  # nothing seen yet
    # Boundary 1, in (wrong on False, wrong on True) order: rows 0 and 4,
    # row 3, row 2, row 1.
    assert table.wrong[:, 1:].T.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]
    assert table.log_priors[1] == pytest.approx(math.log(0.1 + 0.25), abs=1e-15)
    shares = dense_shares(table, 3)
    assert shares[1, 2] == pytest.approx(0.1 / 0.35, abs=1e-15)
    assert shares[0, :2] == pytest.approx([0.1 + 0.3 + 0.25, 0.2 + 0.3])
    for alpha, beta in [(0.9, 0.5), (0.134, 0.847), (0.75, 1.0), (1.0, 0.5)]:
        noise = NoiseParams(alpha, beta)
        expected = oracle_predictive_trajectory(Rows(log_priors, truth, gold, [0, 2, 3]), noise)
        assert np.max(np.abs(table.predict(noise) - expected)) <= 1e-12, noise


@pytest.mark.parametrize("shift", [-1000.0, 1000.0])
def test_priors_far_from_zero_predict_as_the_oracle(size3_matrices, shift):
    """Shifting every log prior by 1000 either way moves no prediction,
    since each boundary's weights are taken relative to its best group,
    and fails where the oracle fails."""
    for name in ("xor-full", "one-blue-full"):
        matrix = size3_matrices[name]
        shifted = EvalMatrix(matrix.log_priors + shift, matrix.classes, matrix.inverse,
                             matrix.gold, matrix.offsets)
        for alpha, beta in [(0.9, 0.5), (0.134, 0.847), (0.75, 1.0), (1.0, 0.5), (0.5, 0.0)]:
            noise = NoiseParams(alpha, beta)
            expected = trajectory_or_none(oracle_predictive_trajectory, rows_of(matrix), noise)
            actual = trajectory_or_none(table_trajectory, shifted, noise)
            assert (actual is None) == (expected is None), (name, noise)
            assert actual is None or np.max(np.abs(actual - expected)) <= 1e-12, (name, noise)


def test_many_disagreements_predict_as_the_oracle():
    """A list of 600 objects that every row misclassifies a third of: at
    alpha = 0.95 the last boundaries' unshifted weights would underflow,
    and the predictions are still the oracle's."""
    rng = np.random.default_rng(4)
    gold = rng.random(600) < 0.5
    truth = np.array([gold ^ (rng.random(600) < 1 / 3) for _row in range(6)])
    rows = Rows(np.log(np.full(6, 1 / 6)), truth, gold, list(range(0, 601, 5)))
    noise = NoiseParams(0.95, 0.5)
    expected = oracle_predictive_trajectory(rows, noise)
    assert np.max(np.abs(table_trajectory(matrix_of(rows), noise) - expected)) <= 1e-12


def test_the_grid_loop_peaks_below_the_per_point_kernel():
    """On the 12 dry-run rules at max_size 3 (44,447 groups; lab-s3's fit
    has 43,524), the grid loop's tracemalloc peak stays below that of the
    kernel it replaced, which cast four uint8 count rows and gathered
    through int32 indices at every point: 861,323 bytes (numpy 2.4)."""
    hypotheses = enumerate_hypotheses(default_grammar(V), 3)
    lists = dry_run_lists()
    table = _GroupTable.build(build_eval_matrices(hypotheses, lists))
    assert len(table.log_priors) == 44_447
    n_objects = sum(exemplar_list.n_objects for exemplar_list in lists)
    human = np.random.default_rng(0).random(n_objects)
    keep = np.ones(n_objects, dtype=bool)
    tracemalloc.start()
    try:
        for _point in _grid_r2(table, keep, human, GRID):
            pass
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 861_323


def test_lab_sized_fit_keeps_the_class_paths_winner():
    """On the 12 dry-run rules at max_size 3 and the full 441-point grid,
    with 30 subjects per object answering near the class path's predictions
    at (0.75, 0.9), the fit has the class path's winner, runner-up and
    undefined count, and its two r2 within 1e-12."""
    from rulelab.learner import fit_noise

    hypotheses = enumerate_hypotheses(default_grammar(V), 3)
    lists = dry_run_lists()
    matrices = list(build_eval_matrices(hypotheses, lists))
    rng = np.random.default_rng(2024)
    prepared, human = [], []
    for exemplar_list, matrix in zip(lists, matrices):
        p_true = class_path_trajectory(matrix, NoiseParams(0.75, 0.9))
        n_true = np.clip(np.round(30 * p_true + rng.normal(0.0, 2.0, len(p_true))), 0, 30)
        prepared.append((matrix, np.ones(exemplar_list.n_objects, dtype=bool)))
        human.append(n_true / 30)
    assert len(lists) == 12
    fitted = fit_noise(lists, [proportions.tolist() for proportions in human], GRID, hypotheses)
    scores = oracle_grid_r2(prepared, np.concatenate(human), GRID, class_path_trajectory)
    scored = [(r2, a, b) for a, b, r2 in scores if r2 is not None]
    best, runner_up = heapq.nlargest(2, scored)
    assert (fitted.noise, fitted.runner_up) == (NoiseParams(*best[1:]), NoiseParams(*runner_up[1:]))
    assert abs(fitted.r2 - best[0]) <= 1e-12 and abs(fitted.runner_up_r2 - runner_up[0]) <= 1e-12
    assert fitted.undefined_points == len(GRID) - len(scored) > 0
