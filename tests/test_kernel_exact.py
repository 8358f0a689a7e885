"""The posterior kernel against the per-cell form it replaced, bit for bit.

The oracle takes ``math.log`` of every (hypothesis, object) cell's factor,
the log the per-object reference learner takes, sums with ``cumsum``, pads
with ``np.pad`` and normalises each boundary as it is reached.  The kernel
takes the log of four factor values and gathers them through
``EvalMatrix.cells``; its scores must have the same bits (compared as
``int64`` views), the same MAP rows, and a degenerate boundary must raise
at the same place.  The exact engine, MH's truth rows and the reference
sum must also agree bitwise at noise points where ``np.log`` and
``math.log`` round apart.
"""

import gc
import math
import tracemalloc
import weakref
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import log_likelihood
from rulelab.catalog import DEFAULT_VOCAB as V
from rulelab.dsl import ContextBatch, parse_concept
from rulelab.exemplars import HumanResponseTable, generate_list
from rulelab.learner import (
    DegeneratePosteriorError,
    EvalMatrix,
    NoiseParams,
    build_eval_matrix,
    default_grammar,
    enumerate_hypotheses,
    evidence_from_list,
    noise_grid,
    posterior_by_set,
)
from rulelab.learner import fit as fit_module
from rulelab.learner import inference, predictive_trajectory
from rulelab.learner.fit import _behaviour_classes, _grid_r2
from rulelab.learner.inference import _boundary_log_likelihood, _cells, _list_objects
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


def oracle_boundary_log_likelihood(matrix: EvalMatrix, noise: NoiseParams) -> np.ndarray:
    base = np.where(matrix.gold, noise.beta, 1.0 - noise.beta)
    agree = matrix.agree_true == matrix.gold
    factors = math_log(noise.alpha * agree + (1.0 - noise.alpha) * base)
    cumulative = np.pad(np.cumsum(factors, axis=1), ((0, 0), (1, 0)))  # column j: first j objects
    return np.ascontiguousarray(cumulative[:, matrix.offsets].T)


def oracle_posterior_by_set(matrix: EvalMatrix, noise: NoiseParams):
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


def oracle_predictive_trajectory(matrix: EvalMatrix, noise: NoiseParams) -> np.ndarray:
    n_sets = len(matrix.offsets) - 1
    steps = islice(oracle_posterior_by_set(matrix, noise), n_sets)
    posteriors = np.exp([log_posterior for _ll, log_posterior, _map in steps])
    posteriors = posteriors.reshape(n_sets, len(matrix.log_priors))
    set_of_object = np.repeat(np.arange(n_sets), np.diff(matrix.offsets))
    rule_mass = (posteriors @ matrix.agree_true)[set_of_object, np.arange(len(set_of_object))]
    return noise.alpha * rule_mass + (1.0 - noise.alpha) * noise.beta


def trajectory_bits(trajectory, matrix, noise):
    try:
        return trajectory(matrix, noise).view(np.int64)
    except DegeneratePosteriorError:
        return None


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


def assert_bitwise_equal(matrix, noise):
    """Returns how many boundaries were reached and whether the kernel
    raised, once both agree."""
    expected, expected_raised = bits(oracle_posterior_by_set, matrix, noise)
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
        matrices[f"{name}-collapsed"] = _behaviour_classes(full)
    return matrices


@pytest.mark.parametrize("name", ["xor-full", "xor-collapsed", "one-blue-full", "one-blue-collapsed"])
def test_kernel_matches_per_cell_oracle_on_the_grid(size3_matrices, name):
    matrix = size3_matrices[name]
    corners = {(a, b) for a in (0.0, 1.0) for b in (0.0, 1.0)}
    assert corners <= set(GRID)
    raised_at = {}
    for alpha, beta in GRID:
        noise = NoiseParams(alpha, beta)
        reached, raised = assert_bitwise_equal(matrix, noise)
        if raised:
            raised_at[(alpha, beta)] = reached
        expected = trajectory_bits(oracle_predictive_trajectory, matrix, noise)
        actual = trajectory_bits(predictive_trajectory, matrix, noise)
        assert (actual is None) == (expected is None), f"trajectory at {noise}"
        assert actual is None or np.array_equal(actual, expected), f"trajectory at {noise}"
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
    assert len(full[0]) == len(collapsed[0]) == len(bits(oracle_posterior_by_set, size3_matrices["one-blue-full"], noise)[0])


def test_grid_r2_is_the_oracles_sequence(size3_matrices, monkeypatch):
    """The whole fit loop, pooled over lists, gives exactly the r2 values
    (and the skipped points) of the per-cell kernel."""
    prepared, human = [], []
    rng = np.random.default_rng(3)
    for name in ("xor-collapsed", "one-blue-collapsed"):
        matrix = size3_matrices[name]
        keep = rng.random(matrix.offsets[-1]) < 0.9
        prepared.append((matrix, keep))
        human.append(rng.random(int(keep.sum())))
    human = np.concatenate(human)
    actual = list(_grid_r2(prepared, human, GRID))
    monkeypatch.setattr(fit_module, "predictive_trajectory", oracle_predictive_trajectory)
    expected = list(_grid_r2(prepared, human, GRID))
    assert actual == expected
    assert sum(r2 is None for _a, _b, r2 in actual) > 0


def test_fit_pools_the_oracles_scores(monkeypatch):
    """fit_noise's winner is the oracle's, r2 and runner-up included."""
    from rulelab.learner import fit_noise

    grammar = default_grammar(V)
    lists, tables = [], []
    for i, (concept, seed) in enumerate(((CIRCLE_XOR_BLUE, 5), (EXACTLY_ONE_BLUE, 2))):
        exemplar_list = generate_list(concept, V, seed=seed, rule_id=f"r{i}")
        n_true = {(s, o): (700 if label else 300) - 37 * (o % 3)
                  for s, o, _c, label in exemplar_list.iter_items()}
        lists.append(exemplar_list)
        tables.append(HumanResponseTable(f"r{i}", n_true, {key: 1000 for key in n_true}))
    grid = noise_grid(0.1)
    actual = fit_noise(lists, tables, grid, enumerate_hypotheses(grammar, 3))
    monkeypatch.setattr(fit_module, "predictive_trajectory", oracle_predictive_trajectory)
    assert fit_noise(lists, tables, grid, enumerate_hypotheses(grammar, 3)) == actual


def test_cells_index_lives_only_as_long_as_its_matrix(size3_matrices):
    source = size3_matrices["xor-full"]
    matrix = EvalMatrix(source.log_priors, source.agree_true, source.gold, source.offsets)
    predictive_trajectory(matrix, NoiseParams(0.9, 0.5))
    cells = matrix.cells
    list(posterior_by_set(matrix, NoiseParams(0.5, 0.2)))
    assert matrix.cells is cells  # built once, reused at the next grid point
    assert cells.shape == (source.offsets[-1], len(source.log_priors))
    index = weakref.ref(cells)
    del matrix, cells
    gc.collect()
    assert index() is None


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
    assert hypotheses.printed[71] == "(and (is-color blue) (is-color green))"
    assert hypotheses.printed[80] == "(and (is-color blue) (minority-color))"


@st.composite
def small_matrices(draw):
    n_hyps = draw(st.integers(1, 6))
    set_sizes = draw(st.lists(st.integers(0, 4), min_size=0, max_size=5))
    n_objects = sum(set_sizes)
    agree_true = np.array(
        draw(st.lists(st.booleans(), min_size=n_hyps * n_objects, max_size=n_hyps * n_objects)),
        dtype=bool,
    ).reshape(n_hyps, n_objects)
    gold = np.array(draw(st.lists(st.booleans(), min_size=n_objects, max_size=n_objects)), dtype=bool)
    prior_pool = st.sampled_from([-1.0, -2.5, -0.1]) | st.floats(-50.0, 0.0)
    log_priors = np.array(draw(st.lists(prior_pool, min_size=n_hyps, max_size=n_hyps)))
    offsets = np.concatenate([[0], np.cumsum(set_sizes)]).astype(int).tolist()
    return EvalMatrix(log_priors, agree_true, gold, offsets)


unit = st.sampled_from([0.0, 1.0, 0.5, 0.05, 0.95]) | st.floats(0.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(small_matrices(), unit, unit)
def test_kernel_matches_oracle_on_random_matrices(matrix, alpha, beta):
    assert_bitwise_equal(matrix, NoiseParams(alpha, beta))


@settings(max_examples=200, deadline=None)
@given(small_matrices(), unit, unit, st.sampled_from([1, 3]))
def test_kernel_matches_oracle_in_object_blocks(matrix, alpha, beta, block_objects):
    """Blocks of one and three objects: the running sum carried from block
    to block keeps every bit, one-row matrices (MH's path) included."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(inference, "_BLOCK_BYTES", 8 * len(matrix.log_priors) * block_objects)
        assert_bitwise_equal(matrix, NoiseParams(alpha, beta))


@pytest.mark.parametrize("block_objects", [1, 3])
@pytest.mark.parametrize("name", ["xor-full", "one-blue-collapsed"])
def test_set_boundaries_inside_and_at_block_edges(size3_matrices, monkeypatch, name, block_objects):
    matrix = size3_matrices[name]
    n_rows = len(matrix.log_priors)
    assert {offset % 3 for offset in matrix.offsets} == {0, 1, 2}  # inside and at edges
    for alpha, beta in GRID[::37] + [(0.0, 0.0), (1.0, 0.5)]:
        noise = NoiseParams(alpha, beta)
        expected = oracle_boundary_log_likelihood(matrix, noise)
        monkeypatch.setattr(inference, "_BLOCK_BYTES", 8 * n_rows * block_objects)
        actual = _boundary_log_likelihood(matrix.cells, matrix.offsets, noise)
        assert np.array_equal(actual.view(np.int64), expected.view(np.int64)), noise
        monkeypatch.setattr(inference, "_BLOCK_BYTES", 8 * block_objects)
        for row in (0, n_rows // 2, n_rows - 1):
            one = _boundary_log_likelihood(matrix.cells[:, row:row + 1], matrix.offsets, noise)
            assert np.array_equal(one[:, 0].view(np.int64), expected[:, row].view(np.int64)), noise


def test_kernel_holds_one_block_beyond_its_result():
    """On a lab-sized matrix (9,568 rows, 25 sets of 2 to 4 objects) the
    kernel's traced peak is its result plus under 2 MB."""
    rng = np.random.default_rng(7)
    n_rows = 9568
    offsets = np.concatenate([[0], np.cumsum(rng.integers(2, 5, size=25))]).tolist()
    agree_true = rng.random((n_rows, offsets[-1])) < 0.5
    cells = _cells(agree_true, rng.random(offsets[-1]) < 0.5)
    assert cells.dtype == np.uint8
    tracemalloc.start()
    try:
        result = _boundary_log_likelihood(cells, offsets, NoiseParams(0.95, 0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.shape == (26, n_rows)
    assert peak < result.nbytes + 2 * 2**20


def test_offsets_must_be_nondecreasing_within_the_objects():
    cells = np.zeros((4, 2), dtype=np.uint8)
    noise = NoiseParams(0.9, 0.5)
    for offsets in ([0, 5], [0, 3, 2], [-1, 4]):
        with pytest.raises(ValueError, match="nondecreasing"):
            _boundary_log_likelihood(cells, offsets, noise)


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
    contexts, gold, offsets = _list_objects(exemplar_list)
    rows = _TruthRows(ContextBatch.from_contexts(contexts, V), gold, offsets, noise)
    matrix = build_eval_matrix(hypotheses, exemplar_list)
    exact = np.array([ll for ll, _lp, _map in posterior_by_set(matrix, noise)])
    assert exact.shape == (len(offsets), len(hypotheses)) == (26, 70)
    evidence = evidence_from_list(exemplar_list)
    for (concept, _prior), printed, exact_row in zip(hypotheses, hypotheses.printed, exact.T):
        reference = np.array([log_likelihood(concept, evidence[:end], noise) for end in offsets])
        mh = np.array(rows[concept][1])
        assert np.array_equal(mh.view(np.int64), reference.view(np.int64)), printed
        assert np.array_equal(exact_row.view(np.int64), reference.view(np.int64)), printed
