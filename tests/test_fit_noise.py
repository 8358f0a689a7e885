"""Noise-parameter recovery by grid search."""

import math

import numpy as np
import pytest

from conftest import dry_run_lists
from rulelab.catalog import DEFAULT_VOCAB as V
from rulelab.dsl import parse_concept
from rulelab.exemplars import ExemplarList, generate_list
from rulelab.learner import (
    DegeneratePosteriorError,
    EvalMatrix,
    NoiseParams,
    build_eval_matrices,
    build_eval_matrix,
    default_grammar,
    enumerate_hypotheses,
    fit_noise,
    noise_grid,
    posterior_by_set,
    run_enumerative,
)
from rulelab.learner.fit import _GroupTable, _grid_r2
from rulelab.metrics import r_squared

GRAMMAR = default_grammar(V)
MAX_SIZE = 2
RULES = ["(is-color blue)", "(exists others (same-color 0 1))", "(is-size small)"]


def model_humans(noise: NoiseParams, seeds=range(3)) -> tuple[list[ExemplarList], list[list]]:
    """Synthetic 'humans': the learner's own P(True) trajectory, voiced as
    exact response proportions, one vector per list."""
    hypotheses = enumerate_hypotheses(GRAMMAR, MAX_SIZE)
    lists, humans = [], []
    for i, (source, seed) in enumerate(zip(RULES, seeds)):
        exemplar_list = generate_list(parse_concept(source, V), V, seed=seed, rule_id=f"r{i}")
        matrix = build_eval_matrix(hypotheses, exemplar_list)
        lists.append(exemplar_list)
        humans.append(list(run_enumerative(exemplar_list, hypotheses, matrix, noise).p_true))
    return lists, humans


def test_grid_helper():
    grid = noise_grid(0.5)
    assert grid == [(0.0, 0.0), (0.0, 0.5), (0.0, 1.0), (0.5, 0.0), (0.5, 0.5), (0.5, 1.0),
                    (1.0, 0.0), (1.0, 0.5), (1.0, 1.0)]
    assert len(noise_grid(0.05)) == 21 * 21


@pytest.mark.parametrize("step", [0.05, 0.1, 0.25, 0.5])
def test_grid_at_a_step_that_divides_one_is_unchanged(step):
    axis = [round(i * step, 10) for i in range(int(round(1.0 / step)) + 1)]
    assert axis[-1] == 1.0
    assert noise_grid(step) == [(a, b) for a in axis for b in axis]


@pytest.mark.parametrize("step, size, last", [
    (0.15, 7, 0.9), (0.35, 3, 0.7), (0.3, 4, 0.9), (0.4, 3, 0.8), (0.45, 3, 0.9), (0.7, 2, 0.7),
    (1.0, 2, 1.0), (1 / 3, 4, 1.0), (1 / 93, 94, 1.0), (0.02, 51, 1.0), (0.07, 15, 0.98),
])
def test_grid_axis_never_passes_one(step, size, last):
    """The multiples of the step up to 1: a step that does not divide 1
    stops short of it, and one that does reaches it despite rounding."""
    axis = sorted({alpha for alpha, _beta in noise_grid(step)})
    assert len(axis) == size and axis[0] == 0.0 and axis[-1] == last
    assert sorted({beta for _alpha, beta in noise_grid(step)}) == axis
    assert all(NoiseParams(a, b) for a, b in noise_grid(step))  # each a valid point


def test_single_point_grid():
    lists, humans = model_humans(NoiseParams(0.8, 0.4))
    fitted = fit_noise(lists, humans, [(0.7, 0.3)], enumerate_hypotheses(GRAMMAR, MAX_SIZE))
    assert fitted.noise == NoiseParams(0.7, 0.3)
    assert fitted.runner_up is None and fitted.runner_up_r2 is None


def test_recovers_generating_point():
    lists, humans = model_humans(NoiseParams(0.8, 0.4))
    fitted = fit_noise(lists, humans, noise_grid(0.05), enumerate_hypotheses(GRAMMAR, MAX_SIZE))
    assert fitted.noise == NoiseParams(0.8, 0.4)


def test_gold_label_humans_push_alpha_to_grid_max():
    # Perfectly rule-following humans: alpha should hit the top of the grid.
    lists = []
    humans = []
    for i, source in enumerate(RULES):
        exemplar_list = generate_list(parse_concept(source, V), V, seed=50 + i, rule_id=f"r{i}")
        lists.append(exemplar_list)
        humans.append([1.0 if label else 0.0 for label in exemplar_list.gold])
    grid = [(a, b) for a in (0.6, 0.8, 0.95) for b in (0.3, 0.5, 0.7)]
    fitted = fit_noise(lists, humans, grid, enumerate_hypotheses(GRAMMAR, MAX_SIZE))
    assert fitted.noise.alpha == 0.95


def test_empty_grid_rejected():
    lists, humans = model_humans(NoiseParams(0.8, 0.4))
    with pytest.raises(ValueError):
        fit_noise(lists, humans, [], enumerate_hypotheses(GRAMMAR, MAX_SIZE))


def test_missing_human_entries_are_skipped():
    lists, humans = model_humans(NoiseParams(0.8, 0.4))
    # Blank out one set's worth of humans; fitting still recovers the point.
    humans[0][:lists[0].offsets[1]] = [None] * lists[0].offsets[1]
    fitted = fit_noise(lists, humans, noise_grid(0.1), enumerate_hypotheses(GRAMMAR, MAX_SIZE))
    assert fitted.noise == NoiseParams(0.8, 0.4)


def test_a_proportion_vector_of_another_length_is_refused():
    lists, humans = model_humans(NoiseParams(0.8, 0.4))
    n = lists[1].n_objects
    for vector in (humans[1][:-1], humans[1] + [0.5]):
        message = f"rule 'r1': {len(vector)} human proportions for {n} objects"
        with pytest.raises(ValueError, match=message):
            fit_noise(lists, [humans[0], vector, humans[2]], [(0.8, 0.4)],
                      enumerate_hypotheses(GRAMMAR, MAX_SIZE))


# --- behaviour classes ------------------------------------------------------

SAME_COLOR_AS_ANOTHER = parse_concept("(exists others (same-color 0 1))", V)
# No concept of size <= 3 expresses it, so at alpha = 1 the evidence
# eliminates every hypothesis part-way through the list.
EXACTLY_ONE_BLUE = parse_concept("(exactly-one all (is-color blue 0))", V)


def reference_trajectory(matrix, noise):
    """The group table's predictions as a loop over sets: each set's objects are
    predicted from the posterior over the hypotheses before that set."""
    predictions = np.empty(matrix.offsets[-1])
    offsets = matrix.offsets
    truth = matrix.classes[matrix.inverse]  # a row per hypothesis
    for start, end, (_ll, log_posterior, _map) in zip(
        offsets, offsets[1:], posterior_by_set(matrix, noise)
    ):
        rule_mass = np.exp(log_posterior) @ truth[:, start:end]
        predictions[start:end] = noise.alpha * rule_mass + (1.0 - noise.alpha) * noise.beta
    return predictions


def fit_inputs(lists, humans, max_size):
    """Each list's eval matrix with its mask of objects that have human
    data, and the pooled human proportions."""
    hypotheses = enumerate_hypotheses(GRAMMAR, max_size)
    prepared, human = [], []
    for exemplar_list, proportions in zip(lists, humans):
        keep = np.array([p is not None for p in proportions])
        prepared.append((build_eval_matrix(hypotheses, exemplar_list), keep))
        human += [p for p in proportions if p is not None]
    return prepared, np.array(human)


def reference_fit(prepared, human, grid):
    """The grid loop over the hypotheses of each eval matrix, not its
    classes: returns the best (alpha, beta) and every point's r2 (None
    where skipped)."""
    best, scores = None, []
    for alpha, beta in grid:
        noise = NoiseParams(alpha, beta)
        try:
            model = np.concatenate(
                [reference_trajectory(matrix, noise)[keep] for matrix, keep in prepared]
            )
        except DegeneratePosteriorError:
            scores.append(None)
            continue
        if model.size < 2 or np.ptp(model) == 0.0 or np.ptp(human) == 0.0:
            scores.append(None)
            continue
        r = float(np.corrcoef(model, human)[0, 1])
        if math.isnan(r):
            scores.append(None)
            continue
        scores.append(r * r)
        if best is None or (r * r, alpha, beta) > best:
            best = (r * r, alpha, beta)
    return NoiseParams(best[1], best[2]), scores


@pytest.fixture(scope="module")
def size3_hypotheses():
    return enumerate_hypotheses(GRAMMAR, 3)


def collapsed(matrix: EvalMatrix) -> EvalMatrix:
    """The matrix with each behaviour class one hypothesis, carrying its
    members' summed prior."""
    sizes = np.bincount(matrix.inverse, minlength=len(matrix.classes))
    members = np.argsort(matrix.inverse, kind="stable")  # grouped by class
    log_priors = np.logaddexp.reduceat(matrix.log_priors[members], np.cumsum(sizes) - sizes)
    classes = np.arange(len(matrix.classes))
    return EvalMatrix(log_priors, matrix.classes, classes, matrix.gold, matrix.offsets)


def test_behaviour_classes_merge_rows_and_sum_priors(size3_hypotheses):
    """Rows merge into classes, and the noise fit's groups sum the priors
    of every hypothesis with the same disagreement counts at a boundary."""
    exemplar_list = generate_list(SAME_COLOR_AS_ANOTHER, V, seed=4, rule_id="same-color")
    matrix = build_eval_matrix(size3_hypotheses, exemplar_list)
    assert len(matrix.classes) < len(matrix.log_priors) == len(matrix.inverse)
    assert len({row.tobytes() for row in matrix.classes}) == len(matrix.classes)
    table = _GroupTable.build([matrix])
    truth = matrix.classes[matrix.inverse]
    for k, (start, size) in enumerate(zip(table.starts, table.sizes)):
        seen = slice(0, matrix.offsets[k])
        wrong = truth[:, seen] != matrix.gold[seen]
        wrong_false = np.count_nonzero(wrong & ~matrix.gold[seen], axis=1)
        wrong_true = np.count_nonzero(wrong & matrix.gold[seen], axis=1)
        mass: dict[tuple[int, int], float] = {}
        for pair, log_prior in zip(zip(wrong_false.tolist(), wrong_true.tolist()), matrix.log_priors):
            mass[pair] = mass.get(pair, 0.0) + math.exp(log_prior)
        assert len(mass) == size < len(matrix.classes) or k == 0
        groups = slice(start, start + size)
        pairs = zip(table.wrong[0, groups].tolist(), table.wrong[1, groups].tolist())
        for pair, log_prior in zip(pairs, table.log_priors[groups]):
            assert log_prior == pytest.approx(math.log(mass[pair]), abs=1e-12)


@pytest.mark.parametrize("alpha, beta", [(0.95, 0.5), (0.75, 1.0), (0.5, 0.2), (0.2, 0.9)])
def test_collapsed_trajectory_matches_full(size3_hypotheses, alpha, beta):
    noise = NoiseParams(alpha, beta)
    exemplar_list = generate_list(SAME_COLOR_AS_ANOTHER, V, seed=4, rule_id="same-color")
    matrix = build_eval_matrix(size3_hypotheses, exemplar_list)
    expected = reference_trajectory(matrix, noise)
    assert np.max(np.abs(_GroupTable.build([matrix]).predict(noise) - expected)) <= 1e-12


def test_collapsed_and_full_degenerate_in_the_same_set(size3_hypotheses):
    noise = NoiseParams(1.0, 0.5)
    exemplar_list = generate_list(EXACTLY_ONE_BLUE, V, seed=2, rule_id="exactly-one-blue")
    full = build_eval_matrix(size3_hypotheses, exemplar_list)

    def boundaries_reached(matrix):
        reached = 0
        with pytest.raises(DegeneratePosteriorError):
            for _step in posterior_by_set(matrix, noise):
                reached += 1
        return reached

    reached = boundaries_reached(full)
    assert 0 < reached < len(exemplar_list.sets)
    assert boundaries_reached(collapsed(full)) == reached
    for matrix in (full, collapsed(full)):
        with pytest.raises(DegeneratePosteriorError):
            _GroupTable.build([matrix]).predict(noise)


def test_grid_matrices_hold_no_hypothesis_arrays(size3_hypotheses, monkeypatch):
    """The grid keeps only its table of (aT, aF) groups, with no array over
    every hypothesis or every class, and fewer groups than the lists have
    classes at their boundaries; its scores are the full-matrix loop's
    within 1e-12, with the same undefined points and winner."""
    import rulelab.learner.fit as fit

    seen = []
    grid_r2 = fit._grid_r2

    def spy(table, keep, human, grid):
        seen.append(table)
        return grid_r2(table, keep, human, grid)

    monkeypatch.setattr(fit, "_grid_r2", spy)
    lists, humans = model_humans(NoiseParams(0.8, 0.4))
    grid = noise_grid(0.25)
    fitted = fit_noise(lists, humans, grid, size3_hypotheses)
    [table] = seen
    matrices = [build_eval_matrix(size3_hypotheses, exemplar_list) for exemplar_list in lists]
    class_boundaries = sum(len(m.classes) * (len(m.offsets) - 1) for m in matrices)
    assert len(table.log_priors) < class_boundaries
    arrays = [value for part in (table, table.whole, table.partial)
              for value in vars(part).values() if isinstance(value, np.ndarray)]
    assert len(arrays) >= 10
    n_hyps = len(size3_hypotheses)
    assert all(n_hyps not in array.shape and class_boundaries not in array.shape for array in arrays)
    prepared, human = fit_inputs(lists, humans, max_size=3)
    expected, expected_scores = reference_fit(prepared, human, grid)
    assert fitted.noise == expected
    assert fitted.undefined_points == sum(r2 is None for r2 in expected_scores)


def test_fit_matches_full_matrix_grid_loop():
    lists, humans = model_humans(NoiseParams(0.8, 0.4))
    # A list no size-3 concept explains: its posterior dies at alpha = 1.
    exemplar_list = generate_list(EXACTLY_ONE_BLUE, V, seed=2, rule_id="r3")
    lists.append(exemplar_list)
    humans.append([0.7 if label else 0.3 for label in exemplar_list.gold])
    grid = noise_grid(0.05)
    prepared, human = fit_inputs(lists, humans, max_size=3)
    expected, expected_scores = reference_fit(prepared, human, grid)
    fitted = fit_noise(lists, humans, grid, enumerate_hypotheses(GRAMMAR, 3))
    assert fitted.noise == expected
    # Runner-up and undefined points as the full-matrix loop sees them.
    ranked = sorted(
        ((r2, alpha, beta) for (alpha, beta), r2 in zip(grid, expected_scores) if r2 is not None),
        reverse=True,
    )
    assert fitted.runner_up == NoiseParams(ranked[1][1], ranked[1][2])
    assert abs(fitted.r2 - ranked[0][0]) <= 1e-12 and abs(fitted.runner_up_r2 - ranked[1][0]) <= 1e-12
    assert fitted.undefined_points == sum(r2 is None for r2 in expected_scores)

    table = _GroupTable.build(matrix for matrix, _keep in prepared)
    keep = np.concatenate([keep for _matrix, keep in prepared])
    scores = [r2 for _a, _b, r2 in _grid_r2(table, keep, human, grid)]
    skipped = [point for point, r2 in zip(grid, expected_scores) if r2 is None]
    # alpha = 0 predicts a constant; alpha = 1 leaves r3 no hypothesis.
    assert {alpha for alpha, _beta in skipped} == {0.0, 1.0}
    assert [point for point, r2 in zip(grid, scores) if r2 is None] == skipped
    for r2, expected_r2 in zip(scores, expected_scores):
        if r2 is not None:
            assert abs(r2 - expected_r2) <= 1e-12


def test_the_fits_r2_is_r_squared_bit_for_bit():
    """On the 12 dry-run rules at max_size 3 and the 441-point grid, with a
    tenth of the objects unanswered, every defined grid r2 has the bits of
    ``r_squared`` on the same predictions and proportions as lists, and so
    has the fit's winner.  No alpha = 0 point is defined."""
    lists = dry_run_lists()
    rng = np.random.default_rng(7)
    humans = [[None if rng.random() < 0.1 else int(rng.integers(0, 31)) / 30
               for _object in range(exemplar_list.n_objects)] for exemplar_list in lists]
    pooled = [p for proportions in humans for p in proportions]
    keep = np.array([p is not None for p in pooled])
    human = np.array([p for p in pooled if p is not None])
    grid = noise_grid(0.05)
    hypotheses = enumerate_hypotheses(GRAMMAR, 3)
    table = _GroupTable.build(build_eval_matrices(hypotheses, lists))
    defined = {}
    for alpha, beta, r2 in _grid_r2(table, keep, human, grid):
        if r2 is not None:
            model = table.predict(NoiseParams(alpha, beta))[keep]
            assert r2 == r_squared(model.tolist(), human.tolist()), (alpha, beta)
            defined[alpha, beta] = r2
    assert len(defined) > 350 and min(alpha for alpha, _beta in defined) > 0.0
    fitted = fit_noise(lists, humans, grid, enumerate_hypotheses(GRAMMAR, 3))
    assert fitted.undefined_points == len(grid) - len(defined)
    assert fitted.r2 == defined[fitted.noise.alpha, fitted.noise.beta] == max(defined.values())
