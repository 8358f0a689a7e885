"""Grid-search fitting of the noise parameters to human response data.

For each candidate (alpha, beta) the learner replays every training list,
collecting the posterior-predictive P(True) trajectory, and the grid point
maximizing the squared Pearson correlation between pooled model
probabilities and pooled human True-proportions wins.  Ties prefer larger
alpha, then larger beta.

The hypotheses are evaluated once over every list's contexts
(:func:`build_eval_matrices`), and each grid point scores every list's
eval matrix through :func:`predictive_trajectory`, which works on the
list's behaviour classes.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..exemplars import ExemplarList, HumanResponseTable
from .inference import (
    DegeneratePosteriorError,
    EvalMatrix,
    HypothesisList,
    NoiseParams,
    build_eval_matrices,
    predictive_trajectory,
)


def noise_grid(step: float = 0.05) -> list[tuple[float, float]]:
    """The (alpha, beta) lattice over [0, 1] x [0, 1] with the given step."""
    axis = [round(i * step, 10) for i in range(int(round(1.0 / step)) + 1)]
    return [(a, b) for a in axis for b in axis]


def _by_class(matrix: EvalMatrix) -> EvalMatrix:
    """``matrix`` with each behaviour class as one hypothesis that holds
    the class's prior mass: what :func:`predictive_trajectory` reads,
    without the ``(n_hyps,)`` arrays, which the grid would keep alive.  A
    one-member class folds its prior to itself, so the class priors are
    bitwise the same."""
    return EvalMatrix(
        matrix.class_log_priors, matrix.classes, np.arange(len(matrix.classes)),
        matrix.gold, matrix.offsets,
    )


def _grid_r2(
    prepared: Sequence[tuple[EvalMatrix, np.ndarray]],
    human: np.ndarray,
    grid: Iterable[tuple[float, float]],
) -> Iterator[tuple[float, float, float | None]]:
    """``(alpha, beta, r2)`` per grid point; ``r2`` is None where the
    correlation is undefined or every hypothesis loses its mass."""
    for alpha, beta in grid:
        noise = NoiseParams(alpha, beta)
        try:
            model = np.concatenate(
                [predictive_trajectory(matrix, noise)[keep] for matrix, keep in prepared]
            )
        except DegeneratePosteriorError:
            # Corner points like (alpha=0, beta=0) can zero out every
            # hypothesis; they simply cannot win the fit.
            yield alpha, beta, None
            continue
        if model.size < 2 or np.ptp(model) == 0.0 or np.ptp(human) == 0.0:
            yield alpha, beta, None
            continue
        r = float(np.corrcoef(model, human)[0, 1])
        yield alpha, beta, None if math.isnan(r) else r * r


@dataclass(frozen=True)
class NoiseFit:
    """What a grid fit computed: the winning point and its r2, the point
    that would win without it and its r2 (None when no other point has a
    defined r2), and how many grid points had no defined r2."""

    noise: NoiseParams
    r2: float
    runner_up: NoiseParams | None
    runner_up_r2: float | None
    undefined_points: int


def fit_noise(
    lists: Sequence[ExemplarList],
    humans: Sequence[HumanResponseTable],
    grid: Iterable[tuple[float, float]],
    hypotheses: HypothesisList,
) -> NoiseFit:
    """Pick the grid point whose predictive trajectories over
    ``hypotheses`` (an :func:`enumerate_hypotheses` list) best explain the
    human proportions (squared Pearson correlation, pooled over lists),
    and report it with its runner-up as a :class:`NoiseFit`."""
    grid = list(grid)
    if not grid:
        raise ValueError("grid must be non-empty")
    if len(lists) != len(humans):
        raise ValueError("need one human table per exemplar list")

    prepared = []
    human_chunks = []
    for exemplar_list, table, matrix in zip(lists, humans, build_eval_matrices(hypotheses, lists)):
        proportions = [table.proportion(s, o) for s, o, _ctx, _label in exemplar_list.iter_items()]
        keep = np.array([p is not None for p in proportions], dtype=bool)
        prepared.append((_by_class(matrix), keep))
        human_chunks.append(np.array([p for p in proportions if p is not None], dtype=float))
    human = np.concatenate(human_chunks)
    if np.unique(human).size < 2:
        raise ValueError(
            "the human proportions are constant, so no grid point can produce "
            "a defined correlation"
        )

    scored = [
        (r2, alpha, beta) for alpha, beta, r2 in _grid_r2(prepared, human, grid) if r2 is not None
    ]
    if not scored:
        raise ValueError("no grid point produced a defined correlation")
    best, *rest = heapq.nlargest(2, scored)
    return NoiseFit(
        noise=NoiseParams(best[1], best[2]),
        r2=best[0],
        runner_up=NoiseParams(rest[0][1], rest[0][2]) if rest else None,
        runner_up_r2=rest[0][0] if rest else None,
        undefined_points=len(grid) - len(scored),
    )
