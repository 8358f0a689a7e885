"""Grid-search fitting of the noise parameters to human response data.

For each candidate (alpha, beta) the learner replays every training list,
collecting the posterior-predictive P(True) trajectory, and the grid point
maximizing the squared Pearson correlation between pooled model
probabilities and pooled human True-proportions wins.  Ties prefer larger
alpha, then larger beta.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from ..exemplars import ExemplarList, HumanResponseTable
from .grammar import Grammar
from .inference import (
    DegeneratePosteriorError,
    NoiseParams,
    build_eval_matrix,
    enumerate_hypotheses,
    predictive_trajectory,
)


def noise_grid(
    step: float = 0.05,
    alpha_range: tuple[float, float] = (0.0, 1.0),
    beta_range: tuple[float, float] = (0.0, 1.0),
) -> list[tuple[float, float]]:
    """A rectangular (alpha, beta) lattice with the given step."""
    def axis(lo: float, hi: float) -> list[float]:
        count = int(round((hi - lo) / step))
        return [round(lo + i * step, 10) for i in range(count + 1)]

    return [(a, b) for a in axis(*alpha_range) for b in axis(*beta_range)]


def fit_noise(
    lists: Sequence[ExemplarList],
    humans: Sequence[HumanResponseTable],
    grid: Iterable[tuple[float, float]],
    grammar: Grammar,
    max_size: int,
    max_hypotheses: int = 200_000,
) -> NoiseParams:
    """Pick the grid point whose predictive trajectories best explain the
    human proportions (squared Pearson correlation, pooled over lists)."""
    grid = list(grid)
    if not grid:
        raise ValueError("grid must be non-empty")
    if len(lists) != len(humans):
        raise ValueError("need one human table per exemplar list")

    hypotheses = enumerate_hypotheses(grammar, max_size, max_hypotheses)
    prepared = []
    human_chunks = []
    for exemplar_list, table in zip(lists, humans):
        proportions = [table.proportion(s, o) for s, o, _ctx, _label in exemplar_list.iter_items()]
        keep = np.array([p is not None for p in proportions], dtype=bool)
        prepared.append((build_eval_matrix(hypotheses, exemplar_list), keep))
        human_chunks.append(np.array([p for p in proportions if p is not None], dtype=float))
    human = np.concatenate(human_chunks)

    best: tuple[float, float, float] | None = None  # (r2, alpha, beta)
    for alpha, beta in grid:
        noise = NoiseParams(alpha, beta)
        try:
            model = np.concatenate(
                [predictive_trajectory(matrix, noise)[keep] for matrix, keep in prepared]
            )
        except DegeneratePosteriorError:
            # Corner points like (alpha=0, beta=0) can zero out every
            # hypothesis; they simply cannot win the fit.
            continue
        if model.size < 2 or np.ptp(model) == 0.0 or np.ptp(human) == 0.0:
            continue
        r = float(np.corrcoef(model, human)[0, 1])
        if math.isnan(r):
            continue
        candidate = (r * r, alpha, beta)
        if best is None or candidate > best:
            best = candidate
    if best is None:
        raise ValueError("no grid point produced a defined correlation")
    return NoiseParams(best[1], best[2])
