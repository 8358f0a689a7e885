"""Grid-search fitting of the noise parameters to human response data.

For each candidate (alpha, beta) the learner replays every training list,
collecting the posterior-predictive P(True) trajectory, and the grid point
maximizing the squared Pearson correlation between pooled model
probabilities and pooled human True-proportions wins.  Ties prefer larger
alpha, then larger beta.

At a set boundary a behaviour class's log-likelihood depends only on two
counts, its agreements with the True and with the False gold labels so far
(the Rational Rules likelihood depends only on how many examples are
misclassified; Goodman, Tenenbaum, Feldman & Griffiths 2008).  The
hypotheses are evaluated once over every list's contexts
(:func:`build_eval_matrices`), and every list's boundaries are stacked into
one table of (aT, aF) groups (:class:`_GroupTable`), built once per fit.  A
grid point scores the whole table with a few numpy calls, the same code
that :func:`predictive_trajectory` runs on one list.  The groups' ``count *
log factor`` sums agree with the kernel's object-order sums
(:func:`rulelab.learner.inference.posterior_by_set`) up to rounding.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from ..dsl import Concept
from ..exemplars import ExemplarList
from .inference import (
    DegeneratePosteriorError,
    EvalMatrix,
    NoiseParams,
    _log_factors,
    build_eval_matrices,
)


def noise_grid(step: float = 0.05) -> list[tuple[float, float]]:
    """The (alpha, beta) lattice over [0, 1] x [0, 1] with the given step:
    the multiples of ``step`` that do not pass 1.  A multiple within 1e-9
    steps of 1 counts as 1, so that a step such as 1/93, whose reciprocal
    is just under 93 in floats, still reaches it."""
    axis = [min(round(i * step, 10), 1.0) for i in range(math.floor(1.0 / step + 1e-9) + 1)]
    return [(a, b) for a in axis for b in axis]


@dataclass(frozen=True)
class _Shares:
    """Some of a :class:`_GroupTable`'s nonzero shares, in object order:
    each one's group, the objects that have any, and where each of those
    objects' shares start.  ``values`` is None where every share is 1."""

    group: np.ndarray  # int32
    objects: np.ndarray
    starts: np.ndarray
    values: np.ndarray | None

    @classmethod
    def of(cls, group: np.ndarray, per_object: np.ndarray, values: np.ndarray | None = None) -> "_Shares":
        objects = np.flatnonzero(per_object)
        return cls(group, objects, (np.cumsum(per_object) - per_object)[objects], values)

    def add_to(self, rule_mass: np.ndarray, weights: np.ndarray) -> None:
        """Add each object's sum of ``weights`` (one per group) times its
        shares to its entry of ``rule_mass``."""
        weighted = weights[self.group]
        if self.values is not None:
            weighted *= self.values
        rule_mass[self.objects] += np.add.reduceat(weighted, self.starts)


@dataclass(frozen=True)
class _GroupTable:
    """The boundaries before each set of one or more lists, stacked, each
    as its (aT, aF) groups: the behaviour classes that agree with the same
    number of True and of False gold labels before the boundary.  Nothing
    in it depends on the noise, so a fit builds it once and scores every
    grid point from it (:meth:`predict`).

    The groups of a boundary are contiguous, in (aT, aF) order, and each
    boundary's groups follow the last one's.  A group's prior is the log of
    its classes' summed prior mass; its share of an object of the set after
    its boundary is the part of that mass on classes that say True there.
    Shares are kept sparsely, since many are 0 and many are 1: the shares
    of 1 by group alone, the others with their values."""

    counts: np.ndarray  # (4, n_groups) unsigned: cell counts, by code 2 * agrees + label
    log_priors: np.ndarray  # (n_groups,)
    starts: np.ndarray  # (n_boundaries,): each boundary's first group
    sizes: np.ndarray  # (n_boundaries,): each boundary's group count
    object_boundary: np.ndarray  # (n_objects,): the boundary each object is predicted at
    whole: _Shares  # the shares of 1
    partial: _Shares  # the shares strictly between 0 and 1

    @classmethod
    def build(cls, matrices: Iterable[EvalMatrix]) -> "_GroupTable":
        """The table of ``matrices``' lists in order, with their objects
        numbered on from list to list.  Each matrix is read once, in turn,
        so a caller passing :func:`build_eval_matrices`' iterator holds one
        list's matrix at a time."""
        # One list of arrays per field of _Boundary, each starting with an
        # empty one, so that lists without sets give an empty table.
        columns = _Boundary(*([np.zeros(shape, dtype)] for shape, dtype in (
            ((4, 0), np.uint8), (0, float), (0, np.int32), (0, np.intp), (0, np.int32),
            (0, np.intp), (0, float),
        )))
        n_groups = 0
        for matrix in matrices:
            for boundary in _boundary_groups(matrix):
                boundary.whole_group[:] += n_groups  # numbered on over the table, in place
                boundary.partial_group[:] += n_groups
                n_groups += len(boundary.log_priors)
                for column, array in zip(columns, boundary):
                    column.append(array)
        sizes = np.array([len(array) for array in columns.log_priors[1:]], dtype=np.intp)
        set_sizes = [len(array) for array in columns.whole_per_object[1:]]
        joined = []
        for column in columns:  # each field's parts go before the next is joined
            joined.append(np.concatenate(column, axis=-1))
            column.clear()
        table = _Boundary(*joined)
        return cls(
            table.counts, table.log_priors, np.cumsum(sizes) - sizes, sizes,
            np.repeat(np.arange(len(sizes)), set_sizes),
            _Shares.of(table.whole_group, table.whole_per_object),
            _Shares.of(table.partial_group, table.partial_per_object, table.partial_values),
        )

    def predict(self, noise: NoiseParams) -> np.ndarray:
        """Each object's P(True), predicted from the posterior over its
        boundary's groups; raises :class:`DegeneratePosteriorError` when
        some boundary has no mass.  A group's log-likelihood is the sum of
        its four ``count * log factor`` terms in cell-code order, where a
        count of 0 adds 0 even when its factor is 0."""
        score = np.zeros(len(self.log_priors))
        for count, log_factor in zip(self.counts, _log_factors(noise).tolist()):
            if log_factor == -math.inf:
                score[count > 0] = -math.inf
            else:
                score += count * log_factor
        score += self.log_priors
        peak = np.maximum.reduceat(score, self.starts)
        if np.isneginf(peak).any():
            raise DegeneratePosteriorError("no hypothesis explains the evidence")
        score -= np.repeat(peak, self.sizes)
        np.exp(score, out=score)  # a boundary's best group is 1, so its sum is >= 1
        rule_mass = np.zeros(len(self.object_boundary))
        self.whole.add_to(rule_mass, score)
        self.partial.add_to(rule_mass, score)
        rule_mass /= np.add.reduceat(score, self.starts)[self.object_boundary]
        return noise.alpha * rule_mass + (1.0 - noise.alpha) * noise.beta


class _Boundary(NamedTuple):
    """One boundary's part of a :class:`_GroupTable`, groups numbered
    within the boundary: its groups' cell counts and log priors, and the
    shares of 1 and the other nonzero shares of the set after it, each in
    object order with each object's count of them."""

    counts: np.ndarray  # (4, n_groups)
    log_priors: np.ndarray
    whole_group: np.ndarray
    whole_per_object: np.ndarray
    partial_group: np.ndarray
    partial_per_object: np.ndarray
    partial_values: np.ndarray


def _boundary_groups(matrix: EvalMatrix) -> Iterator[_Boundary]:
    """Each boundary before a set of ``matrix``'s list, in order.  A
    group's prior mass is summed by ``np.bincount`` in class order, each
    class's mass summed the same way in hypothesis order, relative to the
    largest prior."""
    top = np.max(matrix.log_priors)
    class_mass = np.bincount(
        matrix.inverse, weights=np.exp(matrix.log_priors - top), minlength=len(matrix.classes)
    )
    agrees = matrix.classes == matrix.gold
    gold = matrix.gold
    dtype = np.min_scalar_type(matrix.offsets[-1])
    a_true = np.zeros(len(matrix.classes), dtype=dtype)
    a_false = np.zeros_like(a_true)
    n_true = n_false = 0
    for start, stop in zip(matrix.offsets, matrix.offsets[1:]):
        pairs, group = np.unique(
            a_true.astype(np.int64) * (n_false + 1) + a_false, return_inverse=True
        )
        pair_true, pair_false = np.divmod(pairs, n_false + 1)
        counts = np.array([n_false - pair_false, n_true - pair_true, pair_false, pair_true], dtype=dtype)
        mass = np.bincount(group, weights=class_mass)
        with np.errstate(divide="ignore"):  # a group whose mass underflowed to 0
            log_priors = np.log(mass) + top
        # Row j: each group's share of the set's object j.
        shares = np.zeros((stop - start, len(pairs)))
        for j, column in enumerate(matrix.classes[:, start:stop].T):
            np.divide(np.bincount(group, weights=class_mass * column, minlength=len(pairs)), mass,
                      out=shares[j], where=mass > 0)
        whole = shares == 1.0
        partial = (shares != 0.0) & ~whole
        yield _Boundary(
            counts, log_priors,
            np.nonzero(whole)[1].astype(np.int32), np.count_nonzero(whole, axis=1),
            np.nonzero(partial)[1].astype(np.int32), np.count_nonzero(partial, axis=1),
            shares[partial],
        )
        in_set = slice(start, stop)
        a_true += np.count_nonzero(agrees[:, in_set] & gold[in_set], axis=1).astype(dtype)
        a_false += np.count_nonzero(agrees[:, in_set] & ~gold[in_set], axis=1).astype(dtype)
        set_true = int(np.count_nonzero(gold[in_set]))
        n_true += set_true
        n_false += stop - start - set_true


def predictive_trajectory(matrix: EvalMatrix, noise: NoiseParams) -> np.ndarray:
    """Per-object P(True), each predicted from the posterior over all
    previous sets' evidence: the one-list :meth:`_GroupTable.predict`.  A
    noise fit builds one table for all its lists and scores it directly."""
    return _GroupTable.build([matrix]).predict(noise)


def _grid_r2(
    table: _GroupTable,
    keep: np.ndarray,
    human: np.ndarray,
    grid: Iterable[tuple[float, float]],
) -> Iterator[tuple[float, float, float | None]]:
    """``(alpha, beta, r2)`` per grid point, from the predictions of
    ``table``'s objects where ``keep`` holds; ``r2`` is None where the
    correlation is undefined or every hypothesis loses its mass."""
    for alpha, beta in grid:
        try:
            model = table.predict(NoiseParams(alpha, beta))[keep]
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
    humans: Sequence[Sequence[float | None]],
    grid: Iterable[tuple[float, float]],
    hypotheses: Sequence[tuple[Concept, float]],
) -> NoiseFit:
    """Pick the grid point whose predictive trajectories over
    ``hypotheses`` (an :func:`enumerate_hypotheses` list) best explain the
    human proportions (squared Pearson correlation, pooled over lists),
    and report it with its runner-up as a :class:`NoiseFit`.

    ``humans`` holds one proportion vector per list, as
    :func:`rulelab.exemplars.human_proportions` returns it: one value per
    object in the list's layout order, None where no subject answered, so
    that the object is left out of the fit.  A vector whose length is not
    its list's object count raises ValueError."""
    grid = list(grid)
    if not grid:
        raise ValueError("grid must be non-empty")
    if len(lists) != len(humans):
        raise ValueError("need one proportion vector per exemplar list")
    for exemplar_list, proportions in zip(lists, humans):
        if len(proportions) != exemplar_list.n_objects:
            raise ValueError(f"rule {exemplar_list.rule_id!r}: {len(proportions)} human "
                             f"proportions for {exemplar_list.n_objects} objects")
    # The table is built before the human arrays: made before it, they raised
    # lab-s3's fit-noise peak RSS (child ru_maxrss) from 40.0 to 40.7 MB.
    table = _GroupTable.build(build_eval_matrices(hypotheses, lists))
    pooled = [p for proportions in humans for p in proportions]
    keep = np.array([p is not None for p in pooled], dtype=bool)
    human = np.array([p for p in pooled if p is not None], dtype=float)
    if np.unique(human).size < 2:
        raise ValueError(
            "the human proportions are constant, so no grid point can produce "
            "a defined correlation"
        )

    scored = [
        (r2, alpha, beta) for alpha, beta, r2 in _grid_r2(table, keep, human, grid) if r2 is not None
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
