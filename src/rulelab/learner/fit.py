"""Grid-search fitting of the noise parameters to human response data.

For each candidate (alpha, beta) the learner replays every training list,
collecting the posterior-predictive P(True) trajectory, and the grid point
maximizing the squared Pearson correlation between pooled model
probabilities and pooled human True-proportions wins.  Ties prefer larger
alpha, then larger beta.

At a set boundary a behaviour class's log-likelihood depends only on two
counts, its disagreements with the False and with the True gold labels so
far (the Rational Rules likelihood depends only on how many examples are
misclassified; Goodman, Tenenbaum, Feldman & Griffiths 2008).  The
hypotheses are evaluated once over every list's contexts
(:func:`build_eval_matrices`), and every list's boundaries are stacked into
one table of groups with equal counts (:class:`_GroupTable`), built once
per fit, a block of sets at a time.  A grid point scores the table in a few
passes over two buffers the table holds: one ``np.einsum`` of the counts
with the two log factor ratios, the log priors added, each boundary's best
group subtracted, ``np.exp``, one ``np.add.reduceat`` for the boundary
totals, and a gather and segment sum for the shares of 1 and for the
others.  A point's r2 is the square of
:func:`rulelab.metrics.core.correlation`, as :func:`rulelab.metrics.r_squared`
is.  At alpha = 0 every object is predicted at beta, a constant with no r2,
so the grid skips those points without predicting.  The group scores agree
with the kernel's object-order sums
(:func:`rulelab.learner.inference.posterior_by_set`) up to rounding.  On a
2-CPU x86-64 machine, in-process, lab-s3's 441-point grid over 43,524
groups takes 0.16-0.26 s (0.42-0.53 s when each point summed four count
terms cast from uint8 and gathered through int32 indices), and its table
25-34 ms (39-49 ms with one ``np.unique`` per boundary and one
``np.bincount`` per object).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from ..dsl import Concept
from ..exemplars import ExemplarList
from ..metrics.core import correlation
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


# (class, object) cells a block of one list's sets is grouped from at once,
# which bounds the build's temporary arrays.
_BLOCK_CELLS = 1 << 13


@dataclass(frozen=True)
class _Shares:
    """Some of a :class:`_GroupTable`'s nonzero shares, in object order:
    each one's group (``intp``, so that a gather needs no cast), the
    objects that have any, and where each of those objects' shares start.
    ``values`` is None where every share is 1."""

    group: np.ndarray
    objects: np.ndarray
    starts: np.ndarray
    values: np.ndarray | None

    @classmethod
    def of(cls, group: np.ndarray, per_object: np.ndarray, values: np.ndarray | None = None) -> "_Shares":
        objects = np.flatnonzero(per_object)
        return cls(group, objects, (np.cumsum(per_object) - per_object)[objects], values)

    def add_to(self, rule_mass: np.ndarray, weights: np.ndarray, buffer: np.ndarray) -> None:
        """Add each object's sum of ``weights`` (one per group) times its
        shares to its entry of ``rule_mass``, gathering into ``buffer``."""
        # mode="clip" (every index is in range) writes into ``buffer``
        # directly; the default would gather into a copy first.
        weighted = np.take(weights, self.group, out=buffer[:len(self.group)], mode="clip")
        if self.values is not None:
            weighted *= self.values
        rule_mass[self.objects] += np.add.reduceat(weighted, self.starts)


@dataclass(frozen=True)
class _GroupTable:
    """The boundaries before each set of one or more lists, stacked, each
    as its groups: the behaviour classes that disagree with the same
    number of False and of True gold labels before the boundary.  Nothing
    in it depends on the noise, so a fit builds it once and scores every
    grid point from it (:meth:`predict`).

    The groups of a boundary are contiguous, in (wrong on False, wrong on
    True) order, and each boundary's groups follow the last one's.  A
    group's prior is the log of its classes' summed prior mass; its share
    of an object of the set after its boundary is the part of that mass on
    classes that say True there.  Shares are kept sparsely, since many are
    0 and many are 1: the shares of 1 by group alone, the others with their
    values.  A point works in two buffers allocated here: ``score``, one
    float per group, and ``gathered``, one per share of the larger kind."""

    wrong: np.ndarray  # (2, n_groups) unsigned: disagreements with False, True gold labels
    log_priors: np.ndarray  # (n_groups,)
    starts: np.ndarray  # (n_boundaries,): each boundary's first group
    sizes: np.ndarray  # (n_boundaries,): each boundary's group count
    object_boundary: np.ndarray  # (n_objects,): the boundary each object is predicted at
    whole: _Shares  # the shares of 1
    partial: _Shares  # the shares strictly between 0 and 1
    score: np.ndarray  # (n_groups,) float: a point's group weights
    gathered: np.ndarray  # float: the weights of one kind of shares

    @classmethod
    def build(cls, matrices: Iterable[EvalMatrix]) -> "_GroupTable":
        """The table of ``matrices``' lists in order, with their objects
        numbered on from list to list; one of the lists must have a set.
        Each matrix is read once, in turn, so a caller passing
        :func:`build_eval_matrices`' iterator holds one list's matrix at a
        time."""
        columns = _Block(*([] for _field in _Block._fields))  # each field's arrays
        n_groups = 0
        for matrix in matrices:
            for block in _boundary_groups(matrix):
                block.whole_group[:] += n_groups  # numbered on over the table, in place
                block.partial_group[:] += n_groups
                n_groups += len(block.log_priors)
                for column, array in zip(columns, block):
                    column.append(array)
        joined = []
        for column in columns:  # each field's parts go before the next is joined
            joined.append(np.concatenate(column, axis=-1))
            column.clear()
        table = _Block(*joined)
        return cls(
            table.wrong, table.log_priors, np.cumsum(table.sizes) - table.sizes, table.sizes,
            np.repeat(np.arange(len(table.sizes)), table.set_sizes),
            _Shares.of(table.whole_group, table.whole_per_object),
            _Shares.of(table.partial_group, table.partial_per_object, table.partial_values),
            np.empty(n_groups), np.empty(max(len(table.whole_group), len(table.partial_group))),
        )

    def predict(self, noise: NoiseParams) -> np.ndarray:
        """Each object's P(True), predicted from the posterior over its
        boundary's groups; raises :class:`DegeneratePosteriorError` when
        some boundary has no mass.

        A group's log-likelihood is its prior plus, for each label, its
        disagreements times the log of a disagreement's factor over an
        agreement's: the agreements' own factors add the same to every
        group of a boundary, so they cancel in its posterior.  A factor of
        0 kills the groups with any such disagreement.  Alpha = 0 raises
        ValueError: every object is then predicted at beta, and at beta 0
        or 1 a ratio of two zero factors is not a number."""
        if noise.alpha == 0.0:
            raise ValueError("the group table does not predict at alpha = 0")
        log_factors = _log_factors(noise).tolist()
        # A disagreement's log factor over an agreement's, per label: never
        # above 0, and -inf (kept as 0 here, and applied below) where a
        # disagreement's factor is 0.
        ratios = [log_factors[0] - log_factors[2], log_factors[1] - log_factors[3]]
        score = self.score
        # einsum, not a BLAS call: a fixed-order sum of the two products.
        np.einsum("ij,i->j", self.wrong, [0.0 if r == -math.inf else r for r in ratios], out=score)
        score += self.log_priors
        for ratio, wrong in zip(ratios, self.wrong):
            if ratio == -math.inf:
                score[wrong > 0] = -math.inf
        peak = np.maximum.reduceat(score, self.starts)
        if np.isneginf(peak).any():
            raise DegeneratePosteriorError("no hypothesis explains the evidence")
        score -= np.repeat(peak, self.sizes)
        np.exp(score, out=score)  # a boundary's best group is 1, so its sum is >= 1
        rule_mass = np.zeros(len(self.object_boundary))
        self.whole.add_to(rule_mass, score, self.gathered)
        self.partial.add_to(rule_mass, score, self.gathered)
        rule_mass /= np.add.reduceat(score, self.starts)[self.object_boundary]
        return noise.alpha * rule_mass + (1.0 - noise.alpha) * noise.beta


class _Block(NamedTuple):
    """Some consecutive boundaries of one list, as parts of a
    :class:`_GroupTable`, groups numbered within the block: its groups'
    disagreement counts and log priors, each boundary's group count and set
    size, and the shares of 1 and the other nonzero shares of each set,
    each in object order with each object's count of them."""

    wrong: np.ndarray  # (2, n_groups)
    log_priors: np.ndarray
    sizes: np.ndarray
    set_sizes: np.ndarray
    whole_group: np.ndarray
    whole_per_object: np.ndarray
    partial_group: np.ndarray
    partial_per_object: np.ndarray
    partial_values: np.ndarray


def _boundary_groups(matrix: EvalMatrix) -> Iterator[_Block]:
    """``matrix``'s boundaries, in blocks of consecutive sets whose (class,
    object) cells stay within :data:`_BLOCK_CELLS`.  A group's prior mass
    is summed by ``np.bincount`` in class order, each class's mass summed
    the same way in hypothesis order, relative to the largest prior; so is
    each share's part of it."""
    n_classes = len(matrix.classes)
    top = np.max(matrix.log_priors)
    class_mass = np.bincount(
        matrix.inverse, weights=np.exp(matrix.log_priors - top), minlength=n_classes
    )
    offsets = np.asarray(matrix.offsets, dtype=np.intp)
    dtype = np.min_scalar_type(offsets[-1])
    radix = int(offsets[-1]) + 1  # above any count
    wrong_before = np.zeros((2, n_classes, 1), dtype)  # each class's, before the block
    first_set, n_sets = 0, len(offsets) - 1
    while first_set < n_sets:
        limit = offsets[first_set] + max(1, _BLOCK_CELLS // max(n_classes, 1))
        end_set = min(max(int(np.searchsorted(offsets, limit, side="right")) - 1, first_set + 1), n_sets)
        first, last = offsets[first_set], offsets[end_set]
        n_bounds = end_set - first_set
        set_sizes = np.diff(offsets[first_set:end_set + 1])
        block_gold = matrix.gold[first:last]
        # Each class's disagreements with False and True labels, running
        # over the block's objects, from the block's start.
        wrong = matrix.classes[:, first:last] != block_gold
        running = np.zeros((2, n_classes, last - first + 1), dtype)
        np.cumsum(wrong & ~block_gold, axis=1, dtype=dtype, out=running[0, :, 1:])
        np.cumsum(wrong & block_gold, axis=1, dtype=dtype, out=running[1, :, 1:])
        del wrong
        counts = running[:, :, offsets[first_set:end_set] - first] + wrong_before  # (2, n_classes, n_bounds)
        wrong_before = wrong_before + running[:, :, -1:]
        del running
        keys = (np.arange(n_bounds)[:, None] * radix + counts[0].T) * radix + counts[1].T
        del counts
        pairs, group = np.unique(keys.ravel(), return_inverse=True)
        del keys
        # Row k of ``group``: each class's group at the block's boundary k.
        group = group.reshape(n_bounds, n_classes)
        sizes = np.bincount(pairs // (radix * radix), minlength=n_bounds)
        mass = np.bincount(group.ravel(), weights=np.tile(class_mass, n_bounds), minlength=len(pairs))
        with np.errstate(divide="ignore"):  # a group whose mass underflowed to 0
            log_priors = np.log(mass) + top
        # Each object's row: its boundary's groups.  ``cell[j, c]`` is where
        # class c's mass lands in object j's row when it says True there.
        object_bound = np.repeat(np.arange(n_bounds), set_sizes)
        row_sizes = sizes[object_bound]
        row_shift = np.cumsum(row_sizes) - row_sizes - (np.cumsum(sizes) - sizes)[object_bound]
        cell = group[object_bound]
        cell += row_shift[:, None]
        said_true = matrix.classes[:, first:last].T * class_mass
        in_rows = np.bincount(cell.ravel(), weights=said_true.ravel(), minlength=int(row_sizes.sum()))
        del cell, said_true
        # int32 while the table is gathered: it is joined into intp.
        row_group = (np.arange(len(in_rows)) - np.repeat(row_shift, row_sizes)).astype(np.int32)
        row_mass = mass[row_group]
        shares = np.divide(in_rows, row_mass, out=np.zeros(len(in_rows)), where=row_mass > 0)
        whole = shares == 1.0
        partial = (shares != 0.0) & ~whole
        row_object = np.repeat(np.arange(last - first), row_sizes)
        yield _Block(
            np.array([(pairs // radix) % radix, pairs % radix], dtype=dtype), log_priors, sizes,
            set_sizes, row_group[whole], np.bincount(row_object[whole], minlength=last - first),
            row_group[partial], np.bincount(row_object[partial], minlength=last - first),
            shares[partial],
        )
        first_set = end_set


def _grid_r2(
    table: _GroupTable,
    keep: np.ndarray,
    human: np.ndarray,
    grid: Iterable[tuple[float, float]],
) -> Iterator[tuple[float, float, float | None]]:
    """``(alpha, beta, r2)`` per grid point: the square of
    :func:`correlation` between the predictions of ``table``'s objects
    where ``keep`` holds and ``human``.  ``r2`` is None where the
    correlation is undefined, alpha = 0 included, or where every
    hypothesis loses its mass."""
    for alpha, beta in grid:
        r = None
        if alpha > 0.0:
            try:
                r = correlation(table.predict(NoiseParams(alpha, beta))[keep], human)
            except DegeneratePosteriorError:
                # Corner points like (alpha=1, beta=0) can zero out every
                # hypothesis; they simply cannot win the fit.
                pass
        yield alpha, beta, None if r is None else r * r


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
    pooled = [p for proportions in humans for p in proportions]
    # Checked on the values themselves, before the table: two distinct
    # values mean some list has a set to build the table from.
    if len(set(pooled) - {None}) < 2:
        raise ValueError(
            "the human proportions are constant, so no grid point can produce "
            "a defined correlation"
        )
    # The table is built before the human arrays: made before it, they raised
    # lab-s3's fit-noise peak RSS (child ru_maxrss) from 40.0 to 40.7 MB.
    table = _GroupTable.build(build_eval_matrices(hypotheses, lists))
    keep = np.array([p is not None for p in pooled], dtype=bool)
    human = np.array([p for p in pooled if p is not None], dtype=float)

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
