"""Posterior inference over grammar-defined hypothesis spaces.

The noise model has two parameters: with probability ``alpha`` an observed
label follows the hypothesis; otherwise it is drawn from a baseline that
emits True with probability ``beta``.  A single observation (ctx, label)
therefore contributes the likelihood factor

    alpha * [hypothesis(ctx) == label] + (1 - alpha) * (beta if label else 1 - beta)

Exact inference enumerates every concept the grammar derives up to a node
budget; :mod:`rulelab.learner.mcmc` provides the sampling engine validated
against this one.  Both score truth rows of one evaluation kernel
(:func:`rulelab.dsl.evaluate_packed`) the same way: each object's cell
code (:func:`_cell_codes`) picks one of four ``math.log`` factors
(:func:`_log_factors`), and one running sum adds them in object order,
so every score of either is bitwise the per-object sum of ``math.log``
factors, for any (alpha, beta).  Exact inference keeps
that sum once per behaviour class of a list, the hypotheses that say True
on the same objects (:class:`EvalMatrix`), and gathers the class scores to
the hypotheses at each set boundary (:func:`posterior_by_set`).  The noise
fit's predictions (:mod:`rulelab.learner.fit`) do not take the running
sum: they score each boundary's classes grouped by their two agreement
counts.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from ..dsl import Concept, Context, ContextBatch, evaluate_packed, size as concept_size
from ..dsl.sexpr import print_concept
from ..exemplars import ExemplarList, write_csv
from .enumeration import Cells, Hypotheses, concepts, sort_keys
from .grammar import Grammar


class EmptyStateError(ValueError):
    pass


class DegeneratePosteriorError(ValueError):
    """Every hypothesis has zero posterior mass (alpha = 1 with evidence no
    hypothesis explains)."""


@dataclass(frozen=True)
class NoiseParams:
    alpha: float
    beta: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")


def enumerate_hypotheses(
    grammar: Grammar, max_size: int, max_hypotheses: int = 200_000
) -> Hypotheses:
    """All concepts the grammar derives with node count <= ``max_size``, as
    ``(concept, log_prior)`` pairs.

    Each concept appears once; when distinct derivations produce the same
    concept their probabilities are summed, so the returned log-priors
    account for the grammar's full mass on each concept (and total at most
    one).  Results are sorted by (size, printed form under the grammar's
    vocab) for determinism.

    One pass fills a memo cell per (nonterminal, size, binder depth), each
    child cell before the cells that read it.  A cell holds each concept as
    its number in the evaluation plan (``plan``), which numbers each
    distinct subterm once per depth: a derivation adds its node over its
    children's numbers, and a concept derived again finds its number and
    only has its probability added, in derivation order.  So
    :func:`build_eval_matrices` walks no hypothesis, and no concept is
    built, hashed or printed per derivation.  After the last size two folds
    over the plan print each hypothesis's sort key, each leaf and each node
    kind's template once, and, once the keys are sorted and dropped, build
    its concept.  :class:`HypothesisBudgetError` is raised as soon as the
    hypotheses so far pass ``max_hypotheses``, and :class:`GrammarError`
    when ``max_size`` is below the grammar's smallest concept.
    """
    grammar.check_max_size(max_size)
    cells = Cells(grammar, max_hypotheses)
    plan = cells.plan
    # A concept has one size, so the cells of the sizes are disjoint and
    # are taken here in size order.
    by_size: list[dict[int, float]] = []
    for size in range(1, max_size + 1):
        by_size.append(cells.cell(grammar.start, size, 0, max_hypotheses - sum(map(len, by_size))))
    del cells, plan.index  # every node is numbered: free the cells and the index before the folds
    keys = sort_keys(plan, grammar.vocab)
    orders = [sorted(priors, key=keys.__getitem__) for priors in by_size]
    del keys  # freed before the concepts are built
    built = concepts(plan)
    pairs = [(built[number], priors[number]) for priors, order in zip(by_size, orders)
             for number in order]
    plan.roots = array("q", [number for order in orders for number in order])
    hypotheses = Hypotheses(pairs)
    hypotheses.plan = plan
    return hypotheses


@dataclass(frozen=True)
class HypothesisEntry:
    concept: Concept
    log_prior: float
    log_likelihood: float
    log_weight: float


@dataclass(frozen=True)
class PosteriorState:
    """A weighted hypothesis set; weights are normalized over its support."""

    entries: tuple[HypothesisEntry, ...]
    log_z: float
    vocab: object  # FeatureVocab; kept loose to avoid an import cycle


def map_rule(state: PosteriorState) -> Concept:
    """Highest-posterior hypothesis; ties break toward smaller, then
    lexicographically earlier printed concepts."""
    if not state.entries:
        raise EmptyStateError("empty posterior state")
    best = max(entry.log_weight for entry in state.entries)
    candidates = [entry.concept for entry in state.entries if entry.log_weight == best]
    return min(candidates, key=lambda c: (concept_size(c), print_concept(c, state.vocab)))


@dataclass(frozen=True)
class BoundaryDiagnostics:
    """The shape of the posterior at one set boundary."""

    entropy: float  # in nats
    map_mass: float
    top_mass: float  # mass of the TRACE_TOP_ROWS best rows


@dataclass(frozen=True)
class LearnerRun:
    """A replay of a list's labeling task: each set's MAP concept, and each
    object's P(True) in the list's layout order, each set predicted from
    the posterior over the sets before it."""

    rule_id: str
    set_maps: tuple[Concept, ...]
    p_true: tuple[float, ...]
    final_map: Concept
    # One per set boundary, 0..n_sets; exact inference only.
    posterior: tuple[BoundaryDiagnostics, ...] = ()

    @property
    def labels(self) -> tuple[bool, ...]:
        return tuple(p > 0.5 for p in self.p_true)


@dataclass(frozen=True)
class EvalMatrix:
    """One exemplar list's hypotheses, grouped into behaviour classes.

    Hypotheses that say True on exactly the same objects of the list have
    the same cell codes, so they get the same log-likelihood, bit for bit,
    at every boundary, and they make the same predictions.
    :func:`posterior_by_set` therefore scores each class once and gathers
    the scores back to the hypotheses through ``inverse``."""

    log_priors: np.ndarray  # (n_hyps,)
    classes: np.ndarray  # (n_classes, n_objects) bool: the class says True
    inverse: np.ndarray  # (n_hyps,) each hypothesis's row of ``classes``
    gold: np.ndarray  # (n_objects,) bool
    offsets: list[int]  # start object index per set, plus final total


# Cells of one list's truth table unpacked at a time.
_CHUNK_CELLS = 1 << 18


def _collapse(keys: np.ndarray, n_objects: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a truth table over ``n_objects`` objects, given
    packed (``keys``: hypotheses by bytes, first object in the high bit,
    padding bits zero), as a ``bool`` table in lexicographic order, False
    before True, and each row's index among them.  Each row of ``keys`` is
    compared as one ``np.void`` key, whose byte order is that row order."""
    if keys.shape[1] == 0:  # no objects: every row is the one empty row
        keys = np.zeros((len(keys), 1), dtype=np.uint8)
    void = keys.view(np.dtype((np.void, keys.shape[1]))).reshape(-1)
    _keys, first, inverse = np.unique(void, return_index=True, return_inverse=True)
    return np.unpackbits(keys[first], axis=1, count=n_objects).view(bool), inverse


def _list_keys(table: np.ndarray, rows: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """The packed truth rows over one list's objects: row ``i`` is
    ``table[rows[i]]``'s bits at ``columns``, in that order, repacked.  Only
    the bytes spanning ``columns`` are unpacked, a bounded chunk of rows at
    a time."""
    keys = np.empty((len(rows), (len(columns) + 7) // 8), dtype=np.uint8)
    if not len(columns):
        return keys
    low, high = columns.min() // 8, columns.max() // 8 + 1
    columns = columns - 8 * low
    step = max(1, _CHUNK_CELLS // (8 * (high - low)))
    for start in range(0, len(rows), step):
        bits = np.unpackbits(table[rows[start:start + step], low:high], axis=1)
        keys[start:start + step] = np.packbits(bits.take(columns, axis=1), axis=1)
    return keys


def _cell_codes(truth: np.ndarray, gold: np.ndarray) -> np.ndarray:
    """(n_objects, n_rows) uint8: ``2 * agrees + label`` for each cell of
    ``truth`` (truth rows by objects), where ``agrees`` says the row gives
    the object its ``gold`` label.  It indexes the four log factors of
    :func:`_log_factors`.  Objects are rows, so a running sum over objects
    gathers one contiguous row at a time."""
    codes = (truth == gold).T.astype(np.uint8, order="C")
    codes <<= 1
    codes |= gold[:, None]
    return codes


def build_eval_matrices(
    hypotheses: Sequence[tuple[Concept, float]], lists: Sequence[ExemplarList]
) -> Iterator[EvalMatrix]:
    """One :class:`EvalMatrix` per list, in list order, from one evaluation.

    The hypotheses are evaluated once, by :func:`evaluate_packed`: through
    the plan that :func:`enumerate_hypotheses` built with them, which this
    spends, or for any other sequence of pairs (or a second call) by
    numbering their subterms; either way the table's rows are the same
    bits.  They are evaluated over the distinct contexts of every list's
    layout (its ``contexts``; each matrix keeps the list's ``gold`` and
    ``offsets``) in first-seen order; the kernel's cost is per distinct
    subterm, not per context, so one call over every list costs about what
    one list's call costs.  The table, one packed bit per (hypothesis,
    context), is built before this returns; each list's matrix is then
    gathered from that list's columns a bounded chunk of rows at a time,
    and collapsed to behaviour classes (:func:`_collapse`) only when the
    iterator reaches that list, so a caller that drops each matrix before
    taking the next holds one list's matrix at a time.  A context's truth
    values do not depend on the other contexts of its batch, so each
    matrix is bitwise the one evaluating its list alone would give.  The
    lists must share a vocab, which shapes the batch."""
    vocabs = {exemplar_list.vocab for exemplar_list in lists}
    if len(vocabs) > 1:
        raise ValueError("lists evaluated together must share one vocab")
    columns: dict[Context, int] = {}  # distinct context -> its column of the table
    layouts = []
    for exemplar_list in lists:
        index = [columns.setdefault(c, len(columns)) for c in exemplar_list.contexts]
        gold = np.array(exemplar_list.gold, dtype=bool)
        layouts.append((np.array(index, dtype=np.intp), gold, list(exemplar_list.offsets)))
    if not layouts:
        return iter(())
    batch = ContextBatch.from_contexts(list(columns), vocabs.pop())
    plan = getattr(hypotheses, "plan", None)
    if plan is None:
        table, rows = evaluate_packed([concept for concept, _lp in hypotheses], batch)
    else:
        hypotheses.plan = None  # spent by this kernel run, and freed when it returns
        table, rows = evaluate_packed(plan, batch)
        del plan
    log_priors = np.array([lp for _c, lp in hypotheses], dtype=float)
    return (
        EvalMatrix(log_priors, *_collapse(_list_keys(table, rows, index), len(index)),
                   gold, offsets)
        for index, gold, offsets in layouts
    )


def build_eval_matrix(
    hypotheses: Sequence[tuple[Concept, float]], exemplar_list: ExemplarList
) -> EvalMatrix:
    """One list's :class:`EvalMatrix`: :func:`build_eval_matrices` of that
    list alone."""
    return next(build_eval_matrices(hypotheses, [exemplar_list]))


def _log_factors(noise: NoiseParams) -> np.ndarray:
    """``math.log`` of the four values an observation's factor can take,
    -inf where it is 0, indexed by its cell ``2 * agrees + label``."""
    logs = []
    for agrees in (False, True):
        for label in (False, True):
            base = noise.beta if label else 1.0 - noise.beta
            factor = noise.alpha * agrees + (1.0 - noise.alpha) * base
            logs.append(math.log(factor) if factor > 0.0 else -math.inf)
    return np.array(logs)


def _normalise(log_post_unnorm: np.ndarray) -> tuple[np.ndarray, int]:
    """``log_post_unnorm`` normalised, and its argmax; raises
    :class:`DegeneratePosteriorError` when it has no mass at all."""
    map_index = int(np.argmax(log_post_unnorm))
    peak = float(log_post_unnorm[map_index])
    if peak == -math.inf:
        raise DegeneratePosteriorError("no hypothesis explains the evidence")
    mass = float(np.sum(np.exp(log_post_unnorm - peak)))
    # math.log, not np.log: the normaliser rounds as it always has.
    return log_post_unnorm - (peak + math.log(mass)), map_index


def posterior_by_set(
    matrix: EvalMatrix, noise: NoiseParams
) -> Iterator[tuple[np.ndarray, np.ndarray, int]]:
    """The posterior over the hypotheses at each set boundary 0..n_sets,
    conditioned on every earlier set's gold labels: yields
    ``(log_likelihood, log_posterior, map_index)``.  One running sum per
    behaviour class adds each object's log factor in object order, so every
    score is bitwise the per-object reference sum; at each boundary the
    class scores are gathered to the hypotheses and normalised, so beyond
    the cell codes and the class scores one boundary's hypothesis vectors
    are alive, and a boundary no hypothesis explains raises
    :class:`DegeneratePosteriorError` only when it is reached.  Exact ties
    in the computed scores go to the lowest row, which for rows in
    :func:`enumerate_hypotheses` order is the smaller, then
    lexicographically earlier, concept.  Rows whose scores are equal in
    exact arithmetic are not always tied here: rows with equal priors and
    equal agreement counts but disagreements at different objects can round
    apart in the last bits, and the MAP is then whichever rounds highest."""
    log_factors = _log_factors(noise)
    codes = _cell_codes(matrix.classes, matrix.gold)
    class_scores = np.zeros(len(matrix.classes))
    start = 0
    for stop in matrix.offsets:
        for j in range(start, stop):
            class_scores += np.take(log_factors, codes[j])
        start = stop
        log_likelihood = class_scores[matrix.inverse]
        log_posterior, map_index = _normalise(log_likelihood + matrix.log_priors)
        yield log_likelihood, log_posterior, map_index


def _set_prediction(mass: np.ndarray, truth: np.ndarray, noise: NoiseParams) -> np.ndarray:
    """P(True) for each column of ``truth`` (rows by one set's objects)
    under the mixture whose weights are ``mass``, one per row."""
    # einsum without ``optimize`` sums in a fixed order and calls no BLAS,
    # whose last bits would follow its thread count.  It sums each object's
    # row of the transposed truth, made contiguous: three times as fast as
    # over the strided columns.
    return noise.alpha * np.einsum("ij,j", truth.T.copy(), mass) + (1.0 - noise.alpha) * noise.beta


# Rows per set boundary in a trace, and in BoundaryDiagnostics.top_mass.
TRACE_TOP_ROWS = 20


def _top_rows(score: np.ndarray, k: int) -> np.ndarray:
    """The indices of the ``k`` highest scores, best first.  Ties go to the
    lower row, as in :func:`posterior_by_set`'s argmax, so given a
    boundary's ``log_likelihood + log_prior`` the first index is its MAP."""
    if k < len(score):
        threshold = np.partition(score, len(score) - k)[len(score) - k]
        candidates = np.flatnonzero(score >= threshold)  # the top k and rows tied with them
    else:
        candidates = np.arange(len(score))
    return candidates[np.argsort(-score[candidates], kind="stable")[:k]]


def _diagnostics(
    log_posterior: np.ndarray, mass: np.ndarray, map_index: int, top: np.ndarray
) -> BoundaryDiagnostics:
    """Entropy, MAP mass and the mass of the ``top`` rows of one
    boundary's posterior, given as ``log_posterior`` and as ``mass``, its
    ``np.exp``."""
    with np.errstate(invalid="ignore"):  # 0 * -inf where a row has no mass
        # 0.0 - sum, not -sum: a point mass has entropy 0.0, not -0.0.
        entropy = 0.0 - np.sum(mass * log_posterior, where=mass > 0)
    return BoundaryDiagnostics(float(entropy), float(mass[map_index]), float(np.sum(mass[top])))


def _trace_rows(
    set_index: int,
    rows: np.ndarray,
    printed: Sequence[str],
    log_priors: np.ndarray,
    log_likelihood: np.ndarray,
    log_posterior: np.ndarray,
) -> list[tuple]:
    """One boundary's trace rows for the hypotheses ``rows``, in that order:
    (set_index, concept, log_prior, log_likelihood, log_posterior), where
    ``printed`` holds the rows' printed concepts, in the same order, and
    each float is formatted as ``"{:.12g}"``."""
    fmt = "{:.12g}".format
    return [
        (set_index, concept, fmt(prior), fmt(ll), fmt(lp))
        for concept, prior, ll, lp in zip(
            printed,
            log_priors[rows].tolist(),
            log_likelihood[rows].tolist(),
            log_posterior[rows].tolist(),
        )
    ]


def _write_trace(path: str | Path, rows: list[tuple]) -> None:
    """Write the header and ``rows`` to ``path`` as CSV, atomically."""
    write_csv(path, ["set_index", "concept", "log_prior", "log_likelihood", "log_posterior"], rows)


def run_enumerative(
    exemplar_list: ExemplarList,
    hypotheses: Sequence[tuple[Concept, float]],
    matrix: EvalMatrix,
    noise: NoiseParams,
    trace_path: str | Path | None = None,
) -> LearnerRun:
    """Replay the labeling task with exact posterior inference over
    ``hypotheses`` (an :func:`enumerate_hypotheses` list), scored through
    ``matrix``, their :class:`EvalMatrix` over ``exemplar_list``.  A caller
    running many lists enumerates once and evaluates once
    (:func:`build_eval_matrices`), and passes each list its matrix.

    Each set is predicted from the posterior conditioned on all previous
    sets' gold labels, then the posterior absorbs the set; each boundary's
    posterior is exponentiated once, for both its diagnostics and its
    prediction.  When ``trace_path`` is given, the :data:`TRACE_TOP_ROWS`
    best hypotheses of each set boundary by ``log_likelihood + log_prior``,
    MAP first, are written there as CSV (set_index, concept, log_prior,
    log_likelihood, log_posterior), each traced concept printed under the
    list's vocab once per call.  Every hypothesis's scores stay available
    from :func:`posterior_by_set`.
    """
    steps = posterior_by_set(matrix, noise)
    set_maps = []
    p_true = np.empty(exemplar_list.n_objects)
    posterior = []
    trace: list[tuple] = []
    printed: dict[int, str] = {}  # row -> its printed concept: a row can rank at many boundaries
    try:
        # The last boundary, after every set, only gives the final MAP.
        for set_index, (log_likelihood, log_posterior, map_index) in enumerate(steps):
            # One ranking for both the trace and top_mass.
            top = _top_rows(log_likelihood + matrix.log_priors, TRACE_TOP_ROWS)
            mass = np.exp(log_posterior)
            posterior.append(_diagnostics(log_posterior, mass, map_index, top))
            if trace_path is not None:
                for i in top.tolist():
                    if i not in printed:
                        printed[i] = print_concept(hypotheses[i][0], exemplar_list.vocab)
                trace += _trace_rows(
                    set_index, top, list(map(printed.get, top.tolist())),
                    matrix.log_priors, log_likelihood, log_posterior,
                )
            if set_index == len(exemplar_list.sets):
                continue
            start, stop = matrix.offsets[set_index:set_index + 2]
            # A class's members predict alike; each class has a member, so the
            # bincount's length is the class count.
            truth = matrix.classes[:, start:stop]
            p_true[start:stop] = _set_prediction(np.bincount(matrix.inverse, mass), truth, noise)
            set_maps.append(hypotheses[map_index][0])
    except DegeneratePosteriorError as error:
        if trace_path is not None:  # no trace, not even an old one, for a failed rule
            Path(trace_path).unlink(missing_ok=True)
        raise DegeneratePosteriorError(f"rule {exemplar_list.rule_id!r}: {error}") from None
    if trace_path is not None:
        _write_trace(trace_path, trace)
    return LearnerRun(
        rule_id=exemplar_list.rule_id,
        set_maps=tuple(set_maps),
        p_true=tuple(p_true.tolist()),
        final_map=hypotheses[map_index][0],
        posterior=tuple(posterior),
    )
