"""Metropolis-Hastings over derivation trees with subtree regeneration.

A proposal picks one production application uniformly at random and redraws
that subtree from the grammar's prior.  With that proposal the prior terms
cancel against the proposal density and the acceptance ratio reduces to

    likelihood(new) / likelihood(old) * n_applications(old) / n_applications(new)

Passing ``max_size`` rejects proposals whose concept exceeds the bound, so
the chain targets the same truncated posterior that exact enumeration
normalizes over.  A concept's likelihood is the exact engine's running sum
(:mod:`rulelab.learner.inference`) over its one truth row: the ``math.log``
factors its cell codes pick, added in object order, so every score is
bitwise the per-object reference sum, for any (alpha, beta).
"""

from __future__ import annotations

import math
import random
from collections import Counter
from typing import Iterable, Sequence

import numpy as np

from ..dsl import Concept, ContextBatch, evaluate_batch
from ..exemplars import ExemplarList, Observation
from .grammar import Derivation, Grammar, sample_derivation
from .inference import (
    DegeneratePosteriorError,
    HypothesisEntry,
    LearnerRun,
    NoiseParams,
    PosteriorState,
    _cell_codes,
    _log_factors,
    _set_prediction,
    map_rule,
)

MAX_BURN_IN = 1000  # untallied steps at the head of a chain, at most a tenth of it


class _TruthRows:
    """Each concept's truth row over a batch of labelled objects, evaluated
    once and kept with the concept's log-likelihood of the objects before
    each boundary in ``offsets``: the cumulative sum, in object order, of
    the log factors its cell codes pick, so each score is bitwise the
    per-object sum of log factors, as in the exact engine."""

    def __init__(
        self, batch: ContextBatch, gold: np.ndarray, offsets: Sequence[int], noise: NoiseParams
    ):
        self.batch, self.gold, self.offsets = batch, gold, offsets
        self.log_factors = _log_factors(noise)
        self.rows: dict[Concept, tuple[np.ndarray, list[float]]] = {}

    def __getitem__(self, concept: Concept) -> tuple[np.ndarray, list[float]]:
        """``(truth row, log-likelihood at each boundary)``."""
        found = self.rows.get(concept)
        if found is None:
            row = evaluate_batch([concept], self.batch)[0]
            codes = _cell_codes(row[None], self.gold)[:, 0]
            cumulative = [0.0, *np.cumsum(self.log_factors[codes]).tolist()]
            found = self.rows[concept] = (row, [cumulative[k] for k in self.offsets])
        return found


def _paths(derivation: Derivation, prefix: tuple[int, ...] = ()) -> Iterable[tuple[int, ...]]:
    yield prefix
    for i, child in enumerate(derivation.children):
        yield from _paths(child, prefix + (i,))


def _subtree(derivation: Derivation, path: tuple[int, ...]) -> Derivation:
    node = derivation
    for index in path:
        node = node.children[index]
    return node


def _replace(derivation: Derivation, path: tuple[int, ...], replacement: Derivation) -> Derivation:
    if not path:
        return replacement
    head, rest = path[0], path[1:]
    children = list(derivation.children)
    children[head] = _replace(children[head], rest, replacement)
    return Derivation(derivation.production, tuple(children))


def mh_sample(
    grammar: Grammar,
    evidence: list[Observation],
    noise: NoiseParams,
    iterations: int,
    seed: int,
    max_size: int | None = None,
) -> PosteriorState:
    """Empirical posterior over concepts from ``iterations`` MH steps.

    Deterministic under a fixed seed.  The first min(:data:`MAX_BURN_IN`,
    iterations // 10) states are burn-in and are not tallied.  An
    entry's ``log_prior`` is NaN: the chain meets a concept through one
    derivation at a time, while its prior sums over all of them (see
    :func:`enumerate_hypotheses`).  A ``max_size`` below the grammar's
    smallest concept raises :class:`GrammarError`: no state would fit it.
    The start state is drawn from the prior until it explains the
    evidence; when ``iterations + 1`` draws do not, as under a zero noise
    factor with no hypothesis consistent with the labels, the chain raises
    :class:`DegeneratePosteriorError`.
    """
    batch = ContextBatch.from_contexts([ctx for ctx, _label in evidence], grammar.vocab)
    gold = np.array([label for _ctx, label in evidence], dtype=bool)
    rows = _TruthRows(batch, gold, [0, len(evidence)], noise)
    return _chain(grammar, rows, 1, iterations, seed, max_size)


def _chain(
    grammar: Grammar,
    rows: _TruthRows,
    boundary: int,
    iterations: int,
    seed: int,
    max_size: int | None,
) -> PosteriorState:
    """:func:`mh_sample` conditioned on the objects of ``rows`` before
    ``boundary``."""
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    grammar.check_max_size(max_size)
    rng = random.Random(seed)
    burn_in = min(MAX_BURN_IN, iterations // 10)

    def fresh_state() -> Derivation:
        while True:
            derivation = sample_derivation(grammar, rng)
            if max_size is None or derivation.concept_size() <= max_size:
                return derivation

    def scored(derivation: Derivation) -> tuple[Concept, float]:
        concept = derivation.concept()
        return concept, rows[concept][1][boundary]

    # The chain starts at a state that explains the evidence, redrawn at
    # most ``iterations`` times: with a zero noise factor there may be none.
    for _draw in range(iterations + 1):
        current = fresh_state()
        current_concept, current_ll = scored(current)
        if current_ll > -math.inf:
            break
    else:
        raise DegeneratePosteriorError(f"{iterations + 1} states drawn, none explains the evidence")
    current_apps = current.n_applications()

    counts: Counter[Concept] = Counter()
    for step in range(iterations):
        paths = list(_paths(current))
        path = paths[rng.randrange(len(paths))]
        nonterminal = _subtree(current, path).production.lhs
        proposal = _replace(current, path, sample_derivation(grammar, rng, nonterminal))
        if max_size is None or proposal.concept_size() <= max_size:
            proposal_concept, proposal_ll = scored(proposal)
            proposal_apps = proposal.n_applications()
            log_accept = (
                proposal_ll - current_ll + math.log(current_apps) - math.log(proposal_apps)
            )
            if log_accept >= 0.0 or rng.random() < math.exp(log_accept):
                current = proposal
                current_concept = proposal_concept
                current_ll = proposal_ll
                current_apps = proposal_apps
        if step >= burn_in:
            counts[current_concept] += 1

    total = sum(counts.values())
    entries = tuple(
        HypothesisEntry(
            concept=concept,
            log_prior=float("nan"),
            log_likelihood=rows[concept][1][boundary],
            log_weight=math.log(count / total),
        )
        for concept, count in sorted(counts.items(), key=lambda item: -item[1])
    )
    # Empirical weights are already normalized; there is no meaningful
    # evidence estimate, so the normalization constant is flagged as NaN.
    return PosteriorState(entries=entries, log_z=float("nan"), vocab=grammar.vocab)


def run_mh(
    exemplar_list: ExemplarList,
    grammar: Grammar,
    noise: NoiseParams,
    iterations: int,
    seed: int,
    max_size: int | None = None,
) -> LearnerRun:
    """Replay the labeling task with a fresh MH posterior per set.

    Set ``s`` is predicted from a chain conditioned on sets 0..s-1 and
    seeded with ``seed + s``, so runs are deterministic end to end.  Every
    chain reads one set of truth rows over the whole list's layout (its
    ``contexts``, ``gold`` and ``offsets``), so each concept any chain
    meets is evaluated once per run.  A chain that finds no start state
    raises :class:`DegeneratePosteriorError` naming the rule.
    """
    offsets = exemplar_list.offsets
    batch = ContextBatch.from_contexts(exemplar_list.contexts, exemplar_list.vocab)
    rows = _TruthRows(batch, np.array(exemplar_list.gold, dtype=bool), offsets, noise)
    n_sets = len(exemplar_list.sets)
    set_maps = []
    p_true = np.empty(exemplar_list.n_objects)
    try:
        for set_index in range(n_sets):
            state = _chain(grammar, rows, set_index, iterations, seed + set_index, max_size)
            start, end = offsets[set_index], offsets[set_index + 1]
            mass = np.exp(np.array([entry.log_weight for entry in state.entries]))
            truth = np.array([rows[entry.concept][0][start:end] for entry in state.entries])
            p_true[start:end] = _set_prediction(mass, truth, noise)
            set_maps.append(map_rule(state))
        final_state = _chain(grammar, rows, n_sets, iterations, seed + n_sets, max_size)
    except DegeneratePosteriorError as error:
        raise DegeneratePosteriorError(f"rule {exemplar_list.rule_id!r}: {error}") from None
    return LearnerRun(exemplar_list.rule_id, tuple(set_maps), tuple(p_true.tolist()),
                      map_rule(final_state))
