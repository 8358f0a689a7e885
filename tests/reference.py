"""The per-object reference learner the library's kernels are tested against.

It scores a hypothesis one labelled object at a time with
:func:`rulelab.dsl.evaluate`, the DSL's reference semantics.  The library
scores from truth rows instead (:func:`rulelab.dsl.evaluate_batch`), with
one kernel for exact enumeration (:func:`rulelab.learner.posterior_by_set`)
and MH (the rows each run keeps).  The kernel takes ``math.log`` of the same
factor values as :func:`observation_log_factor` and adds the logs in the
same object order as :func:`log_likelihood`, so every library score equals
the reference sum here bit for bit, for any (alpha, beta).  Tests compare
the two.  Predictions are summed in another order: the library adds each
behaviour class's mass, and :func:`set_prediction` keeps the
hypothesis-level product, summed exactly, so tests compare them within
1e-12.

The noise model: with probability ``alpha`` an observed label follows the
hypothesis; otherwise it is drawn from a baseline that emits True with
probability ``beta``.  One observation (ctx, label) contributes the factor

    alpha * [hypothesis(ctx) == label] + (1 - alpha) * (beta if label else 1 - beta)
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from rulelab.dsl import Concept, Context, evaluate
from rulelab.exemplars import Observation
from rulelab.learner import (
    DegeneratePosteriorError,
    EmptyStateError,
    HypothesisEntry,
    NoiseParams,
)
from rulelab.learner import PosteriorState as _LibraryState


def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else float("-inf")


def observation_log_factor(agrees: bool, label: bool, noise: NoiseParams) -> float:
    base = noise.beta if label else 1.0 - noise.beta
    return _log(noise.alpha * agrees + (1.0 - noise.alpha) * base)


def log_likelihood(hypothesis: Concept, evidence: Iterable[Observation], noise: NoiseParams) -> float:
    """Sum of per-observation log factors; -inf is a legal result."""
    total = 0.0
    for ctx, label in evidence:
        total += observation_log_factor(evaluate(hypothesis, ctx) == label, label, noise)
    return total


def logsumexp(values: Sequence[float]) -> float:
    peak = max(values, default=float("-inf"))
    if peak == float("-inf"):
        return float("-inf")
    return peak + math.log(sum(math.exp(v - peak) for v in values))


class PosteriorState(_LibraryState):
    """The library's weighted hypothesis set, with exact conditioning one
    labelled object at a time."""

    @classmethod
    def from_hypotheses(
        cls, hypotheses: Sequence[tuple[Concept, float]], vocab
    ) -> "PosteriorState":
        if not hypotheses:
            raise EmptyStateError("no hypotheses")
        log_z = logsumexp([lp for _c, lp in hypotheses])
        entries = tuple(
            HypothesisEntry(concept, lp, 0.0, lp - log_z) for concept, lp in hypotheses
        )
        return cls(entries=entries, log_z=log_z, vocab=vocab)

    def update(self, ctx: Context, label: bool, noise: NoiseParams) -> "PosteriorState":
        """Condition on one labeled object; returns a new state."""
        scored = [
            (
                entry,
                entry.log_likelihood
                + observation_log_factor(evaluate(entry.concept, ctx) == label, label, noise),
            )
            for entry in self.entries
        ]
        return self._renormalized(scored)

    def update_batch(self, evidence: Iterable[Observation], noise: NoiseParams) -> "PosteriorState":
        state = self
        for ctx, label in evidence:
            state = state.update(ctx, label, noise)
        return state

    def _renormalized(self, scored) -> "PosteriorState":
        log_z = logsumexp([entry.log_prior + ll for entry, ll in scored])
        if log_z == float("-inf"):
            raise DegeneratePosteriorError("all hypotheses have zero posterior mass")
        entries = tuple(
            HypothesisEntry(entry.concept, entry.log_prior, ll, entry.log_prior + ll - log_z)
            for entry, ll in scored
        )
        return PosteriorState(entries=entries, log_z=log_z, vocab=self.vocab)

    def weight_sum(self) -> float:
        return sum(math.exp(entry.log_weight) for entry in self.entries)


def posterior_predictive(state: _LibraryState, ctx: Context, noise: NoiseParams) -> float:
    """Probability of the True label for ``ctx`` under the mixture."""
    rule_mass = sum(
        math.exp(entry.log_weight) for entry in state.entries if evaluate(entry.concept, ctx)
    )
    return noise.alpha * rule_mass + (1.0 - noise.alpha) * noise.beta


def set_prediction(weights, truth, noise: NoiseParams) -> list[float]:
    """P(True) for each column of ``truth`` (a numpy bool array, hypotheses
    by one set's objects) under the mixture whose weights are ``weights``
    (a numpy array, one posterior mass per hypothesis): the hypothesis-level
    product, each column's True mass summed with ``math.fsum``, so it is
    the correctly rounded sum that any summation order approximates."""
    return [
        noise.alpha * math.fsum(weights[column].tolist()) + (1.0 - noise.alpha) * noise.beta
        for column in truth.T
    ]


def classify(state: _LibraryState, ctx: Context, noise: NoiseParams) -> bool:
    """True iff the posterior predictive exceeds 0.5; an exact 0.5 is False."""
    return posterior_predictive(state, ctx, noise) > 0.5
