"""The memo cells of hypothesis enumeration, for
:func:`rulelab.learner.inference.enumerate_hypotheses`.

A cell holds the concepts one nonterminal derives at one size and binder
depth, with their log priors, and fills from its child cells: the
bottom-up enumeration of program synthesis (Alur et al. 2017, EUSolver).
A concept is held as its number in the evaluation plan
(:class:`rulelab.dsl.batch._Plan`), which numbers each distinct subterm
once per depth (hash-consing; Filliâtre & Conchon 2006), so a new
concept is added from its children's numbers by its production's plan
adder (:func:`_adder`), and a concept derived again finds its number.  A
production of one node over its holes adds that node; any other template
is walked by :meth:`~rulelab.dsl.batch._Plan.number`, the walk that
numbers every concept, with its holes' numbers as fills.
No concept is built or printed while the cells fill: after the last size,
:func:`sort_keys` and :func:`concepts` fold the plan into each
hypothesis's sort key and concept.  The enumeration's own loop, over
sizes and the sort, stays in :mod:`rulelab.learner.inference`.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import product

import numpy as np

from ..dsl import Concept, FeatureVocab
from ..dsl.batch import _maker, _op, _Plan
from ..dsl.core import Hole
from ..dsl.sexpr import print_concept
from .grammar import Grammar, HypothesisBudgetError, Production


class Hypotheses(tuple):
    """:func:`~rulelab.learner.inference.enumerate_hypotheses`' ``(concept,
    log_prior)`` pairs.  Until
    :func:`~rulelab.learner.inference.build_eval_matrices` spends it,
    ``plan`` is the evaluation plan the enumeration filled, which numbers
    each distinct subterm once per depth, with each pair's number at depth
    0 in ``plan.roots``, in pair order; the pairs' concepts were folded
    from it."""

    plan: _Plan | None = None


def sort_keys(plan: _Plan, vocab: FeatureVocab) -> list[str]:
    """Each depth-0 node of ``plan``'s printed form, by number: a fold over
    the plan that prints each leaf once and each node kind's template once."""
    return plan.fold(lambda leaf: print_concept(leaf, vocab), partial(_printer, vocab=vocab))


def concepts(plan: _Plan) -> list[Concept]:
    """Each depth-0 node of ``plan``'s concept, by number: a fold over the
    plan that builds each node once, from its children's concepts."""
    return plan.fold(lambda leaf: leaf, lambda op, _arity: _maker(op))


def _printer(op, arity: int, vocab: FeatureVocab):
    """``printer(*forms)``: the printed form of a node of kind ``op`` from
    its ``arity`` children's, its template's text with each child's form
    where its hole was.  The holes are ``Hole("#")``: "#" starts a comment,
    so it is in no printed concept."""
    pieces = print_concept(_maker(op)(*[Hole("#")] * arity), vocab).split("#")
    text = "%s".join(piece.replace("%", "%%") for piece in pieces)
    return lambda *forms: text % forms


class Cells:
    """The memo cells of one enumeration, and the plan their concepts are
    added to.  A cell maps each concept one (nonterminal, size, binder
    depth) derives, as its plan number at that depth, to its log prior, in
    first-derivation order."""

    def __init__(self, grammar: Grammar, max_hypotheses: int):
        self.grammar = grammar
        self.max_hypotheses = max_hypotheses
        self.plan = _Plan()
        self.adders = {p: _adder(p, self.plan) for p in grammar.productions}
        self.memo: dict[tuple[str, int, int], dict[int, float]] = {}

    def cell(self, nonterminal: str, size: int, depth: int, limit: float = math.inf):
        """The cell of ``nonterminal`` at ``size`` and ``depth``, filled on
        first use, its child cells first; more than ``limit`` concepts in
        it raise :class:`HypothesisBudgetError`."""
        key = (nonterminal, size, depth)
        if key in self.memo:
            return self.memo[key]
        grammar = self.grammar
        priors: dict[int, float] = {}

        def add(number: int, log_p: float) -> None:
            """Add ``log_p`` to the prior of the concept numbered ``number``."""
            count = len(priors)
            old = priors.setdefault(number, log_p)
            if len(priors) == count:
                priors[number] = float(np.logaddexp(old, log_p))
            elif count >= limit:
                raise HypothesisBudgetError(
                    f"more than {self.max_hypotheses} hypotheses at size {size}"
                )

        for production in grammar.productions_for(nonterminal):
            holes = production.holes
            remaining = size - production.skeleton_size
            if remaining < 0 or (not holes and remaining != 0):
                continue
            log_p = grammar.log_probability(production)
            node = self.adders[production]
            if not holes:
                add(node(depth, ()), log_p)
                continue
            for sizes in _size_splits(remaining, [grammar.min_size(h) for h, _d in holes]):
                children = [self.cell(h, s, depth + d) for (h, d), s in zip(holes, sizes)]
                if not all(children):
                    continue
                *outer, last = children
                # Each derivation in turn, the last hole's fill the fastest:
                # a concept's log prior adds its derivations in this order.
                for prefix in product(*(child.items() for child in outer)):
                    acc = log_p
                    for _number, lp in prefix:
                        acc += lp
                    operands = tuple(number for number, _lp in prefix)
                    for number, lp in last.items():
                        add(node(depth, (*operands, number)), acc + lp)
        self.memo[key] = priors
        return priors


def _adder(production: Production, plan: _Plan):
    """``node(depth, operands)``: the plan number at ``depth`` of the
    concept ``production`` derives from the fills numbered ``operands``,
    added to ``plan`` with its new subterms.  A template of one node over
    its holes adds that node; any other is walked by :meth:`_Plan.number`,
    its holes filled left to right."""
    template = production.template
    if production.skeleton_size == 1 and production.holes:  # one node over its holes
        return partial(plan.node, _op(template))
    return lambda depth, operands: plan.number(template, depth, iter(operands))


def _size_splits(total: int, minimums: list[int]):
    """Yield tuples of child sizes >= per-child minimum summing to ``total``."""
    if not minimums:
        if total == 0:
            yield ()
        return
    first_min = minimums[0]
    rest_min = sum(minimums[1:])
    for first in range(first_min, total - rest_min + 1):
        for rest in _size_splits(total - first, minimums[1:]):
            yield (first,) + rest
