"""The memo cells of hypothesis enumeration, for
:func:`rulelab.learner.inference.enumerate_hypotheses`.

A cell holds the concepts one nonterminal derives at one size and binder
depth, with their log priors, and fills from its child cells: the
bottom-up enumeration of program synthesis (Alur et al. 2017, EUSolver).
A new concept is built from its children by its production's ``build``
(:class:`rulelab.learner.grammar.Production`), the builder MH uses too.
The enumeration compiles each production once more (:func:`_compile`)
into what is its own: an adder of evaluation-plan nodes
(:class:`rulelab.dsl.batch._Plan`) and a print template, so a new concept
is numbered and printed from its children without a walk over it.  The
enumeration's own loop, over sizes and the sort, stays in
:mod:`rulelab.learner.inference`.
"""

from __future__ import annotations

import math
from array import array
from functools import partial
from itertools import count, product
from typing import Iterable, Iterator

import numpy as np

from ..dsl import Concept, FeatureVocab, parts, rebuild
from ..dsl.batch import _Plan, _op
from ..dsl.core import Hole
from ..dsl.sexpr import print_concept
from .grammar import Grammar, HypothesisBudgetError, Production


class Hypotheses(tuple):
    """:func:`~rulelab.learner.inference.enumerate_hypotheses`' ``(concept,
    log_prior)`` pairs.  Until
    :func:`~rulelab.learner.inference.build_eval_matrices` spends it,
    ``plan`` is the evaluation plan that numbers their subterms, with each
    pair's number at depth 0 in ``plan.roots``, in pair order."""

    plan: _Plan | None = None


def print_from(concepts: list[Concept], cells: Iterable[tuple], vocab: FeatureVocab) -> list[str]:
    """Each of ``concepts``' printed forms, made one node's text at a time
    from the printed forms of ``cells``' concepts, kept alive meanwhile,
    where they are its subterms."""
    known = {id(c): form for priors, _n, forms in cells for c, form in zip(priors, forms)}
    texts: dict[object, str] = {}  # plan op -> its node's text, as _text gives it

    def form(concept: Concept) -> str:
        found = known.get(id(concept))
        if found is not None:
            return found
        children = parts(concept)[0]
        if not children:
            return print_concept(concept, vocab)
        op = _op(concept)
        text = texts.get(op)
        if text is None:
            text = texts[op] = _text(rebuild(concept, [Hole("#")] * len(children)), vocab)
        return text % tuple(map(form, children))

    return list(map(form, concepts))


def _text(template: Concept, vocab: FeatureVocab) -> str:
    """``template``'s printed form as a ``%`` format, one ``%s`` for each
    of its holes, which must be ``Hole("#")``: "#" starts a comment, so it
    is in no printed concept."""
    pieces = print_concept(template, vocab).split("#")
    return "%s".join(piece.replace("%", "%%") for piece in pieces)


class Cells:
    """The memo cells of one enumeration, and the plan their concepts are
    added to.  A cell holds one (nonterminal, size, binder depth)'s
    concepts with their log priors, and in the same order their plan
    numbers and printed forms."""

    def __init__(self, grammar: Grammar, max_hypotheses: int):
        self.grammar = grammar
        self.max_hypotheses = max_hypotheses
        self.plan = _Plan()
        self.compiled = {p: _compile(p, grammar.vocab, self.plan) for p in grammar.productions}
        self.memo: dict[tuple[str, int, int], tuple[dict[Concept, float], array, list[str]]] = {}

    def cell(
        self, nonterminal: str, size: int, depth: int, limit: float = math.inf,
        printing: bool = True,
    ):
        """The cell of ``nonterminal`` at ``size`` and ``depth``, filled on
        first use, its child cells first, with no printed forms (None) when
        not ``printing``; more than ``limit`` concepts in it raise
        :class:`HypothesisBudgetError`."""
        key = (nonterminal, size, depth)
        if key in self.memo:
            return self.memo[key]
        grammar = self.grammar
        priors: dict[Concept, float] = {}
        numbers = array("q")
        printed: list[str] | None = [] if printing else None

        def is_new(concept: Concept, log_p: float) -> bool:
            """Add ``log_p`` to ``concept``'s prior; say whether it is new."""
            count = len(priors)
            old = priors.setdefault(concept, log_p)
            if len(priors) == count:
                priors[concept] = float(np.logaddexp(old, log_p))
                return False
            if count >= limit:
                raise HypothesisBudgetError(
                    f"more than {self.max_hypotheses} hypotheses at size {size}"
                )
            return True

        for production in grammar.productions_for(nonterminal):
            holes = production.holes
            remaining = size - production.skeleton_size
            if remaining < 0 or (not holes and remaining != 0):
                continue
            log_p = grammar.log_probability(production)
            build = production.build
            add, text = self.compiled[production]
            if not holes:
                if is_new(production.template, log_p):
                    numbers.append(add(depth, ()))
                    if printing:
                        printed.append(text % ())
                continue
            for sizes in _size_splits(remaining, [grammar.min_size(h) for h, _d in holes]):
                children = [self.cell(h, s, depth + d) for (h, d), s in zip(holes, sizes)]
                if not all(child_priors for child_priors, _n, _p in children):
                    continue
                *outer, (last_priors, last_numbers, last_printed) = children
                # Each derivation in turn, the last hole's fill the fastest:
                # a concept's log prior adds its derivations in this order.
                for prefix in product(*(zip(p.items(), n, f) for p, n, f in outer)):
                    acc = log_p
                    for (_fill, lp), _number, _form in prefix:
                        acc += lp
                    fills = tuple(fill for (fill, _lp), _n, _f in prefix)
                    operands = tuple(number for _pair, number, _f in prefix)
                    forms = tuple(form for _pair, _n, form in prefix)
                    for (fill, lp), number, form in zip(
                        last_priors.items(), last_numbers, last_printed
                    ):
                        if is_new(build(*fills, fill), acc + lp):
                            numbers.append(add(depth, (*operands, number)))
                            if printing:
                                printed.append(text % (*forms, form))
        self.memo[key] = priors, numbers, printed
        return self.memo[key]


def _compile(production: Production, vocab: FeatureVocab, plan: _Plan):
    """``(add, text)``, the production compiled once for the enumeration:
    ``add(depth, operands)`` adds the concept its ``build`` makes at
    ``depth`` to ``plan``, from the fills' plan numbers, and ``text %
    forms`` prints it from the fills' printed forms."""
    template = production.template
    text = _text(production.build(*[Hole("#")] * len(production.holes)), vocab)
    if production.skeleton_size == 1 and production.holes:  # one node over its holes
        return partial(plan.node, _op(template)), text
    return _compile_node(template, count(), plan), text


def _compile_node(node: Concept, holes: Iterator[int], plan: _Plan):
    """``add`` of the template ``node``, as in :func:`_compile`, its holes
    numbered in order from ``holes``."""
    if isinstance(node, Hole):
        i = next(holes)
        return lambda depth, operands: operands[i]
    if not _has_hole(node):
        return lambda depth, operands: plan.number(node, depth)
    children, binds, _refs, _reads_set = parts(node)
    op = _op(node)
    inner = [_compile_node(child, holes, plan) for child in children]

    def add(depth, operands):
        return plan.node(op, depth, [child_add(depth + binds, operands) for child_add in inner])

    return add


def _has_hole(node: Concept) -> bool:
    """Whether the template ``node`` holds a hole."""
    return isinstance(node, Hole) or any(map(_has_hole, parts(node)[0]))


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
