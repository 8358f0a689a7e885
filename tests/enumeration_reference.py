"""The hypothesis enumerator before it built its evaluation plan: the
oracle that :func:`rulelab.learner.enumerate_hypotheses` is tested against.

Each concept is built by :func:`substitute`, a walk of its own that the
learner's builders are tested against, and sorted by its
:func:`print_concept` form; duplicate derivations meet ``np.logaddexp`` in
the order the memo visits them (productions, size splits, then each child
cell's entries in insertion order).
"""

from __future__ import annotations

import numpy as np

from rulelab.dsl import And, Concept, Iff, Implies, Not, Or, Quant, Xor, print_concept
from rulelab.dsl.core import Hole
from rulelab.learner import Grammar, GrammarError, HypothesisBudgetError


def substitute(template: Concept, fills: list[Concept]) -> Concept:
    """Replace the template's holes, left to right, with ``fills``."""
    def walk(node: Concept) -> Concept:
        if isinstance(node, Hole):
            return fills[next(counter)]
        if isinstance(node, Not):
            return Not(walk(node.body))
        if isinstance(node, Quant):
            return Quant(node.kind, node.scope, walk(node.body))
        if isinstance(node, (And, Or, Xor, Implies, Iff)):
            return type(node)(walk(node.left), walk(node.right))
        return node

    counter = iter(range(len(fills)))
    result = walk(template)
    try:
        next(counter)
    except StopIteration:
        return result
    raise GrammarError("more fills than holes")


def reference_enumerate(
    grammar: Grammar, max_size: int, max_hypotheses: int = 200_000
) -> list[tuple[Concept, float]]:
    """All concepts of node count <= ``max_size``, as ``(concept, log_prior)``
    pairs sorted by (size, printed form)."""
    if max_size < 1:
        raise GrammarError("max_size must be at least 1")

    memo: dict[tuple[str, int], dict[Concept, float]] = {}

    def exact(nonterminal: str, target_size: int) -> dict[Concept, float]:
        key = (nonterminal, target_size)
        if key in memo:
            return memo[key]
        cell: dict[Concept, float] = {}
        for production in grammar.productions_for(nonterminal):
            skeleton = production.skeleton_size
            holes = production.holes
            remaining = target_size - skeleton
            if remaining < 0 or (not holes and remaining != 0):
                continue
            log_p = grammar.log_probability(production)
            if not holes:
                _accumulate(cell, production.template, log_p)
                continue
            for combo in _size_splits(remaining, [grammar.min_size(h) for h, _d in holes]):
                _fill(cell, production, holes, combo, log_p)
        memo[key] = cell
        return cell

    def _fill(cell, production, holes, sizes, log_p):
        child_cells = [exact(holes[i][0], sizes[i]) for i in range(len(holes))]
        if any(not c for c in child_cells):
            return

        def rec(i, fills, acc):
            if i == len(child_cells):
                _accumulate(cell, substitute(production.template, fills), acc)
                return
            for concept, lp in child_cells[i].items():
                rec(i + 1, fills + [concept], acc + lp)

        rec(0, [], log_p)

    def _accumulate(cell, concept, log_p):
        if concept in cell:
            cell[concept] = float(np.logaddexp(cell[concept], log_p))
        else:
            cell[concept] = log_p

    hypotheses: list[tuple[Concept, float]] = []
    for target_size in range(1, max_size + 1):
        cell = exact(grammar.start, target_size)
        if len(hypotheses) + len(cell) > max_hypotheses:
            raise HypothesisBudgetError(
                f"more than {max_hypotheses} hypotheses at size {target_size}"
            )
        hypotheses += sorted(cell.items(), key=lambda item: print_concept(item[0], grammar.vocab))
    return hypotheses


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
