"""The per-node memo walk the packed evaluation kernel is tested against.

:func:`walk_evaluate_batch` evaluates concepts over a
:class:`rulelab.dsl.ContextBatch` one subterm at a time, as unpacked
``bool`` arrays: under ``d`` enclosing binders a subterm evaluates to an
array of shape ``(n,) + (5,) * d`` (or one that broadcasts to it), where
axis 0 runs over contexts and axis ``d - v`` over the slot bound to de
Bruijn variable ``v``; variable ``d`` is the target.  A quantifier reduces
the last axis under its scope mask.  Subterms are memoized per
``(subterm, depth)`` and shared across every concept of one call.  It is
the library's earlier batch evaluator, kept as a second, independent
implementation of :func:`rulelab.dsl.evaluate`'s semantics.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from rulelab.dsl import (
    MAX_OBJECTS,
    And,
    Concept,
    ContextBatch,
    DslError,
    FeatureIs,
    Iff,
    Implies,
    MajorityColor,
    MinorityColor,
    Not,
    Or,
    Quant,
    Rel,
    UnboundVariableError,
    Xor,
)
from rulelab.dsl.core import REL_DIMENSION

_FEATURE_AXIS = {"size": 0, "color": 1, "shape": 2}
_REL_AXIS = {kind: _FEATURE_AXIS[dim] for kind, dim in REL_DIMENSION.items()}


def walk_evaluate_batch(concepts: Sequence[Concept], batch: ContextBatch) -> np.ndarray:
    """Truth values as a ``bool[len(concepts), len(batch)]`` array: row ``i``
    column ``j`` is ``evaluate(concepts[i], context j)``, by the memo walk."""
    evaluator = _Evaluator(batch)
    memo = evaluator.memo
    out = np.empty((len(concepts), len(batch)), dtype=bool)
    for concept, row in zip(concepts, out):
        found = memo.get((concept, 0))
        if found is None:
            # A later concept may hold this one as a subterm: the memo keeps
            # its row of out, not a copy.
            row[...] = evaluator._compute(concept, 0)
            memo[concept, 0] = row
        else:
            row[...] = found
    return out


class _Evaluator:
    """One batch's memo of subterm values, keyed by (subterm, depth)."""

    def __init__(self, batch: ContextBatch):
        self.batch = batch
        self.n = len(batch)
        self.memo: dict[tuple[Concept, int], np.ndarray] = {}
        self._color_rank: tuple[np.ndarray, np.ndarray] | None = None

    def value(self, concept: Concept, depth: int) -> np.ndarray:
        key = (concept, depth)
        found = self.memo.get(key)
        if found is None:
            found = self.memo[key] = self._compute(concept, depth)
        return found

    def _compute(self, concept: Concept, depth: int) -> np.ndarray:
        if isinstance(concept, FeatureIs):
            values = self.batch.features[:, :, _FEATURE_AXIS[concept.dim]]
            return self._slot(values, concept.var, depth) == concept.value
        if isinstance(concept, And):
            return self.value(concept.left, depth) & self.value(concept.right, depth)
        if isinstance(concept, Or):
            return self.value(concept.left, depth) | self.value(concept.right, depth)
        if isinstance(concept, Not):
            return ~self.value(concept.body, depth)
        if isinstance(concept, Quant):
            scope = self.batch.others if concept.scope == "others" else self.batch.present
            mask = scope.reshape((self.n,) + (1,) * depth + (MAX_OBJECTS,))
            body = self.value(concept.body, depth + 1)
            if concept.kind == "exists":
                return np.any(body & mask, axis=-1)
            if concept.kind == "forall":
                return np.all(body | ~mask, axis=-1)
            return np.sum(body & mask, axis=-1, dtype=np.uint8) == 1
        if isinstance(concept, Rel):
            values = self.batch.features[:, :, _REL_AXIS[concept.kind]]
            a = self._slot(values, concept.left, depth)
            b = self._slot(values, concept.right, depth)
            if concept.kind == "size-gt":
                return a > b
            if concept.kind == "size-ge":
                return a >= b
            return a == b
        if isinstance(concept, Xor):
            return self.value(concept.left, depth) != self.value(concept.right, depth)
        if isinstance(concept, Implies):
            return ~self.value(concept.left, depth) | self.value(concept.right, depth)
        if isinstance(concept, Iff):
            return self.value(concept.left, depth) == self.value(concept.right, depth)
        if isinstance(concept, MajorityColor):
            return self._slot(self.color_rank()[0], concept.var, depth)
        if isinstance(concept, MinorityColor):
            return self._slot(self.color_rank()[1], concept.var, depth)
        raise DslError(f"not a concept node: {concept!r}")

    def _slot(self, per_slot: np.ndarray, var: int, depth: int) -> np.ndarray:
        """``per_slot`` (n, 5) as seen by variable ``var`` under ``depth``
        binders: the target's value, or the slot axis moved to axis
        ``depth - var``."""
        if var == depth:
            picked = per_slot[np.arange(self.n), self.batch.target]
            return picked.reshape((self.n,) + (1,) * depth)
        if var > depth:
            raise UnboundVariableError(f"variable {var} unbound under {depth} binder(s)")
        shape = [self.n] + [1] * depth
        shape[depth - var] = MAX_OBJECTS
        return per_slot.reshape(shape)

    def color_rank(self) -> tuple[np.ndarray, np.ndarray]:
        """(majority, minority) per slot: the slot's color count is strictly
        above / below every other color present in the set."""
        if self._color_rank is None:
            colors = self.batch.features[:, :, 1]
            counts = self.batch.color_counts
            mine = np.take_along_axis(counts, colors.astype(np.intp), axis=1)
            majority = np.ones(colors.shape, dtype=bool)
            minority = np.ones(colors.shape, dtype=bool)
            for color in range(counts.shape[1]):
                theirs = counts[:, color:color + 1]
                rival = (colors != color) & (theirs > 0)
                majority &= ~rival | (mine > theirs)
                minority &= ~rival | (mine < theirs)
            self._color_rank = (majority, minority)
        return self._color_rank
