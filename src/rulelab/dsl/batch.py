"""Batched concept evaluation: many concepts over many contexts at once.

One kernel (:func:`evaluate_packed`) computes the same truth values as
:func:`rulelab.dsl.core.evaluate`, which stays the reference semantics it
is tested against, for a whole :class:`ContextBatch` at a time.  A plan
(:class:`_Plan`) numbers each distinct ``(subterm, binder depth)`` node of
its concepts once, by walking them or as the hypothesis enumeration
derives them, and the kernel evaluates each node once, children first,
into packed truth rows: ``np.packbits`` over the contexts, first context
in the high bit, the tail byte's padding bits zero.  :func:`evaluate_batch`
unpacks the rows it is asked for; the learner's hypothesis table stays
packed.

Contexts are padded to five object slots.  Under ``d`` enclosing binders a
subterm's value is ``uint8[5 ** d, ceil(n / 8)]``: one packed row per
assignment of slots to the bound variables, where row ``r`` gives
variable ``v`` the slot ``r // 5 ** v % 5``, so variable 0 varies fastest;
variable ``d`` is the target.  Each depth keeps its subterms' values in
one store, row ``i`` for subterm number ``i``.

- Leaves are computed unpacked, packed, and kept on the batch, so a batch
  evaluated one concept at a time (an MH chain's) packs each leaf once.
- Connectives are bitwise operations; a complement is an exclusive or with
  the batch's valid bits, so padding stays zero.
- A quantifier at depth ``d`` views its body's rows as ``(5 ** d, 5)`` and
  reduces the slot axis bitwise under its packed scope mask, so padded
  slots never reach a result.
- Nodes of one kind at one depth and height (one more than their highest
  child's) are computed together, in height order, as numpy operations
  over their children's gathered rows, a bounded chunk at a time.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property, partial
from operator import itemgetter
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .core import (
    MAX_OBJECTS,
    REL_DIMENSION,
    And,
    Concept,
    Context,
    DslError,
    FeatureIs,
    FeatureVocab,
    Hole,
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
    head,
    parts,
)

_FEATURE_AXIS = {"size": 0, "color": 1, "shape": 2}
_REL_AXIS = {kind: _FEATURE_AXIS[dim] for kind, dim in REL_DIMENSION.items()}
# Bytes of gathered child rows one numpy operation of the kernel takes.
_CHUNK_BYTES = 1 << 18


def feature_dtype(vocab: FeatureVocab) -> np.dtype:
    """Smallest unsigned dtype holding every feature index of ``vocab``."""
    largest = max(len(vocab.sizes), len(vocab.colors), len(vocab.shapes)) - 1
    return np.min_scalar_type(largest)


@dataclass(frozen=True)
class ContextBatch:
    """``n`` contexts stored as arrays, objects padded to five slots."""

    features: np.ndarray  # (n, 5, 3) size, color, shape index per slot; padding is 0
    present: np.ndarray  # (n, 5) bool: the slot holds an object
    target: np.ndarray  # (n,) slot of the target object
    others: np.ndarray  # (n, 5) bool: present and not the target
    color_counts: np.ndarray  # (n, n_colors) objects of each color in the set

    @classmethod
    def from_arrays(
        cls, features: np.ndarray, n_objects: np.ndarray, target: np.ndarray, vocab: FeatureVocab
    ) -> "ContextBatch":
        """Build a batch from padded features, set sizes and target slots."""
        slots = np.arange(MAX_OBJECTS)
        present = slots < n_objects[:, None]
        others = present & (slots != target[:, None])
        colors = features[:, :, 1]
        color_counts = np.stack(
            [
                ((colors == color) & present).sum(axis=1, dtype=np.uint8)
                for color in range(len(vocab.colors))
            ],
            axis=1,
        )
        return cls(features, present, target, others, color_counts)

    @classmethod
    def from_contexts(cls, contexts: Sequence[Context], vocab: FeatureVocab) -> "ContextBatch":
        """Pack ``Context`` objects, in order, into a batch."""
        padding = [(0, 0, 0)] * MAX_OBJECTS
        rows = [
            [(o.size, o.color, o.shape) for o in ctx.objects] + padding[len(ctx.objects):]
            for ctx in contexts
        ]
        features = np.array(rows, dtype=feature_dtype(vocab)).reshape(len(contexts), MAX_OBJECTS, 3)
        n_objects = np.array([len(ctx.objects) for ctx in contexts], dtype=np.uint8)
        target = np.array([ctx.target for ctx in contexts], dtype=np.uint8)
        return cls.from_arrays(features, n_objects, target, vocab)

    def __len__(self) -> int:
        return len(self.target)

    # Derived from the fields on first use and kept: a batch evaluated many
    # times (an MH chain's) computes them once.

    @cached_property
    def _valid_bits(self) -> np.ndarray:
        """``uint8[ceil(n / 8)]``: every context's bit set, padding bits zero."""
        return np.packbits(np.ones(len(self), dtype=bool))

    @cached_property
    def _scope_bits(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Per quantifier scope, its packed ``(5, ceil(n / 8))`` slot rows
        and their complement, padding bits zero in both."""
        return {
            scope: (np.packbits(mask.T, axis=-1), np.packbits(~mask.T, axis=-1))
            for scope, mask in (("all", self.present), ("others", self.others))
        }

    @cached_property
    def _packed_leaves(self) -> dict[tuple[Concept, int], np.ndarray]:
        """The evaluation kernel's packed leaf rows, by (leaf, depth)."""
        return {}

    @cached_property
    def _color_rank(self) -> tuple[np.ndarray, np.ndarray]:
        """(majority, minority) per slot, ``bool[n, 5]``: the slot's color
        count is strictly above / below every other color present in the
        set."""
        colors = self.features[:, :, 1]
        counts = self.color_counts
        mine = np.take_along_axis(counts, colors.astype(np.intp), axis=1)
        majority = np.ones(colors.shape, dtype=bool)
        minority = np.ones(colors.shape, dtype=bool)
        for color in range(counts.shape[1]):
            theirs = counts[:, color:color + 1]
            rival = (colors != color) & (theirs > 0)
            majority &= ~rival | (mine > theirs)
            minority &= ~rival | (mine < theirs)
        return majority, minority


def evaluate_batch(concepts: Sequence[Concept], batch: ContextBatch) -> np.ndarray:
    """Truth values as a ``bool[len(concepts), len(batch)]`` array: row ``i``
    column ``j`` is ``evaluate(concepts[i], context j)``.  The rows are
    :func:`evaluate_packed`'s, unpacked."""
    table, rows = evaluate_packed(concepts, batch)
    return np.unpackbits(table[rows], axis=1, count=len(batch)).view(bool)


def evaluate_packed(
    concepts: Sequence[Concept] | _Plan, batch: ContextBatch
) -> tuple[np.ndarray, np.ndarray]:
    """``(table, rows)``: ``table`` is ``uint8[k, ceil(len(batch) / 8)]``,
    the packed truth rows of the depth-0 nodes of ``concepts``' plan, and
    ``concepts[i]``'s row is ``table[rows[i]]``.  Context ``j`` is bit ``7 -
    j % 8`` of byte ``j // 8``, and padding bits are zero.

    A sequence of concepts is numbered here (:meth:`_Plan.numbering`), each
    distinct ``(subterm, depth)`` once.  ``concepts`` may instead be a
    :class:`_Plan` that already numbers them, as
    :func:`rulelab.learner.enumerate_hypotheses` builds one; ``rows`` then
    follow its ``roots``."""
    plan = concepts if isinstance(concepts, _Plan) else _Plan.numbering(concepts)
    return _Kernel(batch).run(plan)[:, 0], np.array(plan.roots, dtype=np.intp)


class _Plan:
    """The ``(subterm, depth)`` nodes of some concepts, numbered per depth,
    and ``roots``, each concept's number at depth 0.  Leaves are listed as
    ``(depth, number, leaf)``; the other nodes are grouped by ``(height,
    depth, op)``, and a group's columns are its node numbers, then each
    operand's number at the operand's depth.

    :meth:`node` is the one way a node is added, and it numbers each
    ``(op, *operands)`` once per depth, so a subterm has one number at a
    depth however it was reached.  :meth:`number` walks a concept, or a
    grammar template whose holes stand for numbers already in the plan,
    through it; :func:`rulelab.learner.enumerate_hypotheses` adds each
    concept it derives from its children's numbers, without building it,
    and builds and prints the concepts afterwards with :meth:`fold`."""

    def __init__(self):
        self.index: list[dict[tuple, int]] = [{}]  # per depth: (op, *operands) -> its number
        self.heights: list[array] = [array("q")]  # per depth, by number
        self.leaves: list[tuple[int, int, Concept]] = []
        self.groups: dict[tuple, list[array]] = {}
        self.roots = array("q")

    @classmethod
    def numbering(cls, concepts: Sequence[Concept]) -> "_Plan":
        """The plan of ``concepts``, each numbered by :meth:`number`."""
        plan = cls()
        plan.roots = array("q", [plan.number(concept, 0) for concept in concepts])
        del plan.index  # every node is numbered: free the index before the stores are made
        return plan

    def node(self, op, depth: int, operands: Sequence[int] = ()) -> int:
        """The number at ``depth`` of the leaf ``op`` when there are no
        ``operands``, else of the node of kind ``op`` (a connective's type,
        or a quantifier's ``(kind, scope)``) over the operands' numbers, at
        ``depth`` for a connective and ``depth + 1`` for a quantifier;
        added if it is new."""
        while len(self.heights) <= depth:
            self.heights.append(array("q"))
            self.index.append({})
        key = (op, *operands)
        index = self.index[depth]
        number = index.get(key)
        if number is not None:
            return number
        heights = self.heights[depth]
        number = index[key] = len(heights)
        if operands:
            inner = self.heights[depth + 1] if isinstance(op, tuple) else heights
            height = 1 + max(map(inner.__getitem__, operands))
            group = (height, depth, op)
            columns = self.groups.get(group)
            if columns is None:
                columns = self.groups[group] = [array("q") for _ in range(len(operands) + 1)]
            for column, value in zip(columns, (number, *operands)):
                column.append(value)
        else:
            height = 0
            self.leaves.append((depth, number, op))
        heights.append(height)
        return number

    def number(self, concept: Concept, depth: int, fills: Iterator[int] = iter(())) -> int:
        """``concept``'s number at ``depth``, numbering it and its subterms
        if it is new.  ``concept`` may be a grammar template: each of its
        holes, left to right, is the next number ``fills`` yields, a number
        at the hole's depth; a hole met once ``fills`` is spent raises
        :class:`DslError`."""
        children, binds, refs, _reads_set = parts(concept)
        if not children:
            if isinstance(concept, Hole):
                number = next(fills, None)
                if number is None:
                    raise DslError(f"the hole {concept.nonterminal!r} has no fill")
                return number
            if refs and max(refs) > depth:
                raise UnboundVariableError(f"variable {max(refs)} unbound under {depth} binder(s)")
            return self.node(concept, depth)
        operands = [self.number(child, depth + binds, fills) for child in children]
        return self.node(_op(concept), depth, operands)

    def fold(self, leaf: Callable[[Concept], Any], kind: Callable[[Any, int], Callable]) -> list:
        """Each depth-0 node's value, by number, made children first in the
        kernel's order: a leaf's is ``leaf(leaf)``, and another node's is
        ``kind(op, arity)`` applied to its operands' values, where ``kind``
        is called once per op."""
        values: list[list] = [[None] * len(heights) for heights in self.heights]
        for depth, number, node in self.leaves:
            values[depth][number] = leaf(node)
        makers = {}
        for key in sorted(self.groups, key=itemgetter(0)):  # by height
            _height, depth, op = key
            numbers, *operands = self.groups[key]
            make = makers.get(op)
            if make is None:
                make = makers[op] = kind(op, len(operands))
            out, inner = values[depth], values[depth + isinstance(op, tuple)]
            for number, *children in zip(numbers, *operands):
                out[number] = make(*map(inner.__getitem__, children))
        return values[0]


def _op(node: Concept):
    """``node``'s kind in a plan (:meth:`_Plan.node`): a quantifier's
    ``(kind, scope)``, else its type."""
    return head(node) or type(node)


def _maker(op) -> Callable[..., Concept]:
    """The constructor of a node of kind ``op`` from its children: the
    inverse of :func:`_op`."""
    return partial(Quant, *op) if isinstance(op, tuple) else op


class _Kernel:
    """One batch's evaluation of a :class:`_Plan`'s groups into packed rows."""

    def __init__(self, batch: ContextBatch):
        self.batch = batch
        self.n = len(batch)
        self.width = (self.n + 7) // 8
        self.valid = batch._valid_bits

    def run(self, plan: _Plan) -> np.ndarray:
        """The depth-0 store: ``uint8[count, 1, width]``, row ``i`` node
        ``i``'s packed values.  Depth ``d``'s store is ``uint8[count, 5 **
        d, width]``.  Leaves come first, then the groups in height order,
        so every operand is computed before the nodes reading it."""
        stores = [
            np.empty((len(heights), MAX_OBJECTS ** depth, self.width), dtype=np.uint8)
            for depth, heights in enumerate(plan.heights)
        ]
        packed = self.batch._packed_leaves
        for depth, number, leaf in plan.leaves:
            rows = packed.get((leaf, depth))
            stores[depth][number] = self._pack_leaf(leaf, depth) if rows is None else rows
        groups = plan.groups
        for key in sorted(groups, key=itemgetter(0)):  # by height
            _height, depth, op = key
            numbers, *operands = groups[key]
            quantifier = isinstance(op, tuple)
            inner = depth + quantifier
            if len(numbers) == 1:  # as in one concept's call: views, written in place
                out = stores[depth][numbers[0]:numbers[0] + 1]
                children = [stores[inner][column[0]:column[0] + 1] for column in operands]
                if quantifier:
                    self._quantify(out, *op, *children)
                else:
                    self._connect(out, op, *children)
                continue
            step = max(1, _CHUNK_BYTES // (MAX_OBJECTS ** inner * self.width or 1))
            for first in range(0, len(numbers), step):
                chunk = slice(first, first + step)
                children = [stores[inner][column[chunk]] for column in operands]
                stores[depth][numbers[chunk]] = (
                    self._quantify(None, *op, *children) if quantifier
                    else self._connect(None, op, *children)
                )
        return stores[0]

    def _connect(self, out, op: type, left: np.ndarray, right=None) -> np.ndarray:
        """``op`` of the operands' rows, into ``out`` (or a new array when
        it is None)."""
        if op is And:
            return np.bitwise_and(left, right, out=out)
        if op is Or:
            return np.bitwise_or(left, right, out=out)
        if op is Xor:
            return np.bitwise_xor(left, right, out=out)
        if op is Not:
            return np.bitwise_xor(left, self.valid, out=out)
        if op is Implies:
            values = np.bitwise_xor(left, self.valid, out=out)
            values |= right
            return values
        if op is Iff:
            values = np.bitwise_xor(left, right, out=out)
            values ^= self.valid
            return values
        raise DslError(f"not a concept node: {op!r}")

    def _quantify(self, out, kind: str, scope: str, body: np.ndarray) -> np.ndarray:
        """The values under ``depth`` binders, into ``out`` (or a new array
        when it is None), from the gathered ``body`` rows (nodes, 5 **
        (depth + 1), width), reduced over the bound slot."""
        body = body.reshape(len(body), body.shape[1] // MAX_OBJECTS, MAX_OBJECTS, self.width)
        inside, outside = self.batch._scope_bits[scope]
        if kind == "forall":
            return np.bitwise_and.reduce(body | outside, axis=2, out=out)
        body = body & inside
        if kind == "exists":
            return np.bitwise_or.reduce(body, axis=2, out=out)
        one = body[:, :, 0].copy()  # exactly-one: some slot so far holds,
        many = np.zeros_like(one)  # and two slots so far hold
        for slot in range(1, MAX_OBJECTS):
            many |= one & body[:, :, slot]
            one |= body[:, :, slot]
        return np.bitwise_and(one, ~many, out=out)

    def _pack_leaf(self, leaf: Concept, depth: int) -> np.ndarray:
        """The leaf's packed rows, ``uint8[5 ** depth, width]``, kept on the
        batch: packed before they are broadcast over the slot rows."""
        rows = np.empty((MAX_OBJECTS,) * depth + (self.width,), dtype=np.uint8)
        rows[...] = np.packbits(self._leaf(leaf, depth), axis=-1)
        rows = rows.reshape(MAX_OBJECTS ** depth, self.width)
        self.batch._packed_leaves[leaf, depth] = rows
        return rows

    def _leaf(self, concept: Concept, depth: int) -> np.ndarray:
        """A leaf's unpacked values, broadcastable to ``(5,) * depth + (n,)``."""
        if isinstance(concept, FeatureIs):
            values = self.batch.features[:, :, _FEATURE_AXIS[concept.dim]]
            return self._slot(values == concept.value, concept.var, depth)
        if isinstance(concept, Rel):
            values = self.batch.features[:, :, _REL_AXIS[concept.kind]]
            a = self._slot(values, concept.left, depth)
            b = self._slot(values, concept.right, depth)
            if concept.kind == "size-gt":
                return a > b
            if concept.kind == "size-ge":
                return a >= b
            return a == b
        if isinstance(concept, MajorityColor):
            return self._slot(self.batch._color_rank[0], concept.var, depth)
        if isinstance(concept, MinorityColor):
            return self._slot(self.batch._color_rank[1], concept.var, depth)
        raise DslError(f"not a concept node: {concept!r}")

    def _slot(self, per_slot: np.ndarray, var: int, depth: int) -> np.ndarray:
        """``per_slot`` (n, 5) as seen by variable ``var`` under ``depth``
        binders: the target's value, or the slot axis moved to axis
        ``depth - 1 - var``, contexts last."""
        if var == depth:
            picked = per_slot[np.arange(self.n), self.batch.target]
            return picked.reshape((1,) * depth + (self.n,))
        shape = [1] * depth + [self.n]
        shape[depth - 1 - var] = MAX_OBJECTS
        return per_slot.T.reshape(shape)
