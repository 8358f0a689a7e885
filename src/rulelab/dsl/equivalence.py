"""Truth-functional equivalence over a bounded universe of contexts.

Two concepts are equivalent up to ``max_set_size`` when they evaluate
identically on every multiset of 1..max_set_size objects drawn from the
vocabulary's object universe, for every choice of target.  Contexts equal
as multisets-with-target are enumerated once: the target is placed at
position 0 and the remaining objects form a sorted multiset, which is
sound because evaluation never depends on the order of non-target objects.

A dimension that neither concept reads cannot change a truth value, so the
universe is first projected onto the dimensions the pair reads: each other
dimension keeps one value.  Every context maps onto a context of that
smaller universe with the same truth values, so the verdict is unchanged;
a pair that reads only shape compares 105 contexts up to set size 5, not
849,555.

:func:`equivalent` settles each pair at the cheapest of three levels:

0. equal concepts, or equal :func:`operand_order_form`, need no contexts;
1. the reference ``evaluate`` runs over the smallest sets while their
   contexts number at most ``_REFERENCE_CONTEXTS`` (sets of one and two
   objects when the pair reads every dimension, every set up to five when
   it reads one; only the one-object sets for two concepts that read only
   the target), where most differences show;
2. only a pair that agrees on all of those loads numpy and streams the
   larger sets as :class:`~rulelab.dsl.batch.ContextBatch` chunks of about
   ``_CHUNK_CONTEXTS`` contexts (:func:`canonical_chunks`), one chunk at a
   time, stopping at the first chunk where the two concepts differ.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterator

from .core import (
    DIMENSIONS,
    MAX_CONTEXTS,
    MAX_OBJECTS,
    REL_DIMENSION,
    And,
    Concept,
    Context,
    DslError,
    FeatureIs,
    FeatureVocab,
    Iff,
    MajorityColor,
    MinorityColor,
    Obj,
    Or,
    Rel,
    Xor,
    count_contexts,
    evaluate,
    is_target_only,
    parts,
    rebuild,
)

if TYPE_CHECKING:
    from .batch import ContextBatch

# The connectives whose two operands ``evaluate`` treats alike.
_COMMUTATIVE = (And, Or, Xor, Iff)

# The most contexts the reference evaluator walks before the batch evaluator
# takes the larger sets: the 27 + 729 sets of one and two objects under the
# default vocabulary.
_REFERENCE_CONTEXTS = 756

# Contexts per evaluated chunk of the universe: bounds the memory of one
# comparison and lets a difference end the walk early.
_CHUNK_CONTEXTS = 1 << 16


class ContextBudgetError(DslError):
    """The bounded universe is larger than the caller's enumeration cap."""


def object_universe(vocab: FeatureVocab) -> tuple[Obj, ...]:
    """Every distinct object expressible in the vocabulary."""
    return tuple(
        Obj(s, c, h)
        for s in range(len(vocab.sizes))
        for c in range(len(vocab.colors))
        for h in range(len(vocab.shapes))
    )


def enumerate_contexts(vocab: FeatureVocab, max_set_size: int) -> Iterator[Context]:
    """Yield each canonical context once (target at position 0)."""
    universe = object_universe(vocab)
    for k in range(1, max_set_size + 1):
        for rest in itertools.combinations_with_replacement(universe, k - 1):
            for target in universe:
                yield Context((target,) + rest, 0)


def canonical_chunks(vocab: FeatureVocab, set_size: int) -> Iterator[ContextBatch]:
    """The contexts of :func:`enumerate_contexts` that hold ``set_size``
    objects, in the same order, as :class:`ContextBatch` chunks of about
    ``_CHUNK_CONTEXTS`` contexts (every target for at least one multiset of
    the other objects).

    A chunk is the product of its rest-multisets and the targets, so its
    arrays are filled by broadcasting; ``present``, ``others`` and
    ``target`` are the same for every context of one set size and are
    read-only broadcast views."""
    import numpy as np

    from .batch import ContextBatch, feature_dtype

    if not 1 <= set_size <= MAX_OBJECTS:
        raise DslError(f"set_size must lie in 1..{MAX_OBJECTS}, got {set_size}")
    table = np.array(
        [(o.size, o.color, o.shape) for o in object_universe(vocab)], dtype=feature_dtype(vocab)
    )
    n_universe = len(table)
    one_hot = np.eye(len(vocab.colors), dtype=np.uint8)[table[:, 1]]  # (n_universe, n_colors)
    slots = np.arange(MAX_OBJECTS)
    present = slots < set_size
    others = present & (slots != 0)
    combos = itertools.combinations_with_replacement(range(n_universe), set_size - 1)
    rests_per_chunk = max(1, _CHUNK_CONTEXTS // n_universe)
    while True:
        rest = np.array(list(itertools.islice(combos, rests_per_chunk)), dtype=np.intp)
        if not len(rest):
            return
        n = len(rest) * n_universe
        features = np.zeros((len(rest), n_universe, MAX_OBJECTS, 3), dtype=table.dtype)
        features[:, :, 0] = table
        features[:, :, 1:set_size] = table[rest][:, None]
        color_counts = one_hot[rest].sum(axis=1, dtype=np.uint8)[:, None] + one_hot
        yield ContextBatch(
            features.reshape(n, MAX_OBJECTS, 3),
            np.broadcast_to(present, (n, MAX_OBJECTS)),
            np.broadcast_to(np.uint8(0), (n,)),
            np.broadcast_to(others, (n, MAX_OBJECTS)),
            color_counts.reshape(n, len(vocab.colors)),
        )


def operand_order_form(concept: Concept) -> Concept:
    """``concept`` with the two operands of every ``and``, ``or``, ``xor``
    and ``iff`` put in a fixed order (by ``repr``), recursively.

    Those connectives are commutative under ``evaluate``, so two concepts
    with equal forms have equal truth values on every context.  No other
    rewrite is made."""
    children = [operand_order_form(child) for child in parts(concept)[0]]
    if isinstance(concept, _COMMUTATIVE):
        children.sort(key=repr)
    return rebuild(concept, children)


def _dimensions_read(concept: Concept) -> set[str]:
    """The feature dimensions ``concept``'s truth value can depend on."""
    if isinstance(concept, FeatureIs):
        read = {concept.dim}
    elif isinstance(concept, Rel):
        read = {REL_DIMENSION[concept.kind]}
    elif isinstance(concept, (MajorityColor, MinorityColor)):
        read = {"color"}
    else:
        read = set()
    return read.union(*map(_dimensions_read, parts(concept)[0]))


def equivalent(
    a: Concept,
    b: Concept,
    vocab: FeatureVocab,
    max_set_size: int = 5,
    max_contexts: int = MAX_CONTEXTS,
) -> bool:
    """Decide truth-functional equivalence over the bounded universe.

    The pair is settled at the cheapest level that decides it: equal
    concepts or equal :func:`operand_order_form` (no contexts); ``evaluate``
    over the smallest sets, while they hold at most ``_REFERENCE_CONTEXTS``
    contexts; the batch evaluator over the larger sets, chunk by chunk.
    Both walk the universe projected onto the dimensions the pair reads.
    Two concepts that read only the target are decided on the one-object
    sets, which cover every behaviour they can have, so neither the budget
    nor the set-size bound applies to them.

    Raises :class:`ContextBudgetError` when the enumeration of the whole
    vocabulary's universe would exceed ``max_contexts``; callers can lower
    ``max_set_size`` and retry.  A walk that reaches sets of more than five
    objects, the largest displayed set, raises :class:`DslError`.
    """
    if max_set_size < 1:
        raise DslError("max_set_size must be at least 1")
    if a == b or operand_order_form(a) == operand_order_form(b):
        return True
    if is_target_only(a) and is_target_only(b):
        max_set_size = 1
    else:
        total = count_contexts(vocab, max_set_size)
        if total > max_contexts:
            raise ContextBudgetError(
                f"{total} contexts exceed the cap of {max_contexts}; lower max_set_size"
            )
    read = _dimensions_read(a) | _dimensions_read(b)
    vocab = FeatureVocab(*(
        vocab.values(dim) if dim in read else vocab.values(dim)[:1] for dim in DIMENSIONS
    ))
    # Smallest sets first: most differences show there, before numpy is
    # loaded or a chunk of the larger sets is built.
    reference = 1
    while (reference < max_set_size
           and count_contexts(vocab, reference + 1) <= _REFERENCE_CONTEXTS):
        reference += 1
    small = enumerate_contexts(vocab, reference)
    if any(evaluate(a, ctx) != evaluate(b, ctx) for ctx in small):
        return False
    if max_set_size <= reference:
        return True
    import numpy as np

    from .batch import evaluate_batch

    for set_size in range(reference + 1, max_set_size + 1):
        for chunk in canonical_chunks(vocab, set_size):
            truth = evaluate_batch((a, b), chunk)
            if not np.array_equal(truth[0], truth[1]):
                return False
    return True
