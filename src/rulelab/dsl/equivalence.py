"""Truth-functional equivalence over a bounded universe of contexts.

Two concepts are equivalent up to ``max_set_size`` when they evaluate
identically on every multiset of 1..max_set_size objects drawn from the
vocabulary's object universe, for every choice of target.  Contexts equal
as multisets-with-target are enumerated once: the target is placed at
position 0 and the remaining objects form a sorted multiset, which is
sound because evaluation never depends on the order of non-target objects.
The check evaluates both concepts over that universe as
:class:`~rulelab.dsl.batch.ContextBatch` blocks, one per set size, in
fixed-size chunks, and stops at the first chunk where they differ; for
two concepts that read only the target object it stops after set size 1.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterator

import numpy as np

from .batch import MAX_OBJECTS, ContextBatch, evaluate_batch, feature_dtype
from .core import Concept, Context, DslError, FeatureVocab, Obj, is_target_only

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


def count_contexts(vocab: FeatureVocab, max_set_size: int) -> int:
    """Number of canonical contexts enumerated up to ``max_set_size``."""
    n = vocab.n_objects()
    return n * sum(math.comb(n + r - 1, r) for r in range(max_set_size))


def enumerate_contexts(vocab: FeatureVocab, max_set_size: int) -> Iterator[Context]:
    """Yield each canonical context once (target at position 0)."""
    universe = object_universe(vocab)
    for k in range(1, max_set_size + 1):
        for rest in itertools.combinations_with_replacement(universe, k - 1):
            for target in universe:
                yield Context((target,) + rest, 0)


@functools.lru_cache(maxsize=8)
def canonical_block(vocab: FeatureVocab, set_size: int) -> ContextBatch:
    """The contexts of :func:`enumerate_contexts` that hold ``set_size``
    objects, in the same order, as a read-only :class:`ContextBatch` built
    from object-index arrays."""
    if not 1 <= set_size <= MAX_OBJECTS:
        raise DslError(f"set_size must lie in 1..{MAX_OBJECTS}, got {set_size}")
    table = np.array(
        [(o.size, o.color, o.shape) for o in object_universe(vocab)], dtype=feature_dtype(vocab)
    )
    n_universe = len(table)
    id_dtype = np.min_scalar_type(n_universe)
    combos = list(itertools.combinations_with_replacement(range(n_universe), set_size - 1))
    rest = np.array(combos, dtype=id_dtype).reshape(len(combos), set_size - 1)
    ids = np.zeros((len(rest) * n_universe, MAX_OBJECTS), dtype=id_dtype)
    ids[:, 0] = np.tile(np.arange(n_universe, dtype=id_dtype), len(rest))
    ids[:, 1:set_size] = np.repeat(rest, n_universe, axis=0)
    batch = ContextBatch.from_arrays(
        table[ids],
        np.full(len(ids), set_size, dtype=np.uint8),
        np.zeros(len(ids), dtype=np.uint8),
        vocab,
    )
    for array in (batch.features, batch.present, batch.target, batch.others, batch.color_counts):
        array.flags.writeable = False
    return batch


def equivalent(
    a: Concept,
    b: Concept,
    vocab: FeatureVocab,
    max_set_size: int = 5,
    max_contexts: int = 2_000_000,
) -> bool:
    """Decide truth-functional equivalence over the bounded universe.

    Raises :class:`ContextBudgetError` when the enumeration would exceed
    ``max_contexts``; callers can lower ``max_set_size`` and retry.  A walk
    that reaches sets of more than five objects, the largest displayed
    set, raises :class:`DslError`.
    """
    if max_set_size < 1:
        raise DslError("max_set_size must be at least 1")
    if a == b:
        return True
    if is_target_only(a) and is_target_only(b):
        # Truth depends only on the target object: the one-object contexts
        # cover the whole universe of behaviors, so neither the budget nor
        # the set-size bound applies.
        max_set_size = 1
    else:
        total = count_contexts(vocab, max_set_size)
        if total > max_contexts:
            raise ContextBudgetError(
                f"{total} contexts exceed the cap of {max_contexts}; lower max_set_size"
            )
    # Smallest sets first: most differences show there, before the larger
    # blocks are built or evaluated.
    for set_size in range(1, max_set_size + 1):
        block = canonical_block(vocab, set_size)
        for start in range(0, len(block), _CHUNK_CONTEXTS):
            truth = evaluate_batch((a, b), block[start:start + _CHUNK_CONTEXTS])
            if not np.array_equal(truth[0], truth[1]):
                return False
    return True
