"""Object features, display contexts, and the logical concept AST.

A concept classifies one *target* object within a displayed set of one to
five objects.  Concepts range from simple feature tests ("is blue") through
Boolean combinations up to first-order statements that quantify over the
rest of the set ("same shape as a yellow object", "the only blue object").

Variable references are de Bruijn indices: 0 is the variable bound by the
innermost enclosing quantifier, and the target object sits one step outside
the outermost quantifier.  A concept with no quantifiers therefore refers
to the target as variable 0.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

DIMENSIONS = ("size", "color", "shape")

QUANT_KINDS = ("exists", "forall", "exactly-one")
QUANT_SCOPES = ("others", "all")
# The dimension each relation compares.
REL_DIMENSION = {
    "same-color": "color", "same-shape": "shape", "same-size": "size",
    "size-gt": "size", "size-ge": "size",
}
REL_KINDS = tuple(REL_DIMENSION)

# One atom of the concept syntax (:mod:`rulelab.dsl.sexpr`): no whitespace,
# parenthesis or comment sign.
ATOM = re.compile(r"[^\s()#]+")


class DslError(Exception):
    """Base class for concept-language errors."""


class UnboundVariableError(DslError):
    pass


@dataclass(frozen=True)
class FeatureVocab:
    """The feature values objects can take.

    ``sizes`` is ordered: its index order is the size order used by the
    size-comparison relations.  Each value is a non-empty string with no
    whitespace, ``(``, ``)`` or ``#``, so that a printed concept reads back
    as itself; values are distinct within a dimension.
    """

    sizes: tuple[str, ...] = ("small", "medium", "large")
    colors: tuple[str, ...] = ("blue", "green", "yellow")
    shapes: tuple[str, ...] = ("circle", "rectangle", "triangle")

    def __post_init__(self):
        for dim in DIMENSIONS:
            values = tuple(self.values(dim))
            object.__setattr__(self, f"{dim}s", values)
            if not values:
                raise DslError(f"vocab dimension {dim!r} is empty")
            bad = [v for v in values if not isinstance(v, str) or not ATOM.fullmatch(v)]
            if bad:
                raise DslError(f"vocab {dim} value {bad[0]!r} is not a non-empty string free of "
                               "whitespace, '(', ')' and '#'")
            if len(set(values)) != len(values):
                raise DslError(f"vocab dimension {dim!r} has duplicate values")

    def values(self, dim: str) -> tuple[str, ...]:
        if dim == "size":
            return self.sizes
        if dim == "color":
            return self.colors
        if dim == "shape":
            return self.shapes
        raise DslError(f"unknown dimension {dim!r}")

    def index(self, dim: str, name: str) -> int:
        try:
            return self.values(dim).index(name)
        except ValueError:
            raise DslError(f"unknown {dim} value {name!r}") from None

    def n_objects(self) -> int:
        return len(self.sizes) * len(self.colors) * len(self.shapes)


# The largest displayed set.
MAX_OBJECTS = 5

# equivalent's default cap on the contexts of one walk.
MAX_CONTEXTS = 2_000_000


def count_contexts(vocab: FeatureVocab, max_set_size: int) -> int:
    """Number of canonical contexts (target first, the other objects a
    multiset) that :func:`rulelab.dsl.equivalence.enumerate_contexts`
    yields up to ``max_set_size``."""
    n = vocab.n_objects()
    return n * sum(math.comb(n + r - 1, r) for r in range(max_set_size))


@dataclass(frozen=True, slots=True)
class Obj:
    """One displayed object, as indices into a bound vocabulary."""

    size: int
    color: int
    shape: int

    def render(self, vocab: FeatureVocab) -> str:
        return f"{vocab.sizes[self.size]} {vocab.colors[self.color]} {vocab.shapes[self.shape]}"


@dataclass(frozen=True, slots=True)
class Context:
    """A displayed set of 1-5 objects with a designated target object."""

    objects: tuple[Obj, ...]
    target: int

    def __post_init__(self):
        object.__setattr__(self, "objects", tuple(self.objects))
        if not 1 <= len(self.objects) <= 5:
            raise DslError(f"context must hold 1-5 objects, got {len(self.objects)}")
        if not 0 <= self.target < len(self.objects):
            raise DslError(f"target index {self.target} out of range")


class Concept:
    """Base class for concept AST nodes.  Nodes are immutable.

    A node's hash covers its kind (the class name, which hashes the same
    under a fixed ``PYTHONHASHSEED``) and its fields.  It is computed on
    first use and kept, so a dict lookup does not walk the subtree each
    time.  ``str`` hashes are seeded per process, so the kept hash must not
    be pickled; dataclass pickles a frozen slotted node as its fields alone,
    and an unpickled node computes its hash afresh.
    """

    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            fields = (getattr(self, name) for name in self.__match_args__)
            value = hash((type(self).__name__, *fields))
            object.__setattr__(self, "_hash", value)
            return value


def _node(cls):
    """Make ``cls`` a frozen slotted dataclass that keeps the node hash;
    dataclass would install a field hash of its own."""
    cls = dataclass(frozen=True, slots=True)(cls)
    cls.__hash__ = Concept.__hash__
    return cls


@_node
class FeatureIs(Concept):
    dim: str
    value: int
    var: int = 0


@_node
class Not(Concept):
    body: Concept


@_node
class And(Concept):
    left: Concept
    right: Concept


@_node
class Or(Concept):
    left: Concept
    right: Concept


@_node
class Xor(Concept):
    left: Concept
    right: Concept


@_node
class Implies(Concept):
    left: Concept
    right: Concept


@_node
class Iff(Concept):
    left: Concept
    right: Concept


@_node
class Quant(Concept):
    """Quantifier binding one fresh variable over the displayed set.

    ``scope`` is "others" (every object except the target) or "all"
    (every object including the target).
    """

    kind: str
    scope: str
    body: Concept


@_node
class Rel(Concept):
    """Binary feature relation between two in-scope variables."""

    kind: str
    left: int
    right: int


@_node
class MajorityColor(Concept):
    """True iff the variable's color count strictly exceeds every other
    color count present in the set."""

    var: int = 0


@_node
class MinorityColor(Concept):
    """True iff the variable's color count is strictly below every other
    color count present in the set."""

    var: int = 0


@_node
class Hole(Concept):
    """A grammar nonterminal occurrence inside a production template."""

    nonterminal: str


def parts(concept: Concept) -> tuple[tuple[Concept, ...], int, tuple[int, ...], bool]:
    """The node's shape as ``(children, binds, refs, reads_set)``.

    ``children`` are its sub-concepts in field order; each sits under
    ``binds`` more binders than the node itself (1 below a quantifier, 0
    elsewhere).  ``refs`` are the node's own variable references.
    ``reads_set`` holds when its value depends on objects its references do
    not name: a quantifier ranges over the set, and the majority and
    minority tests count its colors.
    """
    if isinstance(concept, FeatureIs):
        return (), 0, (concept.var,), False
    if isinstance(concept, (And, Or, Xor, Implies, Iff)):
        return (concept.left, concept.right), 0, (), False
    if isinstance(concept, Not):
        return (concept.body,), 0, (), False
    if isinstance(concept, Quant):
        return (concept.body,), 1, (), True
    if isinstance(concept, Rel):
        return (), 0, (concept.left, concept.right), False
    if isinstance(concept, (MajorityColor, MinorityColor)):
        return (), 0, (concept.var,), True
    if isinstance(concept, Hole):
        return (), 0, (), False
    raise DslError(f"not a concept node: {concept!r}")


def head(concept: Concept) -> tuple:
    """The fields of a node with sub-concepts that come before them: a
    quantifier's ``(kind, scope)``, else ``()``, so a node is
    ``type(c)(*head(c), *parts(c)[0])``."""
    return (concept.kind, concept.scope) if isinstance(concept, Quant) else ()


def rebuild(concept: Concept, children: Sequence[Concept]) -> Concept:
    """A node of ``concept``'s kind and own fields over ``children``, in
    place of its sub-concepts: the inverse of :func:`parts`, so
    ``rebuild(c, parts(c)[0]) == c``.  A leaf is returned as it is."""
    return type(concept)(*head(concept), *children) if children else concept


def size(concept: Concept) -> int:
    """Node count of the AST."""
    return 1 + sum(map(size, parts(concept)[0]))


def depth(concept: Concept) -> int:
    """Maximum nesting depth of the AST."""
    return 1 + max(map(depth, parts(concept)[0]), default=0)


def max_var_excess(concept: Concept, binders: int = 0) -> int:
    """How far variable references reach beyond the available binders.

    0 means every reference resolves to a binder or the implicit target;
    anything positive is an unbound reference.
    """
    children, binds, refs, _reads_set = parts(concept)
    inner = binders + binds
    return max(
        [0, *(ref - binders for ref in refs), *(max_var_excess(c, inner) for c in children)]
    )


def is_target_only(concept: Concept) -> bool:
    """True when the concept's truth value depends only on the target object.

    Holds when no node reads the set and every reference is the target;
    used to shortcut equivalence checking to single-object contexts.
    """
    children, _binds, refs, reads_set = parts(concept)
    return not reads_set and all(ref == 0 for ref in refs) and all(map(is_target_only, children))


def _resolve(var: int, env: tuple[int, ...], target: int) -> int:
    if var < len(env):
        return env[var]
    if var == len(env):
        return target
    raise UnboundVariableError(f"variable {var} unbound under {len(env)} binder(s)")


def _eval(concept: Concept, objects: tuple[Obj, ...], target: int, env: tuple[int, ...]) -> bool:
    if isinstance(concept, FeatureIs):
        obj = objects[_resolve(concept.var, env, target)]
        if concept.dim == "size":
            return obj.size == concept.value
        if concept.dim == "color":
            return obj.color == concept.value
        return obj.shape == concept.value
    if isinstance(concept, And):
        return _eval(concept.left, objects, target, env) and _eval(concept.right, objects, target, env)
    if isinstance(concept, Or):
        return _eval(concept.left, objects, target, env) or _eval(concept.right, objects, target, env)
    if isinstance(concept, Not):
        return not _eval(concept.body, objects, target, env)
    if isinstance(concept, Quant):
        positions = range(len(objects))
        if concept.scope == "others":
            positions = (i for i in positions if i != target)
        body = concept.body
        if concept.kind == "exists":
            return any(_eval(body, objects, target, (i,) + env) for i in positions)
        if concept.kind == "forall":
            return all(_eval(body, objects, target, (i,) + env) for i in positions)
        count = 0
        for i in positions:
            if _eval(body, objects, target, (i,) + env):
                count += 1
                if count > 1:
                    return False
        return count == 1
    if isinstance(concept, Rel):
        a = objects[_resolve(concept.left, env, target)]
        b = objects[_resolve(concept.right, env, target)]
        kind = concept.kind
        if kind == "same-color":
            return a.color == b.color
        if kind == "same-shape":
            return a.shape == b.shape
        if kind == "same-size":
            return a.size == b.size
        if kind == "size-gt":
            return a.size > b.size
        return a.size >= b.size
    if isinstance(concept, Xor):
        return _eval(concept.left, objects, target, env) != _eval(concept.right, objects, target, env)
    if isinstance(concept, Implies):
        return (not _eval(concept.left, objects, target, env)) or _eval(concept.right, objects, target, env)
    if isinstance(concept, Iff):
        return _eval(concept.left, objects, target, env) == _eval(concept.right, objects, target, env)
    if isinstance(concept, (MajorityColor, MinorityColor)):
        mine = objects[_resolve(concept.var, env, target)].color
        counts = Counter(o.color for o in objects)
        my_count = counts[mine]
        if isinstance(concept, MajorityColor):
            return all(my_count > n for color, n in counts.items() if color != mine)
        return all(my_count < n for color, n in counts.items() if color != mine)
    raise DslError(f"not a concept node: {concept!r}")


def evaluate(concept: Concept, ctx: Context) -> bool:
    """Truth value of ``concept`` for the target object of ``ctx``.

    Pure and total on well-formed inputs.
    """
    return _eval(concept, ctx.objects, ctx.target, ())
