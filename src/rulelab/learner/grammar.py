"""Weighted context-free grammars over concept templates.

A production rewrites a nonterminal into a concept fragment whose unexpanded
nonterminals appear as :class:`Hole` leaves, e.g. ``S -> (and S S)``.
Hypotheses are derivation trees: one production application per node, with
one child derivation per hole.  The prior of a derivation is the product of
its production probabilities (weights normalized per nonterminal).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import partial
from math import inf, isfinite, log
from pathlib import Path

from ..dsl import (
    Concept,
    DslError,
    FeatureVocab,
    UnboundVariableError,
    max_var_excess,
    parts,
    rebuild,
)
from ..dsl.core import Hole, head
from ..dsl.sexpr import parse_template
from ..exemplars.lists import write_json


class GrammarError(DslError):
    pass


class HypothesisBudgetError(GrammarError):
    """Enumeration would produce more hypotheses than the caller allows."""


@dataclass(frozen=True)
class Production:
    """The rule ``lhs -> template`` with its weight, compiled once when it
    is made: one walk of the template (:func:`_compile`) gives

    - ``holes``: (nonterminal, binder depth) per hole, left to right;
    - ``skeleton_size``: the concept nodes it contributes by itself;
    - ``build(*fills)``: its concept with its holes filled, left to right,
      which MH makes its concepts with.

    Its hash leaves out the template, which its source names, so a lookup
    by production hashes no concept.  Its weight must be an ``int`` or a
    ``float``, not a ``bool``, finite and > 0, and is kept as a ``float``:
    any other raises :class:`GrammarError` naming the production.
    """

    lhs: str
    source: str
    template: Concept = field(hash=False)
    weight: float

    def __post_init__(self):
        weight = self.weight
        if isinstance(weight, bool) or not isinstance(weight, (int, float)):
            raise GrammarError(f"production {self.lhs} -> {self.source!r} has weight "
                               f"{weight!r}, not a number")
        try:
            weight = float(weight)
        except OverflowError:  # an integer past the floats: infinite
            weight = inf
        if not (isfinite(weight) and weight > 0):
            raise GrammarError(f"production {self.lhs} -> {self.source!r} has weight "
                               f"{weight}, not a finite number > 0")
        object.__setattr__(self, "weight", weight)
        holes, nodes = [], []
        build = _compile(self.template, 0, holes, nodes)
        if len(nodes) == 1 and holes:  # one node over its holes: its constructor, not a walk
            build = partial(type(self.template), *head(self.template))
        object.__setattr__(self, "holes", tuple(holes))
        object.__setattr__(self, "skeleton_size", len(nodes))
        object.__setattr__(self, "build", build)


def _compile(node: Concept, depth: int, holes: list[tuple[str, int]], nodes: list[Concept]):
    """``build(*fills)`` of the template ``node`` under ``depth`` binders:
    its concept made from the fills of its holes, left to right.  Each hole
    is appended to ``holes`` as (nonterminal, binder depth), and each other
    node to ``nodes``."""
    if isinstance(node, Hole):
        holes.append((node.nonterminal, depth))
        i = len(holes) - 1
        return lambda *fills: fills[i]
    nodes.append(node)
    first = len(holes)
    children, binds, _refs, _reads_set = parts(node)
    builds = [_compile(child, depth + binds, holes, nodes) for child in children]
    if len(holes) == first:  # no holes below: the node itself
        return lambda *fills: node
    return lambda *fills: rebuild(node, [build(*fills) for build in builds])


@dataclass(frozen=True)
class Grammar:
    start: str
    productions: tuple[Production, ...]
    vocab: FeatureVocab

    def __post_init__(self):
        by_lhs: dict[str, list[Production]] = {}
        for production in self.productions:
            by_lhs.setdefault(production.lhs, []).append(production)
        if self.start not in by_lhs:
            raise GrammarError(f"start symbol {self.start!r} has no productions")
        for production in self.productions:
            for nonterminal, _depth in production.holes:
                if nonterminal not in by_lhs:
                    raise GrammarError(
                        f"nonterminal {nonterminal!r} in {production.source!r} has no productions"
                    )
        object.__setattr__(self, "_by_lhs", {k: tuple(v) for k, v in by_lhs.items()})
        object.__setattr__(
            self,
            "_log_probs",
            {
                production: log(production.weight / sum(p.weight for p in by_lhs[production.lhs]))
                for production in self.productions
            },
        )
        object.__setattr__(self, "_min_sizes", self._compute_min_sizes())
        self._check_variable_scopes()

    def productions_for(self, nonterminal: str) -> tuple[Production, ...]:
        try:
            return self._by_lhs[nonterminal]
        except KeyError:
            raise GrammarError(f"unknown nonterminal {nonterminal!r}") from None

    def log_probability(self, production: Production) -> float:
        return self._log_probs[production]

    def min_size(self, nonterminal: str) -> int:
        return self._min_sizes[nonterminal]

    def check_max_size(self, max_size: int | None) -> None:
        """Raise :class:`GrammarError` when no concept the grammar derives
        has at most ``max_size`` nodes (None: no bound)."""
        if max_size is not None and max_size < self.min_size(self.start):
            raise GrammarError(f"max_size {max_size} is below {self.min_size(self.start)}, the "
                               "size of the smallest concept the grammar derives")

    def _compute_min_sizes(self) -> dict[str, int]:
        sizes = {nt: None for nt in self._by_lhs}
        changed = True
        while changed:
            changed = False
            for nt, productions in self._by_lhs.items():
                for production in productions:
                    child_sizes = [sizes[h] for h, _d in production.holes]
                    if any(s is None for s in child_sizes):
                        continue
                    candidate = production.skeleton_size + sum(child_sizes)
                    if sizes[nt] is None or candidate < sizes[nt]:
                        sizes[nt] = candidate
                        changed = True
        dead = [nt for nt, s in sizes.items() if s is None]
        if dead:
            raise GrammarError(f"nonterminals {dead} cannot derive any finite concept")
        return sizes

    def _check_variable_scopes(self):
        # Minimum binder depth at which each nonterminal can occur, starting
        # from the start symbol at depth 0 (target only).  A var reference is
        # well-formed at the minimum depth iff it is well-formed at every
        # reachable depth, since extra binders only add resolvable indices.
        min_depth = {self.start: 0}
        frontier = [self.start]
        while frontier:
            nt = frontier.pop()
            for production in self._by_lhs[nt]:
                for child, local_depth in production.holes:
                    candidate = min_depth[nt] + local_depth
                    if child not in min_depth or candidate < min_depth[child]:
                        min_depth[child] = candidate
                        frontier.append(child)
        for production in self.productions:
            if production.lhs not in min_depth:
                continue  # unreachable from start; harmless
            # How many binders outside the template its references need.
            reach = max_var_excess(production.template)
            if reach > min_depth[production.lhs]:
                raise UnboundVariableError(
                    f"production {production.lhs} -> {production.source!r} references a "
                    f"variable {reach} binder(s) beyond what its shallowest use provides"
                )


@dataclass(frozen=True)
class Derivation:
    production: Production
    children: tuple["Derivation", ...]

    def concept(self) -> Concept:
        """The derived concept, built by each production's ``build``."""
        return self.production.build(*[child.concept() for child in self.children])

    def concept_size(self) -> int:
        return self.production.skeleton_size + sum(c.concept_size() for c in self.children)

    def n_applications(self) -> int:
        return 1 + sum(c.n_applications() for c in self.children)


MAX_DEPTH = 80  # nested production applications in one sampled derivation


def sample_derivation(
    grammar: Grammar,
    rng: random.Random,
    nonterminal: str | None = None,
) -> Derivation:
    """Draw a derivation from the grammar's prior.

    Recursion deeper than :data:`MAX_DEPTH` restarts the draw; restarts consume
    randomness deterministically, so equal seeds still give equal samples.
    """
    nt = grammar.start if nonterminal is None else nonterminal

    def draw(symbol: str, depth: int) -> Derivation:
        if depth > MAX_DEPTH:
            raise _TooDeep()
        productions = grammar.productions_for(symbol)
        weights = [p.weight for p in productions]
        production = rng.choices(productions, weights=weights)[0]
        children = tuple(draw(child, depth + 1) for child, _d in production.holes)
        return Derivation(production, children)

    while True:
        try:
            return draw(nt, 0)
        except _TooDeep:
            continue


class _TooDeep(Exception):
    pass


def default_grammar(vocab: FeatureVocab) -> Grammar:
    """The stock hypothesis grammar: Boolean connectives over the target's
    features plus single quantification over the other objects, with uniform
    per-nonterminal weights."""
    s_templates = []
    q_templates = []
    for dim in ("size", "color", "shape"):
        for value in vocab.values(dim):
            s_templates.append(f"(is-{dim} {value})")
            q_templates.append(f"(is-{dim} {value} 0)")
    s_templates += ["(majority-color)", "(minority-color)"]
    s_templates += ["(not S)", "(and S S)", "(or S S)", "(xor S S)", "(implies S S)", "(iff S S)"]
    s_templates += ["(exists others Q)", "(forall others Q)", "(exactly-one others Q)"]
    q_templates += [
        "(same-color 0 1)",
        "(same-shape 0 1)",
        "(same-size 0 1)",
        "(size-gt 0 1)",
        "(size-ge 0 1)",
        "(size-gt 1 0)",
        "(size-ge 1 0)",
    ]
    q_templates += ["(not Q)", "(and Q Q)", "(or Q Q)"]
    productions = [("S", t) for t in s_templates] + [("Q", t) for t in q_templates]
    return grammar_from_pairs("S", productions, vocab)


def grammar_from_pairs(
    start: str,
    pairs: list[tuple[str, str]] | list[tuple[str, str, float]],
    vocab: FeatureVocab,
) -> Grammar:
    """Build a grammar from (lhs, template[, weight]) rows; weight defaults to 1."""
    rows = [(p[0], p[1], p[2] if len(p) > 2 else 1.0) for p in pairs]
    productions = tuple(
        Production(lhs, source, parse_template(source, vocab), weight)
        for lhs, source, weight in rows
    )
    return Grammar(start=start, productions=productions, vocab=vocab)


def load_grammar(path: str | Path, vocab: FeatureVocab) -> Grammar:
    """Read a grammar JSON document:
    {"start": ..., "productions": [{"lhs", "template", "weight"}, ...]}.
    A weight, 1 when it is left out, must be a JSON number: a boolean or a
    string raises :class:`GrammarError` naming its production."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    pairs = [(row["lhs"], row["template"], row.get("weight", 1.0)) for row in doc["productions"]]
    return grammar_from_pairs(doc["start"], pairs, vocab)


def save_grammar(grammar: Grammar, path: str | Path) -> None:
    doc = {
        "start": grammar.start,
        "productions": [
            {"lhs": p.lhs, "template": p.source, "weight": p.weight}
            for p in grammar.productions
        ],
    }
    write_json(path, doc)
