"""Concrete syntax for concepts: parenthesized prefix expressions.

Grammar, by head keyword:

    (is-size SIZE [VAR])      (is-color COLOR [VAR])   (is-shape SHAPE [VAR])
    (not C)                   (and C C) (or C C) (xor C C)
    (implies C C)             (iff C C)
    (exists SCOPE C)          (forall SCOPE C)         (exactly-one SCOPE C)
    (same-color VAR VAR)      (same-shape VAR VAR)     (same-size VAR VAR)
    (size-gt VAR VAR)         (size-ge VAR VAR)
    (majority-color [VAR])    (minority-color [VAR])

SCOPE is ``others`` or ``all``; VAR is a non-negative de Bruijn index and
defaults to 0 where optional.  ``#`` starts a comment running to end of line.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

from .core import (
    ATOM,
    And,
    Concept,
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
    QUANT_KINDS,
    QUANT_SCOPES,
    REL_KINDS,
)

_TOKEN_RE = re.compile(rf"[()]|{ATOM.pattern}|#[^\n]*")

_BINARY = {"and": And, "or": Or, "xor": Xor, "implies": Implies, "iff": Iff}
_FEATURE_HEADS = {"is-size": "size", "is-color": "color", "is-shape": "shape"}


class ConceptSyntaxError(DslError):
    """Malformed concept source; ``position`` is a character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


@dataclass(frozen=True)
class _Token:
    text: str
    position: int


def _tokenize(text: str) -> list[_Token]:
    return [
        _Token(m.group(), m.start())
        for m in _TOKEN_RE.finditer(text)
        if not m.group().startswith("#")
    ]


class _Parser:
    def __init__(self, text: str, vocab: FeatureVocab, template_mode: bool = False):
        self.text = text
        self.vocab = vocab
        self.template_mode = template_mode
        self.tokens = _tokenize(text)
        self.pos = 0

    def _peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self, expectation: str) -> _Token:
        token = self._peek()
        if token is None:
            raise ConceptSyntaxError(f"expected {expectation}, found end of input", len(self.text))
        self.pos += 1
        return token

    def _var(self, token: _Token) -> int:
        # isdigit() also holds for digits int() refuses, such as superscripts;
        # int() also refuses a decimal past the interpreter's digit limit.
        if token.text.isdecimal():
            try:
                return int(token.text)
            except ValueError:
                pass
        raise ConceptSyntaxError(
            f"expected a variable index, found {token.text!r}", token.position
        )

    def _optional_var(self) -> int:
        token = self._peek()
        if token is not None and token.text not in ("(", ")"):
            return self._var(self._next("variable index"))
        return 0

    def parse(self, depth: int) -> Concept:
        token = self._next("a concept")
        if token.text == ")":
            raise ConceptSyntaxError("unexpected ')'", token.position)
        if token.text != "(":
            if self.template_mode:
                # A bare atom in concept position names a grammar
                # nonterminal; grammar validation rejects unknown ones.
                return Hole(token.text)
            raise ConceptSyntaxError(
                f"expected '(' opening a concept, found {token.text!r}", token.position
            )
        head = self._next("an operator keyword")
        concept = self._dispatch(head, depth)
        closer = self._next("')'")
        if closer.text != ")":
            raise ConceptSyntaxError(
                f"expected ')', found {closer.text!r}", closer.position
            )
        return concept

    def _dispatch(self, head: _Token, depth: int) -> Concept:
        word = head.text
        if word in _FEATURE_HEADS:
            dim = _FEATURE_HEADS[word]
            value_tok = self._next(f"a {dim} value")
            value = self.vocab.index(dim, value_tok.text)
            var = self._optional_var()
            self._check_var(var, depth, head)
            return FeatureIs(dim, value, var)
        if word == "not":
            return Not(self.parse(depth))
        if word in _BINARY:
            left = self.parse(depth)
            right = self.parse(depth)
            return _BINARY[word](left, right)
        if word in QUANT_KINDS:
            scope_tok = self._next("a quantifier scope")
            if scope_tok.text not in QUANT_SCOPES:
                raise ConceptSyntaxError(
                    f"quantifier scope must be one of {QUANT_SCOPES}, found {scope_tok.text!r}",
                    scope_tok.position,
                )
            return Quant(word, scope_tok.text, self.parse(depth + 1))
        if word in REL_KINDS:
            left = self._var(self._next("variable index"))
            right = self._var(self._next("variable index"))
            self._check_var(left, depth, head)
            self._check_var(right, depth, head)
            return Rel(word, left, right)
        if word in ("majority-color", "minority-color"):
            var = self._optional_var()
            self._check_var(var, depth, head)
            node = MajorityColor if word == "majority-color" else MinorityColor
            return node(var)
        raise ConceptSyntaxError(f"unknown operator {word!r}", head.position)

    def _check_var(self, var: int, depth: int, near: _Token):
        # Valid refs are 0..depth: binders first, then the implicit target.
        # Templates defer this check to grammar validation.
        if not self.template_mode and var > depth:
            raise UnboundVariableError(
                f"variable {var} unbound under {depth} binder(s) (at offset {near.position})"
            )

    def finish(self) -> None:
        token = self._peek()
        if token is not None:
            raise ConceptSyntaxError(f"trailing input {token.text!r}", token.position)


def parse_concept(text: str, vocab: FeatureVocab) -> Concept:
    """Parse one concept from source text.

    Raises :class:`ConceptSyntaxError` for malformed input and
    :class:`UnboundVariableError` for out-of-scope variable references;
    unknown feature values raise :class:`DslError`.
    """
    parser = _Parser(text, vocab)
    concept = parser.parse(depth=0)
    parser.finish()
    return concept


def parse_template(text: str, vocab: FeatureVocab) -> Concept:
    """Parse a concept fragment in which bare atoms in concept position
    stand for unexpanded grammar nonterminals.  Variable-scope checks are
    deferred to grammar validation."""
    parser = _Parser(text, vocab, template_mode=True)
    concept = parser.parse(depth=0)
    parser.finish()
    return concept


def print_concept(concept: Concept, vocab: FeatureVocab) -> str:
    """Canonical source text; re-parsing it yields a structurally equal AST
    (a template, with its holes, through :func:`parse_template`)."""
    if isinstance(concept, FeatureIs):
        name = vocab.values(concept.dim)[concept.value]
        suffix = f" {concept.var}" if concept.var else ""
        return f"(is-{concept.dim} {name}{suffix})"
    if isinstance(concept, Not):
        return f"(not {print_concept(concept.body, vocab)})"
    for word, node in _BINARY.items():
        if isinstance(concept, node):
            return (
                f"({word} {print_concept(concept.left, vocab)}"
                f" {print_concept(concept.right, vocab)})"
            )
    if isinstance(concept, Quant):
        return f"({concept.kind} {concept.scope} {print_concept(concept.body, vocab)})"
    if isinstance(concept, Rel):
        return f"({concept.kind} {concept.left} {concept.right})"
    if isinstance(concept, MajorityColor):
        return f"(majority-color {concept.var})" if concept.var else "(majority-color)"
    if isinstance(concept, MinorityColor):
        return f"(minority-color {concept.var})" if concept.var else "(minority-color)"
    if isinstance(concept, Hole):  # a template's hole: its nonterminal, as parse_template reads it
        return concept.nonterminal
    raise DslError(f"not a printable concept node: {concept!r}")


def load_vocab(path: str | Path) -> FeatureVocab:
    """Read a vocabulary JSON document {sizes: [], colors: [], shapes: []}.
    Each dimension must be a JSON list of values that :class:`FeatureVocab`
    accepts; anything else raises :class:`DslError`."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    dims = {dim: doc[dim] for dim in ("sizes", "colors", "shapes")}
    for dim, values in dims.items():
        if not isinstance(values, list):
            raise DslError(f"vocab {dim} must be a JSON list, got {values!r}")
    return FeatureVocab(**dims)


def save_vocab(vocab: FeatureVocab, path: str | Path) -> None:
    from ..exemplars.lists import write_json  # exemplars.lists imports dsl

    doc = {"sizes": list(vocab.sizes), "colors": list(vocab.colors), "shapes": list(vocab.shapes)}
    write_json(path, doc)
