"""Parsing, printing, and the round-trip contract."""

import json

import pytest
from hypothesis import given, settings

from conftest import concept_strategy
from rulelab.catalog import ALTERNATE_VOCAB, DEFAULT_VOCAB as V
from rulelab.dsl import (
    ConceptSyntaxError,
    DslError,
    FeatureIs,
    Not,
    Quant,
    UnboundVariableError,
    Xor,
    load_vocab,
    parse_concept,
    print_concept,
    save_vocab,
)


def test_parse_not_circle():
    concept = parse_concept("(not (is-shape circle))", V)
    assert concept == Not(FeatureIs("shape", V.index("shape", "circle")))


def test_parse_xor():
    concept = parse_concept("(xor (is-shape circle) (is-color blue))", V)
    assert isinstance(concept, Xor)
    assert isinstance(concept.left, FeatureIs) and isinstance(concept.right, FeatureIs)


def test_parse_quantified_comparison():
    concept = parse_concept("(exists others (and (same-shape 0 1) (is-color yellow 0)))", V)
    assert isinstance(concept, Quant)
    assert concept.kind == "exists" and concept.scope == "others"


def test_syntax_error_reports_position():
    with pytest.raises(ConceptSyntaxError) as excinfo:
        parse_concept("(and (is-color blue)", V)
    assert excinfo.value.position == len("(and (is-color blue)")


def test_unknown_operator_position():
    with pytest.raises(ConceptSyntaxError) as excinfo:
        parse_concept("(nope (is-color blue))", V)
    assert excinfo.value.position == 1


def test_unknown_feature_value():
    with pytest.raises(DslError, match="unknown color"):
        parse_concept("(is-color purple)", V)


def test_unbound_variable():
    with pytest.raises(UnboundVariableError):
        parse_concept("(is-color blue 1)", V)
    with pytest.raises(UnboundVariableError):
        parse_concept("(exists others (same-color 0 2))", V)
    # One binder: 0 is the bound object, 1 the target; both fine.
    parse_concept("(exists others (same-color 0 1))", V)


@pytest.mark.parametrize("index", ["²", "1²", "⁰", "①", "9" * 5000], ids=[
    "superscript-two", "one-superscript-two", "superscript-zero", "circled-one", "5000-digits",
])
def test_a_variable_index_int_cannot_read_is_a_syntax_error(index):
    # Each passes str.isdigit() (the long one is past int()'s digit limit).
    with pytest.raises(ConceptSyntaxError, match="expected a variable index"):
        parse_concept(f"(exists others (same-color 0 {index}))", V)


def test_trailing_input_rejected():
    with pytest.raises(ConceptSyntaxError):
        parse_concept("(is-color blue) (is-color green)", V)


def test_arity_is_strict():
    with pytest.raises(ConceptSyntaxError):
        parse_concept("(and (is-color blue) (is-color green) (is-color yellow))", V)


@settings(max_examples=300, deadline=None)
@given(concept_strategy(max_budget=9))
def test_round_trip(concept):
    assert parse_concept(print_concept(concept, V), V) == concept


def test_default_var_prints_compactly():
    concept = parse_concept("(exists others (is-color yellow 0))", V)
    assert print_concept(concept, V) == "(exists others (is-color yellow))"
    assert parse_concept(print_concept(concept, V), V) == concept


def test_alternate_vocab_parses_its_own_values():
    concept = parse_concept("(and (is-color red) (is-shape square))", ALTERNATE_VOCAB)
    assert print_concept(concept, ALTERNATE_VOCAB) == "(and (is-color red) (is-shape square))"
    with pytest.raises(DslError):
        parse_concept("(is-color red)", V)


def test_vocab_json_roundtrip(tmp_path):
    path = tmp_path / "vocab.json"
    save_vocab(ALTERNATE_VOCAB, path)
    assert load_vocab(path) == ALTERNATE_VOCAB
    doc = json.loads(path.read_text())
    assert set(doc) == {"sizes", "colors", "shapes"}
