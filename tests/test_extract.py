"""Label extraction and probability normalization."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulelab.harness import (
    DegenerateMassError,
    extract_labels,
    label_token_family,
    true_probability,
)


def test_token_family_variants():
    assert label_token_family(" true") is True
    assert label_token_family("TRUE") is True
    assert label_token_family("False ") is False
    assert label_token_family(" fAlSe") is False
    assert label_token_family("Maybe") is None
    assert label_token_family("truthy") is None


def test_completion_accepts_variants():
    result = extract_labels(" true", ["small blue circle"], "completion")
    assert result.labels == [True] and not result.exclusions


def test_completion_excludes_non_boolean():
    result = extract_labels("Maybe", ["small blue circle"], "completion")
    assert result.labels == [None]
    assert [(e.object_index, e.reason) for e in result.exclusions] == [
        (0, "non-boolean completion")
    ]


def test_completion_takes_first_line():
    result = extract_labels(" False\nGroup 3:\n- whatever", ["small blue circle"], "completion")
    assert result.labels == [False]


def test_chat_aligns_by_description():
    objects = ["large green rectangle", "small blue triangle"]
    response = (
        "- large green rectangle -> False\n"
        "- small blue triangle -> True\n"
    )
    result = extract_labels(response, objects, "chat")
    assert result.labels == [False, True] and not result.exclusions


def test_chat_handles_reordered_lines():
    objects = ["large green rectangle", "small blue triangle"]
    response = (
        "- small blue triangle -> True\n"
        "- large green rectangle -> False\n"
    )
    assert extract_labels(response, objects, "chat").labels == [False, True]


def test_chat_handles_duplicate_objects_in_order():
    objects = ["small yellow rectangle", "small yellow rectangle"]
    response = (
        "- small yellow rectangle -> True\n"
        "- small yellow rectangle -> False\n"
    )
    assert extract_labels(response, objects, "chat").labels == [True, False]


def test_chat_excludes_mismatched_objects():
    objects = ["large green rectangle", "small blue triangle"]
    response = (
        "- large purple pentagon -> True\n"
        "- small blue triangle -> False\n"
    )
    result = extract_labels(response, objects, "chat")
    assert result.labels == [None, False]
    assert [(e.object_index, e.reason) for e in result.exclusions] == [(0, "object-mismatch")]


def test_chat_excludes_abstentions_and_non_boolean():
    objects = ["large green rectangle", "small blue triangle"]
    response = "- large green rectangle -> hard to say\n"
    result = extract_labels(response, objects, "chat")
    assert result.labels == [None, None]
    assert {(e.object_index, e.reason) for e in result.exclusions} == {
        (0, "non-boolean label"),
        (1, "object-mismatch"),
    }


def test_exclusion_accounting_balances():
    objects = ["a b c", "d e f", "g h i"]
    response = "- a b c -> True\n- x y z -> False\n"
    result = extract_labels(response, objects, "chat")
    labeled = sum(label is not None for label in result.labels)
    assert labeled + len(result.exclusions) == len(objects)


def test_rule_line_extracted_and_skipped():
    objects = ["large green rectangle"]
    response = (
        "Rule: the object is blue\n"
        "- large green rectangle -> False\n"
    )
    result = extract_labels(response, objects, "chat+elicitation")
    assert result.rule_text == "the object is blue"
    assert result.labels == [False]


def test_rule_line_may_follow_labels():
    objects = ["large green rectangle"]
    response = "- large green rectangle -> False\nRule: not blue\n"
    result = extract_labels(response, objects, "chat+elicitation")
    assert result.rule_text == "not blue"
    assert result.labels == [False]


def test_numbered_and_starred_lines_accepted():
    objects = ["large green rectangle"]
    response = "1. large green   rectangle -> FALSE\n"
    assert extract_labels(response, objects, "chat").labels == [False]
    response = "* Large Green Rectangle ->  true\n"
    assert extract_labels(response, objects, "chat").labels == [True]


def test_true_probability_normalizes_single_family():
    assert true_probability({" True": math.log(0.9)}) == 1.0


def test_true_probability_examples():
    assert true_probability(
        {" True": math.log(0.6), " False": math.log(0.2)}
    ) == pytest.approx(0.75)
    variants = {"True": math.log(0.3), "true": math.log(0.3), "False": math.log(0.2)}
    assert true_probability(variants) == pytest.approx(0.75)


def test_true_probability_ignores_other_tokens():
    top = {"The": math.log(0.5), " True": math.log(0.25), "False": math.log(0.25)}
    assert true_probability(top) == pytest.approx(0.5)


def test_true_probability_degenerate():
    with pytest.raises(DegenerateMassError):
        true_probability({"The": math.log(0.5), "Maybe": math.log(0.5)})


@settings(max_examples=200)
@given(st.floats(-20, 0), st.floats(-20, 0))
def test_true_probability_complement(log_true, log_false):
    p = true_probability({"True": log_true, "False": log_false})
    q = true_probability({"True": log_false, "False": log_true})
    assert 0.0 <= p <= 1.0
    assert p == pytest.approx(1.0 - q, abs=1e-12)
