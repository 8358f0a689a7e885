"""Subject preprocessing, answers and proportions in layout order, and baseline
propagation."""

import codecs
import csv
import math
import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import metrics_reference
import subjects_reference
from conftest import seeded_subjects
from rulelab.catalog import DEFAULT_VOCAB as V
from rulelab.dsl import Obj, parse_concept
from rulelab.exemplars import (
    EmptyPoolError,
    ExemplarList,
    ExemplarSet,
    SubjectRecord,
    filter_subjects,
    generate_list,
    human_proportions,
    propagated_baseline,
    read_subject_csv,
    write_subject_csv,
)
from rulelab.metrics import set_trajectory, window_scores

BLUE_INDEX = V.index("color", "blue")


def ten_object_gold() -> ExemplarList:
    """Five sets of two objects (10 objects total), rule = blue."""
    concept = parse_concept("(is-color blue)", V)
    sets = []
    for i in range(5):
        objects = (Obj(0, 0, 0), Obj(1, 1, i % 3))  # one blue, one green
        labels = (True, False)
        sets.append(ExemplarSet(objects, labels))
    return ExemplarList(
        rule_id="blue", source="(is-color blue)", concept=concept, vocab=V, seed=0,
        sets=tuple(sets),
    )


def subject_with_accuracy(subject_id: str, gold: ExemplarList, n_wrong: int) -> SubjectRecord:
    responses = {}
    flipped = 0
    for set_index, object_index, _ctx, label in gold.iter_items():
        response = label
        if flipped < n_wrong:
            response = not label
            flipped += 1
        responses[(set_index, object_index)] = response
    return SubjectRecord(subject_id, gold.rule_id, responses, sets_completed=5)


def test_min_sets_exclusion():
    gold = ten_object_gold()
    short = SubjectRecord("s-short", "blue", {(0, 0): True}, sets_completed=4)
    keepers = [subject_with_accuracy(f"s{i}", gold, 0) for i in range(3)]
    kept, report = filter_subjects([short] + keepers, gold)
    assert [record.subject_id for record in kept] == ["s0", "s1", "s2"]
    assert [(e.subject_id, e.reason) for e in report.exclusions] == [("s-short", "min-sets")]


def test_a_record_of_another_rule_is_refused():
    gold = ten_object_gold()
    records = [subject_with_accuracy(f"s{i}", gold, 0) for i in range(3)]
    stray = SubjectRecord("s-red", "red", {(0, 0): True}, sets_completed=5)
    with pytest.raises(ValueError, match="^subject s-red is for rule 'red', not 'blue'$"):
        filter_subjects(records + [stray], gold)


def test_min_sets_counts_only_the_lists_sets(tmp_path):
    """Sets 0-2 of the five-set list plus sets 30-32, which it lacks: six
    sets in the file, three of the list's."""
    gold = ten_object_gold()
    responses = {(s, o): True for s in (0, 1, 2, 30, 31, 32) for o in (0, 1)}
    keepers = [subject_with_accuracy(f"s{i}", gold, 0) for i in range(3)]
    write_subject_csv([SubjectRecord("s-off-list", "blue", responses, 6)] + keepers,
                      tmp_path / "subjects.csv")
    records = read_subject_csv(tmp_path / "subjects.csv")
    assert [r.sets_completed for r in records if r.subject_id == "s-off-list"] == [6]
    kept, report = filter_subjects(records, gold)
    assert [record.subject_id for record in kept] == ["s0", "s1", "s2"]
    assert [(e.subject_id, e.reason, e.detail) for e in report.exclusions] == [
        ("s-off-list", "min-sets", "completed 3 sets")
    ]


def test_outlier_exclusion_on_planted_pool():
    # Pool accuracies {0.9 x9, 0.1}: mean 0.82, population SD 0.24, so the
    # 0.1 subject sits below the 2-SD bound of 0.34 and is excluded.
    gold = ten_object_gold()
    records = [subject_with_accuracy(f"s{i}", gold, 1) for i in range(9)]
    records.append(subject_with_accuracy("s-out", gold, 9))
    kept, report = filter_subjects(records, gold)
    assert report.pool_mean == pytest.approx(0.82)
    assert report.pool_sd == pytest.approx(0.24)
    assert [(e.subject_id, e.reason) for e in report.exclusions] == [("s-out", "outlier")]
    assert len(kept) == 9


def test_small_pool_keeps_borderline_subject():
    # {0.9 x4, 0.1}: the spread is so wide that 0.1 stays within 2 SD.
    gold = ten_object_gold()
    records = [subject_with_accuracy(f"s{i}", gold, 1) for i in range(4)]
    records.append(subject_with_accuracy("s-low", gold, 9))
    kept, report = filter_subjects(records, gold)
    assert len(kept) == 5
    assert report.exclusions == []


def test_identical_accuracies_never_excluded():
    gold = ten_object_gold()
    records = [subject_with_accuracy(f"s{i}", gold, 2) for i in range(6)]
    kept, report = filter_subjects(records, gold)
    assert len(kept) == 6 and report.exclusions == []
    assert report.pool_sd == pytest.approx(0.0, abs=1e-12)


def test_all_excluded_raises():
    gold = ten_object_gold()
    short = [SubjectRecord(f"s{i}", "blue", {(0, 0): True}, sets_completed=2) for i in range(3)]
    with pytest.raises(EmptyPoolError):
        filter_subjects(short, gold)


def test_single_pass_filtering_is_stable_here():
    # Re-filtering the kept pool removes no one further on this fixture.
    gold = ten_object_gold()
    records = [subject_with_accuracy(f"s{i}", gold, 1) for i in range(9)]
    records.append(subject_with_accuracy("s-out", gold, 9))
    kept, _ = filter_subjects(records, gold)
    kept_again, report = filter_subjects(kept, gold)
    assert kept_again == kept and report.exclusions == []


def test_human_proportions():
    gold = ten_object_gold()
    records = [
        SubjectRecord("a", "blue", {(0, 0): True, (0, 1): False}, 5),
        SubjectRecord("b", "blue", {(0, 0): True}, 5),
        SubjectRecord("c", "blue", {(0, 0): True}, 5),
        SubjectRecord("d", "blue", {(0, 0): False}, 5),
    ]
    proportions = human_proportions(records, gold)  # set s, object o at 2 * s + o
    assert len(proportions) == 10
    assert proportions[0] == 0.75
    assert proportions[1] == 0.0
    assert proportions[7] is None


def test_unanimous_true_is_one():
    gold = ten_object_gold()
    records = [SubjectRecord(s, "blue", {(0, 0): True}, 5) for s in "abc"]
    assert human_proportions(records, gold)[0] == 1.0


def test_proportions_monotone_under_added_true():
    gold = ten_object_gold()
    records = [
        SubjectRecord("a", "blue", {(0, 0): True}, 5),
        SubjectRecord("b", "blue", {(0, 0): False}, 5),
    ]
    before = human_proportions(records, gold)[0]
    records.append(SubjectRecord("c", "blue", {(0, 0): True}, 5))
    after = human_proportions(records, gold)[0]
    assert after > before


def oracle_answers(record: SubjectRecord, gold: ExemplarList) -> list:
    """Each object's answer, set by set, looked up by (set, object)."""
    return [record.responses.get((s, o))
            for s, exemplar_set in enumerate(gold.sets) for o in range(len(exemplar_set.objects))]


def oracle_counts(kept: list[SubjectRecord], gold: ExemplarList) -> tuple[list, list]:
    """Per-(set, object) True and total counts over every response read,
    taken for each object of the list in layout order."""
    n_true, n_total = {}, {}
    for record in kept:
        for key, response in record.responses.items():
            n_true[key] = n_true.get(key, 0) + response
            n_total[key] = n_total.get(key, 0) + 1
    keys = [(s, o) for s, o, _ctx, _label in gold.iter_items()]
    return [n_true.get(key, 0) for key in keys], [n_total.get(key, 0) for key in keys]


def oracle_proportions(kept: list[SubjectRecord], gold: ExemplarList) -> list:
    """Each object's share from its counts, None where its total is 0."""
    return [t / n if n else None for t, n in zip(*oracle_counts(kept, gold))]


@pytest.mark.parametrize("seed", range(6))
def test_answers_and_proportions_are_the_per_object_counts_in_layout_order(seed):
    rng = random.Random(seed)
    gold = generate_list(parse_concept("(is-color blue)", V), V, seed=seed,
                         n_sets=rng.randint(1, 30), rule_id="blue")
    records = seeded_subjects(gold, rng, rng.randint(1, 8))
    for record in records:
        answers = record.answers(gold)
        assert isinstance(answers, tuple) and list(answers) == oracle_answers(record, gold)
        scored = [a == label for a, label in zip(oracle_answers(record, gold), gold.gold)
                  if a is not None]
        if scored:
            assert record.accuracy(gold) == sum(scored) / len(scored)
    proportions = human_proportions(records, gold)
    assert isinstance(proportions, tuple) and len(proportions) == gold.n_objects
    assert list(proportions) == oracle_proportions(records, gold)
    assert (list(proportions.n_true), list(proportions.n_total)) == oracle_counts(records, gold)


def test_human_series_slice_the_answers_by_set():
    """report scores each subject's answers in layout order, set by set:
    the trajectory and window scores equal the per-record walk over each
    subject's series of answers looked up by (set, object)."""
    rng = random.Random(7)
    gold = generate_list(parse_concept("(is-shape circle)", V), V, seed=7, rule_id="circle")
    records = seeded_subjects(gold, rng, 4)
    answers = [record.answers(gold) for record in records]
    series = [metrics_reference.series_of(oracle_answers(r, gold), gold) for r in records]
    for record, one in zip(records, series):
        assert [(r.set_index, r.object_index, r.gold, r.model) for r in one.records] == [
            (s, o, label, record.responses.get((s, o))) for s, o, _ctx, label in gold.iter_items()
        ]
    assert set_trajectory(answers, gold, "human") == metrics_reference.set_trajectory(
        series, "human"
    )
    assert window_scores(answers, gold.gold) == metrics_reference.window_scores(series)


def test_propagated_baseline_single_rule():
    assert propagated_baseline([(0.8, 0.1)]) == (0.8, 0.1)


def test_propagated_baseline_two_rules():
    mean, sd = propagated_baseline([(0.8, 0.1), (0.6, 0.1)])
    assert mean == pytest.approx(0.7)
    assert sd == pytest.approx(math.sqrt(0.02) / 2)


def test_propagated_baseline_zero_sds():
    assert propagated_baseline([(0.5, 0.0), (0.7, 0.0)])[1] == 0.0


def test_subject_csv_roundtrip(tmp_path):
    gold = ten_object_gold()
    records = [subject_with_accuracy("s0", gold, 1), subject_with_accuracy("s1", gold, 0)]
    path = tmp_path / "humans.csv"
    write_subject_csv(records, path)
    loaded = read_subject_csv(path)
    assert loaded == sorted(records, key=lambda r: (r.rule_id, r.subject_id))


def test_a_byte_order_mark_is_read(tmp_path):
    """A spreadsheet's "CSV UTF-8" export starts with a UTF-8 byte-order
    mark; the first column still reads as subject_id.  The writer adds no
    mark."""
    gold = ten_object_gold()
    records = [subject_with_accuracy("s0", gold, 1), subject_with_accuracy("s1", gold, 0)]
    path = tmp_path / "humans.csv"
    write_subject_csv(records, path)
    assert path.read_bytes().startswith(b"subject_id,")
    path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    assert read_subject_csv(path) == records


def test_csv_rejects_non_boolean_response(tmp_path):
    path = tmp_path / "humans.csv"
    path.write_text(
        "subject_id,rule_id,set_index,object_index,response\n" "s0,blue,0,0,maybe\n"
    )
    with pytest.raises(ValueError):
        read_subject_csv(path)


def test_an_interrupted_write_leaves_the_previous_cohort_file(tmp_path):
    """Every row is formatted before the file is touched: a record that
    fails after the first was formatted leaves the previous file, byte for
    byte, rather than a smaller cohort that reads as valid."""
    gold = ten_object_gold()
    path = tmp_path / "humans.csv"
    write_subject_csv([subject_with_accuracy("s0", gold, 0)], path)
    previous = path.read_bytes()
    assert previous.startswith(b"subject_id,rule_id,set_index,object_index,response\r\ns0,blue,0,0,True\r\n")
    broken = SubjectRecord("s2", "blue", None, sets_completed=5)
    with pytest.raises(AttributeError):
        write_subject_csv([subject_with_accuracy("s1", gold, 1), broken], path)
    assert path.read_bytes() == previous
    assert [p.name for p in tmp_path.iterdir()] == ["humans.csv"]


def test_a_second_answer_to_one_object_is_refused(tmp_path):
    path = tmp_path / "humans.csv"
    path.write_text(
        "subject_id,rule_id,set_index,object_index,response\n"
        "s1,blue,0,0,True\n"
        "s1,red,0,0,True\n"
        "s2,blue,0,0,True\n"
        "s1,blue,0,0,False\n"
    )
    with pytest.raises(ValueError, match="subject s1 answers rule 'blue' set 0, object 0 twice"):
        read_subject_csv(path)


_COLUMNS = ("subject_id", "rule_id", "set_index", "object_index", "response")
_TOKENS = ["True", "False", "true", " FALSE", "tRuE ", "false\t"]


@st.composite
def subject_files(draw) -> tuple[bool, list[list[str]]]:
    """A subject file's rows, header first, and whether it starts with a
    byte-order mark: the columns permuted among extra ones (one of them
    sometimes named twice or missing), tokens of either label in any case
    and spacing, blank lines, and now and then a row cut short, an index
    or a token that does not parse, or a second answer to one object."""
    names = list(_COLUMNS)
    if draw(st.integers(0, 9)) == 0:
        names.remove(draw(st.sampled_from(_COLUMNS)))
    names += draw(st.lists(st.sampled_from(["age", "notes", "response", "rule_id"]), max_size=2))
    header = draw(st.permutations(names))
    rows = [header]
    for _ in range(draw(st.integers(0, 12))):
        fault = draw(st.integers(0, 39))  # 0-3: one fault in this row
        values = {
            "subject_id": draw(st.sampled_from(["s0", "s1", "s 2", "s,3"])),
            "rule_id": draw(st.sampled_from(["blue", "not-circle"])),
            "set_index": "x" if fault == 0 else draw(st.sampled_from(["0", "1", "2", " 1"])),
            "object_index": draw(st.sampled_from(["0", "1", "3", "+2"])),
            "response": draw(st.sampled_from(["yes", ""] if fault == 1 else _TOKENS)),
        }
        # A name's last column holds its value, as csv.DictReader reads it.
        last = {name: i for i, name in enumerate(header)}
        row = [values[name] if name in values and last[name] == i
               else draw(st.sampled_from(["", "42", "a,b"])) for i, name in enumerate(header)]
        if fault == 2:
            row = row[:draw(st.integers(0, len(row)))]
        rows.append([] if fault == 3 else row)
    if len(rows) > 1 and draw(st.integers(0, 3)) == 0:  # a second answer, of either label
        again = list(draw(st.sampled_from(rows[1:])))
        if "response" in header and len(again) > header.index("response"):
            again[header.index("response")] = draw(st.sampled_from(_TOKENS))
        rows.insert(draw(st.integers(1, len(rows))), again)
    return draw(st.booleans()), rows


def _outcome(reader, path):
    try:
        return reader(path)
    except (ValueError, KeyError) as error:
        return type(error), str(error)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(subject_files())
# A header that lacks only "response": a row whose other columns parse is
# refused where its response is read.
@example((False, [["notes", "object_index", "set_index", "rule_id", "subject_id"],
                  ["x", "1", "0", "blue", "s1"]]))
def test_the_subject_reader_is_the_dict_reader_oracles(tmp_path, file):
    """Equal records, or the same error with the same message, which the
    commands report as a data error (exit 3)."""
    from rulelab.cli import DataError, _read

    bom, rows = file
    path = tmp_path / "humans.csv"
    with open(path, "w", newline="", encoding="utf-8-sig" if bom else "utf-8") as handle:
        csv.writer(handle).writerows(rows)
    expected = _outcome(subjects_reference.read_subject_csv, path)
    assert _outcome(read_subject_csv, path) == expected
    if isinstance(expected, tuple):
        with pytest.raises(DataError) as raised:
            _read("subject file", path, read_subject_csv, DataError)
        assert str(raised.value).endswith(f"is unreadable: {expected[1]}")
