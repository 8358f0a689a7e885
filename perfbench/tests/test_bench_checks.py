"""The output checks catch each kind of mismatch."""

import copy
import json

import pytest

from checks import P_TRUE_TOLERANCE, CheckLog, check_llm_phase, compare


def _reference():
    return {
        "map": {"r": {"per_set": ["(is-color blue)"], "final": "(is-color blue)"}},
        "series": {"r": {"model": [True, None], "p_true": [0.9, 0.4]}},
        "grading": {
            "verdicts": {"r": ["1", "True", "True"]},
            "match_rate": 1.0,
            "equivalence_rate": 1.0,
            "unparseable": 0,
        },
        "summary_cohorts": ["human", "plot"],
        "fit": [0.75, 1.0],
    }


def test_identical_outputs_pass():
    log = CheckLog()
    compare(log, _reference(), _reference())
    assert log.attempted == 8 and not log.failures


def _set(doc, path, value):
    *head, last = path
    for key in head:
        doc = doc[key]
    doc[last] = value


@pytest.mark.parametrize(
    "path, value",
    [
        (("map", "r", "per_set"), ["(is-color green)"]),
        (("series", "r", "model"), [False, None]),
        (("series", "r", "p_true"), [0.9 + 2 * P_TRUE_TOLERANCE, 0.4]),
        (("grading", "verdicts", "r"), ["0.5", "False", "False"]),
        (("grading", "equivalence_rate"), 0.0),
        (("summary_cohorts",), ["plot"]),
        (("fit",), [0.8, 1.0]),
    ],
)
def test_each_mismatch_fails_one_check(path, value):
    seen = copy.deepcopy(_reference())
    _set(seen, path, value)
    log = CheckLog()
    compare(log, seen, _reference())
    assert len(log.failures) == 1


def test_p_true_within_tolerance_passes():
    seen = _reference()
    seen["series"]["r"]["p_true"][0] += P_TRUE_TOLERANCE / 2
    log = CheckLog()
    compare(log, seen, _reference())
    assert not log.failures


def _transcripts(tmp_path, labels):
    directory = tmp_path / "out" / "transcripts" / "oracle"
    directory.mkdir(parents=True, exist_ok=True)
    (tmp_path / "out" / "lists").mkdir(exist_ok=True)
    (tmp_path / "out" / "lists" / "r.json").write_text(json.dumps({"sets": [{"objects": [1, 2]}]}))
    entry = {"set_index": 0, "labels": labels, "exclusions": [{"object_index": 1}] if None in labels else []}
    (directory / "r.json").write_text(json.dumps({"sets": [entry]}))
    return directory


def test_llm_phases_pass_when_replay_matches(tmp_path):
    directory = _transcripts(tmp_path, [True, None])
    log = CheckLog()
    cold = check_llm_phase(log, "cold", {"failed": 0, "sessions": 1, "requests": 1}, directory, None)
    check_llm_phase(log, "replay", {"failed": 0, "sessions": 1, "requests": 0}, directory, cold)
    assert not log.failures


def test_llm_phases_catch_requests_and_changed_transcripts(tmp_path):
    directory = _transcripts(tmp_path, [True, False])
    log = CheckLog()
    cold = check_llm_phase(log, "cold", {"failed": 0, "sessions": 1, "requests": 1}, directory, None)
    _transcripts(tmp_path, [False, False])
    check_llm_phase(log, "replay", {"failed": 0, "sessions": 1, "requests": 1}, directory, cold)
    assert [name for name, _ok, _detail in log.failures] == [
        "replay: no requests", "replay: transcripts identical to cold",
    ]


def test_llm_cold_catches_unaccounted_objects(tmp_path):
    directory = _transcripts(tmp_path, [True])
    log = CheckLog()
    check_llm_phase(log, "cold", {"failed": 0, "sessions": 1, "requests": 1}, directory, None)
    assert [name for name, _ok, _detail in log.failures] == ["cold: labelled + excluded = queried [r.json]"]
