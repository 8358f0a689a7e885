"""Which stages of a pass repeat, how often, and the time that counts."""

import statistics

import pipeline
from pipeline import MAX_RUNS, MIN_RUNS, REPEAT_BELOW_S, Rounds, StageResult

LONG = REPEAT_BELOW_S + 1.0


def _stage(name, times, returncode=0):
    runs = iter(times)
    return lambda: StageResult(name, next(runs), returncode)


def _finish(rounds):
    return {s.name: s for s in rounds.finish()}


def test_short_stages_repeat_to_min_runs_and_count_their_median():
    rounds = Rounds(True, 0.0)
    short = [1.0, 3.0, 2.0, 5.0, 4.0, 6.0, 7.0, 8.0, 9.0]
    rounds.stage("short", _stage("short", short))
    rounds.stage("long", _stage("long", [LONG]))
    rounds.stage("late", _stage("late", [0.5] * MAX_RUNS))
    stages = _finish(rounds)
    assert stages["short"].runs == short[:MIN_RUNS]
    assert stages["short"].seconds == statistics.median(short[:MIN_RUNS])
    assert len(stages["late"].runs) == MIN_RUNS
    assert stages["long"].runs == [LONG]


def test_round_after_a_long_stage_and_late_stages_catch_up(monkeypatch):
    monkeypatch.setattr(pipeline, "ROUND_GAP_S", 0.0)
    rounds = Rounds(True, 0.0)
    rounds.stage("short", _stage("short", [1.0] * MAX_RUNS))
    rounds.stage("long", _stage("long", [LONG]))
    rounds.stage("late", _stage("late", [1.0] * MAX_RUNS))
    stages = _finish(rounds)
    assert len(stages["short"].runs) == MIN_RUNS + 1
    assert len(stages["late"].runs) == MIN_RUNS


def test_rounds_fill_the_seconds_up_to_max_runs():
    rounds = Rounds(True, 3600.0)
    rounds.stage("short", _stage("short", [1.0] * MAX_RUNS))
    assert len(_finish(rounds)["short"].runs) == MAX_RUNS


def test_failed_and_in_process_stages_run_once():
    rounds = Rounds(True, 0.0)
    rounds.stage("failed", _stage("failed", [1.0], returncode=1))
    assert _finish(rounds)["failed"].runs == [1.0]
    rounds = Rounds(False, 3600.0)
    rounds.stage("short", _stage("short", [1.0]))
    assert _finish(rounds)["short"].runs == [1.0]
