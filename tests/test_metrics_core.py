"""Accuracy windows, correlation, chance baseline, cross-entropy, series files."""

import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metrics_reference import records_from_sets, write_records
from rulelab.catalog import DEFAULT_VOCAB
from rulelab.dsl import Obj, parse_concept
from rulelab.exemplars import ExemplarList, ExemplarSet, generate_list
from rulelab.learner import (
    NoiseParams,
    build_eval_matrix,
    default_grammar,
    enumerate_hypotheses,
    run_enumerative,
)
from rulelab.metrics import (
    EmptyWindowError,
    LabelSeries,
    ZeroVarianceError,
    accuracy,
    chance_baseline,
    cross_entropy,
    cross_entropy_series,
    last_quarter_count,
    load_series,
    pearson_r,
    r_squared,
    save_series,
)
from rulelab.metrics.core import correlation


def vectors_of(pairs) -> tuple[list, list]:
    """(labels, gold) from (gold, label) pairs."""
    return [label for _gold, label in pairs], [gold for gold, _label in pairs]


def test_last_quarter_count_is_ceiling():
    assert last_quarter_count(75) == 19
    assert last_quarter_count(74) == 19
    assert last_quarter_count(76) == 19
    assert last_quarter_count(80) == 20
    assert last_quarter_count(1) == 1


def test_all_correct_is_one_in_both_windows():
    labels, gold = vectors_of([(True, True)] * 75)
    assert accuracy(labels, gold, "overall") == 1.0
    assert accuracy(labels, gold, "last_quarter") == 1.0


def test_windowing_then_exclusion():
    # 8 objects -> last quarter = final 2; one of them excluded.
    pairs = [(True, True)] * 6 + [(True, None), (True, False)]
    labels, gold = vectors_of(pairs)
    assert accuracy(labels, gold, "last_quarter") == 0.0  # only the final object counts
    assert accuracy(labels, gold, "overall") == 6 / 7


def test_windows_are_cut_over_the_labels_not_the_gold():
    # Labels for the first 8 of 12 objects: the last quarter is objects 6 and 7.
    labels, gold = vectors_of([(True, True)] * 6 + [(True, False), (False, False)])
    gold += [True] * 4
    assert accuracy(labels, gold, "last_quarter") == 0.5
    with pytest.raises(ValueError):
        accuracy(labels + [True] * 5, gold)


def test_all_excluded_errors():
    labels, gold = vectors_of([(True, None)] * 4)
    with pytest.raises(EmptyWindowError):
        accuracy(labels, gold, "overall")


def test_window_name_checked():
    with pytest.raises(ValueError):
        accuracy([True], [True], "first_half")


def pearson_oracle(xs, ys):
    xs, ys = np.asarray(xs, float), np.asarray(ys, float)
    xd, yd = xs - xs.mean(), ys - ys.mean()
    return float((xd * yd).sum() / math.sqrt((xd * xd).sum() * (yd * yd).sum()))


def test_r_squared_identity_vector():
    human = [0.1, 0.4, 0.9]
    assert r_squared(human, human) == pytest.approx(1.0)


def test_r_squared_anticorrelation():
    human = [0.1, 0.4, 0.9]
    model = [1 - h for h in human]
    assert r_squared(model, human) == pytest.approx(1.0)
    assert pearson_r(model, human) == pytest.approx(-1.0)


def test_r_squared_worked_example():
    # Oracle-derived: covariance 0.28, variances 0.32 and 0.26, so
    # r^2 = 0.28^2 / (0.32 * 0.26) = 49/52.
    model = [0.1, 0.5, 0.9]
    human = [0.2, 0.4, 0.9]
    r = pearson_oracle(model, human)
    assert r_squared(model, human) == pytest.approx(r * r, abs=1e-12)
    assert r_squared(model, human) == pytest.approx(49 / 52, abs=1e-9)


def test_r_squared_matches_oracle_on_random_vectors():
    rng = random.Random(0)
    for _ in range(100):
        n = rng.randint(3, 40)
        model = [rng.random() for _ in range(n)]
        human = [rng.random() for _ in range(n)]
        expected = pearson_oracle(model, human) ** 2
        assert r_squared(model, human) == pytest.approx(expected, abs=1e-9)


def test_missing_human_values_dropped():
    model = [0.1, 0.5, 0.9, 0.7]
    human = [0.2, None, 0.8, 0.6]
    expected = pearson_oracle([0.1, 0.9, 0.7], [0.2, 0.8, 0.6]) ** 2
    assert r_squared(model, human) == pytest.approx(expected, abs=1e-12)


def test_zero_variance_errors():
    with pytest.raises(ZeroVarianceError):
        r_squared([0.5, 0.5, 0.5], [0.1, 0.2, 0.3])
    with pytest.raises(ZeroVarianceError):
        r_squared([0.1, 0.2, 0.3], [0.5, 0.5, 0.5])


def test_a_tiny_spread_still_correlates():
    """Each vector is scaled to unit range before it is centred: unscaled,
    the squares of a 1e-300 spread underflow to a zero variance."""
    assert r_squared([0, 1e-300, 2e-300], [0.1, 0.2, 0.3]) == pytest.approx(1.0)
    assert pearson_r([0, 1e-300, 2e-300], [0.3, 0.2, 0.1]) == pytest.approx(-1.0)


def test_correlation_of_arrays_is_none_for_a_constant_and_stays_in_range():
    assert correlation(np.array([0.5, 0.5, 0.5]), np.array([0.1, 0.2, 0.3])) is None
    assert correlation(np.array([0.1, 0.2, 0.3]), np.array([0.5, 0.5, 0.5])) is None
    assert correlation(np.array([0.1, 0.2]), np.array([0.3, 0.7])) == 1.0
    rng = np.random.default_rng(0)
    for _ in range(200):
        xs = rng.random(int(rng.integers(2, 30)))
        for ys in (3.0 * xs + 0.25, 0.5 - 7.0 * xs, rng.random(len(xs))):
            assert -1.0 <= correlation(xs, ys) <= 1.0


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(0, 1), min_size=3, max_size=20),
    st.floats(0.01, 5.0),
    st.floats(-1.0, 1.0),
)
def test_pearson_affine_invariance(human, slope, intercept):
    model = [0.1 * i for i in range(len(human))]  # strictly increasing
    try:
        base = r_squared(model, human)
    except ZeroVarianceError:
        return
    scaled = [slope * m + intercept for m in model]
    assert r_squared(scaled, human) == pytest.approx(base, abs=1e-9)


def test_chance_baseline_values():
    assert chance_baseline(0.5) == 0.5
    assert chance_baseline(0.8) == 0.68
    assert chance_baseline(1.0) == 1.0
    assert chance_baseline(0.0) == 1.0


@settings(max_examples=200)
@given(st.floats(0, 1))
def test_chance_baseline_symmetry_and_minimum(p):
    assert chance_baseline(p) == pytest.approx(chance_baseline(1 - p), abs=1e-12)
    assert chance_baseline(p) >= 0.5 - 1e-12


def test_cross_entropy_exact_match_degenerate():
    assert cross_entropy(1.0, 1.0) == 0.0
    assert cross_entropy(0.0, 0.0) == 0.0


def test_cross_entropy_fair_coin():
    assert cross_entropy(0.5, 0.5) == pytest.approx(math.log(2), abs=1e-12)
    assert cross_entropy(1.0, 0.5) == pytest.approx(math.log(2), abs=1e-12)


def test_cross_entropy_infinite_when_unsupported():
    assert cross_entropy(1.0, 0.0) == float("inf")
    assert cross_entropy(0.5, 1.0) == float("inf")


@settings(max_examples=200)
@given(st.floats(0, 1), st.floats(0.01, 0.99))
def test_cross_entropy_gibbs_inequality(p, q):
    assert cross_entropy(p, q) >= cross_entropy(p, p) - 1e-12


def test_cross_entropy_series_sums():
    pairs = [(1.0, 0.5), (0.5, 0.5)]
    assert cross_entropy_series(pairs) == pytest.approx(2 * math.log(2), abs=1e-12)


def test_overall_accuracy_is_weighted_per_set_combination():
    rng = random.Random(6)
    sets = []
    for _set_index in range(8):
        pairs = []
        for _object_index in range(rng.randint(1, 5)):
            gold = rng.random() < 0.5
            model = gold if rng.random() < 0.7 else (None if rng.random() < 0.3 else not gold)
            pairs.append((gold, model))
        sets.append(pairs)
    labels, gold = vectors_of([pair for pairs in sets for pair in pairs])

    weighted = 0.0
    attempted_total = 0
    for pairs in sets:
        in_set = [(g, m) for g, m in pairs if m is not None]
        if not in_set:
            continue
        set_accuracy = sum(m == g for g, m in in_set) / len(in_set)
        weighted += set_accuracy * len(in_set)
        attempted_total += len(in_set)
    assert accuracy(labels, gold, "overall") == pytest.approx(
        weighted / attempted_total, abs=1e-12
    )


def _one_set_list(rule_id: str = "r") -> ExemplarList:
    """A one-set list: a blue object, gold True, then a green one, gold False."""
    blue, green = (Obj(0, DEFAULT_VOCAB.colors.index(c), 0) for c in ("blue", "green"))
    concept = parse_concept("(is-color blue)", DEFAULT_VOCAB)
    exemplar_set = ExemplarSet((blue, green), (True, False))
    return ExemplarList(rule_id, "(is-color blue)", concept, DEFAULT_VOCAB, 0, (exemplar_set,))


def test_series_files_drop_the_human_key_and_old_files_still_load(tmp_path):
    """Records no longer carry ``"human"``, which no source ever set; a file
    written with it (always null) still loads, and saving it again leaves
    the key out and changes nothing else."""
    old = {
        "rule_id": "r",
        "records": [
            {"set_index": 0, "object_index": 0, "gold": True, "model": True,
             "p_true": 0.75, "human": None},
            {"set_index": 0, "object_index": 1, "gold": False, "model": None,
             "p_true": None, "human": None},
        ],
    }
    exemplar_list = _one_set_list()
    old_path = tmp_path / "old.series.json"
    old_path.write_text(json.dumps(old))
    series = load_series(old_path, exemplar_list)
    assert series == LabelSeries(exemplar_list, (True, None), (0.75, None))
    new_path = tmp_path / "new.series.json"
    save_series(series, new_path)
    saved = json.loads(new_path.read_text())
    assert all("human" not in record for record in saved["records"])
    for record in old["records"]:
        del record["human"]
    assert saved == old
    assert load_series(new_path, exemplar_list) == series
    old["records"][0]["p_true"] = 1.5
    old_path.write_text(json.dumps(old))
    with pytest.raises(ValueError, match="p_true"):
        load_series(old_path, exemplar_list)


def _plot_run_series(exemplar_list):
    """A plot run's labels and P(True) over ``exemplar_list``, at size 2."""
    hypotheses = enumerate_hypotheses(default_grammar(DEFAULT_VOCAB), 2)
    run = run_enumerative(exemplar_list, hypotheses, build_eval_matrix(hypotheses, exemplar_list),
                          NoiseParams(0.9, 0.5))
    return run.labels, run.p_true


def _per_set(exemplar_list, labels, p_true, n_sets):
    """``(set_index, labels, p_true)`` of the first ``n_sets`` sets, as the
    per-record writer takes them."""
    offsets = exemplar_list.offsets
    return [
        (k, labels[offsets[k]:offsets[k + 1]],
         None if p_true is None else p_true[offsets[k]:offsets[k + 1]])
        for k in range(n_sets)
    ]


def test_save_series_writes_the_per_record_writers_bytes(tmp_path):
    """A series file is written byte for byte as the per-record writer
    writes it: for a plot run (float P(True)), a series cut after three
    whole sets, one with excluded objects and one without P(True); and
    each reads back as the series it was written from."""
    exemplar_list = generate_list(parse_concept("(is-color blue)", DEFAULT_VOCAB), DEFAULT_VOCAB,
                                  seed=41, rule_id="blue")
    labels, p_true = _plot_run_series(exemplar_list)
    assert all(type(p) is float for p in p_true)
    n_sets, cut = len(exemplar_list.sets), exemplar_list.offsets[3]
    excluded = {1, 5, 6, exemplar_list.n_objects - 1}
    masked = tuple(None if i in excluded else label for i, label in enumerate(labels))
    masked_p = tuple(None if i in excluded else p for i, p in enumerate(p_true))
    cases = {
        "plot": (labels, p_true, n_sets),
        "cut": (labels[:cut], p_true[:cut], 3),
        "excluded": (masked, masked_p, n_sets),
        "no-p-true": (masked, None, n_sets),
    }
    for name, (case_labels, case_p, sets) in cases.items():
        series = LabelSeries(exemplar_list, case_labels, case_p)
        saved, oracle = tmp_path / f"{name}.series.json", tmp_path / f"{name}.oracle.json"
        save_series(series, saved)
        write_records(records_from_sets(
            "blue", exemplar_list, _per_set(exemplar_list, case_labels, case_p, sets)
        ), oracle)
        assert saved.read_bytes() == oracle.read_bytes(), name
        assert load_series(saved, exemplar_list) == series, name
