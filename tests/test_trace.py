"""The posterior trace: byte-for-byte against a plain ``csv.writer``."""

import csv
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulelab.catalog import DEFAULT_VOCAB as V
from rulelab.dsl import parse_concept, print_concept
from rulelab.exemplars import generate_list
from rulelab.learner import (
    TRACE_TOP_ROWS,
    DegeneratePosteriorError,
    NoiseParams,
    build_eval_matrix,
    default_grammar,
    enumerate_hypotheses,
    posterior_by_set,
    run_enumerative,
)
from rulelab.learner.inference import _top_rows, _trace_rows, _write_trace


def oracle_write_trace(steps, path, printed, log_priors):
    """The reference writer: every row through ``csv.writer``, every float
    through ``"{:.12g}".format``."""
    fmt = "{:.12g}".format
    priors = [fmt(v) for v in log_priors.tolist()]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["set_index", "concept", "log_prior", "log_likelihood", "log_posterior"])
        for set_index, step in enumerate(steps):
            log_likelihood, log_posterior, _map = step
            scores = (map(fmt, log_likelihood.tolist()), map(fmt, log_posterior.tolist()))
            writer.writerows(zip([set_index] * len(printed), printed, priors, *scores))
            yield step


def library_write_trace(steps, path, printed, log_priors):
    """The library's trace code given every row of every boundary, in row
    order: the rows :func:`_trace_rows` formats, written by
    :func:`_write_trace` after the last step."""
    every_row = np.arange(len(printed))
    rows = []
    for set_index, step in enumerate(steps):
        log_likelihood, log_posterior, _map = step
        rows += _trace_rows(set_index, every_row, printed, log_priors, log_likelihood, log_posterior)
        yield step
    _write_trace(path, rows)


def _bits_to_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


_SPECIALS = [
    float("-inf"), float("inf"), -0.0, 0.0, float("nan"), -float("nan"),
    5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e300, 1.0, -1.0,
]
_NAN_PAYLOADS = st.integers(1, 2**52 - 1).flatmap(
    lambda mantissa: st.sampled_from([0x7FF << 52, 0xFFF << 52]).map(
        lambda high: _bits_to_float(high | mantissa)
    )
)
_SUBNORMALS = st.integers(1, 2**52 - 1).map(_bits_to_float)
_MAGNITUDES = st.tuples(
    st.floats(1.0, 10.0, exclude_max=True), st.integers(-300, 299), st.sampled_from([1.0, -1.0])
).map(lambda t: t[2] * t[0] * 10.0 ** t[1])
FLOATS = st.one_of(
    st.sampled_from(_SPECIALS), _NAN_PAYLOADS, _SUBNORMALS, _MAGNITUDES,
    st.floats(allow_nan=True, allow_infinity=True),
)
CONCEPTS = st.text(alphabet=st.sampled_from(list('ab(), "\'-\n\r\t0') + ["é"]), max_size=12)


def _write(writer, steps, printed, log_priors) -> tuple[bytes, list]:
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "trace.csv"
        passed = list(writer(iter(steps), path, printed, log_priors))
        return path.read_bytes(), passed


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_trace_bytes_equal_the_csv_writer_oracle(data):
    n_rows = data.draw(st.integers(1, 25), label="rows")
    # A small pool repeats values, as real scores do.
    pool = data.draw(st.lists(FLOATS, min_size=1, max_size=6), label="pool")
    column = st.lists(
        st.one_of(st.sampled_from(pool), FLOATS), min_size=n_rows, max_size=n_rows
    ).map(lambda values: np.array(values, dtype=np.float64))
    printed = data.draw(st.lists(CONCEPTS, min_size=n_rows, max_size=n_rows), label="concepts")
    log_priors = data.draw(column, label="priors")
    n_boundaries = data.draw(st.integers(0, 4), label="boundaries")
    steps = [(data.draw(column), data.draw(column), 0) for _ in range(n_boundaries)]

    expected, expected_steps = _write(oracle_write_trace, steps, printed, log_priors)
    actual, actual_steps = _write(library_write_trace, steps, printed, log_priors)
    assert actual == expected
    assert all(a is e for a, e in zip(actual_steps, expected_steps))
    assert len(actual_steps) == len(steps)


def test_signed_zero_and_nan_payloads_keep_their_own_text(tmp_path):
    quiet_nan, payload_nan = float("nan"), _bits_to_float((0x7FF << 52) | 12345)
    values = np.array([0.0, -0.0, quiet_nan, payload_nan, -0.0, 0.0])
    assert (values == 0.0).sum() == 4  # equal by value, distinct by bits
    printed = [f"c{i}" for i in range(len(values))]
    steps = [(values, values[::-1].copy(), 0)]
    expected, _ = _write(oracle_write_trace, steps, printed, values)
    actual, _ = _write(library_write_trace, steps, printed, values)
    assert actual == expected
    assert actual.splitlines()[2] == b"0,c1,-0,-0,-0"


EXACTLY_ONE_BLUE = parse_concept("(exactly-one all (is-color blue 0))", V)


def test_enumerative_trace_matches_oracle_on_a_real_rule(tmp_path):
    grammar = default_grammar(V)
    noise = NoiseParams(0.9, 0.5)
    exemplar_list = generate_list(EXACTLY_ONE_BLUE, V, seed=5, rule_id="exactly-one-blue")
    hypotheses = enumerate_hypotheses(grammar, 3)
    matrix = build_eval_matrix(hypotheses, exemplar_list)
    printed = [print_concept(c, V) for c, _lp in hypotheses]
    oracle = tmp_path / "oracle.csv"
    scores = [
        log_likelihood + matrix.log_priors
        for log_likelihood, _lp, _map in oracle_write_trace(
            posterior_by_set(matrix, noise), oracle, printed, matrix.log_priors
        )
    ]

    trace = tmp_path / "trace.csv"
    run = run_enumerative(exemplar_list, hypotheses, matrix, noise, trace_path=trace)
    assert trace.read_bytes() == _oracle_top_trace(oracle, scores)

    # Tracing changes nothing else.
    assert run_enumerative(exemplar_list, hypotheses, matrix, noise) == run


def test_degenerate_rule_leaves_no_trace_even_over_an_old_one(tmp_path):
    grammar = default_grammar(V)
    exemplar_list = generate_list(EXACTLY_ONE_BLUE, V, seed=5, rule_id="exactly-one-blue")
    trace = tmp_path / "exactly-one-blue.posterior.csv"
    hypotheses = enumerate_hypotheses(grammar, 2)
    matrix = build_eval_matrix(hypotheses, exemplar_list)
    run_enumerative(exemplar_list, hypotheses, matrix, NoiseParams(0.9, 0.5), trace_path=trace)
    assert trace.stat().st_size > 0
    with pytest.raises(DegeneratePosteriorError, match="exactly-one-blue"):
        run_enumerative(exemplar_list, hypotheses, matrix, NoiseParams(1.0, 0.5), trace_path=trace)
    assert not trace.exists()


def _oracle_top_rows(score, k):
    """The k best rows by score, ties to the lower row."""
    return sorted(range(len(score)), key=lambda i: (-score[i], i))[:k]


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(
        st.sampled_from([float("-inf"), -3.0, -2.5, -2.5000000000000004, -1.0, 0.0]),
        min_size=1, max_size=40,
    ),
    k=st.integers(1, 45),
)
def test_top_rows_match_a_sort_with_ties_to_the_lower_row(values, k):
    score = np.array(values)
    assert _top_rows(score, k).tolist() == _oracle_top_rows(values, k)


def _boundary_lines(path: Path) -> dict[int, list[bytes]]:
    lines = path.read_bytes().split(b"\r\n")
    assert lines[0] == b"set_index,concept,log_prior,log_likelihood,log_posterior"
    assert lines[-1] == b""
    by_set: dict[int, list[bytes]] = {}
    for line in lines[1:-1]:
        by_set.setdefault(int(line.split(b",", 1)[0]), []).append(line)
    return by_set


def _oracle_top_trace(full: Path, scores) -> bytes:
    """The top trace that the oracle's full trace at ``full`` implies: at
    each boundary, the lines of its ``TRACE_TOP_ROWS`` best rows by that
    boundary's entry of ``scores``, best first."""
    by_set = _boundary_lines(full)
    lines = [b"set_index,concept,log_prior,log_likelihood,log_posterior"]
    for set_index, score in enumerate(scores):
        lines += [by_set[set_index][i] for i in _oracle_top_rows(score.tolist(), TRACE_TOP_ROWS)]
    return b"".join(line + b"\r\n" for line in lines)


@pytest.mark.parametrize("max_size", [1, 3])
def test_top_trace_is_the_best_lines_of_the_full_trace_map_first(tmp_path, max_size):
    grammar = default_grammar(V)
    noise = NoiseParams(0.9, 0.5)
    exemplar_list = generate_list(EXACTLY_ONE_BLUE, V, seed=5, rule_id="exactly-one-blue")
    hypotheses = enumerate_hypotheses(grammar, max_size)
    full, top = tmp_path / "full.csv", tmp_path / "top.csv"
    matrix = build_eval_matrix(hypotheses, exemplar_list)
    printed = [print_concept(c, V) for c, _lp in hypotheses]
    for _step in oracle_write_trace(posterior_by_set(matrix, noise), full, printed,
                                    matrix.log_priors):
        pass
    untraced_run = run_enumerative(exemplar_list, hypotheses, matrix, noise)
    top_run = run_enumerative(exemplar_list, hypotheses, matrix, noise, trace_path=top)
    assert top_run == untraced_run
    full_lines, top_lines = _boundary_lines(full), _boundary_lines(top)
    n_sets = len(exemplar_list.sets)
    assert sorted(top_lines) == sorted(full_lines) == list(range(n_sets + 1))
    maps = [*top_run.set_maps, top_run.final_map]
    for set_index, (log_likelihood, _lp, _map) in enumerate(posterior_by_set(matrix, noise)):
        lines = top_lines[set_index]
        assert len(lines) == min(TRACE_TOP_ROWS, len(hypotheses))
        assert set(lines) <= set(full_lines[set_index])
        expected = _oracle_top_rows((log_likelihood + matrix.log_priors).tolist(), TRACE_TOP_ROWS)
        concepts = [next(csv.reader([line.decode()]))[1] for line in lines]
        assert concepts == [printed[i] for i in expected]
        assert concepts[0] == print_concept(maps[set_index], V)


def test_boundary_diagnostics_match_the_full_posterior(tmp_path):
    grammar = default_grammar(V)
    noise = NoiseParams(0.9, 0.5)
    exemplar_list = generate_list(EXACTLY_ONE_BLUE, V, seed=5, rule_id="exactly-one-blue")
    hypotheses = enumerate_hypotheses(grammar, 3)
    top = tmp_path / "top.csv"
    matrix = build_eval_matrix(hypotheses, exemplar_list)
    run = run_enumerative(exemplar_list, hypotheses, matrix, noise, trace_path=top)
    untraced = run_enumerative(exemplar_list, hypotheses, matrix, noise)
    assert untraced.posterior == run.posterior
    assert len(run.posterior) == len(exemplar_list.sets) + 1
    top_lines = _boundary_lines(top)
    for set_index, step in enumerate(posterior_by_set(matrix, noise)):
        log_likelihood, log_posterior, map_index = step
        mass = np.exp(log_posterior).tolist()
        entropy = -sum(p * lp for p, lp in zip(mass, log_posterior.tolist()) if p > 0)
        best = _oracle_top_rows((log_likelihood + matrix.log_priors).tolist(), TRACE_TOP_ROWS)
        diagnostics = run.posterior[set_index]
        assert diagnostics.entropy == pytest.approx(entropy, rel=1e-12, abs=1e-15)
        assert diagnostics.map_mass == mass[map_index]
        assert diagnostics.top_mass == pytest.approx(sum(mass[i] for i in best), rel=1e-12)
        assert 0.0 <= diagnostics.map_mass <= diagnostics.top_mass <= 1.0 + 1e-12
        assert diagnostics.entropy >= 0.0
        # top_mass is the mass of the rows a top trace writes (to its 12 digits).
        written = sum(math.exp(float(line.rsplit(b",", 1)[1])) for line in top_lines[set_index])
        assert diagnostics.top_mass == pytest.approx(written, rel=1e-9)
