"""The traced run: one workload replayed in-process with spans on every layer.

Layers are ``rulelab``'s modules.  Each is timed from outside, by wrapping
its public functions at the binding the caller uses; ``evaluate`` is never
wrapped (its rate is measured directly by ``evaluate_rate``), and the MH
sampler, which no workload runs, is measured directly by ``mh_rate``.  The
tracing overhead is the time the wrappers spend outside the calls they
wrap, as the tracer measures it.
"""

from __future__ import annotations

import importlib
import time
from pathlib import Path

from spans import Tracer
from workloads import MH_ITERATIONS, MH_SEED, Workload

EVALUATE_PROBE_CELLS = 150_000


def _sets_before(args, kwargs) -> dict:
    from rulelab.harness import load_transcript

    path = kwargs.get("transcript_path")
    if path is None or not Path(path).exists():
        return {"sets_before": 0}
    return {"sets_before": len(load_transcript(path).sets)}


def _full_walk(args, kwargs, result) -> dict:
    from rulelab.dsl import is_target_only

    a, b = args[0], args[1]
    walked = bool(result) and a != b and not (is_target_only(a) and is_target_only(b))
    return {"full_walk": int(walked)}


# (binding, span name, describe(args, kwargs, result) -> span attributes)
WRAPPED = (
    ("rulelab.cli.load_list", "exemplars.load", None),
    ("llmphase.load_list", "exemplars.load", None),
    ("rulelab.cli.filter_subjects", "exemplars.filter", None),
    ("rulelab.metrics.grading.equivalent", "dsl.equivalent", _full_walk),
    ("rulelab.cli.run_enumerative", "learner.run_enumerative", None),
    ("rulelab.learner.inference.enumerate_hypotheses", "learner.enumerate",
     lambda a, k, r: {"hypotheses": len(r)}),
    ("rulelab.learner.fit.enumerate_hypotheses", "learner.enumerate",
     lambda a, k, r: {"hypotheses": len(r)}),
    ("rulelab.learner.inference.build_eval_matrix", "learner.eval_matrix",
     lambda a, k, r: {"cells": int(r.agree_true.size)}),
    ("rulelab.learner.fit.build_eval_matrix", "learner.eval_matrix",
     lambda a, k, r: {"cells": int(r.agree_true.size)}),
    ("rulelab.cli.fit_noise", "learner.fit_noise", None),
    ("llmphase.run_session", "harness.run_session",
     lambda a, k, r: {"sets_after": len(r.sets)}),
    ("oracle.OracleTransport.__call__", "harness.transport", None),
    ("rulelab.cli.match_rate", "metrics.match_rate", None),
    ("rulelab.cli.rule_likelihood_counts", "metrics.rule_likelihood", None),
    ("rulelab.cli.set_trajectory", "metrics.cohort", None),
    ("rulelab.cli.cohort_report", "metrics.cohort", None),
    ("rulelab.cli.subsample_baseline", "metrics.cohort", None),
    ("rulelab.cli.load_series", "metrics.series_io", None),
    ("rulelab.cli.save_series", "metrics.series_io", None),
    ("llmphase.save_series", "metrics.series_io", None),
)
BEFORE = {"llmphase.run_session": _sets_before}


def install(tracer: Tracer) -> None:
    for target, name, describe in WRAPPED:
        tracer.wrap(target, name, describe, before=BEFORE.get(target))


def _first_list(lists_dir: Path):
    from rulelab.exemplars import load_list

    return load_list(sorted(p for p in lists_dir.glob("*.json") if p.name != "manifest.json")[0])


def evaluate_rate(workload: Workload, lists_dir: Path) -> float:
    """evaluate() calls per second over one list's contexts and an evenly
    spaced subset of the workload's hypotheses."""
    from rulelab.catalog import DEFAULT_VOCAB
    from rulelab.dsl import evaluate
    from rulelab.learner import default_grammar, enumerate_hypotheses

    contexts = [ctx for _s, _o, ctx, _label in _first_list(lists_dir).iter_items()]
    hypotheses = [c for c, _lp in enumerate_hypotheses(default_grammar(DEFAULT_VOCAB), workload.max_size)]
    stride = max(1, len(hypotheses) * len(contexts) // EVALUATE_PROBE_CELLS)
    concepts = hypotheses[::stride]
    started = time.perf_counter()
    for concept in concepts:
        for ctx in contexts:
            evaluate(concept, ctx)
    return len(concepts) * len(contexts) / (time.perf_counter() - started)


def mh_rate(workload: Workload, lists_dir: Path) -> tuple[float, int]:
    """MH steps per second, and distinct concepts tallied, for one chain on
    the evidence of the first list's first half at the workload's size."""
    from rulelab.catalog import DEFAULT_VOCAB
    from rulelab.learner import NoiseParams, default_grammar, evidence_from_list, mh_sample

    exemplar_list = _first_list(lists_dir)
    evidence = evidence_from_list(exemplar_list, upto_set=len(exemplar_list.sets) // 2)
    started = time.perf_counter()
    state = mh_sample(default_grammar(DEFAULT_VOCAB), evidence, NoiseParams(0.95, 0.5),
                      MH_ITERATIONS, MH_SEED, max_size=workload.max_size)
    return MH_ITERATIONS / (time.perf_counter() - started), len(state.entries)


def layer_metrics(tracer: Tracer, out: Path, import_s: float, evaluate_per_s: float,
                  mh: tuple[float, int], overhead_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass.  Times and counts are summed
    over every call of the layer's wrapped functions; a ``_self_s`` time
    leaves out the wrapped calls nested inside; byte counts are what the
    pass left on disk.  A layer the workload does not use reads 0."""
    from llmphase import paths
    from pipeline import dir_bytes

    sessions = [s for s in tracer.spans if s.name == "harness.run_session"]
    sets_done = sum(s.attrs.get("sets_after", 0) - s.attrs.get("sets_before", 0) for s in sessions)
    requests = tracer.count("harness.transport")
    where = paths(out)
    return {
        "cli.import_s": import_s,
        "cli.fit_noise_s": tracer.total("stage.fit-noise"),
        "dsl.evaluate_per_s": evaluate_per_s,
        "dsl.equivalent_s": tracer.total("dsl.equivalent"),
        "dsl.equivalent_full_walks": tracer.attr_sum("dsl.equivalent", "full_walk"),
        "exemplars.load_s": tracer.total("exemplars.load"),
        "exemplars.filter_s": tracer.total("exemplars.filter"),
        "learner.hypotheses": tracer.attr_sum("learner.enumerate", "hypotheses"),
        "learner.enumerate_s": tracer.total("learner.enumerate"),
        "learner.eval_matrix_s": tracer.total("learner.eval_matrix"),
        "learner.eval_matrix_cells": tracer.attr_sum("learner.eval_matrix", "cells"),
        "learner.run_enumerative_self_s": tracer.self_total("learner.run_enumerative"),
        "learner.trace_bytes": dir_bytes(out / "runs", "*.posterior.csv"),
        "learner.fit_grid_s": tracer.self_total("learner.fit_noise"),
        "learner.mh_steps_per_s": mh[0],
        "learner.mh_distinct_concepts": mh[1],
        "harness.requests": requests,
        "harness.cache_hits": sets_done - requests,
        "harness.transport_s": tracer.total("harness.transport"),
        "harness.self_s": tracer.self_total("harness.run_session"),
        "harness.transcript_bytes": dir_bytes(where["transcripts"]),
        "harness.cache_bytes": dir_bytes(where["cache"]),
        "harness.cold_s": tracer.total("stage.session.cold"),
        "harness.replay_s": tracer.total("stage.session.replay"),
        "metrics.match_rate_s": tracer.total("metrics.match_rate"),
        "metrics.rule_likelihood_s": tracer.total("metrics.rule_likelihood"),
        "metrics.cohort_s": tracer.total("metrics.cohort"),
        "metrics.series_io_s": tracer.total("metrics.series_io"),
        "trace.overhead_s": overhead_s,
        "trace.spans": len(tracer.spans),
    }


def traced_run(workload: Workload, seed: int, work: Path, spans_path: Path):
    """One traced in-process pass of ``workload``; returns the pass, the
    per-layer metrics and the wrapped names that no longer exist."""
    from pipeline import InProcessRunner, run_pass

    started = time.perf_counter()
    importlib.import_module("rulelab.cli")
    import_s = time.perf_counter() - started

    tracer = Tracer(workload.name)
    install(tracer)
    try:
        traced = run_pass(workload, seed, work, InProcessRunner(lambda name: tracer.span(f"stage.{name}")))
    finally:
        tracer.unwrap_all()
    tracer.write(spans_path)
    metrics = layer_metrics(
        tracer, traced.out, import_s, evaluate_rate(workload, traced.out / "lists"),
        mh_rate(workload, traced.out / "lists"), tracer.overhead,
    )
    return traced, metrics, tracer.missing
