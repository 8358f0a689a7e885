"""rulelab benchmark: the CLI pipeline end to end, and its layers traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lab-s3 --seed 1 --seconds 50 --trace 0

Workloads are defined in ``workloads.py``.  With ``--trace 0`` the run
is one pass that starts one process per stage, as users run the
``rulelab`` command (see ``stage.py``), and the end-to-end metrics are
measured:

    setup_s      median over the pass's stage processes of the time to
                 ``import rulelab.cli``, which every command pays
    wall_s       the sum of every stage's time (a repeated stage counts its
                 median run), process start-up included
    run_s        the ``run`` stage
    grade_s      the ``grade`` stage
    report_s     the ``report`` stage
    peak_rss_mb  the highest peak RSS of any stage process
    disk_mb      bytes left in the output directory, in MB (1e6 bytes)

A stage that takes under 8 s runs again in rounds spread over the pass,
at least four times in all and until ``--seconds`` have passed, and the
median of its runs counts (``pipeline.py``).  With ``--trace 1`` the
workload is replayed once in this process with spans around every
layer's public functions, and the per-layer metrics of ``traced.py`` are
reported, the tracing overhead among them; the spans are written under
``.bench_work/spans/``.

Every run checks its outputs (``checks.py``).  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 0 only when every stage and check passed.
``--record`` also writes ``references/<workload>.json`` from the
pass; use it only on a commit whose outputs are known to be right.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "run_s": "s", "grade_s": "s", "report_s": "s",
    "peak_rss_mb": "MB", "disk_mb": "MB",
}
PER_LAYER_UNITS = {
    "cli.import_s": "s", "cli.fit_noise_s": "s",
    "dsl.evaluate_per_s": "1/s", "dsl.equivalent_s": "s", "dsl.equivalent_full_walks": "count",
    "exemplars.load_s": "s", "exemplars.filter_s": "s",
    "learner.hypotheses": "count", "learner.enumerate_s": "s", "learner.eval_matrix_s": "s",
    "learner.eval_matrix_cells": "count", "learner.run_enumerative_self_s": "s",
    "learner.trace_bytes": "bytes", "learner.fit_grid_s": "s", "learner.mh_steps_per_s": "1/s",
    "learner.mh_distinct_concepts": "count",
    "harness.requests": "count", "harness.cache_hits": "count", "harness.transport_s": "s",
    "harness.self_s": "s", "harness.transcript_bytes": "bytes", "harness.cache_bytes": "bytes",
    "harness.cold_s": "s", "harness.replay_s": "s",
    "metrics.match_rate_s": "s", "metrics.rule_likelihood_s": "s", "metrics.cohort_s": "s",
    "metrics.series_io_s": "s",
    "trace.overhead_s": "s", "trace.spans": "count",
}


def untraced(workload, seed: int, seconds: float, root: Path, work: Path):
    from pipeline import SubprocessRunner, dir_bytes, run_pass

    p = run_pass(workload, seed, work / "pass", SubprocessRunner(root, work / "logs"), seconds)
    metrics = {
        "setup_s": statistics.median(p.import_seconds() or [0.0]),
        "wall_s": p.wall_seconds(),
        "run_s": p.stage_seconds("run"),
        "grade_s": p.stage_seconds("grade"),
        "report_s": p.stage_seconds("report"),
        "peak_rss_mb": max((s.max_rss_mb for s in p.stages), default=0.0),
        "disk_mb": dir_bytes(p.out) / 1e6,
    }
    return p, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="rulelab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="write references/<workload>.json from this run's outputs")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind as on an error: stop the stage process, remove the work directory.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))

    root = Path.cwd().resolve()
    if not (root / "src" / "rulelab" / "cli.py").is_file():
        print(f"perfbench: no rulelab sources under {root / 'src'}; run from a checkout's root",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = root / ".bench_work" / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    sys.path.insert(0, str(root / "src"))

    try:
        if args.trace:
            from traced import traced_run

            spans_path = root / ".bench_work" / "spans" / f"{workload.name}-seed{args.seed}.json"
            p, metrics, missing = traced_run(workload, args.seed, work / "pass", spans_path)
            units = PER_LAYER_UNITS
            print(f"spans: {spans_path}")
            print(f"missing wrapped names: {missing}")
        else:
            p, metrics = untraced(workload, args.seed, args.seconds, root, work)
            units = END_TO_END_UNITS
        if args.record:
            from checks import observe, reference_path

            reference_path(workload).write_text(
                json.dumps(observe(workload, p.out, p.run_dir), indent=1, sort_keys=True) + "\n"
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(p.stages) + p.checks.attempted
    failed = p.failed_stages() + len(p.checks.failures)
    for name, _ok, detail in p.checks.failures:
        print(f"check failed: {name}: {detail}", file=sys.stderr)
    for stage in p.stages:
        print(f"stage {stage.name:16s} {stage.seconds:10.4f} s  runs {[round(t, 4) for t in stage.runs]}")
    for name, value in metrics.items():
        print(f"{name:34s} {value:16.6f} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
