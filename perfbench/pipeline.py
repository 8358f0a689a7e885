"""One pass of a workload: inputs, stages, and output checks.

A pass writes its inputs into a fresh work directory, runs the stages in
order through a runner and checks the outputs.  ``SubprocessRunner``
starts one process per stage, as users run the CLI; ``InProcessRunner``
calls the same entry points in this process, for the traced run.

On a shared machine the CPU's speed shifts by 10-30% for seconds to
minutes at a time.  Stages are idempotent, so a short subprocess stage
runs again in rounds spread over the pass (``Rounds``) and is timed by
the median of its runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import CheckLog, check_llm_phase, check_outputs
from workloads import COHORT_SEED, LIST_SEED, Workload

HERE = Path(__file__).resolve().parent
REPEAT_BELOW_S = 8.0  # between the short stages (at most ~6 s) and the long ones (11 s and up)
MIN_RUNS = 4
MAX_RUNS = 9
ROUND_GAP_S = 10.0


@dataclass
class StageResult:
    name: str
    seconds: float
    returncode: int
    imports: list[float] = field(default_factory=list)
    max_rss_mb: float = 0.0
    stats: dict = field(default_factory=dict)
    runs: list[float] = field(default_factory=list)  # every run's seconds, once combined


def combined(runs: list[StageResult]) -> StageResult:
    """One stage's runs as one result: the median time, the first failure,
    every import time and the largest peak RSS."""
    return StageResult(
        runs[0].name,
        statistics.median(r.seconds for r in runs),
        next((r.returncode for r in runs if r.returncode != 0), 0),
        [t for r in runs for t in r.imports],
        max(r.max_rss_mb for r in runs),
        runs[-1].stats,
        [r.seconds for r in runs],
    )


class SubprocessRunner:
    """Each stage is its own interpreter, started from the checkout root
    through ``stage.py``, which reports the stage's import time."""

    repeats = True

    def __init__(self, root: Path, logs: Path):
        self.root = root
        self.logs = logs
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), str(HERE)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        )

    def _run(self, name: str, argv: list[str]) -> StageResult:
        self.logs.mkdir(parents=True, exist_ok=True)
        out_path = self.logs / f"{name}.out"
        err_path = self.logs / f"{name}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = time.perf_counter()
            process = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=out, stderr=err)
            try:
                _pid, status, usage = os.wait4(process.pid, 0)
            except BaseException:  # interrupted: leave no stage process behind
                process.kill()
                process.wait()
                raise
            seconds = time.perf_counter() - started
        process.returncode = os.waitstatus_to_exitcode(status)
        errors = err_path.read_text()
        if process.returncode != 0:
            sys.stderr.write(f"stage {name} exited {process.returncode}:\n{errors[-2000:]}\n")
        first = errors.split("\n", 1)[0].split()
        imports = [float(first[1])] if first[:1] == ["import_s"] else []
        return StageResult(name, seconds, process.returncode, imports, usage.ru_maxrss / 1024.0)

    def cli(self, name: str, argv: list[str]) -> StageResult:
        return self._run(name, [sys.executable, str(HERE / "stage.py"), *argv])

    def llm(self, name: str, config: Path, seed: int) -> StageResult:
        argv = ["llm", "--config", str(config), "--seed", str(seed)]
        result = self._run(name, [sys.executable, str(HERE / "stage.py"), *argv])
        lines = (self.logs / f"{name}.out").read_text().splitlines()
        if result.returncode == 0 and lines:
            result.stats = json.loads(lines[-1])
        return result


class InProcessRunner:
    """Stages called in this process; ``stage_span`` wraps each one."""

    repeats = False

    def __init__(self, stage_span=None):
        self.stage_span = stage_span or (lambda name: contextlib.nullcontext())

    def cli(self, name: str, argv: list[str]) -> StageResult:
        from rulelab.cli import main

        with self.stage_span(name), contextlib.redirect_stdout(io.StringIO()):
            started = time.perf_counter()
            code = main(argv)
            seconds = time.perf_counter() - started
        return StageResult(name, seconds, code)

    def llm(self, name: str, config: Path, seed: int) -> StageResult:
        import llmphase

        with self.stage_span(name):
            started = time.perf_counter()
            stats = llmphase.run_phase(config, seed)
            seconds = time.perf_counter() - started
        return StageResult(name, seconds, 1 if stats["failed"] else 0, stats=stats)


class Rounds:
    """The runs of a pass's stages.  A short stage (under ``REPEAT_BELOW_S``
    on its first run) joins the rounds of repeats; a round runs after each
    other stage that ends ``ROUND_GAP_S`` or more after the last round, and
    ``finish`` adds rounds until every short stage has ``MIN_RUNS`` runs
    and ``seconds`` have passed since the pass began."""

    def __init__(self, repeats: bool, seconds: float):
        self.repeats = repeats
        self.seconds = seconds
        self.started = self.last_round = time.perf_counter()
        self.runs: dict[str, list[StageResult]] = {}
        self.again = []

    def _round(self) -> None:
        for name, run_once in self.again:
            self.runs[name].append(run_once())
        self.last_round = time.perf_counter()

    def stage(self, name: str, run_once, repeat: bool = True) -> StageResult:
        result = run_once()
        self.runs[name] = [result]
        if self.repeats and repeat and result.returncode == 0 and result.seconds < REPEAT_BELOW_S:
            self.again.append((name, run_once))
        elif self.again and time.perf_counter() - self.last_round >= ROUND_GAP_S:
            self._round()
        return result

    def _fewest(self) -> int:
        return min((len(self.runs[name]) for name, _run_once in self.again), default=MAX_RUNS)

    def finish(self) -> list[StageResult]:
        while self._fewest() < MIN_RUNS or (
            self._fewest() < MAX_RUNS and time.perf_counter() - self.started < self.seconds
        ):
            self._round()
        return [combined(results) for results in self.runs.values()]


def _rules(workload: Workload, seed: int):
    from rulelab.catalog import DEMO_RULES

    rules = [rule for rule in DEMO_RULES if rule.rule_id in workload.rule_ids]
    random.Random(seed).shuffle(rules)
    return rules


def dir_bytes(path: Path, pattern: str = "*") -> int:
    """Bytes in the files under ``path`` whose names match ``pattern``."""
    return sum(p.stat().st_size for p in path.rglob(pattern) if p.is_file())


@dataclass
class Pass:
    workload: Workload
    seed: int
    work: Path
    stages: list[StageResult] = field(default_factory=list)
    checks: CheckLog = field(default_factory=CheckLog)

    @property
    def out(self) -> Path:
        return self.work / "out"

    @property
    def run_dir(self) -> Path:
        return self.out / "runs" / "plot"

    def stage_seconds(self, name: str) -> float:
        return sum(s.seconds for s in self.stages if s.name == name)

    def wall_seconds(self) -> float:
        return sum(s.seconds for s in self.stages)

    def import_seconds(self) -> list[float]:
        return [t for s in self.stages for t in s.imports]

    def failed_stages(self) -> int:
        return sum(1 for s in self.stages if s.returncode != 0)


def _write_config(path: Path, workload: Workload, human_data: str | None) -> None:
    doc = {
        "rules": "rules.json",
        "lists_dir": "out/lists",
        "output_dir": "out",
        "seed": LIST_SEED,
        "learner": workload.learner,
        "workers": 1,
    }
    if human_data:
        doc["human_data"] = human_data
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_cohort(p: Pass) -> None:
    from rulelab.exemplars import load_list, write_subject_csv

    from cohort import build_cohort

    lists = [load_list(path) for path in sorted((p.out / "lists").glob("*.json")) if path.name != "manifest.json"]
    cohort = build_cohort(lists, substance_seed=COHORT_SEED, label_seed=p.seed)
    write_subject_csv(cohort.records, p.work / "humans.csv")


def run_pass(workload: Workload, seed: int, work: Path, runner, seconds: float = 0.0) -> Pass:
    """Run every stage of one pass, repeating the short ones (see the
    module's docstring) until ``seconds`` have passed, and check the
    outputs."""
    from rulelab.catalog import write_rules_manifest

    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    p = Pass(workload, seed, work)
    write_rules_manifest(_rules(workload, seed), work / "rules.json")
    gen_config = work / "gen.json"
    config = work / "config.json"
    _write_config(gen_config, workload, None)
    rounds = Rounds(runner.repeats, seconds)

    def stage(name: str, run_once, repeat: bool = True) -> bool:
        return rounds.stage(name, run_once, repeat).returncode == 0

    def cli(name: str, *argv, repeat: bool = True) -> bool:
        return stage(name, lambda: runner.cli(name, [str(a) for a in argv]), repeat)

    def finish() -> Pass:
        p.stages = rounds.finish()
        return p

    # gen is timed only as part of wall_s, so one run is enough.
    if not cli("gen", "gen", "--config", gen_config, repeat=False):
        return finish()
    _write_cohort(p)
    _write_config(config, workload, "humans.csv")

    if not cli("run", "run", "--engine", "plot", "--config", config):
        return finish()
    # report does not read grade's outputs; running it first spreads the
    # repeats of a short report over a long grade.
    cli("report", "report", "--config", config, "--series", f"plot={p.run_dir}")
    cli("grade", "grade", "--config", config, "--elicited", p.run_dir, "--series-dir", p.run_dir)
    if workload.sessions:
        from llmphase import paths

        transcripts = paths(p.out)["transcripts"]
        cold = {}

        def phase(name: str) -> bool:
            def run_once() -> StageResult:
                result = runner.llm(f"session.{name}", config, seed)
                if result.returncode == 0:
                    cold.update(check_llm_phase(p.checks, name, result.stats, transcripts, cold or None))
                return result
            # Replay needs the transcripts deleted and resume needs them
            # whole, so no phase repeats; they count in wall_s only.
            return stage(f"session.{name}", run_once, repeat=False)

        if phase("cold"):
            shutil.rmtree(transcripts)
            phase("replay") and phase("resume")
    if workload.fit_noise:
        cli("fit-noise", "fit-noise", "--config", config, repeat=False)
    finish()
    check_outputs(p.checks, workload, p.out, p.run_dir)
    return p
