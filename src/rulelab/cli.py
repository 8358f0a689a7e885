"""Command-line interface for end-to-end experiments.

Commands:

    gen        generate exemplar lists for every rule in the manifest
    run        replay the labeling task (engine: plot or llm)
    grade      grade elicited rules: likelihood, consistency, match
    report     summary, trajectory, and delta CSVs from label series
    fit-noise  grid-fit the learner's noise parameters to human data

Every command is deterministic given the config file and caches; all
randomness is seeded from the config.  Exit codes: 0 success, 2 config
error, 3 data error, 4 transport error.
"""

from __future__ import annotations

import os

# numpy's bundled OpenBLAS starts a worker thread per CPU at import, and
# nothing here gains from it: the library makes no BLAS call, so no output's
# bits rest on this setting.  One thread halves numpy's import (0.110-0.137 s
# against 0.053-0.086 s on a 2-CPU x86-64 machine), so a command uses one
# BLAS thread unless the caller set the variable.  It is set before anything
# here can import numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import csv
import dataclasses
import hashlib
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from ._lazy import lazy_exports
from ._settings import check_settings, from_document, setting
from .catalog import DEFAULT_VOCAB, RuleSpec, read_rules_manifest
from .dsl import MAX_CONTEXTS, MAX_OBJECTS, DslError, FeatureVocab, count_contexts, load_vocab
from .harness import CredentialError, EndpointConfigError, TransportError
from .learner import Grammar, HypothesisBudgetError, default_grammar, load_grammar

if TYPE_CHECKING:
    from .exemplars import ExemplarList, SubjectRecord
    from .metrics import RuleGrade

# The library names each command runs, under the module each lives in.
# main binds a command's names into this module's globals when it
# dispatches the command, so a command loads only the modules it runs:
# gen, report and run --engine llm never import numpy, grade imports it
# only for a pair too large, over the dimensions it reads, for the
# equivalence check's evaluate level, run --engine plot imports none of the
# harness's session, extraction and prompt modules, and only the llm
# engine's HTTP transport imports the HTTP stack.  A lookup of
# ``rulelab.cli.<name>`` also binds it (a value patched in first is kept),
# so a test or a tracer can replace one before the command runs.
_COMMANDS = {
    "gen": {
        ".dsl": ("parse_concept",),
        ".exemplars": ("generate_list", "save_list", "write_json"),
        ".metrics": ("hash_inputs",),
    },
    "run": {
        ".dsl": ("print_concept",),
        ".exemplars": ("load_list", "write_json"),
        ".metrics": ("LabelSeries", "hash_inputs", "save_series"),
    },
    # Bound after "run", for that engine only.
    "run --engine plot": {
        ".learner": ("NoiseParams", "run_enumerative", "run_mh"),
        ".learner.inference": ("inference",),  # its functions are looked up at call time
    },
    "run --engine llm": {
        ".harness": ("RateLimiter", "load_endpoint_config", "run_session", "transcript_series"),
    },
    "grade": {
        ".exemplars": ("load_list", "write_json"),
        ".metrics": (
            "grade_session", "hash_inputs", "load_series", "match_rate", "write_grading_csvs",
        ),
    },
    "report": {
        ".exemplars": ("filter_subjects", "load_list", "read_subject_csv"),
        ".metrics": (
            "cohort_report", "hash_inputs", "load_series", "set_trajectory", "subsample_baseline",
            "summarize_series", "summarize_subjects", "window_scores",
            "write_delta_csv", "write_summary_csv", "write_trajectory_csv",
        ),
    },
    "fit-noise": {
        ".exemplars": (
            "filter_subjects", "human_proportions", "load_list", "read_subject_csv", "write_json",
        ),
        ".learner": ("fit_noise", "noise_grid"),
        ".learner.inference": ("inference",),
        ".metrics": ("hash_inputs",),
    },
}
__getattr__, __dir__, _ = lazy_exports(globals(), *_COMMANDS.values())

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_TRANSPORT = 4


class ConfigError(Exception):
    pass


class DataError(Exception):
    pass


def _read(kind: str, path: Path, reader, error: type[Exception] | None = ConfigError):
    """``reader(path)``: every input file a command reads is opened here,
    but the endpoint file, which ``load_endpoint_config`` reads and checks.
    A file that cannot be opened, decoded or read as a ``kind`` raises
    ``error``, which stops the command.  With ``error`` None the file is one
    rule's: its message is returned in place of the value, to fail that
    rule alone."""
    try:
        return reader(path)
    except (OSError, csv.Error, DslError, KeyError, TypeError, ValueError) as reason:
        # ValueError: bad JSON or bad UTF-8 among others; KeyError and
        # TypeError: a document of the wrong shape.
        if error is None:
            return f"unreadable {kind} {path}: {reason}"
        raise error(f"{kind} {path} is unreadable: {reason}") from reason


def _document(kind: str, path: Path, error: type[Exception]) -> dict:
    """The JSON object that ``path`` holds: the config, or a --elicited file."""
    text = _read(kind, path, lambda p: p.read_text(encoding="utf-8"), error)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as reason:
        raise error(f"{kind} {path} is not valid JSON: {reason}") from reason
    if not isinstance(doc, dict):
        raise error(f"{kind} {path} must hold a JSON object")
    return doc


# Each config key's check: its valid values, and their description for the
# error.
_POSITIVE = (lambda v: isinstance(v, int) and v >= 1, "a positive integer")
_UNIT = (lambda v: isinstance(v, (int, float)) and 0.0 <= v <= 1.0, "a number in [0, 1]")
# The finest fit_grid_step: the grid holds (1 / step + 1) ** 2 points, each
# listed and scored, about a million here and 10 ** 10 at a step of 1e-5.
MIN_FIT_GRID_STEP = 0.001
_STEP = (lambda v: isinstance(v, (int, float)) and MIN_FIT_GRID_STEP <= v <= 1.0,
         f"a number in [{MIN_FIT_GRID_STEP}, 1]")
_SEED = (lambda v: v is None or isinstance(v, int), "an integer")
# A path key, resolved against the config file's directory; the file a
# ``file`` key names must exist.
_PATH = (lambda v: v is None or isinstance(v, str), "a path string")


@dataclass
class LearnerSettings:
    """The config's ``learner`` block: each field is one of its keys."""

    grammar: Path | None = setting(_PATH, None, file=True)
    max_size: int = setting(_POSITIVE, 3)
    alpha: float = setting(_UNIT, 0.95)
    beta: float = setting(_UNIT, 0.5)
    engine: str = setting((lambda v: v in ("enumerate", "mh"), "enumerate or mh"), "enumerate")
    mh_iterations: int = setting(_POSITIVE, 20_000)
    seed: int | None = setting(_SEED, None)
    max_hypotheses: int = setting(_POSITIVE, 200_000)

    def __post_init__(self):
        check_settings(self, "learner.")
        self.alpha, self.beta = float(self.alpha), float(self.beta)


@dataclass
class ExperimentConfig:
    """An experiment config file: each field up to ``workers`` is one of its
    keys; :func:`load_config` fills in the rest."""

    rules: Path = setting(_PATH, file=True)
    lists_dir: Path = setting(_PATH)
    output_dir: Path = setting(_PATH)
    vocab: Path | None = setting(_PATH, None, file=True)
    seed: int | None = setting(_SEED, None)
    endpoint: Path | None = setting(_PATH, None, file=True)
    human_data: Path | None = setting(_PATH, None, file=True)
    learner: LearnerSettings = setting((lambda v: isinstance(v, dict), "an object"), factory=dict)
    fit_grid_step: float = setting(_STEP, 0.05)
    grade_max_set_size: int = setting(_POSITIVE, 5)
    workers: int = setting(_POSITIVE, 1)
    path: Path = field(init=False)  # the config file
    manifest: list[RuleSpec] = field(init=False)  # the rules file, read and checked
    feature_vocab: FeatureVocab = field(init=False)  # the vocab file's, or the stock vocab
    grammar: Grammar = field(init=False)  # the learner.grammar file's, or the stock grammar

    def __post_init__(self):
        check_settings(self)
        self.learner = from_document(LearnerSettings, self.learner, "learner config")
        self.fit_grid_step = float(self.fit_grid_step)


def load_config(path: str | Path) -> ExperimentConfig:
    """The config file at ``path``, checked, its path keys resolved against
    its directory, and the rules, vocab and grammar files it names read."""
    path = Path(path)
    try:
        config = from_document(ExperimentConfig, _document("config", path, ConfigError), "config")
    except ValueError as error:
        raise ConfigError(str(error)) from error
    config.path = path
    for settings, prefix in ((config, ""), (config.learner, "learner.")):
        for key in dataclasses.fields(settings):
            if key.metadata.get("check") is _PATH and getattr(settings, key.name) is not None:
                value = Path(getattr(settings, key.name))
                value = value if value.is_absolute() else (path.parent / value).resolve()
                setattr(settings, key.name, value)
                if key.metadata.get("file") and not value.exists():
                    name = prefix + key.name
                    raise ConfigError(f"config {name!r} points at missing file {value}")
    vocab = DEFAULT_VOCAB if config.vocab is None else _read("vocab file", config.vocab, load_vocab)
    # grade's equivalence walk would fail on either bound only once it ran.
    if config.grade_max_set_size > MAX_OBJECTS:
        raise ConfigError(
            f"grade_max_set_size must be at most {MAX_OBJECTS}, the largest displayed set, "
            f"got {config.grade_max_set_size}"
        )
    contexts = count_contexts(vocab, config.grade_max_set_size)
    if contexts > MAX_CONTEXTS:
        raise ConfigError(
            f"grade_max_set_size {config.grade_max_set_size} spans {contexts} contexts of this "
            f"vocab, above the equivalence check's cap of {MAX_CONTEXTS}"
        )
    config.feature_vocab = vocab
    config.manifest = _read("rules file", config.rules, read_rules_manifest)
    grammar = config.learner.grammar
    config.grammar = default_grammar(vocab) if grammar is None else _read(
        "learner.grammar file", grammar, lambda p: load_grammar(p, vocab)
    )
    return config


def _rule_seed(base_seed: int, rule_id: str) -> int:
    digest = hashlib.sha256(f"{base_seed}:{rule_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _inputs_of(config: ExperimentConfig, *extra: Path | str) -> dict[str, str]:
    paths = [config.path, config.rules, config.vocab, *map(Path, extra)]
    return hash_inputs([p for p in paths if p is not None])


# --- gen -------------------------------------------------------------------

def cmd_gen(config: ExperimentConfig) -> int:
    if not config.manifest:
        print("warning: rules manifest is empty, nothing to generate", file=sys.stderr)
        return EXIT_OK
    if config.seed is None:
        raise ConfigError("gen requires a top-level 'seed' in the config")
    config.lists_dir.mkdir(parents=True, exist_ok=True)

    failures = []
    written = []
    for rule in config.manifest:
        try:
            concept = parse_concept(rule.source, config.feature_vocab)
        except DslError as error:
            failures.append((rule.rule_id, str(error)))
            continue
        exemplar_list = generate_list(
            concept, config.feature_vocab, seed=_rule_seed(config.seed, rule.rule_id),
            rule_id=rule.rule_id,
        )
        out_path = config.lists_dir / f"{rule.rule_id}.json"
        save_list(exemplar_list, out_path)
        written.append(out_path)

    manifest = {
        "inputs": _inputs_of(config),
        "seed": config.seed,
        "files": hash_inputs(written),
    }
    write_json(config.lists_dir / "manifest.json", manifest)
    for rule_id, message in failures:
        print(f"gen: rule {rule_id!r} failed to parse: {message}", file=sys.stderr)
    print(f"gen: wrote {len(manifest['files'])} lists to {config.lists_dir}")
    return EXIT_DATA if failures else EXIT_OK


# --- run -------------------------------------------------------------------

def _load_lists(config: ExperimentConfig) -> tuple[dict[str, ExemplarList], list[tuple[str, str]]]:
    """Each rule's exemplar list, and (rule_id, message) for each rule whose
    list is missing, unreadable, another rule's (a file copied over it) or
    written under a vocab other than the config's: the learner evaluates
    every list in one batch, whose feature indices are the config vocab's."""
    lists, failures = {}, []
    for rule in config.manifest:
        path = config.lists_dir / f"{rule.rule_id}.json"
        loaded = _read("list file", path, load_list, None)
        if not isinstance(loaded, str) and loaded.rule_id != rule.rule_id:
            loaded = f"list file {path} is for rule {loaded.rule_id!r}, not {rule.rule_id!r}"
        elif not isinstance(loaded, str) and loaded.vocab != config.feature_vocab:
            loaded = f"list file {path} has a vocab other than the config's"
        if isinstance(loaded, str):
            failures.append((rule.rule_id, loaded))
        else:
            lists[rule.rule_id] = loaded
    return lists, failures


def _attempt(function, *args):
    """``function(*args)``, or its error's message: one rule's failure must
    not stop the others (a transport error stops the run).  The message alone:
    the error's traceback would keep the rule's frames, and its matrix, alive."""
    try:
        return function(*args)
    except TransportError:
        raise
    except Exception as error:  # per-rule isolation
        return str(error)


def _enumerate(config: ExperimentConfig):
    return inference.enumerate_hypotheses(
        config.grammar, config.learner.max_size, config.learner.max_hypotheses
    )


def _eval_table(config: ExperimentConfig, lists: list[ExemplarList]):
    """The hypotheses, and an iterator over each list's eval matrix."""
    hypotheses = _enumerate(config)
    return hypotheses, inference.build_eval_matrices(hypotheses, lists)


def cmd_run(config: ExperimentConfig, engine: str, mode: str = "chat") -> int:
    lists, failures = _load_lists(config)
    run_dir = config.output_dir / "runs" / engine
    run_dir.mkdir(parents=True, exist_ok=True)
    inputs = _inputs_of(config)
    rule_ids = sorted(lists)

    if engine == "plot":
        noise = NoiseParams(config.learner.alpha, config.learner.beta)
        if config.learner.engine == "mh" and config.learner.seed is None:
            raise ConfigError("learner.seed is required for the mh engine")
        # Enumerated and evaluated once over every rule's list.  Rules run in
        # rule_ids order and each takes the next list's matrix, so one matrix
        # is alive at a time.  A failed enumeration or evaluation fails each rule.
        table = None
        if config.learner.engine == "enumerate" and rule_ids:
            table = _attempt(_eval_table, config, [lists[r] for r in rule_ids])

        def run_rule(rule_id: str) -> list[Path]:
            exemplar_list = lists[rule_id]
            trace_path = None
            if config.learner.engine == "mh":
                run = run_mh(
                    exemplar_list, config.grammar, noise,
                    iterations=config.learner.mh_iterations,
                    seed=config.learner.seed,
                    max_size=config.learner.max_size,
                )
            else:
                if isinstance(table, str):
                    raise DataError(table)
                hypotheses, matrices = table
                trace_path = run_dir / f"{rule_id}.posterior.csv"
                run = run_enumerative(exemplar_list, hypotheses, next(matrices), noise, trace_path)
            series_path = run_dir / f"{rule_id}.series.json"
            elicited_path = run_dir / f"{rule_id}.elicited.json"
            save_series(LabelSeries(exemplar_list, run.labels, run.p_true), series_path)
            elicited = {
                "inputs": inputs,
                "rule_id": rule_id,
                "per_set": [print_concept(c, config.feature_vocab) for c in run.set_maps],
                "final": print_concept(run.final_map, config.feature_vocab),
            }
            if run.posterior:  # exact inference only
                elicited["posterior"] = [dataclasses.asdict(d) for d in run.posterior]
            write_json(elicited_path, elicited)
            return [p for p in (series_path, elicited_path, trace_path) if p is not None]
    elif engine == "llm":
        if config.endpoint is None:
            raise ConfigError("the llm engine requires an 'endpoint' config path")
        endpoint = load_endpoint_config(config.endpoint)
        endpoint.credential()  # fail fast before any rule runs
        transcripts_dir = config.output_dir / "transcripts" / endpoint.model
        transcripts_dir.mkdir(parents=True, exist_ok=True)
        cache_dir = config.output_dir / "cache"
        # One limiter for every session, so concurrent workers share the
        # endpoint's request rate.
        rate_limiter = (
            RateLimiter(endpoint.rate_limit_per_s) if endpoint.rate_limit_per_s else None
        )

        def run_rule(rule_id: str) -> list[Path]:
            exemplar_list = lists[rule_id]
            transcript = run_session(
                exemplar_list,
                endpoint,
                mode,
                cache_dir=cache_dir,
                transcript_path=transcripts_dir / f"{rule_id}.json",
                rate_limiter=rate_limiter,
            )
            series_path = run_dir / f"{rule_id}.series.json"
            save_series(transcript_series(transcript, exemplar_list), series_path)
            return [series_path]
    else:
        raise ConfigError(f"unknown engine {engine!r}")

    if engine == "llm":  # sessions wait on the network, so workers overlap them
        import concurrent.futures

        with concurrent.futures.ThreadPoolExecutor(max_workers=config.workers) as pool:
            outcomes = list(pool.map(_attempt, [run_rule] * len(rule_ids), rule_ids))
    else:  # the learner is CPU-bound under the GIL: threads would gain nothing
        outcomes = [_attempt(run_rule, rule_id) for rule_id in rule_ids]
    written: list[Path] = []
    for rule_id, outcome in zip(rule_ids, outcomes):
        if isinstance(outcome, str):
            failures.append((rule_id, outcome))
        else:
            written.extend(outcome)

    failed_ids = {rule_id for rule_id, _message in failures}
    # Only the files this run wrote: a directory reused across manifests
    # keeps other rules' files, which this run did not produce.
    manifest = {
        "inputs": inputs,
        "engine": engine,
        "files": hash_inputs(written),
    }
    write_json(run_dir / "manifest.json", manifest)
    for rule_id, message in failures:
        print(f"run[{engine}]: rule {rule_id!r} failed: {message}", file=sys.stderr)
    completed = sum(1 for rule_id in rule_ids if rule_id not in failed_ids)
    print(f"run[{engine}]: completed {completed} of {len(config.manifest)} rules -> {run_dir}")
    return EXIT_DATA if failures else EXIT_OK


# --- grade -----------------------------------------------------------------

def _run_file(path: Path, rule_id: str) -> dict:
    """A run directory's elicited file of ``rule_id``, which must name it:
    its per-set rules, in the form a --elicited file's entry may take."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    if doc["rule_id"] != rule_id:
        raise ValueError(f"rule_id {doc['rule_id']!r} is not {rule_id!r}")
    return {"per_set": doc["per_set"]}


def _series_labels(directory: Path, rule_id: str, exemplar_list: ExemplarList):
    """The labels of ``rule_id``'s series file under ``directory``, None if
    there is none, or the message of one that cannot be read."""
    path = directory / f"{rule_id}.series.json"
    if not path.exists():
        return None
    series = _read("series file", path, lambda p: load_series(p, exemplar_list), None)
    return series if isinstance(series, str) else series.labels


def cmd_grade(config: ExperimentConfig, elicited_path: Path, series_dir: Path | None) -> int:
    lists, failures = _load_lists(config)
    if not elicited_path.exists():
        raise ConfigError(f"elicited file {elicited_path} does not exist")
    unreadable: dict[str, str] = {}  # rule_id -> why its elicited file was skipped
    if elicited_path.is_dir():
        # A run directory: each rule reads its own <rule_id>.elicited.json,
        # which must name that rule; no other file is read.
        elicited_doc = {}
        for rule_id in lists:
            path = elicited_path / f"{rule_id}.elicited.json"
            if path.exists():
                doc = _read("elicited file", path, lambda p: _run_file(p, rule_id), None)
                (unreadable if isinstance(doc, str) else elicited_doc)[rule_id] = doc
    else:
        elicited_doc = _document("elicited file", elicited_path, DataError)

    reports_dir = config.output_dir / "reports"
    reports_dir.mkdir(parents=True, exist_ok=True)
    extra = [elicited_path] if elicited_path.is_file() else []
    inputs = _inputs_of(config, *extra)

    grades: dict[str, RuleGrade] = {}
    for rule_id in sorted(lists):
        sources = elicited_doc.get(rule_id)
        if sources is None:
            failures.append((rule_id, unreadable.get(rule_id, "no elicited entry")))
            continue
        if isinstance(sources, dict):
            sources = sources.get("per_set", [])
        if not isinstance(sources, list) or not all(
            source is None or isinstance(source, str) for source in sources
        ):
            failures.append((rule_id, f"elicited entry must be a list of printed rules "
                                      f"or nulls, got {sources!r}"))
            continue
        labels = _series_labels(series_dir, rule_id, lists[rule_id]) if series_dir else ()
        if isinstance(labels, str):
            failures.append((rule_id, labels))
            continue
        grades[rule_id] = grade_session(lists[rule_id], sources, config.feature_vocab, labels or ())

    report = match_rate(
        {rule_id: grade.final for rule_id, grade in grades.items()},
        {rule_id: lists[rule_id] for rule_id in grades},
        config.feature_vocab,
        max_set_size=config.grade_max_set_size,
    )
    write_grading_csvs(reports_dir, grades, {v.rule_id: v for v in report.verdicts}, inputs)
    unparseable = [
        {"rule_id": rule_id, "set_index": set_index, "source": source, "error": error}
        for rule_id, grade in grades.items()
        for set_index, source, error in grade.unparseable
    ]
    write_json(
        reports_dir / "grading.json",
        {
            "inputs": inputs,
            "match_rate": report.match_rate if report.verdicts else None,
            "equivalence_rate": report.equivalence_rate if report.verdicts else None,
            "unparseable": unparseable,
        },
    )
    for entry in unparseable:
        print(
            f"grade: rule {entry['rule_id']!r} set {entry['set_index']}: "
            f"unparseable source {entry['source']!r} ({entry['error']})",
            file=sys.stderr,
        )
    for rule_id, message in failures:
        print(f"grade: rule {rule_id!r} failed: {message}", file=sys.stderr)
    if report.verdicts:
        print(
            f"grade: match rate {report.match_rate:.3f}, "
            f"equivalence rate {report.equivalence_rate:.3f} over {len(report.verdicts)} rules"
        )
    else:
        print("grade: no rules graded")
    return EXIT_DATA if failures else EXIT_OK


# --- report ----------------------------------------------------------------

def _kept_subjects(
    config: ExperimentConfig, lists: dict[str, ExemplarList]
) -> tuple[dict[str, list[SubjectRecord]], list[tuple[str, str]]]:
    """The subjects the filter keeps for each rule with a list and human data,
    and (rule_id, message) for each such rule whose subjects it cannot score
    or removes entirely.  A subject file that does not parse is a data error."""
    records = _read("subject file", config.human_data, read_subject_csv, DataError)
    by_rule: dict[str, list[SubjectRecord]] = {}
    for record in records:
        by_rule.setdefault(record.rule_id, []).append(record)
    kept, failures = {}, []
    for rule_id, rule_records in sorted(by_rule.items()):
        if rule_id in lists:
            try:
                kept[rule_id], _report = filter_subjects(rule_records, lists[rule_id])
            except ValueError as error:  # EmptyPoolError among them
                failures.append((rule_id, str(error)))
    return kept, failures


# A cohort name labels its rows in the CSVs and names its deltas_<name>.csv;
# "human" is the subjects' cohort.
_COHORT = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")


def _series_dirs(items: list[str]) -> dict[str, Path]:
    """The series directory of each cohort named by ``--series NAME=DIR``."""
    series_dirs = {}
    for item in items:
        name, equals, directory = item.partition("=")
        if not equals:
            raise ConfigError(f"--series expects NAME=DIR, got {item!r}")
        if not _COHORT.fullmatch(name) or name == "human":
            raise ConfigError(
                f"--series NAME must match {_COHORT.pattern} and not be 'human', got {item!r}"
            )
        if name in series_dirs:
            raise ConfigError(f"--series names the cohort {name!r} twice")
        series_dirs[name] = Path(directory)
    return series_dirs


def cmd_report(config: ExperimentConfig, series_dirs: dict[str, Path]) -> int:
    kinds = {rule.rule_id: rule.kind for rule in config.manifest}
    lists, failures = _load_lists(config)
    reports_dir = config.output_dir / "reports"
    reports_dir.mkdir(parents=True, exist_ok=True)
    inputs = _inputs_of(config, *(p for p in [config.human_data] if p))

    # One label vector per cohort and rule, one per kept subject for humans.
    cohort_labels: dict[str, dict[str, tuple[bool | None, ...]]] = {}
    for cohort, directory in series_dirs.items():
        found = {}
        for rule_id in lists:
            labels = _series_labels(directory, rule_id, lists[rule_id])
            if isinstance(labels, str):
                failures.append((rule_id, labels))
            elif labels is not None:
                found[rule_id] = labels
        if not found:
            failures.append((cohort, f"no series files under {directory}"))
            continue
        cohort_labels[cohort] = found

    human_answers: dict[str, list[tuple[bool | None, ...]]] = {}
    if config.human_data is not None:
        kept, emptied = _kept_subjects(config, lists)
        failures.extend(emptied)
        human_answers = {
            r: [record.answers(lists[r]) for record in records] for r, records in kept.items()
        }
    gold = {rule_id: exemplar_list.gold for rule_id, exemplar_list in lists.items()}
    human_scores = {r: window_scores(answers, gold[r]) for r, answers in human_answers.items()}

    summaries = []
    for cohort, by_rule in sorted(cohort_labels.items()):
        summaries.append(summarize_series(cohort, by_rule, gold, kinds))
    if config.human_data is not None:
        summaries.append(summarize_subjects("human", human_scores, kinds))
    write_summary_csv(reports_dir / "summary.csv", summaries, inputs)

    # Each cohort's member vectors per rule; the human cohort comes last.
    members = [(c, {r: [v] for r, v in m.items()}) for c, m in sorted(cohort_labels.items())]
    members.append(("human", human_answers))
    trajectories = {}
    for rule_id, exemplar_list in sorted(lists.items()):
        reports = [set_trajectory(m[rule_id], exemplar_list, cohort)
                   for cohort, m in members if rule_id in m]
        if reports:
            trajectories[rule_id] = reports
    write_trajectory_csv(reports_dir / "trajectories.csv", trajectories, inputs)

    last_quarter = {r: s["last_quarter"] for r, s in human_scores.items() if s["last_quarter"]}
    for cohort, by_rule in sorted(cohort_labels.items()):
        model_scores = {  # a rule whose last quarter has no label drops out
            rule_id: score
            for rule_id in last_quarter if rule_id in by_rule
            for score in window_scores([by_rule[rule_id]], gold[rule_id])["last_quarter"]
        }
        shared = {r: last_quarter[r] for r in model_scores}
        if not shared:
            continue
        comparison = cohort_report(shared, model_scores)
        write_delta_csv(reports_dir / f"deltas_{cohort}.csv", comparison, kinds, inputs)
        baseline_mean, baseline_sd = subsample_baseline(shared)
        print(
            f"report: {cohort} bottom-quartile rate "
            f"{comparison.bottom_quartile_rate():.3f} "
            f"(human subsample baseline {baseline_mean:.3f} +/- {baseline_sd:.3f})"
        )

    for name, message in failures:
        print(f"report: {name!r}: {message}", file=sys.stderr)
    print(f"report: wrote CSVs to {reports_dir}")
    return EXIT_DATA if failures else EXIT_OK


# --- fit-noise -------------------------------------------------------------

def cmd_fit_noise(config: ExperimentConfig) -> int:
    if config.human_data is None:
        raise ConfigError("fit-noise requires 'human_data' in the config")
    lists, failures = _load_lists(config)
    if not failures:
        kept, failures = _kept_subjects(config, lists)
    if failures:
        for rule_id, message in failures:
            print(f"fit-noise: rule {rule_id!r}: {message}", file=sys.stderr)
        raise DataError("fit-noise needs every rule's exemplar list and kept subjects")
    if not kept:
        raise DataError("no rules have both an exemplar list and human data")

    fit_lists = [lists[rule_id] for rule_id in kept]
    proportions = [human_proportions(records, lists[rule_id]) for rule_id, records in kept.items()]
    del kept  # the fit reads only the proportions: free the subjects' records before it
    hypotheses = _enumerate(config)
    try:
        fit = fit_noise(fit_lists, proportions, noise_grid(config.fit_grid_step), hypotheses)
    except ValueError as error:  # the subjects' data leave the fit undefined
        raise DataError(f"fit-noise: {error}") from error
    fitted, runner_up = fit.noise, fit.runner_up
    reports_dir = config.output_dir / "reports"
    reports_dir.mkdir(parents=True, exist_ok=True)
    write_json(
        reports_dir / "noise_fit.json",
        {
            "inputs": _inputs_of(config, config.human_data),
            "alpha": fitted.alpha,
            "beta": fitted.beta,
            "grid_step": config.fit_grid_step,
            "rules": [l.rule_id for l in fit_lists],
            "r2": fit.r2,
            "runner_up": None if runner_up is None else {
                "alpha": runner_up.alpha, "beta": runner_up.beta, "r2": fit.runner_up_r2,
            },
            "undefined_points": fit.undefined_points,
        },
    )
    print(f"fit-noise: alpha={fitted.alpha} beta={fitted.beta}")
    return EXIT_OK


# --- entry point -----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rulelab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        command = sub.add_parser(name, help=help_text)
        command.add_argument("--config", required=True, help="experiment config JSON")
        return command

    add("gen", "generate exemplar lists for every rule in the manifest")

    run = add("run", "replay the labeling task with a learner engine")
    run.add_argument("--engine", choices=("plot", "llm"), required=True)
    run.add_argument(
        "--mode",
        choices=("chat", "completion", "chat+elicitation"),
        default="chat",
        help="prompt format for the llm engine",
    )

    grade = add("grade", "grade elicited rules against their lists")
    grade.add_argument("--elicited", required=True, help="elicited concepts JSON")
    grade.add_argument("--series-dir", help="series directory for consistency scoring")

    report = add("report", "emit summary, trajectory, and delta CSVs")
    report.add_argument(
        "--series",
        action="append",
        default=[],
        metavar="NAME=DIR",
        help="cohort name and series directory (repeatable)",
    )

    add("fit-noise", "fit noise parameters to human data")
    return parser


def _bind(command: str) -> None:
    """Bind ``command``'s library names into this module's globals."""
    module = sys.modules[__name__]
    for names in _COMMANDS[command].values():
        for name in names:
            getattr(module, name)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        _bind(args.command)
        if args.command == "run":
            _bind(f"run --engine {args.engine}")
        if args.command == "gen":
            return cmd_gen(config)
        if args.command == "run":
            return cmd_run(config, args.engine, args.mode)
        if args.command == "grade":
            series_dir = Path(args.series_dir) if args.series_dir else None
            return cmd_grade(config, Path(args.elicited), series_dir)
        if args.command == "report":
            return cmd_report(config, _series_dirs(args.series))
        if args.command == "fit-noise":
            return cmd_fit_noise(config)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, CredentialError, EndpointConfigError) as error:
        print(f"config error: {error}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, HypothesisBudgetError) as error:
        print(f"data error: {error}", file=sys.stderr)
        return EXIT_DATA
    except TransportError as error:
        print(f"transport error: {error}", file=sys.stderr)
        return EXIT_TRANSPORT


if __name__ == "__main__":
    sys.exit(main())
