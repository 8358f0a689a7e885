"""Command-line interface for end-to-end experiments.

Commands:

    gen        generate exemplar lists for every rule in the manifest
    run        replay the labeling task (engine: plot or llm)
    grade      grade elicited rules: likelihood, consistency, match
    report     summary, trajectory, and delta CSVs from label series
    split      seeded train/held-out partition of the rule manifest
    fit-noise  grid-fit the learner's noise parameters to human data

Every command is deterministic given the config file and caches; all
randomness is seeded from the config.  Exit codes: 0 success, 2 config
error, 3 data error, 4 transport error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from ._lazy import lazy_exports
from .catalog import DEFAULT_VOCAB, RuleSpec, read_rules_manifest
from .dsl import MAX_CONTEXTS, MAX_OBJECTS, DslError, FeatureVocab, count_contexts, load_vocab
from .harness import CredentialError, EndpointConfigError, TransportError
from .learner import Grammar, HypothesisBudgetError, default_grammar, load_grammar

if TYPE_CHECKING:
    from .exemplars import ExemplarList, SubjectRecord
    from .metrics import LabelSeries, RuleGrade

# The library names each command runs.  main binds a command's names into
# this module's globals when it dispatches the command, so a command loads
# only the modules it runs: gen, report and split never import numpy, and
# only the llm engine's HTTP transport imports the HTTP stack.
_COMMAND_NAMES = {
    "gen": ("generate_list", "hash_inputs", "parse_concept", "save_list", "write_json"),
    "run": (
        "NoiseParams", "RateLimiter", "hash_inputs", "inference", "load_endpoint_config",
        "load_list", "print_concept", "run_enumerative", "run_mh", "run_session", "save_series",
        "series_from_sets", "transcript_series", "write_json",
    ),
    "grade": (
        "grade_session", "hash_inputs", "load_list", "load_series", "match_rate",
        "write_grading_csvs", "write_json",
    ),
    "report": (
        "cohort_report", "filter_subjects", "hash_inputs", "load_list", "load_series",
        "read_subject_csv", "series_from_sets", "set_trajectory", "subsample_baseline",
        "summarize_series", "summarize_subjects", "window_scores", "write_delta_csv",
        "write_summary_csv", "write_trajectory_csv",
    ),
    "split": ("split_rules", "write_split_manifest"),
    "fit-noise": (
        "filter_subjects", "fit_noise", "hash_inputs", "human_proportions", "inference",
        "load_list", "noise_grid", "read_subject_csv", "write_json",
    ),
}

# Where each of those names lives.  A lookup of ``rulelab.cli.<name>`` also
# binds it (a value patched in first is kept), so a test or a tracer can
# replace one before the command runs.
__getattr__, __dir__ = lazy_exports(globals(), {
    ".dsl": ("parse_concept", "print_concept"),
    ".exemplars": (
        "filter_subjects", "generate_list", "human_proportions", "load_list", "read_subject_csv",
        "save_list", "split_rules", "write_json", "write_split_manifest",
    ),
    ".harness": ("RateLimiter", "load_endpoint_config", "run_session", "transcript_series"),
    ".learner": ("NoiseParams", "fit_noise", "noise_grid", "run_enumerative", "run_mh"),
    ".learner.inference": ("inference",),  # its functions are looked up at call time
    ".metrics": (
        "cohort_report", "grade_session", "hash_inputs", "load_series", "match_rate",
        "save_series", "series_from_sets", "set_trajectory", "subsample_baseline",
        "summarize_series", "summarize_subjects", "window_scores", "write_delta_csv",
        "write_grading_csvs", "write_summary_csv", "write_trajectory_csv",
    ),
})

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_TRANSPORT = 4


class ConfigError(Exception):
    pass


class DataError(Exception):
    pass


# What reading a JSON or CSV file that is truncated or of the wrong shape
# raises (json.JSONDecodeError is a ValueError).
_UNREADABLE = (KeyError, TypeError, ValueError)


@dataclass
class LearnerSettings:
    grammar: str | None = None
    max_size: int = 3
    alpha: float = 0.95
    beta: float = 0.5
    engine: str = "enumerate"  # "enumerate" | "mh"
    mh_iterations: int = 20_000
    seed: int | None = None
    max_hypotheses: int = 200_000


@dataclass
class ExperimentConfig:
    path: Path
    rules: Path
    lists_dir: Path
    output_dir: Path
    manifest: list[RuleSpec]  # the rules file, read and checked with the config
    vocab: FeatureVocab  # the vocab file's, or the stock vocab
    grammar: Grammar  # the learner.grammar file's, or the stock grammar
    vocab_path: Path | None = None
    seed: int | None = None
    endpoint: Path | None = None
    human_data: Path | None = None
    learner: LearnerSettings = field(default_factory=LearnerSettings)
    fit_grid_step: float = 0.05
    grade_max_set_size: int = 5
    workers: int = 1


def _checked(doc: dict, key: str, default, valid, want: str, prefix: str = ""):
    """``doc[key]`` (or ``default``) if ``valid`` holds for it; JSON booleans
    are never numbers here."""
    value = doc.get(key, default)
    if isinstance(value, bool) or not valid(value):
        raise ConfigError(f"{prefix}{key} must be {want}, got {value!r}")
    return value


_POSITIVE = (lambda v: isinstance(v, int) and v >= 1, "a positive integer")
_UNIT = (lambda v: isinstance(v, (int, float)) and 0.0 <= v <= 1.0, "a number in [0, 1]")
_STEP = (lambda v: isinstance(v, (int, float)) and 0.0 < v <= 1.0, "a number in (0, 1]")
_SEED = (lambda v: v is None or isinstance(v, int), "an integer")
_PATH = (lambda v: v is None or isinstance(v, str), "a path string")


def _read(name: str, path: Path, reader):
    """``reader(path)``; a file it cannot read or check is a config error."""
    try:
        return reader(path)
    except (OSError, DslError, *_UNREADABLE) as error:
        raise ConfigError(f"{name} file {path} is unreadable: {error}") from error


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        raise ConfigError(f"config {path} is not valid JSON: {error}") from error
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must hold a JSON object")

    known = {
        "rules", "lists_dir", "output_dir", "vocab", "seed", "endpoint",
        "human_data", "learner", "fit_grid_step", "grade_max_set_size", "workers",
    }
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for required in ("rules", "lists_dir", "output_dir"):
        if doc.get(required) is None:
            raise ConfigError(f"config key {required!r} is required and must not be null")
    for key in ("rules", "lists_dir", "output_dir", "vocab", "endpoint", "human_data"):
        _checked(doc, key, None, *_PATH)

    base = path.parent

    def resolve(key: str) -> Path | None:
        if key not in doc or doc[key] is None:
            return None
        return (base / doc[key]).resolve() if not Path(doc[key]).is_absolute() else Path(doc[key])

    learner_doc = _checked(doc, "learner", {}, lambda v: isinstance(v, dict), "an object")
    unknown = set(learner_doc) - {
        "grammar", "max_size", "alpha", "beta", "engine", "mh_iterations",
        "seed", "max_hypotheses",
    }
    if unknown:
        raise ConfigError(f"unknown learner config keys: {sorted(unknown)}")
    grammar = _checked(learner_doc, "grammar", None, *_PATH, "learner.")
    if grammar is not None and not Path(grammar).is_absolute():
        grammar = str((base / grammar).resolve())
    learner = LearnerSettings(
        grammar=grammar,
        max_size=_checked(learner_doc, "max_size", 3, *_POSITIVE, "learner."),
        alpha=float(_checked(learner_doc, "alpha", 0.95, *_UNIT, "learner.")),
        beta=float(_checked(learner_doc, "beta", 0.5, *_UNIT, "learner.")),
        engine=learner_doc.get("engine", "enumerate"),
        mh_iterations=_checked(learner_doc, "mh_iterations", 20_000, *_POSITIVE, "learner."),
        seed=_checked(learner_doc, "seed", None, *_SEED, "learner."),
        max_hypotheses=_checked(learner_doc, "max_hypotheses", 200_000, *_POSITIVE, "learner."),
    )
    if learner.engine not in ("enumerate", "mh"):
        raise ConfigError(f"learner.engine must be enumerate or mh, got {learner.engine!r}")

    paths = {key: resolve(key) for key in ("rules", "vocab", "endpoint", "human_data")}
    paths["learner.grammar"] = Path(grammar) if grammar else None
    for name, file_path in paths.items():
        if file_path is not None and not file_path.exists():
            raise ConfigError(f"config {name!r} points at missing file {file_path}")
    vocab = DEFAULT_VOCAB if paths["vocab"] is None else _read("vocab", paths["vocab"], load_vocab)
    grade_max_set_size = _checked(doc, "grade_max_set_size", 5, *_POSITIVE)
    # grade's equivalence walk would fail on either bound only once it ran.
    if grade_max_set_size > MAX_OBJECTS:
        raise ConfigError(
            f"grade_max_set_size must be at most {MAX_OBJECTS}, the largest displayed set, "
            f"got {grade_max_set_size}"
        )
    contexts = count_contexts(vocab, grade_max_set_size)
    if contexts > MAX_CONTEXTS:
        raise ConfigError(
            f"grade_max_set_size {grade_max_set_size} spans {contexts} contexts of this "
            f"vocab, above the equivalence check's cap of {MAX_CONTEXTS}"
        )
    return ExperimentConfig(
        path=path,
        rules=paths["rules"],
        lists_dir=resolve("lists_dir"),
        output_dir=resolve("output_dir"),
        manifest=_read("rules", paths["rules"], read_rules_manifest),
        vocab=vocab,
        grammar=default_grammar(vocab) if grammar is None else _read(
            "learner.grammar", paths["learner.grammar"], lambda p: load_grammar(p, vocab)
        ),
        vocab_path=paths["vocab"],
        seed=_checked(doc, "seed", None, *_SEED),
        endpoint=paths["endpoint"],
        human_data=paths["human_data"],
        learner=learner,
        fit_grid_step=float(_checked(doc, "fit_grid_step", 0.05, *_STEP)),
        grade_max_set_size=grade_max_set_size,
        workers=_checked(doc, "workers", 1, *_POSITIVE),
    )


def _rule_seed(base_seed: int, rule_id: str) -> int:
    digest = hashlib.sha256(f"{base_seed}:{rule_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _inputs_of(config: ExperimentConfig, *extra: Path | str) -> dict[str, str]:
    paths = [config.path, config.rules]
    if config.vocab_path:
        paths.append(config.vocab_path)
    paths.extend(Path(p) for p in extra)
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
            concept = parse_concept(rule.source, config.vocab)
        except DslError as error:
            failures.append((rule.rule_id, str(error)))
            continue
        exemplar_list = generate_list(
            concept, config.vocab, seed=_rule_seed(config.seed, rule.rule_id), rule_id=rule.rule_id
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
    list is missing, unreadable or written under a vocab other than the
    config's: the learner evaluates every list in one batch, whose feature
    indices are the config vocab's."""
    lists, failures = {}, []
    for rule in config.manifest:
        path = config.lists_dir / f"{rule.rule_id}.json"
        if not path.exists():
            failures.append((rule.rule_id, f"missing list file {path}"))
            continue
        try:
            exemplar_list = load_list(path)
        except (DslError, *_UNREADABLE) as error:
            failures.append((rule.rule_id, f"unreadable list file {path}: {error!r}"))
            continue
        if exemplar_list.vocab != config.vocab:
            failures.append((rule.rule_id, f"list file {path} has a vocab other than the config's"))
            continue
        lists[rule.rule_id] = exemplar_list
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
            save_series(series_from_sets(run.rule_id, exemplar_list, (
                (p.set_index, p.labels, p.p_true) for p in run.per_set
            )), series_path)
            elicited = {
                "inputs": inputs,
                "rule_id": rule_id,
                "per_set": [print_concept(p.map_concept, config.vocab) for p in run.per_set],
                "final": print_concept(run.final_map, config.vocab),
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

def cmd_grade(config: ExperimentConfig, elicited_path: Path, series_dir: Path | None) -> int:
    lists, failures = _load_lists(config)
    if not elicited_path.exists():
        raise ConfigError(f"elicited file {elicited_path} does not exist")
    unreadable: dict[str, str] = {}  # rule_id -> why its elicited file was skipped
    if elicited_path.is_dir():
        # A run directory: one <rule_id>.elicited.json per rule.
        elicited_doc = {}
        for path in sorted(elicited_path.glob("*.elicited.json")):
            try:
                doc = json.loads(path.read_text())
                elicited_doc[doc["rule_id"]] = doc["per_set"]
            except _UNREADABLE as error:
                rule_id = path.name.removesuffix(".elicited.json")
                unreadable[rule_id] = f"unreadable elicited file {path}: {error}"
    else:
        try:
            elicited_doc = json.loads(elicited_path.read_text())
        except json.JSONDecodeError as error:
            raise DataError(f"elicited file {elicited_path} is not valid JSON: {error}") from error
        if not isinstance(elicited_doc, dict):
            raise DataError(f"elicited file {elicited_path} must hold a JSON object")

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
        series_path = series_dir / f"{rule_id}.series.json" if series_dir is not None else None
        try:
            series = load_series(series_path) if series_path and series_path.exists() else None
        except _UNREADABLE as error:
            failures.append((rule_id, f"unreadable series file {series_path}: {error}"))
            continue
        grades[rule_id] = grade_session(lists[rule_id], sources, config.vocab, series)

    report = match_rate(
        {rule_id: grade.final for rule_id, grade in grades.items()},
        {rule_id: lists[rule_id] for rule_id in grades},
        config.vocab,
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

def _human_series(records, gold: ExemplarList) -> list[LabelSeries]:
    """One series per subject; an object the subject never reached is unlabeled."""
    return [
        series_from_sets(gold.rule_id, gold, (
            (s, [record.responses.get((s, i)) for i in range(len(exemplar_set.labels))], None)
            for s, exemplar_set in enumerate(gold.sets)
        ))
        for record in records
    ]


def _kept_subjects(
    config: ExperimentConfig, lists: dict[str, ExemplarList]
) -> tuple[dict[str, list[SubjectRecord]], list[tuple[str, str]]]:
    """The subjects the filter keeps for each rule with a list and human data,
    and (rule_id, message) for each such rule whose subjects it cannot score
    or removes entirely.  A subject file that does not parse is a data error."""
    try:
        records = read_subject_csv(config.human_data)
    except (OSError, csv.Error, *_UNREADABLE) as error:
        raise DataError(f"subject file {config.human_data} is unreadable: {error}") from error
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


def cmd_report(config: ExperimentConfig, series_dirs: dict[str, Path]) -> int:
    kinds = {rule.rule_id: rule.kind for rule in config.manifest}
    lists, failures = _load_lists(config)
    reports_dir = config.output_dir / "reports"
    reports_dir.mkdir(parents=True, exist_ok=True)
    inputs = _inputs_of(config, *(p for p in [config.human_data] if p))

    cohort_series: dict[str, dict[str, LabelSeries]] = {}
    for cohort, directory in series_dirs.items():
        found = {}
        for rule_id in lists:
            path = directory / f"{rule_id}.series.json"
            if path.exists():
                try:
                    found[rule_id] = load_series(path)
                except _UNREADABLE as error:
                    failures.append((rule_id, f"unreadable series file {path}: {error}"))
        if not found:
            failures.append((cohort, f"no series files under {directory}"))
            continue
        cohort_series[cohort] = found

    # Each kept subject as a series, scored once per window.
    human_series: dict[str, list[LabelSeries]] = {}
    if config.human_data is not None:
        kept, emptied = _kept_subjects(config, lists)
        failures.extend(emptied)
        human_series = {r: _human_series(records, lists[r]) for r, records in kept.items()}
    human_scores = {rule_id: window_scores(series) for rule_id, series in human_series.items()}

    summaries = []
    for cohort, by_rule in sorted(cohort_series.items()):
        summaries.append(summarize_series(cohort, by_rule, kinds))
    if config.human_data is not None:
        summaries.append(summarize_subjects("human", human_scores, kinds))
    write_summary_csv(reports_dir / "summary.csv", summaries, inputs)

    # Each cohort's member series per rule; the human cohort comes last.
    members = [(c, {r: [s] for r, s in m.items()}) for c, m in sorted(cohort_series.items())]
    members.append(("human", human_series))
    trajectories = {}
    for rule_id in sorted(lists):
        reports = [set_trajectory(m[rule_id], cohort) for cohort, m in members if rule_id in m]
        if reports:
            trajectories[rule_id] = reports
    write_trajectory_csv(reports_dir / "trajectories.csv", trajectories, inputs)

    last_quarter = {r: s["last_quarter"] for r, s in human_scores.items() if s["last_quarter"]}
    for cohort, by_rule in sorted(cohort_series.items()):
        model_scores = {  # a rule whose last quarter has no label drops out
            rule_id: score
            for rule_id in last_quarter if rule_id in by_rule
            for score in window_scores([by_rule[rule_id]])["last_quarter"]
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


# --- split -----------------------------------------------------------------

def cmd_split(config: ExperimentConfig, held_out: int, seed: int | None) -> int:
    if seed is None:
        seed = config.seed
    if seed is None:
        raise ConfigError("split requires --seed or a top-level 'seed' in the config")
    try:
        train, held = split_rules([r.rule_id for r in config.manifest], held_out, seed)
    except ValueError as error:
        raise DataError(str(error)) from error
    splits_dir = config.output_dir / "splits"
    splits_dir.mkdir(parents=True, exist_ok=True)
    out_path = splits_dir / f"split_seed{seed}_held{held_out}.json"
    write_split_manifest(train, held, seed, out_path)
    print(f"split: {len(train)} train / {len(held)} held-out -> {out_path}")
    return EXIT_OK


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
    tables = [human_proportions(records, lists[rule_id]) for rule_id, records in kept.items()]
    hypotheses = _enumerate(config)
    try:
        fit = fit_noise(fit_lists, tables, noise_grid(config.fit_grid_step), hypotheses)
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

    split = add("split", "partition the rule manifest")
    split.add_argument("--held-out", type=int, required=True)
    split.add_argument("--seed", type=int)

    add("fit-noise", "fit noise parameters to human data")
    return parser


def _bind(command: str) -> None:
    """Bind ``command``'s library names into this module's globals."""
    module = sys.modules[__name__]
    for name in _COMMAND_NAMES[command]:
        getattr(module, name)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        _bind(args.command)
        if args.command == "gen":
            return cmd_gen(config)
        if args.command == "run":
            return cmd_run(config, args.engine, args.mode)
        if args.command == "grade":
            series_dir = Path(args.series_dir) if args.series_dir else None
            return cmd_grade(config, Path(args.elicited), series_dir)
        if args.command == "report":
            series_dirs = {}
            for item in args.series:
                if "=" not in item:
                    raise ConfigError(f"--series expects NAME=DIR, got {item!r}")
                name, _, directory = item.partition("=")
                series_dirs[name] = Path(directory)
            return cmd_report(config, series_dirs)
        if args.command == "split":
            return cmd_split(config, args.held_out, args.seed)
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
