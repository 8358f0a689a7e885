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
import concurrent.futures
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .catalog import DEFAULT_VOCAB, RuleSpec, read_rules_manifest
from .dsl import Concept, DslError, FeatureVocab, load_vocab, parse_concept, print_concept
from .exemplars import (
    ExemplarList,
    filter_subjects,
    generate_list,
    human_proportions,
    load_list,
    propagated_baseline,
    read_subject_csv,
    save_list,
    split_rules,
    write_atomic,
    write_split_manifest,
)
from .harness import (
    CredentialError,
    RateLimiter,
    TransportError,
    load_endpoint_config,
    run_session,
    transcript_series,
)
from .learner import (
    Grammar,
    LearnerRun,
    NoiseParams,
    default_grammar,
    fit_noise,
    load_grammar,
    noise_grid,
    run_enumerative,
    run_mh,
)
from .metrics import (
    EmptyWindowError,
    LabelSeries,
    ObjectRecord,
    accuracy,
    cohort_report,
    hash_inputs,
    load_series,
    rule_likelihood_counts,
    save_series,
    set_trajectory,
    subsample_baseline,
    summarize_series,
    write_delta_csv,
    write_summary_csv,
    write_trajectory_csv,
)
from .metrics.grading import match_rate
from .metrics.reports import AccuracySummary

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_TRANSPORT = 4


class ConfigError(Exception):
    pass


class DataError(Exception):
    pass


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

    def noise(self) -> NoiseParams:
        return NoiseParams(self.alpha, self.beta)


@dataclass
class ExperimentConfig:
    path: Path
    rules: Path
    lists_dir: Path
    output_dir: Path
    vocab_path: Path | None = None
    seed: int | None = None
    endpoint: Path | None = None
    human_data: Path | None = None
    learner: LearnerSettings = field(default_factory=LearnerSettings)
    fit_grid_step: float = 0.05
    grade_max_set_size: int = 5
    workers: int = 1
    subsamples: int = 10_000

    def load_vocab(self) -> FeatureVocab:
        if self.vocab_path is None:
            return DEFAULT_VOCAB
        return load_vocab(self.vocab_path)

    def load_grammar(self, vocab: FeatureVocab) -> Grammar:
        if self.learner.grammar is None:
            return default_grammar(vocab)
        return load_grammar(self.learner.grammar, vocab)


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        raise ConfigError(f"config {path} is not valid JSON: {error}") from error

    known = {
        "rules", "lists_dir", "output_dir", "vocab", "seed", "endpoint",
        "human_data", "learner", "fit_grid_step", "grade_max_set_size",
        "workers", "subsamples",
    }
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for required in ("rules", "lists_dir", "output_dir"):
        if required not in doc:
            raise ConfigError(f"config key {required!r} is required")

    base = path.parent

    def resolve(key: str) -> Path | None:
        if key not in doc or doc[key] is None:
            return None
        return (base / doc[key]).resolve() if not Path(doc[key]).is_absolute() else Path(doc[key])

    learner_doc = doc.get("learner", {})
    unknown = set(learner_doc) - {
        "grammar", "max_size", "alpha", "beta", "engine", "mh_iterations",
        "seed", "max_hypotheses",
    }
    if unknown:
        raise ConfigError(f"unknown learner config keys: {sorted(unknown)}")
    grammar = learner_doc.get("grammar")
    if grammar is not None and not Path(grammar).is_absolute():
        grammar = str((base / grammar).resolve())
    learner = LearnerSettings(
        grammar=grammar,
        max_size=int(learner_doc.get("max_size", 3)),
        alpha=float(learner_doc.get("alpha", 0.95)),
        beta=float(learner_doc.get("beta", 0.5)),
        engine=learner_doc.get("engine", "enumerate"),
        mh_iterations=int(learner_doc.get("mh_iterations", 20_000)),
        seed=learner_doc.get("seed"),
        max_hypotheses=int(learner_doc.get("max_hypotheses", 200_000)),
    )
    if learner.engine not in ("enumerate", "mh"):
        raise ConfigError(f"learner.engine must be enumerate or mh, got {learner.engine!r}")

    config = ExperimentConfig(
        path=path,
        rules=resolve("rules"),
        lists_dir=resolve("lists_dir"),
        output_dir=resolve("output_dir"),
        vocab_path=resolve("vocab"),
        seed=doc.get("seed"),
        endpoint=resolve("endpoint"),
        human_data=resolve("human_data"),
        learner=learner,
        fit_grid_step=float(doc.get("fit_grid_step", 0.05)),
        grade_max_set_size=int(doc.get("grade_max_set_size", 5)),
        workers=int(doc.get("workers", 1)),
        subsamples=int(doc.get("subsamples", 10_000)),
    )
    for name, file_path in (
        ("rules", config.rules),
        ("vocab", config.vocab_path),
        ("endpoint", config.endpoint),
        ("human_data", config.human_data),
        ("learner.grammar", Path(learner.grammar) if learner.grammar else None),
    ):
        if file_path is not None and not Path(file_path).exists():
            raise ConfigError(f"config {name!r} points at missing file {file_path}")
    return config


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
    rules = read_rules_manifest(config.rules)
    if not rules:
        print("warning: rules manifest is empty, nothing to generate", file=sys.stderr)
        return EXIT_OK
    if config.seed is None:
        raise ConfigError("gen requires a top-level 'seed' in the config")
    vocab = config.load_vocab()
    config.lists_dir.mkdir(parents=True, exist_ok=True)

    failures = []
    file_hashes = {}
    for rule in rules:
        try:
            concept = parse_concept(rule.source, vocab)
        except DslError as error:
            failures.append((rule.rule_id, str(error)))
            continue
        exemplar_list = generate_list(
            concept, vocab, seed=_rule_seed(config.seed, rule.rule_id), rule_id=rule.rule_id
        )
        out_path = config.lists_dir / f"{rule.rule_id}.json"
        save_list(exemplar_list, out_path)
        file_hashes[out_path.name] = hashlib.sha256(out_path.read_bytes()).hexdigest()

    manifest = {
        "inputs": _inputs_of(config),
        "seed": config.seed,
        "files": file_hashes,
    }
    write_atomic(config.lists_dir / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    for rule_id, message in failures:
        print(f"gen: rule {rule_id!r} failed to parse: {message}", file=sys.stderr)
    print(f"gen: wrote {len(file_hashes)} lists to {config.lists_dir}")
    return EXIT_DATA if failures else EXIT_OK


# --- run -------------------------------------------------------------------

def _load_lists(config: ExperimentConfig, rules: list[RuleSpec]) -> tuple[dict[str, ExemplarList], list[tuple[str, str]]]:
    lists = {}
    failures = []
    for rule in rules:
        path = config.lists_dir / f"{rule.rule_id}.json"
        if not path.exists():
            failures.append((rule.rule_id, f"missing list file {path}"))
            continue
        try:
            lists[rule.rule_id] = load_list(path)
        except (DslError, json.JSONDecodeError, KeyError) as error:
            failures.append((rule.rule_id, f"unreadable list file: {error}"))
    return lists, failures


def _learner_series(run: LearnerRun, exemplar_list: ExemplarList) -> LabelSeries:
    records = []
    for prediction in run.per_set:
        gold = exemplar_list.sets[prediction.set_index].labels
        for object_index, label in enumerate(prediction.labels):
            records.append(
                ObjectRecord(
                    set_index=prediction.set_index,
                    object_index=object_index,
                    gold=gold[object_index],
                    model=label,
                    p_true=prediction.p_true[object_index],
                )
            )
    return LabelSeries(rule_id=run.rule_id, records=records)


def _save_json(path: Path, doc: dict) -> None:
    write_atomic(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def cmd_run(config: ExperimentConfig, engine: str, mode: str = "chat") -> int:
    rules = read_rules_manifest(config.rules)
    vocab = config.load_vocab()
    lists, failures = _load_lists(config, rules)
    run_dir = config.output_dir / "runs" / engine
    run_dir.mkdir(parents=True, exist_ok=True)
    inputs = _inputs_of(config)

    if engine == "plot":
        grammar = config.load_grammar(vocab)
        noise = config.learner.noise()
        if config.learner.engine == "mh" and config.learner.seed is None:
            raise ConfigError("learner.seed is required for the mh engine")

        def run_rule(rule_id: str) -> list[Path]:
            exemplar_list = lists[rule_id]
            trace_path = None
            if config.learner.engine == "mh":
                run = run_mh(
                    exemplar_list, grammar, noise,
                    iterations=config.learner.mh_iterations,
                    seed=config.learner.seed,
                    max_size=config.learner.max_size,
                )
            else:
                trace_path = run_dir / f"{rule_id}.posterior.csv"
                run = run_enumerative(
                    exemplar_list, grammar, noise,
                    max_size=config.learner.max_size,
                    max_hypotheses=config.learner.max_hypotheses,
                    trace_path=trace_path,
                )
            series_path = run_dir / f"{rule_id}.series.json"
            elicited_path = run_dir / f"{rule_id}.elicited.json"
            save_series(_learner_series(run, exemplar_list), series_path)
            _save_json(
                elicited_path,
                {
                    "inputs": inputs,
                    "rule_id": rule_id,
                    "per_set": [print_concept(p.map_concept, vocab) for p in run.per_set],
                    "final": print_concept(run.final_map, vocab),
                },
            )
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

    rule_ids = sorted(lists)
    written: list[Path] = []
    if config.workers > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=config.workers) as pool:
            futures = {pool.submit(run_rule, rule_id): rule_id for rule_id in rule_ids}
            for future in concurrent.futures.as_completed(futures):
                rule_id = futures[future]
                try:
                    written.extend(future.result())
                except TransportError:
                    raise
                except Exception as error:  # per-rule isolation
                    failures.append((rule_id, str(error)))
    else:
        for rule_id in rule_ids:
            try:
                written.extend(run_rule(rule_id))
            except TransportError:
                raise
            except Exception as error:
                failures.append((rule_id, str(error)))

    failed_ids = {rule_id for rule_id, _message in failures}
    # Only the files this run wrote: a directory reused across manifests
    # keeps other rules' files, which this run did not produce.
    manifest = {
        "inputs": inputs,
        "engine": engine,
        "files": {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(written)
        },
    }
    _save_json(run_dir / "manifest.json", manifest)
    for rule_id, message in failures:
        print(f"run[{engine}]: rule {rule_id!r} failed: {message}", file=sys.stderr)
    completed = sum(1 for rule_id in rule_ids if rule_id not in failed_ids)
    print(f"run[{engine}]: completed {completed} of {len(rules)} rules -> {run_dir}")
    return EXIT_DATA if failures else EXIT_OK


# --- grade -----------------------------------------------------------------

def cmd_grade(config: ExperimentConfig, elicited_path: Path, series_dir: Path | None) -> int:
    rules = read_rules_manifest(config.rules)
    vocab = config.load_vocab()
    lists, failures = _load_lists(config, rules)
    if not elicited_path.exists():
        raise ConfigError(f"elicited file {elicited_path} does not exist")
    if elicited_path.is_dir():
        # A run directory: one <rule_id>.elicited.json per rule.
        elicited_doc = {}
        for path in sorted(elicited_path.glob("*.elicited.json")):
            doc = json.loads(path.read_text())
            elicited_doc[doc["rule_id"]] = doc["per_set"]
    else:
        elicited_doc = json.loads(elicited_path.read_text())

    reports_dir = config.output_dir / "reports"
    reports_dir.mkdir(parents=True, exist_ok=True)
    extra = [elicited_path] if elicited_path.is_file() else []
    inputs = _inputs_of(config, *extra)

    per_set_rows = []
    summary_rows = []
    finals: dict[str, Concept | None] = {}
    graded_lists: dict[str, ExemplarList] = {}
    unparseable = []
    for rule_id in sorted(lists):
        sources = elicited_doc.get(rule_id)
        if sources is None:
            failures.append((rule_id, "no elicited entry"))
            continue
        if isinstance(sources, dict):
            sources = sources.get("per_set", [])
        exemplar_list = lists[rule_id]
        concepts: list[Concept | None] = []
        for set_index, source in enumerate(sources):
            if source is None:
                concepts.append(None)
                continue
            try:
                concepts.append(parse_concept(source, vocab))
            except DslError as error:
                concepts.append(None)
                unparseable.append((rule_id, set_index, source, str(error)))

        evidence = []
        likelihoods = []
        consistency_hits = consistency_total = 0
        series = None
        if series_dir is not None:
            series_path = series_dir / f"{rule_id}.series.json"
            if series_path.exists():
                series = load_series(series_path)
        labels_by_set: dict[int, dict[int, bool | None]] = {}
        if series is not None:
            for record in series.records:
                labels_by_set.setdefault(record.set_index, {})[record.object_index] = record.model

        for set_index, exemplar_set in enumerate(exemplar_list.sets):
            concept = concepts[set_index] if set_index < len(concepts) else None
            likelihood = None
            if concept is not None and evidence:
                correct, total = rule_likelihood_counts(concept, evidence)
                likelihood = correct / total
            per_set_rows.append(
                [
                    rule_id,
                    set_index,
                    sources[set_index] if set_index < len(sources) else None,
                    "" if likelihood is None else f"{likelihood:.6g}",
                ]
            )
            if likelihood is not None:
                likelihoods.append(likelihood)
            if concept is not None and set_index in labels_by_set:
                from .dsl import evaluate

                for object_index, model_label in labels_by_set[set_index].items():
                    if model_label is None:
                        continue
                    ctx = exemplar_set.context_for(object_index)
                    consistency_total += 1
                    consistency_hits += evaluate(concept, ctx) == model_label
            evidence += [
                (exemplar_set.context_for(i), label)
                for i, label in enumerate(exemplar_set.labels)
            ]

        finals[rule_id] = concepts[-1] if concepts else None
        graded_lists[rule_id] = exemplar_list
        summary_rows.append(
            {
                "rule_id": rule_id,
                "mean_likelihood": sum(likelihoods) / len(likelihoods) if likelihoods else None,
                "consistency": (
                    consistency_hits / consistency_total if consistency_total else None
                ),
            }
        )

    report = match_rate(finals, graded_lists, vocab, max_set_size=config.grade_max_set_size)
    verdict_by_rule = {v.rule_id: v for v in report.verdicts}

    from .metrics.reports import _write_csv

    _write_csv(
        reports_dir / "grading_per_set.csv",
        ["rule_id", "set_index", "source", "likelihood"],
        per_set_rows,
        inputs,
    )
    rows = []
    for row in summary_rows:
        verdict = verdict_by_rule[row["rule_id"]]
        rows.append(
            [
                row["rule_id"],
                "" if row["mean_likelihood"] is None else f"{row['mean_likelihood']:.6g}",
                "" if row["consistency"] is None else f"{row['consistency']:.6g}",
                "" if verdict.likelihood is None else f"{float(verdict.likelihood):.6g}",
                str(verdict.matches),
                str(verdict.equivalent),
            ]
        )
    _write_csv(
        reports_dir / "grading_summary.csv",
        ["rule_id", "mean_likelihood", "consistency", "final_likelihood", "match", "equivalent"],
        rows,
        inputs,
    )
    _save_json(
        reports_dir / "grading.json",
        {
            "inputs": inputs,
            "match_rate": report.match_rate if report.verdicts else None,
            "equivalence_rate": report.equivalence_rate if report.verdicts else None,
            "unparseable": [
                {"rule_id": r, "set_index": s, "source": src, "error": e}
                for r, s, src, e in unparseable
            ],
        },
    )
    for rule_id, set_index, source, error in unparseable:
        print(
            f"grade: rule {rule_id!r} set {set_index}: unparseable source {source!r} ({error})",
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
    out = []
    for record in records:
        rows = []
        for set_index, object_index, _ctx, label in gold.iter_items():
            rows.append(
                ObjectRecord(
                    set_index=set_index,
                    object_index=object_index,
                    gold=label,
                    model=record.responses.get((set_index, object_index)),
                )
            )
        out.append(LabelSeries(rule_id=gold.rule_id, records=rows))
    return out


def cmd_report(config: ExperimentConfig, series_dirs: dict[str, Path]) -> int:
    rules = read_rules_manifest(config.rules)
    kinds = {rule.rule_id: rule.kind for rule in rules}
    lists, failures = _load_lists(config, rules)
    reports_dir = config.output_dir / "reports"
    reports_dir.mkdir(parents=True, exist_ok=True)
    inputs = _inputs_of(config, *(p for p in [config.human_data] if p))

    cohort_series: dict[str, dict[str, LabelSeries]] = {}
    for cohort, directory in series_dirs.items():
        found = {}
        for rule_id in lists:
            path = directory / f"{rule_id}.series.json"
            if path.exists():
                found[rule_id] = load_series(path)
        if not found:
            failures.append((cohort, f"no series files under {directory}"))
            continue
        cohort_series[cohort] = found

    human_by_rule: dict[str, list] = {}
    if config.human_data is not None:
        for record in read_subject_csv(config.human_data):
            human_by_rule.setdefault(record.rule_id, []).append(record)

    summaries = []
    for cohort, by_rule in sorted(cohort_series.items()):
        summaries.append(summarize_series(cohort, by_rule, kinds))

    human_kept: dict[str, list] = {}
    if human_by_rule:
        per_rule_stats: dict[str, dict[str, tuple[float, float]]] = {}
        for rule_id, records in sorted(human_by_rule.items()):
            if rule_id not in lists:
                continue
            kept, _filter_report = filter_subjects(records, lists[rule_id])
            human_kept[rule_id] = kept
        cells = {}
        sds = {}
        for rule_class in ("all", "propositional", "fol"):
            for window in ("overall", "last_quarter"):
                stats = []
                for rule_id, kept in human_kept.items():
                    if rule_class != "all" and kinds[rule_id] != rule_class:
                        continue
                    scores = []
                    for series in _human_series(kept, lists[rule_id]):
                        try:
                            scores.append(accuracy(series, window))
                        except EmptyWindowError:
                            continue
                    if scores:
                        mean = sum(scores) / len(scores)
                        variance = sum((s - mean) ** 2 for s in scores) / len(scores)
                        stats.append((mean, variance ** 0.5))
                if stats:
                    grand_mean, propagated_sd = propagated_baseline(stats)
                    cells[(rule_class, window)] = grand_mean
                    sds[(rule_class, window)] = propagated_sd
        summaries.append(AccuracySummary(cohort="human", cells=cells, sds=sds))

    write_summary_csv(reports_dir / "summary.csv", summaries, inputs)

    trajectories: dict[str, list] = {}
    for rule_id in sorted(lists):
        reports = []
        for cohort, by_rule in sorted(cohort_series.items()):
            if rule_id in by_rule:
                reports.append(set_trajectory([by_rule[rule_id]], cohort))
        if rule_id in human_kept:
            reports.append(
                set_trajectory(_human_series(human_kept[rule_id], lists[rule_id]), "human")
            )
        if reports:
            trajectories[rule_id] = reports
    write_trajectory_csv(reports_dir / "trajectories.csv", trajectories, inputs)

    if human_kept:
        human_scores: dict[str, list[float]] = {}
        for rule_id, kept in human_kept.items():
            scores = []
            for series in _human_series(kept, lists[rule_id]):
                try:
                    scores.append(accuracy(series, "last_quarter"))
                except EmptyWindowError:
                    continue
            if scores:
                human_scores[rule_id] = scores
        for cohort, by_rule in sorted(cohort_series.items()):
            model_scores = {}
            for rule_id in human_scores:
                if rule_id in by_rule:
                    try:
                        model_scores[rule_id] = accuracy(by_rule[rule_id], "last_quarter")
                    except EmptyWindowError:
                        continue
            shared = {r: human_scores[r] for r in model_scores}
            if not shared:
                continue
            comparison = cohort_report(shared, model_scores)
            write_delta_csv(reports_dir / f"deltas_{cohort}.csv", comparison, kinds, inputs)
            baseline_mean, baseline_sd = subsample_baseline(
                shared, n_subsamples=config.subsamples, seed=config.seed or 0
            )
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
    rules = read_rules_manifest(config.rules)
    if seed is None:
        seed = config.seed
    if seed is None:
        raise ConfigError("split requires --seed or a top-level 'seed' in the config")
    try:
        train, held = split_rules([r.rule_id for r in rules], held_out, seed)
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
    rules = read_rules_manifest(config.rules)
    vocab = config.load_vocab()
    lists, failures = _load_lists(config, rules)
    if failures:
        for rule_id, message in failures:
            print(f"fit-noise: rule {rule_id!r}: {message}", file=sys.stderr)
        raise DataError("fit-noise needs every rule's exemplar list")

    records_by_rule: dict[str, list] = {}
    for record in read_subject_csv(config.human_data):
        records_by_rule.setdefault(record.rule_id, []).append(record)

    fit_lists = []
    tables = []
    for rule_id in sorted(lists):
        if rule_id not in records_by_rule:
            continue
        kept, _report = filter_subjects(records_by_rule[rule_id], lists[rule_id])
        tables.append(human_proportions(kept, lists[rule_id]))
        fit_lists.append(lists[rule_id])
    if not fit_lists:
        raise DataError("no rules have both an exemplar list and human data")

    grammar = config.load_grammar(vocab)
    fitted = fit_noise(
        fit_lists,
        tables,
        noise_grid(config.fit_grid_step),
        grammar,
        max_size=config.learner.max_size,
        max_hypotheses=config.learner.max_hypotheses,
    )
    reports_dir = config.output_dir / "reports"
    reports_dir.mkdir(parents=True, exist_ok=True)
    _save_json(
        reports_dir / "noise_fit.json",
        {
            "inputs": _inputs_of(config, config.human_data),
            "alpha": fitted.alpha,
            "beta": fitted.beta,
            "grid_step": config.fit_grid_step,
            "rules": [l.rule_id for l in fit_lists],
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


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
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
    except (ConfigError, CredentialError) as error:
        print(f"config error: {error}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as error:
        print(f"data error: {error}", file=sys.stderr)
        return EXIT_DATA
    except TransportError as error:
        print(f"transport error: {error}", file=sys.stderr)
        return EXIT_TRANSPORT


if __name__ == "__main__":
    sys.exit(main())
