"""Acceptance suite: one test per acceptance criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion.  Criteria pin their stated tolerances and time budgets.
"""

from __future__ import annotations

import json
import math
import random
import time
from contextlib import contextmanager

import pytest

from conftest import random_concept, random_context
from reference import PosteriorState, log_likelihood, posterior_predictive
from rulelab.catalog import DEFAULT_VOCAB as V, DEMO_RULES, write_rules_manifest
from rulelab.cli import EXIT_OK, main
from rulelab.dsl import (
    And,
    Iff,
    Implies,
    Not,
    Obj,
    Or,
    Quant,
    Xor,
    equivalent,
    evaluate,
    parse_concept,
)
from rulelab.exemplars import ExemplarList, ExemplarSet, generate_list
from rulelab.harness import build_prompt, extract_labels, run_session
from rulelab.learner import (
    HypothesisEntry,
    NoiseParams,
    build_eval_matrix,
    default_grammar,
    enumerate_hypotheses,
    evidence_from_list,
    fit_noise,
    grammar_from_pairs,
    mh_sample,
    noise_grid,
    predictive_trajectory,
    run_enumerative,
)
from rulelab.metrics import (
    LabelSeries,
    ObjectRecord,
    accuracy,
    chance_baseline,
    cross_entropy,
    last_quarter_count,
    r_squared,
)


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} FAIL  {name}")
        raise
    print(f"criterion {number:2d} PASS  {name}")


def test_criterion_1_dsl_identity_suite():
    with criterion(1, "DSL identities on 1000 random concepts x 1000 contexts (<30s)"):
        started = time.monotonic()
        rng = random.Random(2024)
        contexts = [random_context(rng) for _ in range(1000)]
        for i in range(1000):
            a = random_concept(rng, budget=9)
            b = random_concept(rng, budget=9)
            body = random_concept(rng, budget=8, binders=1)
            scope = rng.choice(("others", "all"))
            universal = Quant("forall", scope, body)
            dual = Not(Quant("exists", scope, Not(body)))
            # Each concept draw is checked pointwise over a 21-context
            # swath of the pool, cycling so every context is exercised.
            for j in range(i * 7, i * 7 + 21):
                ctx = contexts[j % 1000]
                assert evaluate(Not(And(a, b)), ctx) == evaluate(Or(Not(a), Not(b)), ctx)
                assert evaluate(Xor(a, b), ctx) == evaluate(Not(Iff(a, b)), ctx)
                assert evaluate(Implies(a, b), ctx) == evaluate(Or(Not(a), b), ctx)
                assert evaluate(universal, ctx) == evaluate(dual, ctx)
        elapsed = time.monotonic() - started
        assert elapsed < 30.0, f"identity suite took {elapsed:.1f}s"


def test_criterion_2_equivalence_reproduction():
    with criterion(2, "known equivalent rule pairs at max_set_size 5 (<2min)"):
        started = time.monotonic()
        pairs = [
            ("(not (is-shape circle))", "(or (is-shape triangle) (is-shape rectangle))"),
            (
                "(or (is-shape circle) (is-color blue))",
                "(or (is-color blue) (and (or (is-color yellow) (is-color green))"
                " (is-shape circle)))",
            ),
            ("(or (is-color blue) (is-color green))", "(not (is-color yellow))"),
        ]
        for left, right in pairs:
            assert equivalent(parse_concept(left, V), parse_concept(right, V), V, max_set_size=5)
        elapsed = time.monotonic() - started
        assert elapsed < 120.0, f"equivalence checks took {elapsed:.1f}s"


def _tv(exact: PosteriorState, empirical: PosteriorState) -> float:
    mass_a = {e.concept: math.exp(e.log_weight) for e in exact.entries}
    mass_b = {e.concept: math.exp(e.log_weight) for e in empirical.entries}
    support = set(mass_a) | set(mass_b)
    return 0.5 * sum(abs(mass_a.get(c, 0.0) - mass_b.get(c, 0.0)) for c in support)


def test_criterion_3_learner_exactness():
    with criterion(3, "MH matches enumeration (TV<0.05); incremental==batch (1e-9)"):
        small = grammar_from_pairs(
            "S",
            [
                ("S", "(is-color blue)"),
                ("S", "(is-shape circle)"),
                ("S", "(is-size small)"),
                ("S", "(and S S)", 0.5),
                ("S", "(not S)", 0.5),
            ],
            V,
        )
        default = default_grammar(V)
        blue_list = generate_list(parse_concept("(is-color blue)", V), V, seed=41)
        configurations = [
            (default, 1, [], NoiseParams(1.0, 0.5)),
            (default, 2, evidence_from_list(blue_list, upto_set=4), NoiseParams(0.85, 0.5)),
            (small, 3, evidence_from_list(blue_list, upto_set=2), NoiseParams(0.9, 0.4)),
            (small, 3, [], NoiseParams(1.0, 0.5)),
        ]
        for index, (grammar, bound, evidence, noise) in enumerate(configurations):
            hypotheses = enumerate_hypotheses(grammar, bound)
            assert len(hypotheses) <= 200
            exact = PosteriorState.from_hypotheses(hypotheses, V)
            if evidence:
                exact = exact.update_batch(evidence, noise)
            empirical = mh_sample(
                grammar, evidence, noise, iterations=100_000, seed=90 + index, max_size=bound
            )
            assert _tv(exact, empirical) < 0.05

        # Incremental object-by-object updates match batch scoring exactly.
        noise = NoiseParams(0.85, 0.5)
        evidence = evidence_from_list(blue_list, upto_set=8)
        state = PosteriorState.from_hypotheses(enumerate_hypotheses(default, 2), V)
        for ctx, label in evidence:
            state = state.update(ctx, label, noise)
        for entry in state.entries:
            assert entry.log_likelihood == pytest.approx(
                log_likelihood(entry.concept, evidence, noise), abs=1e-9
            )


SMOKE_RULES = (
    "(is-color blue)",
    "(is-color green)",
    "(is-color yellow)",
    "(is-shape circle)",
    "(is-shape triangle)",
    "(is-size small)",
    "(is-size large)",
    "(and (is-color blue) (is-shape circle))",
    "(or (is-color blue) (is-size small))",
    "(and (is-size small) (is-color green))",
)


def test_criterion_4_learnability_smoke():
    with criterion(4, "learner last-quarter accuracy >= 0.95 on 10 Boolean rules (<60s each)"):
        grammar = default_grammar(V)
        noise = NoiseParams(0.99, 0.5)
        for seed_offset, source in enumerate(SMOKE_RULES):
            started = time.monotonic()
            concept = parse_concept(source, V)
            exemplar_list = generate_list(concept, V, seed=500 + seed_offset, rule_id=source)
            hypotheses = enumerate_hypotheses(grammar, 3)
            matrix = build_eval_matrix(hypotheses, exemplar_list)
            run = run_enumerative(exemplar_list, hypotheses, matrix, noise)
            records = []
            for prediction in run.per_set:
                gold = exemplar_list.sets[prediction.set_index].labels
                for object_index, label in enumerate(prediction.labels):
                    records.append(
                        ObjectRecord(
                            prediction.set_index, object_index, gold[object_index], label
                        )
                    )
            series = LabelSeries(source, records)
            elapsed = time.monotonic() - started
            assert elapsed < 60.0, f"{source} took {elapsed:.1f}s"
            last_quarter = accuracy(series, "last_quarter")
            assert last_quarter >= 0.95, f"{source}: last-quarter {last_quarter:.3f}"


def test_criterion_5_noise_model_closed_forms():
    with criterion(5, "predictive closed forms at alpha=0 and alpha=1 (1e-12)"):
        rng = random.Random(77)
        hypotheses = enumerate_hypotheses(default_grammar(V), 2)
        for _ in range(100):
            support = rng.sample(hypotheses, k=rng.randint(1, 12))
            weights = [rng.random() + 1e-3 for _ in support]
            total = sum(weights)
            entries = tuple(
                HypothesisEntry(concept, lp, 0.0, math.log(w / total))
                for (concept, lp), w in zip(support, weights)
            )
            state = PosteriorState(entries=entries, log_z=0.0, vocab=V)
            ctx = random_context(rng)

            beta = rng.random()
            assert posterior_predictive(state, ctx, NoiseParams(0.0, beta)) == pytest.approx(
                beta, abs=1e-12
            )

            survivor, survivor_prior = support[0]
            lone = PosteriorState(
                entries=(HypothesisEntry(survivor, survivor_prior, 0.0, 0.0),)
                + tuple(
                    HypothesisEntry(c, lp, float("-inf"), float("-inf"))
                    for c, lp in support[1:]
                ),
                log_z=0.0,
                vocab=V,
            )
            indicator = 1.0 if evaluate(survivor, ctx) else 0.0
            assert posterior_predictive(lone, ctx, NoiseParams(1.0, beta)) == pytest.approx(
                indicator, abs=1e-12
            )


def test_criterion_6_noise_recovery():
    with criterion(6, "fit_noise recovers (0.8, 0.4) on a 0.05 lattice"):
        grammar = default_grammar(V)
        hypotheses = enumerate_hypotheses(grammar, 3)
        true_noise = NoiseParams(0.8, 0.4)
        sources = [
            "(is-color blue)",
            "(xor (is-shape circle) (is-color blue))",
            "(exists others (same-color 0 1))",
        ]
        lists, tables = [], []

        class ExactTable:
            def __init__(self, proportions):
                self.proportions = proportions

            def proportion(self, set_index, object_index):
                return self.proportions[(set_index, object_index)]

        for i, source in enumerate(sources):
            exemplar_list = generate_list(parse_concept(source, V), V, seed=100 + i, rule_id=f"r{i}")
            predictions = predictive_trajectory(
                build_eval_matrix(hypotheses, exemplar_list), true_noise
            )
            proportions = {}
            for j, (set_index, object_index, _ctx, _label) in enumerate(
                exemplar_list.iter_items()
            ):
                proportions[(set_index, object_index)] = float(predictions[j])
            lists.append(exemplar_list)
            tables.append(ExactTable(proportions))
        fitted = fit_noise(lists, tables, noise_grid(0.05), hypotheses)
        assert fitted.noise == NoiseParams(0.8, 0.4)


def test_criterion_7_metric_oracles():
    with criterion(7, "metric oracles: r^2, chance baseline, cross-entropy, window"):
        rng = random.Random(3)
        for _ in range(100):
            n = rng.randint(3, 50)
            model = [rng.random() for _ in range(n)]
            human = [rng.random() for _ in range(n)]
            mean_m = sum(model) / n
            mean_h = sum(human) / n
            cov = sum((m - mean_m) * (h - mean_h) for m, h in zip(model, human))
            var_m = sum((m - mean_m) ** 2 for m in model)
            var_h = sum((h - mean_h) ** 2 for h in human)
            expected = cov * cov / (var_m * var_h)
            assert r_squared(model, human) == pytest.approx(expected, abs=1e-9)
        assert chance_baseline(0.8) == 0.68
        assert cross_entropy(0.5, 0.5) == pytest.approx(math.log(2), abs=1e-12)
        assert last_quarter_count(75) == 19


def test_criterion_8_subject_preprocessing():
    with criterion(8, "subject filter excludes exactly the planted subjects"):
        from rulelab.exemplars import SubjectRecord, filter_subjects

        concept = parse_concept("(is-color blue)", V)
        sets = tuple(
            ExemplarSet((Obj(0, 0, 0), Obj(1, 1, i % 3)), (True, False)) for i in range(5)
        )
        gold = ExemplarList("blue", "(is-color blue)", concept, V, 0, sets)

        def subject(subject_id, n_wrong, sets_completed=5):
            responses = {}
            wrong = 0
            for set_index, object_index, _ctx, label in gold.iter_items():
                response = label
                if wrong < n_wrong:
                    response = not label
                    wrong += 1
                responses[(set_index, object_index)] = response
            return SubjectRecord(subject_id, "blue", responses, sets_completed)

        cohort = [subject(f"keep{i}", 1) for i in range(9)]  # accuracy 0.9
        cohort.append(subject("outlier", 9))  # accuracy 0.1
        cohort.append(subject("quit-early-1", 0, sets_completed=4))
        cohort.append(subject("quit-early-2", 1, sets_completed=2))

        kept, report = filter_subjects(cohort, gold)
        assert sorted(r.subject_id for r in kept) == sorted(f"keep{i}" for i in range(9))
        excluded = {(e.subject_id, e.reason) for e in report.exclusions}
        assert excluded == {
            ("quit-early-1", "min-sets"),
            ("quit-early-2", "min-sets"),
            ("outlier", "outlier"),
        }


def test_criterion_9_harness_determinism(tmp_path):
    with criterion(9, "prompt byte-stability, cached zero-call replay, exclusion balance"):
        from pathlib import Path

        golden_dir = Path(__file__).parent / "golden"
        fixture = generate_list(
            parse_concept("(is-color blue)", V), V, seed=9, n_sets=3, rule_id="golden-blue"
        )
        for mode, name in [
            ("chat", "prompt_chat_set1.json"),
            ("chat+elicitation", "prompt_chat_elicitation_set1.json"),
            ("completion", "prompt_completion_set1.json"),
        ]:
            rendered = [
                json.dumps(build_prompt(fixture, 1, mode).as_document(), indent=2, sort_keys=True)
                + "\n"
                for _ in range(2)
            ]
            assert rendered[0] == rendered[1] == (golden_dir / name).read_text()

        # Cached replay performs zero network calls and reproduces the
        # transcript byte for byte.
        from test_session import ChatOracle, endpoint

        exemplar_list = generate_list(
            parse_concept("(is-color blue)", V), V, seed=9, n_sets=5, rule_id="blue"
        )
        cache_dir = tmp_path / "cache"
        warm = ChatOracle()
        first = run_session(exemplar_list, endpoint(), "chat", transport=warm, cache_dir=cache_dir)
        replay = ChatOracle()
        second = run_session(
            exemplar_list, endpoint(), "chat", transport=replay, cache_dir=cache_dir
        )
        assert replay.calls == []
        assert first.to_document() == second.to_document()

        # Adversarial responses: non-boolean completions and object-mismatch
        # chat replies always balance labeled + excluded = queried.
        completion = extract_labels("Perhaps", ["small blue circle"], "completion")
        assert completion.labels == [None]
        assert completion.exclusions[0].reason == "non-boolean completion"
        chat = extract_labels(
            "- enormous mauve dodecahedron -> True\n- small blue circle -> maybe so\n",
            ["small blue circle", "large green triangle"],
            "chat",
        )
        assert chat.n_labeled() + len(chat.exclusions) == 2
        assert {e.reason for e in chat.exclusions} == {"non-boolean label", "object-mismatch"}


DRY_RUN_RULES = (
    "blue", "not-circle", "circle-implies-blue", "circle-or-blue", "small-and-blue",
    "circle-xor-blue", "same-shape-as-a-yellow", "unique-blue", "exists-triangle",
    "one-of-the-largest", "same-color-as-another", "majority-color",
)


def test_criterion_10_end_to_end_dry_run(tmp_path, capsys):
    with criterion(10, "gen -> run(plot) -> grade -> report on 12 rules (<10min)"):
        started = time.monotonic()
        rules = [r for r in DEMO_RULES if r.rule_id in DRY_RUN_RULES]
        assert len(rules) == 12
        write_rules_manifest(rules, tmp_path / "rules.json")
        (tmp_path / "config.json").write_text(
            json.dumps(
                {
                    "rules": "rules.json",
                    "lists_dir": "out/lists",
                    "output_dir": "out",
                    "seed": 2024,
                    "learner": {"max_size": 3, "alpha": 0.95, "beta": 0.5},
                }
            )
        )
        config_arg = ["--config", str(tmp_path / "config.json")]
        assert main(["gen", *config_arg]) == EXIT_OK
        assert main(["run", "--engine", "plot", *config_arg]) == EXIT_OK
        run_dir = tmp_path / "out" / "runs" / "plot"
        assert main(["grade", *config_arg, "--elicited", str(run_dir),
                     "--series-dir", str(run_dir)]) == EXIT_OK
        assert main(["report", *config_arg, "--series", f"plot={run_dir}"]) == EXIT_OK

        summary_lines = (tmp_path / "out" / "reports" / "summary.csv").read_text().splitlines()
        header = summary_lines[1].split(",")
        for column in (
            "cohort",
            "all_overall", "all_last_quarter",
            "propositional_overall", "propositional_last_quarter",
            "fol_overall", "fol_last_quarter",
        ):
            assert column in header
        plot_row = [line for line in summary_lines if line.startswith("plot,")]
        assert len(plot_row) == 1
        grading = json.loads((tmp_path / "out" / "reports" / "grading.json").read_text())
        assert grading["match_rate"] is not None
        elapsed = time.monotonic() - started
        assert elapsed < 600.0, f"dry run took {elapsed:.1f}s"
