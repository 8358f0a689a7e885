"""The benchmark's workloads and the seeds that fix their inputs.

Every workload is the paper's pipeline run the way users run it, one CLI
process per stage: ``gen -> run -> report -> grade`` against a seeded
synthetic human cohort.  ``lab-s3`` adds three hosted-model session
phases answered by the oracle transport (cold, replay, resume) and
``fit-noise``.  The two differ in rules and hypothesis-space size, so
that each stresses different layers.  The MH engine has no workload of
its own, to keep a run of every workload within the benchmark's time
budget; the traced run measures it directly (``traced.mh_rate``).

The exemplar lists and the cohort's responses are fixed by the seeds
below, because the output checks compare against references recorded
from them.  The ``--seed`` of a run permutes the rule manifest,
renames and reorders the cohort's subjects, and (on ``lab-s3``) seeds
the oracle's label noise; none of these may change a checked result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

LIST_SEED = 2024  # config "seed": exemplar lists and the report's subsample baseline
COHORT_SEED = 2024  # which responses the synthetic subjects give
MH_SEED = 11  # the traced run's MH probe
MH_ITERATIONS = 2000

DRY_RUN_RULES = (
    "blue", "not-circle", "circle-implies-blue", "circle-or-blue", "small-and-blue",
    "circle-xor-blue", "same-shape-as-a-yellow", "unique-blue", "exists-triangle",
    "one-of-the-largest", "same-color-as-another", "majority-color",
)
SIZE4_RULES = ("circle-xor-blue", "same-shape-as-a-yellow", "exists-triangle", "unique-blue")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    rule_ids: tuple[str, ...]
    learner: dict = field(default_factory=dict)
    sessions: bool = False  # the oracle-answered session phases
    fit_noise: bool = False

    @property
    def max_size(self) -> int:
        return self.learner.get("max_size", 3)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lab-s3",
            "12 dry-run rules at max_size 3 (782 hypotheses): process start-up, the 441-point "
            "fit-noise grid, the human filter and report, and cold/replay/resume oracle sessions",
            DRY_RUN_RULES,
            {"max_size": 3, "alpha": 0.95, "beta": 0.5},
            sessions=True,
            fit_noise=True,
        ),
        Workload(
            "lab-s4",
            "4 rules at max_size 4 (9,568 hypotheses): per-(hypothesis, context) evaluate, 25 MB "
            "posterior CSVs, and grade's two 849,555-context walks, early exit and target-only path",
            SIZE4_RULES,
            {"max_size": 4, "alpha": 0.95, "beta": 0.5},
        ),
    )
}
