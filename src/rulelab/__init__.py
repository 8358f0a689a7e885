"""rulelab: a concept-induction laboratory.

A DSL for logical concepts over small object sets, seeded exemplar-list
generation, a Bayesian grammar-based learner, a hosted-model labeling
harness, and the metrics that compare learners to human learning
trajectories.
"""

from ._lazy import lazy_exports

__version__ = "0.1.0"

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".catalog": ("catalog", "ALTERNATE_VOCAB", "DEFAULT_VOCAB", "DEMO_RULES", "RuleSpec"),
    ".dsl": ("dsl",),
    ".exemplars": ("exemplars",),
    ".harness": ("harness",),
    ".learner": ("learner",),
    ".metrics": ("metrics",),
})
