"""Bayesian hypothesis learner: grammar, enumeration, MCMC, noise fitting."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".fit": ("NoiseFit", "fit_noise", "noise_grid"),
    ".grammar": (
        "Derivation", "Grammar", "GrammarError", "Hole", "HypothesisBudgetError", "Production",
        "default_grammar", "grammar_from_pairs", "load_grammar", "sample_derivation",
        "save_grammar",
    ),
    ".inference": (
        "TRACE_TOP_ROWS", "BoundaryDiagnostics", "DegeneratePosteriorError", "EmptyStateError",
        "EvalMatrix", "HypothesisEntry", "LearnerRun", "NoiseParams", "PosteriorState",
        "build_eval_matrices", "build_eval_matrix", "enumerate_hypotheses",
        "map_rule", "posterior_by_set", "run_enumerative",
    ),
    ".mcmc": ("mh_sample", "run_mh"),
    "..exemplars": ("evidence_from_list",),  # mh_sample's evidence, a slice of a list's layout
})
