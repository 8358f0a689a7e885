"""Bayesian hypothesis learner: grammar, enumeration, MCMC, noise fitting."""

from .._lazy import lazy_exports

__all__ = [
    "TRACE_TOP_ROWS",
    "BoundaryDiagnostics",
    "DegeneratePosteriorError",
    "Derivation",
    "EmptyStateError",
    "EvalMatrix",
    "Grammar",
    "GrammarError",
    "Hole",
    "HypothesisBudgetError",
    "HypothesisEntry",
    "LearnerRun",
    "NoiseFit",
    "NoiseParams",
    "PosteriorState",
    "Production",
    "SetPrediction",
    "build_eval_matrices",
    "build_eval_matrix",
    "default_grammar",
    "enumerate_hypotheses",
    "evidence_from_list",
    "fit_noise",
    "grammar_from_pairs",
    "load_grammar",
    "map_rule",
    "mh_sample",
    "noise_grid",
    "posterior_by_set",
    "predictive_trajectory",
    "run_enumerative",
    "run_mh",
    "sample_derivation",
    "save_grammar",
    "substitute",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".fit": ("NoiseFit", "fit_noise", "noise_grid"),
    ".grammar": (
        "Derivation", "Grammar", "GrammarError", "Hole", "HypothesisBudgetError", "Production",
        "default_grammar", "grammar_from_pairs", "load_grammar", "sample_derivation",
        "save_grammar", "substitute",
    ),
    ".inference": (
        "TRACE_TOP_ROWS", "BoundaryDiagnostics", "DegeneratePosteriorError", "EmptyStateError",
        "EvalMatrix", "HypothesisEntry", "LearnerRun", "NoiseParams", "PosteriorState",
        "SetPrediction", "build_eval_matrices", "build_eval_matrix", "enumerate_hypotheses",
        "evidence_from_list", "map_rule", "posterior_by_set", "predictive_trajectory",
        "run_enumerative",
    ),
    ".mcmc": ("mh_sample", "run_mh"),
})
