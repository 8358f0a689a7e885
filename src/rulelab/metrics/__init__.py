"""Quantitative measures: accuracies, correlation, grading, trajectories."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".core": (
        "EmptyWindowError", "WINDOWS", "ZeroVarianceError", "accuracy", "chance_baseline",
        "cross_entropy", "last_quarter_count", "pearson_r", "r_squared",
    ),
    ".grading": ("MatchReport", "RuleGrade", "RuleVerdict", "grade_session", "match_rate"),
    ".reports": (
        "AccuracySummary", "RULE_CLASSES", "hash_inputs", "summarize_subjects", "window_scores",
        "write_delta_csv", "write_grading_csvs", "write_summary_csv", "write_trajectory_csv",
    ),
    ".series": ("LabelSeries", "load_series", "save_series"),
    ".trajectory": (
        "CohortReport", "DEFAULT_PERCENTILES", "RuleComparison", "TrajectoryReport",
        "cohort_report", "quantile", "set_trajectory", "subsample_baseline",
    ),
})
