"""Exemplar lists and human response ingest."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".humans": (
        "EmptyPoolError", "Exclusion", "FilterReport", "MIN_SETS", "SD_LIMIT", "SubjectRecord",
        "filter_subjects", "human_proportions", "propagated_baseline", "read_subject_csv",
        "write_subject_csv",
    ),
    ".lists": (
        "ExemplarList", "ExemplarSet", "LabelSoundnessError", "Observation",
        "evidence_from_list", "generate_list", "load_list", "save_list", "write_atomic",
        "write_csv", "write_json",
    ),
})
