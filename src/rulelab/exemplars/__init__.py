"""Exemplar lists, human response ingest, and rule-set splits."""

from .humans import (
    EmptyPoolError,
    Exclusion,
    FilterReport,
    HumanResponseTable,
    MIN_SETS,
    SD_LIMIT,
    SubjectRecord,
    filter_subjects,
    human_proportions,
    propagated_baseline,
    read_subject_csv,
    write_subject_csv,
)
from .lists import (
    ExemplarList,
    ExemplarSet,
    LabelSoundnessError,
    generate_list,
    load_list,
    save_list,
    write_atomic,
    write_json,
)
from .splits import read_split_manifest, split_rules, write_split_manifest

__all__ = [
    "EmptyPoolError",
    "Exclusion",
    "ExemplarList",
    "ExemplarSet",
    "FilterReport",
    "HumanResponseTable",
    "LabelSoundnessError",
    "MIN_SETS",
    "SD_LIMIT",
    "SubjectRecord",
    "filter_subjects",
    "generate_list",
    "human_proportions",
    "load_list",
    "propagated_baseline",
    "read_split_manifest",
    "read_subject_csv",
    "save_list",
    "split_rules",
    "write_atomic",
    "write_json",
    "write_split_manifest",
    "write_subject_csv",
]
