"""The logical concept language: AST, parser, evaluators, equivalence."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".core": (
        "And", "Concept", "Context", "DIMENSIONS", "DslError", "FeatureIs", "FeatureVocab",
        "Iff", "Implies", "MAX_CONTEXTS", "MAX_OBJECTS", "MajorityColor", "MinorityColor",
        "Not", "Obj", "Or", "Quant", "QUANT_KINDS", "QUANT_SCOPES", "Rel", "REL_KINDS",
        "UnboundVariableError", "Xor", "count_contexts", "depth", "evaluate",
        "is_target_only", "max_var_excess", "parts", "rebuild", "size",
    ),
    ".batch": ("ContextBatch", "evaluate_batch", "evaluate_packed"),
    ".equivalence": (
        "ContextBudgetError", "canonical_chunks", "enumerate_contexts", "equivalent",
        "object_universe",
    ),
    ".sexpr": (
        "ConceptSyntaxError", "load_vocab", "parse_concept",
        "print_concept", "save_vocab",
    ),
})
