"""Hosted-model harness: prompts, sessions, extraction, transcripts."""

from .._lazy import lazy_exports

__all__ = [
    "CHAT_PREAMBLE",
    "COMPLETION_PREAMBLE",
    "CredentialError",
    "DegenerateMassError",
    "ELICITATION_ADDENDUM",
    "EndpointConfig",
    "EndpointConfigError",
    "Exclusion",
    "ExtractionResult",
    "MODES",
    "PromptBundle",
    "RateLimiter",
    "SessionTranscript",
    "SetEntry",
    "TranscriptMismatchError",
    "TransportError",
    "build_prompt",
    "extract_labels",
    "http_transport",
    "label_token_family",
    "load_endpoint_config",
    "load_transcript",
    "render_object",
    "run_session",
    "save_transcript",
    "transcript_series",
    "true_probability",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".config": (
        "CredentialError", "EndpointConfig", "EndpointConfigError", "TransportError",
        "load_endpoint_config",
    ),
    ".extract": (
        "DegenerateMassError", "Exclusion", "ExtractionResult", "extract_labels",
        "label_token_family", "true_probability",
    ),
    ".prompts": (
        "CHAT_PREAMBLE", "COMPLETION_PREAMBLE", "ELICITATION_ADDENDUM", "MODES", "PromptBundle",
        "build_prompt", "render_object",
    ),
    ".session": (
        "RateLimiter", "SessionTranscript", "SetEntry", "TranscriptMismatchError",
        "http_transport", "load_transcript", "run_session", "save_transcript",
        "transcript_series",
    ),
})
