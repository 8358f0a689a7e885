"""Hosted-model harness: prompts, sessions, extraction, transcripts."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
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
        "build_prompt",
    ),
    ".session": (
        "RateLimiter", "SessionTranscript", "SetEntry", "TranscriptMismatchError",
        "http_transport", "load_transcript", "run_session", "save_transcript",
        "transcript_series",
    ),
})
