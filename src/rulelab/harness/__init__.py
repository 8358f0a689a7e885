"""Hosted-model harness: prompts, sessions, extraction, transcripts."""

from .config import CredentialError, EndpointConfig, EndpointConfigError, load_endpoint_config
from .extract import (
    DegenerateMassError,
    Exclusion,
    ExtractionResult,
    extract_labels,
    label_token_family,
    true_probability,
)
from .prompts import (
    CHAT_PREAMBLE,
    COMPLETION_PREAMBLE,
    ELICITATION_ADDENDUM,
    MODES,
    PromptBundle,
    build_prompt,
    render_object,
)
from .session import (
    RateLimiter,
    SessionTranscript,
    SetEntry,
    TranscriptMismatchError,
    TransportError,
    http_transport,
    load_transcript,
    run_session,
    save_transcript,
    transcript_series,
)

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
