"""Endpoint configuration for hosted chat/completion models."""

from __future__ import annotations

import hashlib
import json
import os
import urllib.parse
from dataclasses import dataclass
from pathlib import Path

from .._settings import check_settings, from_document, setting


class CredentialError(RuntimeError):
    """The configured credential environment variable is unset."""


class EndpointConfigError(ValueError):
    """An endpoint config file that cannot be used as written."""


class TransportError(RuntimeError):
    """A request failed.  ``status`` is the HTTP status of the reply, or
    None when no reply came (a refused or reset connection, a timeout).  A
    session retries a failure only if it is :attr:`retryable`, and raises
    it once the configured retries are spent."""

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status

    @property
    def retryable(self) -> bool:
        """No reply, a timeout or rate-limit reply (408, 429), or a server
        error (5xx).  Any other reply would come back the same."""
        return self.status is None or self.status in (408, 429) or 500 <= self.status < 600


def _http_url(value) -> bool:
    try:
        parts = urllib.parse.urlsplit(value)
    except (TypeError, AttributeError, ValueError):  # not a string, or e.g. "http://["
        return False
    return parts.scheme in ("http", "https") and bool(parts.netloc)


# The model names the directory its transcripts are written to, under the
# output directory; "org/model" nests.
_MODEL = (
    lambda v: isinstance(v, str) and not os.path.isabs(v) and "\\" not in v
    and not {"", ".", ".."} & set(v.split("/")),
    "a relative path with no backslash and no empty, '.' or '..' part",
)
_AT_LEAST_0 = (lambda v: isinstance(v, (int, float)) and v >= 0, "a number >= 0")
_ABOVE_0 = (lambda v: isinstance(v, (int, float)) and v > 0, "a number > 0")


@dataclass(frozen=True)
class EndpointConfig:
    """An endpoint config file: each field is one of its keys."""

    base_url: str = setting((_http_url, "an http(s) URL"))
    model: str = setting(_MODEL)
    temperature: float = setting(_AT_LEAST_0, 0.7)
    top_logprobs: int = setting((lambda v: isinstance(v, int) and v >= 1, "an integer >= 1"), 10)
    timeout: float = setting(_ABOVE_0, 60.0)
    max_retries: int = setting((lambda v: isinstance(v, int) and v >= 0, "an integer >= 0"), 3)
    retry_backoff: float = setting(_AT_LEAST_0, 0.5)
    credential_env: str = setting((lambda v: isinstance(v, str) and v != "", "a non-empty string"),
                                  "RULELAB_API_KEY")
    max_sets: int | None = setting(  # cap for short-context models
        (lambda v: v is None or isinstance(v, int) and v >= 1, "null or an integer >= 1"), None
    )
    rate_limit_per_s: float | None = setting(
        (lambda v: v is None or isinstance(v, (int, float)) and v > 0, "null or a number > 0"), None
    )

    def __post_init__(self):
        check_settings(self)

    def credential(self) -> str:
        value = os.environ.get(self.credential_env)
        if not value:
            raise CredentialError(
                f"credential environment variable {self.credential_env!r} is not set"
            )
        return value

    def cache_key(self) -> str:
        """Hash of the fields that determine a response, for cache addressing."""
        doc = {
            "base_url": self.base_url,
            "model": self.model,
            "temperature": self.temperature,
            "top_logprobs": self.top_logprobs,
        }
        return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()

    def public_fields(self) -> dict:
        """Everything except credentials, for embedding in transcripts."""
        return {
            "base_url": self.base_url,
            "model": self.model,
            "temperature": self.temperature,
            "top_logprobs": self.top_logprobs,
            "max_sets": self.max_sets,
        }


def load_endpoint_config(path: str | Path) -> EndpointConfig:
    """Read an endpoint config file.  A file that cannot be read or parsed,
    an unknown or missing key, a bad value, a ``base_url`` that is not an
    http(s) URL, or a ``model`` that cannot name a directory below the
    output directory raises :class:`EndpointConfigError`."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:  # ValueError: bad JSON or bad UTF-8
        raise EndpointConfigError(f"endpoint config {path} is unreadable: {error}") from error
    if not isinstance(doc, dict):
        raise EndpointConfigError(f"endpoint config {path} must be a JSON object")
    try:
        return from_document(EndpointConfig, doc, "endpoint config")
    except ValueError as error:  # an unknown, missing or bad key
        raise EndpointConfigError(f"endpoint config {path}: {error}") from error
