"""Endpoint configuration for hosted chat/completion models."""

from __future__ import annotations

import hashlib
import json
import os
import urllib.parse
from dataclasses import dataclass, fields
from pathlib import Path


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


def _number(value) -> bool:
    """An int or a float; JSON booleans are never numbers here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# Each checked field's valid values, and their description for the error.
_RANGES = {
    "credential_env": (lambda v: isinstance(v, str) and v != "", "a non-empty string"),
    "temperature": (lambda v: _number(v) and v >= 0, "a number >= 0"),
    "top_logprobs": (lambda v: _integer(v) and v >= 1, "an integer >= 1"),
    "timeout": (lambda v: _number(v) and v > 0, "a number > 0"),
    "max_retries": (lambda v: _integer(v) and v >= 0, "an integer >= 0"),
    "retry_backoff": (lambda v: _number(v) and v >= 0, "a number >= 0"),
    "max_sets": (lambda v: v is None or _integer(v) and v >= 1, "null or an integer >= 1"),
    "rate_limit_per_s": (lambda v: v is None or _number(v) and v > 0, "null or a number > 0"),
}


@dataclass(frozen=True)
class EndpointConfig:
    base_url: str
    model: str
    temperature: float = 0.7
    top_logprobs: int = 10
    timeout: float = 60.0
    max_retries: int = 3
    retry_backoff: float = 0.5
    credential_env: str = "RULELAB_API_KEY"
    max_sets: int | None = None  # cap for short-context models
    rate_limit_per_s: float | None = None

    def __post_init__(self):
        try:
            parts = urllib.parse.urlsplit(self.base_url)
        except (TypeError, AttributeError, ValueError):  # not a string, or e.g. "http://["
            parts = None
        if parts is None or parts.scheme not in ("http", "https") or not parts.netloc:
            raise ValueError(f"base_url must be an http(s) URL, got {self.base_url!r}")
        for name, (valid, want) in _RANGES.items():
            value = getattr(self, name)
            if not valid(value):
                raise ValueError(f"{name} must be {want}, got {value!r}")
        # The model names the directory its transcripts are written to,
        # under the output directory; "org/model" nests.
        model = self.model
        if (
            not isinstance(model, str)
            or os.path.isabs(model)
            or "\\" in model
            or {"", ".", ".."} & set(model.split("/"))
        ):
            raise ValueError(
                "model must be a relative path with no backslash and no empty, '.' or '..' "
                f"part, got {model!r}"
            )

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
    unknown = set(doc) - {f.name for f in fields(EndpointConfig)}
    if unknown:
        raise EndpointConfigError(f"unknown endpoint config keys: {sorted(unknown)}")
    try:
        return EndpointConfig(**doc)
    except (TypeError, ValueError) as error:  # a missing key or a bad value
        raise EndpointConfigError(f"endpoint config {path}: {error}") from error
