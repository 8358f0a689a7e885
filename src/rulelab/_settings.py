"""Settings classes: dataclasses whose fields are the keys of a JSON object.

Each key is one field, declared by :func:`setting` with its default and
its check, a pair ``(valid, want)``: ``valid(value)`` holds for the values
the key takes, and ``want`` describes them in the error.  The experiment
config, its ``learner`` block and the endpoint config are each one such
class, checked by :func:`check_settings` and read by :func:`from_document`.
"""

from __future__ import annotations

from dataclasses import MISSING, field, fields


def setting(check: tuple, default=MISSING, *, factory=MISSING, **metadata):
    """A field that is one key: its check, and its default (a value, or a
    ``factory`` that makes one); a field with neither is required."""
    return field(default=default, default_factory=factory, metadata={"check": check, **metadata})


def check_settings(settings, prefix: str = "") -> None:
    """Raise ValueError for the first key of ``settings`` whose value fails
    its check, naming it as ``prefix`` + its name.  A JSON boolean never
    passes: it is not a number here, nor any other kind of value."""
    for key in fields(settings):
        if "check" in key.metadata:
            valid, want = key.metadata["check"]
            value = getattr(settings, key.name)
            if isinstance(value, bool) or not valid(value):
                raise ValueError(f"{prefix}{key.name} must be {want}, got {value!r}")


def from_document(cls, doc: dict, what: str):
    """``cls`` built from the JSON object ``doc``, one key per checked field.
    A key that is none of them, or a required key that is absent or null,
    raises ValueError naming ``what``; so does ``cls``'s check of a value."""
    keys = [key for key in fields(cls) if "check" in key.metadata]
    unknown = set(doc) - {key.name for key in keys}
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    for key in keys:
        if key.default is MISSING and key.default_factory is MISSING and doc.get(key.name) is None:
            raise ValueError(f"{what} key {key.name!r} is required and must not be null")
    return cls(**doc)
