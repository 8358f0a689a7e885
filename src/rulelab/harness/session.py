"""Session driver: iterated labeling of an exemplar list by a hosted model.

Sets are queried strictly in order, each prompt carrying the gold labels of
every earlier set.  Responses are cached on disk keyed by (endpoint config
hash, request payload), transcripts are persisted after every set, and an
interrupted session resumes from its transcript, so the expensive network
work is never repeated.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path
from typing import Callable

from ..exemplars import ExemplarList
from ..exemplars.lists import write_atomic
from ..metrics.series import LabelSeries, series_from_sets
from .config import EndpointConfig, TransportError
from .extract import (
    DegenerateMassError,
    ExtractionResult,
    extract_labels,
    true_probability,
)
from .prompts import PromptBundle, build_prompt, render_object

Transport = Callable[[str, dict, dict, float], dict]


class TranscriptMismatchError(RuntimeError):
    """An existing transcript disagrees with the session being resumed."""


def http_transport(url: str, payload: dict, headers: dict, timeout: float) -> dict:
    """POST ``payload`` as JSON and return the parsed JSON reply.  Network
    errors, timeouts, 4xx/5xx statuses and a body that is not JSON all
    raise :class:`TransportError`, carrying the reply's status if one came.
    The HTTP stack is imported here: only a session without its own
    transport talks HTTP."""
    import http.client
    import urllib.error
    import urllib.request

    try:
        request = urllib.request.Request(
            url,
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json", **headers},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=timeout) as response:
            status, body = response.status, response.read()
    except urllib.error.HTTPError as error:
        error.close()  # the error holds the reply, and the reply its socket
        raise TransportError(f"POST {url}: {error}", status=error.code) from error
    except (OSError, http.client.HTTPException, ValueError) as error:
        raise TransportError(f"POST {url}: {error}") from error
    try:
        return json.loads(body)
    except ValueError as error:
        raise TransportError(f"POST {url}: {error}", status=status) from error


class RateLimiter:
    """Global minimum spacing between requests across threads."""

    def __init__(self, per_second: float, clock=time.monotonic, sleep=time.sleep):
        self.interval = 1.0 / per_second
        self._clock = clock
        self._sleep = sleep
        self._lock = threading.Lock()
        self._next_at = 0.0

    def wait(self) -> None:
        with self._lock:
            now = self._clock()
            delay = self._next_at - now
            self._next_at = max(now, self._next_at) + self.interval
        if delay > 0:
            self._sleep(delay)


@dataclass
class SetEntry:
    set_index: int
    exchanges: list[dict]
    labels: list[bool | None]
    exclusions: list[dict]
    p_true: list[float | None]
    rule_text: str | None = None

    def to_document(self) -> dict:
        return {
            "set_index": self.set_index,
            "exchanges": self.exchanges,
            "labels": self.labels,
            "exclusions": self.exclusions,
            "p_true": self.p_true,
            "rule_text": self.rule_text,
        }


@dataclass
class SessionTranscript:
    rule_id: str
    mode: str
    endpoint: dict
    sets: list[SetEntry] = field(default_factory=list)

    @property
    def exclusion_count(self) -> int:
        return sum(len(entry.exclusions) for entry in self.sets)

    def _header(self) -> dict:
        """The document's keys other than "sets", all of which sort before it."""
        return {
            "rule_id": self.rule_id,
            "mode": self.mode,
            "endpoint": self.endpoint,
            "exclusion_count": self.exclusion_count,
        }

    def to_document(self) -> dict:
        return {**self._header(), "sets": [entry.to_document() for entry in self.sets]}

    @classmethod
    def from_document(cls, doc: dict) -> "SessionTranscript":
        """Read a transcript document.  Older transcripts also stored each
        set's prompt, which its requests hold; that key is ignored."""
        sets = [
            SetEntry(
                set_index=entry["set_index"],
                exchanges=entry["exchanges"],
                labels=[None if x is None else bool(x) for x in entry["labels"]],
                exclusions=entry["exclusions"],
                p_true=entry["p_true"],
                rule_text=entry.get("rule_text"),
            )
            for entry in doc["sets"]
        ]
        return cls(rule_id=doc["rule_id"], mode=doc["mode"], endpoint=doc["endpoint"], sets=sets)


def _entry_fragment(entry: SetEntry) -> str:
    """``entry`` as its lines appear in a saved transcript's "sets" array."""
    text = json.dumps(entry.to_document(), indent=2, sort_keys=True)
    return "    " + text.replace("\n", "\n    ")


def _write_transcript(
    transcript: SessionTranscript, fragments: list[str], path: str | Path
) -> None:
    """Save ``transcript`` from its entries' fragments.  The bytes are those
    of ``json.dumps(to_document(), indent=2, sort_keys=True)`` plus a
    newline, because "sets" is the document's last key."""
    head = json.dumps(transcript._header(), indent=2, sort_keys=True)  # ends "\n}"
    sets = "[\n" + ",\n".join(fragments) + "\n  ]" if fragments else "[]"
    write_atomic(path, f'{head[:-2]},\n  "sets": {sets}\n}}\n')


def save_transcript(transcript: SessionTranscript, path: str | Path) -> None:
    _write_transcript(transcript, [_entry_fragment(entry) for entry in transcript.sets], path)


def load_transcript(path: str | Path) -> SessionTranscript:
    return SessionTranscript.from_document(json.loads(Path(path).read_text()))


class _Caller:
    """Transport wrapper adding caching, retries, and rate limiting."""

    def __init__(
        self,
        endpoint: EndpointConfig,
        transport: Transport,
        headers: dict,
        cache_dir: str | Path | None,
        rate_limiter: RateLimiter | None,
        sleep: Callable[[float], None],
    ):
        self.endpoint = endpoint
        self.transport = transport
        self.headers = headers
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.rate_limiter = rate_limiter
        self.sleep = sleep

    def __call__(self, url: str, payload: dict) -> dict:
        cache_path = None
        if self.cache_dir is not None:
            key = hashlib.sha256(
                json.dumps(
                    {"endpoint": self.endpoint.cache_key(), "payload": payload}, sort_keys=True
                ).encode()
            ).hexdigest()
            cache_path = self.cache_dir / f"{key}.json"
            if cache_path.exists():
                return json.loads(cache_path.read_text())
        retries = self.endpoint.max_retries
        for attempt in range(retries + 1):
            if attempt:
                self.sleep(self.endpoint.retry_backoff * 2 ** (attempt - 1))
            if self.rate_limiter is not None:
                self.rate_limiter.wait()
            try:
                response = self.transport(url, payload, self.headers, self.endpoint.timeout)
                break
            except TransportError as error:
                if not error.retryable or attempt == retries:
                    raise TransportError(
                        f"request failed after {attempt + 1} attempts: {error}", error.status
                    ) from error
        if cache_path is not None:
            write_atomic(cache_path, json.dumps(response, sort_keys=True) + "\n")
        return response


def _chat_payload(endpoint: EndpointConfig, bundle: PromptBundle) -> dict:
    messages = [{"role": "system", "content": bundle.system}]
    messages += [{"role": role, "content": text} for role, text in bundle.turns]
    return {
        "model": endpoint.model,
        "temperature": endpoint.temperature,
        "messages": messages,
        "logprobs": True,
        "top_logprobs": endpoint.top_logprobs,
    }


def _completion_payload(endpoint: EndpointConfig, bundle: PromptBundle) -> dict:
    return {
        "model": endpoint.model,
        "temperature": endpoint.temperature,
        "prompt": bundle.prefix,
        "max_tokens": 8,
        "stop": ["\n"],
        "logprobs": endpoint.top_logprobs,
    }


def _chat_response_text(response: dict) -> str:
    return response["choices"][0]["message"]["content"]


def _completion_response_text(response: dict) -> str:
    return response["choices"][0]["text"]


def _top_logprob_pairs(entry) -> list[tuple[str, float]]:
    if isinstance(entry, dict) and all(isinstance(v, (int, float)) for v in entry.values()):
        return list(entry.items())
    return [(item["token"], item["logprob"]) for item in entry]


def _completion_p_true(response: dict) -> float | None:
    logprobs = response["choices"][0].get("logprobs")
    if not logprobs or not logprobs.get("top_logprobs"):
        return None
    try:
        return true_probability(_top_logprob_pairs(logprobs["top_logprobs"][0]))
    except DegenerateMassError:
        return None


def _chat_p_true(response: dict, extraction: ExtractionResult) -> list[float | None]:
    """Each labelled object's True-probability, read at the token holding
    the first character of the label word on the line it matched."""
    content = (response["choices"][0].get("logprobs") or {}).get("content") or []
    tokens = [item["token"] for item in content]
    token_starts = list(accumulate(map(len, tokens), initial=0))
    lines = "".join(tokens).splitlines(keepends=True)
    line_starts = list(accumulate(map(len, lines), initial=0))
    out: list[float | None] = []
    for label, line_index in zip(extraction.labels, extraction.lines):
        if label is None or line_index >= len(lines):
            out.append(None)
            continue
        # A labelled line ends with its label word, which is as long as
        # str(label); the line is shorter only if the tokens do not spell the reply.
        column = max(len(lines[line_index].rstrip()) - len(str(label)), 0)
        item = content[bisect_right(token_starts, line_starts[line_index] + column) - 1]
        try:
            out.append(true_probability(_top_logprob_pairs(item.get("top_logprobs", []))))
        except DegenerateMassError:
            out.append(None)
    return out


def run_session(
    exemplar_list: ExemplarList,
    endpoint: EndpointConfig,
    mode: str,
    transport: Transport | None = None,
    cache_dir: str | Path | None = None,
    transcript_path: str | Path | None = None,
    rate_limiter: RateLimiter | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> SessionTranscript:
    """Run (or resume) one labeling session over an exemplar list.

    With the default HTTP transport the endpoint credential must be
    resolvable up front.  Transport failures surface as
    :class:`TransportError` after retries, with the transcript persisted up
    to the last completed set.
    """
    headers = {}
    if transport is None:
        headers = {"Authorization": f"Bearer {endpoint.credential()}"}
        transport = http_transport
    if rate_limiter is None and endpoint.rate_limit_per_s:
        rate_limiter = RateLimiter(endpoint.rate_limit_per_s, sleep=sleep)
    caller = _Caller(endpoint, transport, headers, cache_dir, rate_limiter, sleep)

    transcript = SessionTranscript(
        rule_id=exemplar_list.rule_id, mode=mode, endpoint=endpoint.public_fields()
    )
    if transcript_path is not None and Path(transcript_path).exists():
        existing = load_transcript(transcript_path)
        if (
            existing.rule_id != transcript.rule_id
            or existing.mode != mode
            or existing.endpoint != transcript.endpoint
        ):
            raise TranscriptMismatchError(f"{transcript_path} belongs to a different session")
        transcript = existing

    n_sets = len(exemplar_list.sets)
    if endpoint.max_sets is not None:
        n_sets = min(n_sets, endpoint.max_sets)
    # Each entry is serialized once, as it is loaded or appended, so saving
    # after every set costs the new set rather than the whole transcript.
    # A transcript with no set left to append is never saved, so its
    # entries are not serialized at all.
    fragments = []
    if transcript_path is not None and len(transcript.sets) < n_sets:
        fragments = [_entry_fragment(e) for e in transcript.sets]

    vocab = exemplar_list.vocab
    chat_url = endpoint.base_url.rstrip("/") + "/chat/completions"
    completion_url = endpoint.base_url.rstrip("/") + "/completions"

    for set_index in range(len(transcript.sets), n_sets):
        exemplar_set = exemplar_list.sets[set_index]
        expected = [render_object(obj, vocab) for obj in exemplar_set.objects]
        if transcript.sets and transcript.sets[-1].set_index >= set_index:
            raise TranscriptMismatchError("transcript sets out of order")

        if mode == "completion":
            exchanges = []
            labels: list[bool | None] = []
            exclusions: list[dict] = []
            p_true: list[float | None] = []
            for object_index in range(len(expected)):
                object_bundle = build_prompt(
                    exemplar_list, set_index, mode, upto_object=object_index
                )
                payload = _completion_payload(endpoint, object_bundle)
                response = caller(completion_url, payload)
                exchanges.append({"request": payload, "response": response})
                extraction = extract_labels(
                    _completion_response_text(response), [expected[object_index]], mode
                )
                labels.append(extraction.labels[0])
                exclusions += [
                    {"object_index": object_index, "reason": e.reason}
                    for e in extraction.exclusions
                ]
                p_true.append(_completion_p_true(response))
            entry = SetEntry(
                set_index=set_index,
                exchanges=exchanges,
                labels=labels,
                exclusions=exclusions,
                p_true=p_true,
            )
        else:
            payload = _chat_payload(endpoint, build_prompt(exemplar_list, set_index, mode))
            response = caller(chat_url, payload)
            text = _chat_response_text(response)
            extraction = extract_labels(text, expected, mode)
            entry = SetEntry(
                set_index=set_index,
                exchanges=[{"request": payload, "response": response}],
                labels=extraction.labels,
                exclusions=[
                    {"object_index": e.object_index, "reason": e.reason}
                    for e in extraction.exclusions
                ],
                p_true=_chat_p_true(response, extraction),
                rule_text=extraction.rule_text,
            )

        transcript.sets.append(entry)
        if transcript_path is not None:
            fragments.append(_entry_fragment(entry))
            _write_transcript(transcript, fragments, transcript_path)
    return transcript


def transcript_series(transcript: SessionTranscript, exemplar_list: ExemplarList) -> LabelSeries:
    """Flatten a transcript into the per-object label series used by metrics."""
    return series_from_sets(
        transcript.rule_id,
        exemplar_list,
        ((entry.set_index, entry.labels, entry.p_true) for entry in transcript.sets),
    )
