"""Session driver: iterated labeling of an exemplar list by a hosted model.

Sets are queried strictly in order, each prompt carrying the gold labels of
every earlier set.  Responses are cached on disk keyed by (endpoint config
hash, request payload), transcripts are persisted after every set, and an
interrupted session resumes from its transcript, so the expensive network
work is never repeated.

A transcript stores each exchange as its request's key and its reply: the
request itself is rebuilt from the list, so storing it would repeat every
earlier set's history in every set.  Resuming rebuilds each loaded set's
requests and re-reads its replies, and any difference from the stored keys,
labels, True-probabilities, exclusions or rule text is a
:class:`TranscriptMismatchError`.

One loop sends every request, in every prompt mode.  A mode changes only
data, picked once per session: the endpoint path, the payload builder, the
reply reader, and how a set is split into requests.  A chat-mode set is one
request; in completion mode each object is one, its prompt holding the
set's earlier objects already labelled.  Each request appends its exchange,
labels, True-probabilities and exclusions to its set's entry, an
exclusion's object index counted from the set's first object.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from bisect import bisect_right
from dataclasses import asdict, dataclass, field
from itertools import accumulate
from pathlib import Path
from typing import Callable

from ..exemplars import ExemplarList
from ..exemplars.lists import write_atomic
from ..metrics.series import LabelSeries
from .config import EndpointConfig, TransportError
from .extract import (
    DegenerateMassError,
    ExtractionResult,
    extract_labels,
    true_probability,
)
from .prompts import PromptBundle, build_prompt

Transport = Callable[[str, dict, dict, float], dict]


class TranscriptMismatchError(RuntimeError):
    """An existing transcript disagrees with the session being resumed."""


class UnreadableReplyError(RuntimeError):
    """A reply lacks what its mode's reader reads, as an error object sent
    in place of ``choices`` does."""


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
        return asdict(self)


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
        set's prompt, which is ignored, and each exchange's request in
        place of its key, which :func:`run_session` keys on resume."""
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
    """``entry`` as its line appears in a saved transcript's "sets" array,
    written by the C encoder, which ``indent`` would turn off.  Its fields
    are dumped as they stand: they are its document, and the deep copy
    ``to_document`` makes would double the cost."""
    return "    " + json.dumps(vars(entry), sort_keys=True)


def _write_transcript(
    transcript: SessionTranscript, fragments: list[str], path: str | Path
) -> None:
    """Save ``transcript`` from its entries' fragments: the head indented
    as ``json.dumps(indent=2, sort_keys=True)`` writes it, then one line per
    set, since "sets" is the document's last key."""
    head = json.dumps(transcript._header(), indent=2, sort_keys=True)  # ends "\n}"
    sets = "[\n" + ",\n".join(fragments) + "\n  ]" if fragments else "[]"
    write_atomic(path, f'{head[:-2]},\n  "sets": {sets}\n}}\n')


def save_transcript(transcript: SessionTranscript, path: str | Path) -> None:
    _write_transcript(transcript, [_entry_fragment(entry) for entry in transcript.sets], path)


def load_transcript(path: str | Path) -> SessionTranscript:
    return SessionTranscript.from_document(json.loads(Path(path).read_text(encoding="utf-8")))


def _request_key(endpoint: EndpointConfig, payload: dict) -> str:
    """The sha256 naming a request: its cache file's name and its
    transcript key."""
    document = {"endpoint": endpoint.cache_key(), "payload": payload}
    return hashlib.sha256(json.dumps(document, sort_keys=True).encode()).hexdigest()


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
        read: Callable,
    ):
        self.endpoint = endpoint
        self.transport = transport
        self.headers = headers
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.rate_limiter = rate_limiter
        self.sleep = sleep
        self.read = read

    def __call__(self, url: str, payload: dict, key: str, queried: list[str]) -> tuple[dict, tuple]:
        """The reply to ``payload``, whose :func:`_request_key` is ``key``,
        and the mode's reading of it for the ``queried`` objects.  A reply is
        read before it is cached, so one that cannot be read is never
        cached: it raises :class:`UnreadableReplyError`, and a rerun asks
        again."""
        cache_path = None
        if self.cache_dir is not None:
            cache_path = self.cache_dir / f"{key}.json"
            if cache_path.exists():
                response = json.loads(cache_path.read_text(encoding="utf-8"))
                what = f"cached reply {cache_path}"
                return response, _read_reply(self.read, response, queried, what)
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
        reading = _read_reply(self.read, response, queried, "reply")
        if cache_path is not None:
            write_atomic(cache_path, json.dumps(response, sort_keys=True) + "\n")
        return response, reading


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


def _p_true(top_logprobs) -> float | None:
    """The True-probability at a label position from its top tokens, given
    as a token -> logprob mapping or as a list of items; None when they
    hold no True/False variant or are null."""
    if not top_logprobs:
        return None
    if not isinstance(top_logprobs, dict) or not all(
        isinstance(v, (int, float)) for v in top_logprobs.values()
    ):
        top_logprobs = [(item["token"], item["logprob"]) for item in top_logprobs]
    try:
        return true_probability(top_logprobs)
    except DegenerateMassError:
        return None


def _read_completion(response: dict, objects: list[str]) -> tuple[ExtractionResult, list]:
    """The one queried object's label, and its True-probability from the
    reply's first top logprobs (None when the reply carries none, or when
    the label is excluded, as the chat reader gives for an excluded label).
    A null or missing text, as a refusal gives, is an empty reply."""
    choice = response["choices"][0]
    extraction = extract_labels(choice.get("text") or "", objects, "completion")
    top = (choice.get("logprobs") or {}).get("top_logprobs")
    return extraction, [_p_true(top[0]) if top and extraction.labels[0] is not None else None]


def _read_chat(response: dict, objects: list[str]) -> tuple[ExtractionResult, list]:
    """The queried objects' labels, and each labelled object's
    True-probability, read at the token holding the first character of the
    label word on the line it matched.  Both chat modes read replies alike.
    A null or missing content, as a refusal gives, is an empty reply."""
    choice = response["choices"][0]
    extraction = extract_labels(choice["message"].get("content") or "", objects, "chat")
    content = (choice.get("logprobs") or {}).get("content") or []
    tokens = [item["token"] for item in content]
    token_starts = list(accumulate(map(len, tokens), initial=0))
    lines = "".join(tokens).splitlines(keepends=True)
    line_starts = list(accumulate(map(len, lines), initial=0))
    p_true: list[float | None] = []
    for label, line_index in zip(extraction.labels, extraction.lines):
        if label is None or line_index >= len(lines):
            p_true.append(None)
            continue
        # A labelled line ends with its label word, which is as long as
        # str(label); the line is shorter only if the tokens do not spell the reply.
        column = max(len(lines[line_index].rstrip()) - len(str(label)), 0)
        item = content[bisect_right(token_starts, line_starts[line_index] + column) - 1]
        p_true.append(_p_true(item.get("top_logprobs")))
    return extraction, p_true


# What a prompt mode changes, picked once per session: the endpoint path,
# the payload builder, the reply reader, and whether each object of a set
# is a request of its own (else the set is one request).
_COMPLETION = ("/completions", _completion_payload, _read_completion, True)
_CHAT = ("/chat/completions", _chat_payload, _read_chat, False)


def _read_reply(read, response, queried: list[str], what: str) -> tuple[ExtractionResult, list]:
    """``read(response, queried)``, or :class:`UnreadableReplyError`, naming
    ``what`` was read and quoting the reply's start, when ``response`` lacks
    a field the reader reads."""
    try:
        return read(response, queried)
    except (LookupError, TypeError, AttributeError) as error:
        quoted = json.dumps(response, sort_keys=True)
        raise UnreadableReplyError(
            f"{what} cannot be read ({type(error).__name__}: {error}): {quoted[:200]}"
        ) from None


def _read_entry(set_index: int, requests: list[tuple], replies) -> SetEntry:
    """Set ``set_index``'s entry from its requests, each ``(first object
    index, queried objects, payload, key)``, and their replies, each
    ``(response, (extraction, p_true))`` as ``replies`` yields it."""
    entry = SetEntry(set_index, exchanges=[], labels=[], exclusions=[], p_true=[])
    for (first, *_, key), (response, (extraction, p_true)) in zip(requests, replies):
        entry.exchanges.append({"key": key, "response": response})
        entry.labels += extraction.labels
        entry.exclusions += [
            {"object_index": first + e.object_index, "reason": e.reason}
            for e in extraction.exclusions
        ]
        entry.p_true += p_true
        entry.rule_text = extraction.rule_text
    return entry


def _checked_entry(
    loaded: SetEntry, set_index: int, requests: list[tuple], endpoint: EndpointConfig, read
) -> SetEntry:
    """``loaded`` as a fresh run stores it, once checked against set
    ``set_index``'s rebuilt ``requests``: its exchanges must carry their
    keys, and its replies must read as its labels, exclusions,
    True-probabilities and rule text.  An older exchange stores its request
    in place of the key, and is keyed from it."""
    if loaded.set_index != set_index:
        raise TranscriptMismatchError(
            f"transcript set {set_index} has set_index {loaded.set_index}"
        )
    stored = [
        exchange["key"] if "key" in exchange else _request_key(endpoint, exchange["request"])
        for exchange in loaded.exchanges
    ]
    if stored != [key for *_, key in requests]:
        raise TranscriptMismatchError(f"set {set_index}'s requests are not the list's")
    what = f"set {set_index}'s stored reply"
    entry = _read_entry(set_index, requests, [
        (exchange["response"], _read_reply(read, exchange["response"], queried, what))
        for (_first, queried, *_), exchange in zip(requests, loaded.exchanges)
    ])
    read_as = (entry.labels, entry.exclusions, entry.p_true, entry.rule_text)
    if read_as != (loaded.labels, loaded.exclusions, loaded.p_true, loaded.rule_text):
        raise TranscriptMismatchError(f"set {set_index}'s replies do not read as it stores")
    return entry


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
    to the last completed set.  An existing transcript that is not this
    session's, or any of whose sets differs from what the list and its
    replies give, raises :class:`TranscriptMismatchError`.  A reply the
    mode's reader cannot read raises :class:`UnreadableReplyError` and is
    not cached.
    """
    headers = {}
    if transport is None:
        headers = {"Authorization": f"Bearer {endpoint.credential()}"}
        transport = http_transport
    if rate_limiter is None and endpoint.rate_limit_per_s:
        rate_limiter = RateLimiter(endpoint.rate_limit_per_s, sleep=sleep)
    path, payload_for, read, per_object = _COMPLETION if mode == "completion" else _CHAT
    caller = _Caller(endpoint, transport, headers, cache_dir, rate_limiter, sleep, read)

    n_sets = len(exemplar_list.sets)
    if endpoint.max_sets is not None:
        n_sets = min(n_sets, endpoint.max_sets)
    url = endpoint.base_url.rstrip("/") + path

    def requests(set_index: int) -> list[tuple]:
        """Each request of a set: the index of its first object, the
        objects it asks for, its payload and its key."""
        objects = [o.render(exemplar_list.vocab) for o in exemplar_list.sets[set_index].objects]
        queries = [(i, [o]) for i, o in enumerate(objects)] if per_object else [(0, objects)]
        out = []
        for first, queried in queries:
            payload = payload_for(endpoint, build_prompt(exemplar_list, set_index, mode, first))
            out.append((first, queried, payload, _request_key(endpoint, payload)))
        return out

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
        if len(existing.sets) > n_sets:
            raise TranscriptMismatchError(
                f"{transcript_path} has {len(existing.sets)} sets; the session has {n_sets}"
            )
        transcript.sets = [
            _checked_entry(loaded, set_index, requests(set_index), endpoint, read)
            for set_index, loaded in enumerate(existing.sets)
        ]

    # Each entry is serialized once, as it is loaded or appended, so saving
    # after every set costs the new set rather than the whole transcript.
    # A transcript with no set left to append is never saved, so its
    # entries are not serialized at all.
    fragments = []
    if transcript_path is not None and len(transcript.sets) < n_sets:
        fragments = [_entry_fragment(e) for e in transcript.sets]

    for set_index in range(len(transcript.sets), n_sets):
        sent = requests(set_index)
        replies = (caller(url, payload, key, queried) for _first, queried, payload, key in sent)
        entry = _read_entry(set_index, sent, replies)
        transcript.sets.append(entry)
        if transcript_path is not None:
            fragments.append(_entry_fragment(entry))
            _write_transcript(transcript, fragments, transcript_path)
    return transcript


def transcript_series(transcript: SessionTranscript, exemplar_list: ExemplarList) -> LabelSeries:
    """A transcript's labels and True-probabilities, set after set, as the
    series of its list's first sets."""
    return LabelSeries(
        exemplar_list,
        tuple(label for entry in transcript.sets for label in entry.labels),
        tuple(p for entry in transcript.sets for p in entry.p_true),
    )
