"""Session driving: caching, retries, resumption, and transcripts."""

import json
import math
import os
import signal
import socket
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulelab.catalog import DEFAULT_VOCAB as V
from rulelab.dsl import evaluate, parse_concept
from rulelab.exemplars import generate_list
from rulelab.harness import (
    CredentialError,
    EndpointConfig,
    RateLimiter,
    SessionTranscript,
    TranscriptMismatchError,
    TransportError,
    http_transport,
    load_transcript,
    run_session,
    transcript_series,
)
from rulelab.harness.session import UnreadableReplyError

BLUE = parse_concept("(is-color blue)", V)


def endpoint(**overrides) -> EndpointConfig:
    settings = dict(
        base_url="https://fake.test/v1",
        model="fake-model",
        max_retries=2,
        retry_backoff=0.0,
        credential_env="RULELAB_TEST_KEY",
    )
    settings.update(overrides)
    return EndpointConfig(**settings)


def _label_logprobs(label: bool) -> list[dict]:
    win, lose = (" True", " False") if label else (" False", " True")
    return [
        {"token": win, "logprob": math.log(0.9)},
        {"token": lose, "logprob": math.log(0.05)},
    ]


class ChatOracle:
    """Labels every queried object according to a concept, with logprobs."""

    def __init__(self, concept=BLUE, rule_line=None, mangle=None):
        self.concept = concept
        self.rule_line = rule_line
        self.mangle = mangle  # optional hook rewriting the reply lines
        self.calls = []

    def __call__(self, url, payload, headers, timeout):
        self.calls.append((url, payload))
        query = payload["messages"][-1]["content"]
        descriptions = [line[2:] for line in query.splitlines() if line.startswith("- ")]
        lines = []
        content = []
        if self.rule_line:
            lines.append(self.rule_line)
            content.append({"token": self.rule_line + "\n", "logprob": -0.1})
        objects = _parse_objects(descriptions)
        for description, label in objects:
            lines.append(f"- {description} -> {label}")
            content.append({"token": f"- {description} ->", "logprob": -0.1})
            content.append(
                {
                    "token": f" {label}",
                    "logprob": math.log(0.9),
                    "top_logprobs": _label_logprobs(label),
                }
            )
            content.append({"token": "\n", "logprob": -0.01})
        if self.mangle:
            lines = self.mangle(lines)
        return {
            "choices": [
                {
                    "message": {"content": "\n".join(lines)},
                    "logprobs": {"content": content},
                }
            ]
        }


def _parse_objects(descriptions):
    out = []
    for description in descriptions:
        size_name, color_name, shape_name = description.split()
        from rulelab.dsl import Context, Obj

        obj = Obj(
            V.index("size", size_name), V.index("color", color_name), V.index("shape", shape_name)
        )
        out.append((description, evaluate(BLUE, Context((obj,), 0))))
    return out


class CompletionOracle:
    def __init__(self):
        self.calls = []

    def __call__(self, url, payload, headers, timeout):
        self.calls.append((url, payload))
        query_line = payload["prompt"].rstrip().rsplit("\n", 1)[-1]
        description = query_line.strip("- ").rstrip("->").strip()
        (_desc, label), = _parse_objects([description])
        text = " True" if label else " False"
        return {
            "choices": [
                {
                    "text": text,
                    "logprobs": {
                        "tokens": [text],
                        "top_logprobs": [{" True": math.log(0.8), " False": math.log(0.1)}]
                        if label
                        else [{" False": math.log(0.8), " True": math.log(0.1)}],
                    },
                }
            ]
        }


def fixture_list(n_sets=5, seed=9):
    return generate_list(BLUE, V, seed=seed, n_sets=n_sets, rule_id="blue")


def test_chat_session_transcript_shape(tmp_path):
    oracle = ChatOracle()
    transcript = run_session(fixture_list(), endpoint(), "chat", transport=oracle)
    assert len(transcript.sets) == 5
    for entry, exemplar_set in zip(transcript.sets, fixture_list().sets):
        assert len(entry.labels) == len(exemplar_set.objects)
        assert entry.exclusions == []
        assert all(p == pytest.approx(0.9 / 0.95) or p == pytest.approx(0.05 / 0.95)
                   for p in entry.p_true)
    series = transcript_series(transcript, fixture_list())
    assert series.labels == fixture_list().gold  # oracle labels truthfully


def test_25_set_list_yields_25_entries():
    transcript = run_session(fixture_list(n_sets=25), endpoint(), "chat", transport=ChatOracle())
    assert len(transcript.sets) == 25


def test_history_feedback_is_gold(tmp_path):
    oracle = ChatOracle(mangle=lambda lines: [line.replace("True", "False") for line in lines])
    exemplar_list = fixture_list()
    run_session(exemplar_list, endpoint(), "chat", transport=oracle)
    # The final request's history must carry gold labels, not the model's
    # (mangled) answers.
    _url, payload = oracle.calls[-1]
    assistant_turns = [m["content"] for m in payload["messages"] if m["role"] == "assistant"]
    for set_index, turn in enumerate(assistant_turns):
        exemplar_set = exemplar_list.sets[set_index]
        for obj, label in zip(exemplar_set.objects, exemplar_set.labels):
            assert f"- {obj.render(V)} -> {label}" in turn


def test_cache_replay_makes_zero_calls(tmp_path):
    cache_dir = tmp_path / "cache"
    first = ChatOracle()
    a = run_session(fixture_list(), endpoint(), "chat", transport=first, cache_dir=cache_dir)
    assert len(first.calls) == 5
    second = ChatOracle()
    b = run_session(fixture_list(), endpoint(), "chat", transport=second, cache_dir=cache_dir)
    assert second.calls == []
    assert a.to_document() == b.to_document()


@pytest.mark.parametrize("mode", ["chat", "completion"])
def test_an_unreadable_reply_is_not_cached(tmp_path, mode):
    """A 200 reply the mode's reader cannot read, an error object here,
    fails the session with a message that names it and leaves no cache
    file or transcript set, so a rerun sends the request again."""
    cache_dir = tmp_path / "cache"
    path = tmp_path / "transcript.json"
    exemplar_list = fixture_list(n_sets=1)
    sent = []

    def overloaded(url, payload, headers, timeout):
        sent.append(url)
        return {"error": {"message": "overloaded"}}

    with pytest.raises(UnreadableReplyError, match=r"^reply cannot be read \(KeyError: 'choices'\).*overloaded"):
        run_session(exemplar_list, endpoint(), mode, transport=overloaded, cache_dir=cache_dir,
                    transcript_path=path)
    assert len(sent) == 1
    assert list(cache_dir.iterdir()) == [] and not path.exists()
    oracle = _oracle_for(mode)
    transcript = run_session(exemplar_list, endpoint(), mode, transport=oracle,
                             cache_dir=cache_dir, transcript_path=path)
    n_requests = len(exemplar_list.sets[0].objects) if mode == "completion" else 1
    assert len(oracle.calls) == n_requests == len(list(cache_dir.iterdir()))
    assert transcript.sets[0].labels == list(exemplar_list.sets[0].labels)


def test_cache_keyed_by_endpoint_config(tmp_path):
    cache_dir = tmp_path / "cache"
    run_session(fixture_list(), endpoint(), "chat", transport=ChatOracle(), cache_dir=cache_dir)
    other = ChatOracle()
    run_session(
        fixture_list(), endpoint(temperature=0.1), "chat", transport=other, cache_dir=cache_dir
    )
    assert len(other.calls) == 5  # different temperature, different cache slots


def test_retries_then_success():
    failures = {"left": 2}
    inner = ChatOracle()

    def flaky(url, payload, headers, timeout):
        if failures["left"] > 0:
            failures["left"] -= 1
            raise TransportError("boom")
        return inner(url, payload, headers, timeout)

    transcript = run_session(fixture_list(n_sets=1), endpoint(), "chat", transport=flaky)
    assert len(transcript.sets) == 1


def test_transport_failure_persists_progress(tmp_path):
    transcript_path = tmp_path / "t.json"
    inner = ChatOracle()
    state = {"calls": 0}

    def dies_on_third(url, payload, headers, timeout):
        state["calls"] += 1
        if state["calls"] > 2:
            raise TransportError("down")
        return inner(url, payload, headers, timeout)

    with pytest.raises(TransportError):
        run_session(
            fixture_list(), endpoint(max_retries=0), "chat",
            transport=dies_on_third, transcript_path=transcript_path,
        )
    partial = load_transcript(transcript_path)
    assert len(partial.sets) == 2

    # Resuming touches only the incomplete sets.
    resumed_oracle = ChatOracle()
    transcript = run_session(
        fixture_list(), endpoint(max_retries=0), "chat",
        transport=resumed_oracle, transcript_path=transcript_path,
    )
    assert len(transcript.sets) == 5
    assert len(resumed_oracle.calls) == 3


def test_resume_rejects_foreign_transcript(tmp_path):
    transcript_path = tmp_path / "t.json"
    run_session(
        fixture_list(), endpoint(), "chat", transport=ChatOracle(),
        transcript_path=transcript_path,
    )
    with pytest.raises(TranscriptMismatchError):
        run_session(
            fixture_list(), endpoint(model="other-model"), "chat",
            transport=ChatOracle(), transcript_path=transcript_path,
        )


def test_max_sets_truncates_session():
    transcript = run_session(
        fixture_list(n_sets=25), endpoint(max_sets=14), "chat", transport=ChatOracle()
    )
    assert len(transcript.sets) == 14


def test_completion_session_one_call_per_object():
    oracle = CompletionOracle()
    exemplar_list = fixture_list()
    transcript = run_session(exemplar_list, endpoint(), "completion", transport=oracle)
    assert len(oracle.calls) == exemplar_list.n_objects
    series = transcript_series(transcript, exemplar_list)
    assert series.labels == exemplar_list.gold
    assert all(p == pytest.approx(8 / 9) or p == pytest.approx(1 / 9) for p in series.p_true)


def test_adversarial_responses_balance_exclusions():
    def mangle(lines):
        out = []
        for i, line in enumerate(lines):
            if i == 0:
                out.append(line.split("->")[0] + "-> Maybe")  # non-boolean
            elif i == 1:
                out.append("- enormous chartreuse blob -> True")  # wrong object
            else:
                out.append(line)
        return out

    exemplar_list = fixture_list()
    transcript = run_session(
        exemplar_list, endpoint(), "chat", transport=ChatOracle(mangle=mangle)
    )
    for entry, exemplar_set in zip(transcript.sets, exemplar_list.sets):
        labeled = sum(label is not None for label in entry.labels)
        assert labeled + len(entry.exclusions) == len(exemplar_set.objects)
    assert transcript.exclusion_count > 0
    reasons = {e["reason"] for entry in transcript.sets for e in entry.exclusions}
    assert "non-boolean label" in reasons and "object-mismatch" in reasons


def test_elicitation_mode_records_rule_text():
    oracle = ChatOracle(rule_line="Rule: blue objects only")
    transcript = run_session(fixture_list(), endpoint(), "chat+elicitation", transport=oracle)
    assert all(entry.rule_text == "blue objects only" for entry in transcript.sets)


def test_missing_credential_is_config_error(monkeypatch):
    monkeypatch.delenv("RULELAB_TEST_KEY", raising=False)
    with pytest.raises(CredentialError):
        run_session(fixture_list(), endpoint(), "chat")


@pytest.mark.parametrize("base_url", ["notaurl", "file:///etc/hosts", "https://", "http://[", None, 7])
def test_endpoint_rejects_a_base_url_that_is_not_http(base_url):
    """A session built in code, not from a config file, also never sends
    (or retries) a request to a URL urllib would refuse or read locally."""
    with pytest.raises(ValueError, match="base_url"):
        endpoint(base_url=base_url)


@pytest.mark.parametrize("model", [
    "", ".", "..", "../../x", "a/../../x", "a/./b", "a//b", "a/", "/abs", "a\\b", "..\\x", None, 7,
])
def test_endpoint_rejects_a_model_that_cannot_name_a_directory_below_the_output(model):
    """The model names the directory its transcripts are written to."""
    with pytest.raises(ValueError, match="model must be a relative path"):
        endpoint(model=model)


@pytest.mark.parametrize("model", ["m", "gpt-4.1", "org/model", "org/model:8b", "a..b/.c"])
def test_endpoint_keeps_a_model_of_named_parts(model):
    assert endpoint(model=model).model == model


@pytest.mark.parametrize("key, value", [
    ("timeout", -5), ("timeout", 0), ("timeout", True),
    ("max_retries", -1), ("max_retries", 1.5), ("max_retries", True),
    ("retry_backoff", -1.0), ("retry_backoff", "0.5"),
    ("max_sets", 0), ("max_sets", -2), ("max_sets", 2.5), ("max_sets", "3"), ("max_sets", True),
    ("rate_limit_per_s", -1), ("rate_limit_per_s", 0), ("rate_limit_per_s", True),
    ("top_logprobs", True), ("top_logprobs", 2.5),
    ("temperature", True), ("temperature", -0.1),
])
def test_endpoint_file_rejects_an_out_of_range_number(tmp_path, key, value):
    """JSON booleans are never numbers, and each number must be in range."""
    from rulelab.harness import EndpointConfigError, load_endpoint_config

    path = tmp_path / "endpoint.json"
    path.write_text(json.dumps({"base_url": "https://fake.test/v1", "model": "m", key: value}))
    with pytest.raises(EndpointConfigError, match=key):
        load_endpoint_config(path)


def test_endpoint_accepts_each_range_at_its_edge():
    endpoint(
        timeout=0.5, max_retries=0, retry_backoff=0, max_sets=1, rate_limit_per_s=0.25,
        top_logprobs=1, temperature=0,
    )
    endpoint(max_sets=None, rate_limit_per_s=None)


def test_rate_limiter_spacing():
    now = {"t": 0.0}
    naps = []
    limiter = RateLimiter(2.0, clock=lambda: now["t"], sleep=naps.append)
    limiter.wait()
    limiter.wait()
    limiter.wait()
    assert naps == [0.5, 1.0]  # spaced to 2 requests per second


def test_a_rate_limited_session_waits_before_each_request_it_sends(tmp_path, monkeypatch):
    """The limiter the endpoint's rate builds spaces the requests of a
    3-set session 1/rate apart on the session's clock, a retry included; a
    replay from the cache sends nothing and waits for nothing."""
    import functools

    from rulelab.harness import session

    now = {"t": 0.0}
    naps = []

    def sleep(seconds):
        naps.append(seconds)
        now["t"] += seconds

    monkeypatch.setattr(session, "RateLimiter", functools.partial(RateLimiter, clock=lambda: now["t"]))
    sent, inner = [], ChatOracle()

    def busy_once(url, payload, headers, timeout):
        sent.append(now["t"])
        if len(sent) == 2:  # the second set's first attempt
            raise TransportError("busy", status=429)
        return inner(url, payload, headers, timeout)

    config = endpoint(rate_limit_per_s=4.0, retry_backoff=0.0)
    cache_dir = tmp_path / "cache"
    first = run_session(fixture_list(n_sets=3), config, "chat", transport=busy_once,
                        cache_dir=cache_dir, sleep=sleep)
    assert len(first.sets) == 3 and len(inner.calls) == 3
    assert sent == [0.0, 0.25, 0.5, 0.75]
    assert naps == [0.25, 0.0, 0.25, 0.25]  # the retry's backoff of 0, then its wait
    naps.clear()
    replay = ChatOracle()
    again = run_session(fixture_list(n_sets=3), config, "chat", transport=replay,
                        cache_dir=cache_dir, sleep=sleep)
    assert replay.calls == [] and naps == [] and now["t"] == 0.75
    assert again.to_document() == first.to_document()


@pytest.mark.parametrize("complete", [True, False])
def test_resume_refuses_a_transcript_whose_sets_are_out_of_order(tmp_path, complete):
    """Two swapped entries of a saved 3-set transcript are caught on
    resume, before any request, and the file is left as it was."""
    path = tmp_path / "t.json"
    run_session(fixture_list(n_sets=3), endpoint(), "chat", transport=ChatOracle(),
                transcript_path=path)
    document = json.loads(path.read_text())
    document["sets"][0], document["sets"][1] = document["sets"][1], document["sets"][0]
    path.write_text(json.dumps(document))
    saved = path.read_bytes()
    oracle = ChatOracle()
    with pytest.raises(TranscriptMismatchError, match="^transcript set 0 has set_index 1$"):
        run_session(fixture_list(n_sets=3 if complete else 4), endpoint(), "chat",
                    transport=oracle, transcript_path=path)
    assert oracle.calls == []
    assert path.read_bytes() == saved


def _document_bytes(transcript: SessionTranscript) -> str:
    """The bytes a saved ``transcript`` holds: its head indented by two,
    then each set as one compact line, which parse back to its document."""
    document = transcript.to_document()
    lines = [json.dumps(entry, sort_keys=True) for entry in document.pop("sets")]
    head = json.dumps(document, indent=2, sort_keys=True)[:-2]  # cut "\n}"
    sets = "[\n" + ",\n".join("    " + line for line in lines) + "\n  ]" if lines else "[]"
    text = f'{head},\n  "sets": {sets}\n}}\n'
    assert json.loads(text) == transcript.to_document()
    return text


def _count_fragments(monkeypatch) -> dict[int, int]:
    """Count, per set index, how often a session serializes an entry."""
    from rulelab.harness import session

    counts: dict[int, int] = {}
    serialize = session._entry_fragment

    def counted(entry):
        counts[entry.set_index] = counts.get(entry.set_index, 0) + 1
        return serialize(entry)

    monkeypatch.setattr(session, "_entry_fragment", counted)
    return counts


def _excluding_oracle() -> ChatOracle:
    # An excluded label per set, so that exclusion_count moves in the header.
    return ChatOracle(
        rule_line="Rule: blue objects only",
        mangle=lambda lines: lines[:1] + [lines[1].split("->")[0] + "-> Maybe"] + lines[2:],
    )


def test_transcript_bytes_after_every_set(tmp_path, monkeypatch):
    from rulelab.harness import session

    transcript_path = tmp_path / "t.json"
    written = []
    write = session.write_atomic

    def recording_write(path, text):
        if path == transcript_path:
            written.append(text)
        write(path, text)

    monkeypatch.setattr(session, "write_atomic", recording_write)
    counts = _count_fragments(monkeypatch)
    transcript = run_session(
        fixture_list(n_sets=6), endpoint(), "chat+elicitation",
        transport=_excluding_oracle(), transcript_path=transcript_path,
    )
    assert transcript.exclusion_count > 0
    assert len(written) == 6  # one atomic write per set
    for n_sets, text in enumerate(written, start=1):
        prefix = SessionTranscript(
            transcript.rule_id, transcript.mode, transcript.endpoint, transcript.sets[:n_sets]
        )
        assert text == _document_bytes(prefix)
    assert transcript_path.read_text() == _document_bytes(transcript)
    assert counts == {set_index: 1 for set_index in range(6)}


def test_resumed_transcript_bytes_and_one_serialization_per_entry(tmp_path, monkeypatch):
    transcript_path = tmp_path / "t.json"
    inner = _excluding_oracle()
    state = {"calls": 0}

    def dies_on_fourth(url, payload, headers, timeout):
        state["calls"] += 1
        if state["calls"] > 3:
            raise TransportError("down")
        return inner(url, payload, headers, timeout)

    with pytest.raises(TransportError):
        run_session(
            fixture_list(n_sets=6), endpoint(max_retries=0), "chat+elicitation",
            transport=dies_on_fourth, transcript_path=transcript_path,
        )
    partial = load_transcript(transcript_path)
    assert len(partial.sets) == 3
    assert transcript_path.read_text() == _document_bytes(partial)

    counts = _count_fragments(monkeypatch)
    transcript = run_session(
        fixture_list(n_sets=6), endpoint(max_retries=0), "chat+elicitation",
        transport=_excluding_oracle(), transcript_path=transcript_path,
    )
    assert transcript_path.read_text() == _document_bytes(transcript)
    assert load_transcript(transcript_path).to_document() == transcript.to_document()
    assert counts == {set_index: 1 for set_index in range(6)}


@pytest.mark.parametrize("max_sets", [None, 4])
def test_resuming_a_complete_transcript_serializes_nothing(tmp_path, monkeypatch, max_sets):
    """Complete means every set of the list, or the endpoint's max_sets."""
    transcript_path = tmp_path / "t.json"
    run_session(
        fixture_list(n_sets=6), endpoint(max_sets=max_sets), "chat+elicitation",
        transport=_excluding_oracle(), transcript_path=transcript_path,
    )
    before = transcript_path.read_bytes()
    oracle = _excluding_oracle()
    counts = _count_fragments(monkeypatch)
    transcript = run_session(
        fixture_list(n_sets=6), endpoint(max_sets=max_sets), "chat+elicitation",
        transport=oracle, transcript_path=transcript_path,
    )
    assert counts == {}
    assert oracle.calls == []
    assert len(transcript.sets) == (max_sets or 6)
    assert transcript_path.read_bytes() == before


def test_save_transcript_matches_document_dump(tmp_path):
    from rulelab.harness import save_transcript

    path = tmp_path / "t.json"
    transcript = SessionTranscript("blue", "chat", endpoint().public_fields())
    save_transcript(transcript, path)  # no sets yet
    assert path.read_text() == _document_bytes(transcript)
    transcript = run_session(fixture_list(n_sets=3), endpoint(), "chat+elicitation",
                             transport=_excluding_oracle())
    save_transcript(transcript, path)
    assert path.read_text() == _document_bytes(transcript)


def _oracle_for(mode: str):
    if mode == "completion":
        return CompletionOracle()
    return ChatOracle(rule_line="Rule: blue objects only" if mode == "chat+elicitation" else None)


def _rebuilt_payloads(exemplar_list, config: EndpointConfig, mode: str, set_index: int) -> list[dict]:
    """The payloads sent for set ``set_index``: one per object in completion
    mode, else one."""
    from rulelab.harness import build_prompt
    from rulelab.harness.session import _chat_payload, _completion_payload

    if mode == "completion":
        return [
            _completion_payload(config, build_prompt(exemplar_list, set_index, mode, j))
            for j in range(len(exemplar_list.sets[set_index].objects))
        ]
    return [_chat_payload(config, build_prompt(exemplar_list, set_index, mode))]


def _prompt_document(mode: str, requests: list[dict]) -> dict:
    """The prompt document a set's first request was sent from."""
    if mode == "completion":
        return {"mode": mode, "prefix": requests[0]["prompt"]}
    system, *turns = requests[0]["messages"]
    return {
        "mode": mode,
        "system": system["content"],
        "turns": [[turn["role"], turn["content"]] for turn in turns],
    }


@pytest.mark.parametrize("mode", ["chat", "completion", "chat+elicitation"])
def test_saved_entries_keep_the_prompt_once_as_the_request(tmp_path, mode):
    """No entry stores a prompt or a request: each exchange holds the key of
    the payload built from build_prompt for its set (and object, in
    completion mode), which is the name of its cache file, and its reply."""
    from rulelab.harness import build_prompt
    from rulelab.harness.session import _request_key

    exemplar_list = fixture_list(n_sets=4)
    config = endpoint()
    path = tmp_path / "t.json"
    run_session(exemplar_list, config, mode, transport=_oracle_for(mode), transcript_path=path,
                cache_dir=tmp_path / "cache")
    saved = json.loads(path.read_text())["sets"]
    assert len(saved) == 4
    for entry in saved:
        assert "prompt" not in entry
        assert all(sorted(exchange) == ["key", "response"] for exchange in entry["exchanges"])
        set_index = entry["set_index"]
        requests = _rebuilt_payloads(exemplar_list, config, mode, set_index)
        assert [exchange["key"] for exchange in entry["exchanges"]] == [
            _request_key(config, payload) for payload in requests
        ]
        for exchange in entry["exchanges"]:
            cached = tmp_path / "cache" / f"{exchange['key']}.json"
            assert json.loads(cached.read_text()) == exchange["response"]
        bundle = build_prompt(exemplar_list, set_index, mode)
        assert _prompt_document(mode, requests) == bundle.as_document()


def _completion_query(prompt: str) -> tuple[int, int, str]:
    """The set index, object index and description a completion prompt asks for."""
    lines = prompt.splitlines()
    group = max(i for i, line in enumerate(lines) if line.startswith("Group "))
    set_index = int(lines[group].split()[1].rstrip(":")) - 1
    return set_index, len(lines) - group - 2, lines[-1].strip("- ").rstrip("->").strip()


class ScriptedTransport:
    """Answers each request from the gold rule, spoiled by a fault chosen
    from the request itself: in chat modes by the queried set, in
    completion mode by the queried set and object.  A fault depends on the
    request alone, so a cached, resumed or fresh session meets the same
    replies.

    Chat faults, by set index mod 4: the first label word is "Maybe"; the
    second object is re-described; the reply has no logprobs; the first
    label's top tokens hold no True/False variant.  Completion faults, by
    (set index + object index) mod 4: the reply is "Perhaps"; it has no
    logprobs; its top tokens hold no True/False variant; none (its top
    tokens come as a list of items rather than a mapping)."""

    def __init__(self, mode):
        self.rule_line = "Rule: blue objects only" if mode == "chat+elicitation" else None
        self.calls = []

    def __call__(self, url, payload, headers, timeout):
        self.calls.append((url, payload))
        if "prompt" in payload:
            return self._completion(payload["prompt"])
        return self._chat(payload["messages"])

    def _chat(self, messages):
        set_index = sum(message["role"] == "user" for message in messages) - 1
        query = messages[-1]["content"]
        objects = _parse_objects([line[2:] for line in query.splitlines() if line.startswith("- ")])
        fault = set_index % 4
        tokens = [(self.rule_line + "\n", None)] if self.rule_line else []
        for index, (description, label) in enumerate(objects):
            word, top = f" {label}", _label_logprobs(label)
            if fault == 0 and index == 0:
                word = " Maybe"
            if fault == 1 and index == min(1, len(objects) - 1):
                description = "enormous chartreuse blob"
            if fault == 3 and index == 0:
                top = [{"token": " Yes", "logprob": math.log(0.6)},
                       {"token": " No", "logprob": math.log(0.3)}]
            tokens += [(f"- {description} ->", None), (word, top), ("\n", None)]
        choice = {"message": {"content": "".join(token for token, _top in tokens)}}
        if fault != 2:
            choice["logprobs"] = {"content": [
                {"token": token, "logprob": -0.1, **({"top_logprobs": top} if top else {})}
                for token, top in tokens
            ]}
        return {"choices": [choice]}

    def _completion(self, prompt):
        set_index, object_index, description = _completion_query(prompt)
        (_description, label), = _parse_objects([description])
        fault = (set_index + object_index) % 4
        text = " Perhaps" if fault == 0 else f" {label}"
        win, lose = (" True", " False") if label else (" False", " True")
        top = {win: math.log(0.8), lose: math.log(0.1)}
        if fault == 2:
            top = {" Yes": math.log(0.8), " No": math.log(0.1)}
        if fault == 3:
            top = [{"token": token, "logprob": logprob} for token, logprob in top.items()]
        choice = {"text": text}
        if fault != 1:
            choice["logprobs"] = {"tokens": [text], "top_logprobs": [top]}
        return {"choices": [choice]}


SCRIPTED_SETS, SCRIPTED_PARTIAL_SETS = 5, 3


def _scripted_session_files(work: Path, mode: str) -> dict[str, str]:
    """Run a scripted session over five sets and return the files it
    leaves, by path under ``work``: its transcript, cache and series, and
    the transcript of a run of the same session cut after three sets."""
    from rulelab.metrics import save_series

    exemplar_list = fixture_list(n_sets=SCRIPTED_SETS)
    finished = SCRIPTED_PARTIAL_SETS
    if mode == "completion":
        finished = sum(len(s.objects) for s in exemplar_list.sets[:SCRIPTED_PARTIAL_SETS])
    script = ScriptedTransport(mode)

    def cut(url, payload, headers, timeout):
        if len(script.calls) == finished:
            raise TransportError("cut", status=400)
        return script(url, payload, headers, timeout)

    with pytest.raises(TransportError):
        run_session(exemplar_list, endpoint(), mode, transport=cut,
                    transcript_path=work / "partial.json")
    transcript = run_session(
        exemplar_list, endpoint(), mode, transport=ScriptedTransport(mode),
        cache_dir=work / "cache", transcript_path=work / "transcript.json",
    )
    save_series(transcript_series(transcript, exemplar_list), work / "series.json")
    return {
        path.relative_to(work).as_posix(): path.read_text()
        for path in sorted(work.rglob("*")) if path.is_file()
    }


def _scripted_golden(mode: str) -> dict[str, str]:
    """The files ``_scripted_session_files`` left in ``mode`` when the golden
    was recorded, after transcripts stored keys in place of requests."""
    name = f"session_{mode.replace('+', '_')}.json"
    return json.loads((Path(__file__).parent / "golden" / name).read_text())


@pytest.mark.parametrize("mode", ["chat", "completion", "chat+elicitation"])
def test_scripted_session_files_match_their_golden_bytes(tmp_path, mode):
    """Transcripts, cache files and series are frozen byte for byte, so a
    cache or transcript written by an earlier version still hits and
    resumes.  The script covers each way a reply can be read badly."""
    files = _scripted_session_files(tmp_path, mode)
    golden = _scripted_golden(mode)
    assert sorted(files) == sorted(golden)
    for path, text in golden.items():
        assert files[path] == text, path
    transcript = json.loads(files["transcript.json"])
    assert transcript["exclusion_count"] > 0
    assert None in [p for entry in transcript["sets"] for p in entry["p_true"]]


def _resumes_to_a_fresh_runs_bytes(tmp_path, mode: str, with_prompt: bool) -> None:
    """The golden transcript of a scripted session cut after three of five
    sets, laid out as older versions wrote it (indented, each exchange
    storing its request in place of its key and, ``with_prompt``, each set's
    prompt beside them), resumes with no request for its finished sets.  The
    completed file is the bytes of a fresh run and of the golden uncut
    transcript."""
    from rulelab.harness import build_prompt
    from rulelab.harness.session import _request_key

    golden = _scripted_golden(mode)
    exemplar_list = fixture_list(n_sets=SCRIPTED_SETS)
    config = endpoint()
    fresh_path = tmp_path / "fresh.json"
    run_session(
        exemplar_list, config, mode, transport=ScriptedTransport(mode),
        transcript_path=fresh_path,
    )
    assert fresh_path.read_text() == golden["transcript.json"]
    old = json.loads(golden["partial.json"])
    assert len(old["sets"]) == SCRIPTED_PARTIAL_SETS
    for entry in old["sets"]:
        payloads = _rebuilt_payloads(exemplar_list, config, mode, entry["set_index"])
        assert len(payloads) == len(entry["exchanges"])
        for exchange, payload in zip(entry["exchanges"], payloads):
            assert exchange.pop("key") == _request_key(config, payload)
            exchange["request"] = payload
        if with_prompt:
            entry["prompt"] = build_prompt(exemplar_list, entry["set_index"], mode).as_document()
    path = tmp_path / "old.json"
    path.write_text(json.dumps(old, indent=2, sort_keys=True) + "\n")

    script = ScriptedTransport(mode)
    run_session(exemplar_list, config, mode, transport=script, transcript_path=path)
    assert [payload for _url, payload in script.calls] == [
        payload for set_index in range(SCRIPTED_PARTIAL_SETS, SCRIPTED_SETS)
        for payload in _rebuilt_payloads(exemplar_list, config, mode, set_index)
    ]
    assert path.read_bytes() == fresh_path.read_bytes()


@pytest.mark.parametrize("mode", ["chat", "completion", "chat+elicitation"])
def test_a_transcript_that_stores_prompts_resumes_to_a_fresh_runs_bytes(tmp_path, mode):
    _resumes_to_a_fresh_runs_bytes(tmp_path, mode, with_prompt=True)


@pytest.mark.parametrize("mode", ["chat", "completion", "chat+elicitation"])
def test_a_transcript_that_stores_requests_resumes_to_a_fresh_runs_bytes(tmp_path, mode):
    _resumes_to_a_fresh_runs_bytes(tmp_path, mode, with_prompt=False)


def test_saved_entry_lines_grow_linearly(tmp_path):
    """A saved set is one line holding its own replies and keys, not the
    earlier sets' history: set 24's line (two objects) is under 1.5 times
    set 2's (four objects)."""
    path = tmp_path / "t.json"
    exemplar_list = fixture_list(n_sets=25)
    run_session(exemplar_list, endpoint(), "chat+elicitation",
                transport=ChatOracle(rule_line="Rule: blue objects only"), transcript_path=path)
    lines = [line for line in path.read_text().splitlines() if line.startswith('    {"')]
    assert [json.loads(line.rstrip(","))["set_index"] for line in lines] == list(range(25))
    assert len(lines[24]) < 1.5 * len(lines[2])


def _edit_reply(document: dict) -> None:
    message = document["sets"][1]["exchanges"][0]["response"]["choices"][0]["message"]
    message["content"] = message["content"].rpartition("->")[0] + "-> Maybe"  # the last label


def _edit_label(document: dict) -> None:
    labels = document["sets"][1]["labels"]
    labels[0] = not labels[0]


@pytest.mark.parametrize("edit", [_edit_reply, _edit_label])
@pytest.mark.parametrize("complete", [True, False])
def test_resume_rejects_an_edited_transcript(tmp_path, edit, complete):
    """A stored reply or label that no longer matches the other is caught
    on resume, whether or not a set is left to append, before any request."""
    path = tmp_path / "t.json"
    n_sets = 4 if complete else 5
    run_session(fixture_list(n_sets=4), endpoint(), "chat+elicitation",
                transport=_excluding_oracle(), transcript_path=path)
    document = json.loads(path.read_text())
    edit(document)
    path.write_text(json.dumps(document))
    oracle = _excluding_oracle()
    with pytest.raises(TranscriptMismatchError, match="set 1"):
        run_session(fixture_list(n_sets=n_sets), endpoint(), "chat+elicitation",
                    transport=oracle, transcript_path=path)
    assert oracle.calls == []


def test_resume_rejects_a_transcript_of_an_edited_list(tmp_path):
    import dataclasses

    path = tmp_path / "t.json"
    exemplar_list = fixture_list(n_sets=4)
    run_session(exemplar_list, endpoint(), "chat", transport=ChatOracle(), transcript_path=path)
    sets = list(exemplar_list.sets)
    first, *rest = sets[2].objects
    sets[2] = dataclasses.replace(
        sets[2], objects=(dataclasses.replace(first, size=(first.size + 1) % 3), *rest)
    )
    edited = dataclasses.replace(exemplar_list, sets=tuple(sets))
    with pytest.raises(TranscriptMismatchError, match="set 2's requests"):
        run_session(edited, endpoint(), "chat", transport=ChatOracle(), transcript_path=path)


def test_resume_rejects_a_transcript_of_another_list_seed(tmp_path):
    """Same rule id, another list: with max_sets 3 both sessions are
    complete after three sets, so nothing is left to append."""
    path = tmp_path / "t.json"
    run_session(fixture_list(seed=9), endpoint(max_sets=3), "chat", transport=ChatOracle(),
                transcript_path=path)
    oracle = ChatOracle()
    with pytest.raises(TranscriptMismatchError, match="set 0's requests"):
        run_session(fixture_list(seed=10), endpoint(max_sets=3), "chat", transport=oracle,
                    transcript_path=path)
    assert oracle.calls == []


def test_resume_rejects_a_transcript_longer_than_the_list(tmp_path):
    path = tmp_path / "t.json"
    run_session(fixture_list(n_sets=5), endpoint(), "chat", transport=ChatOracle(),
                transcript_path=path)
    with pytest.raises(TranscriptMismatchError, match="5 sets"):
        run_session(fixture_list(n_sets=3), endpoint(), "chat", transport=ChatOracle(),
                    transcript_path=path)


@pytest.mark.parametrize("mode, choice, reason", [
    ("chat", {"message": {"role": "assistant", "content": None, "refusal": "No."}},
     "object-mismatch"),
    ("chat", {"message": {"role": "assistant"}}, "object-mismatch"),
    ("chat+elicitation", {"message": {"role": "assistant", "content": None}}, "object-mismatch"),
    ("completion", {"text": None}, "non-boolean completion"),
    ("completion", {}, "non-boolean completion"),
])
def test_a_null_or_missing_reply_text_excludes_every_object(tmp_path, mode, choice, reason):
    """A refusal's null (or absent) text is an empty reply, on the first run
    and on a rerun that reads the cached reply."""
    exemplar_list = fixture_list(n_sets=3)
    for _run in range(2):
        transcript = run_session(
            exemplar_list, endpoint(), mode, cache_dir=tmp_path / "cache",
            transport=lambda url, payload, headers, timeout: {"choices": [dict(choice)]},
        )
        for entry, exemplar_set in zip(transcript.sets, exemplar_list.sets):
            n_objects = len(exemplar_set.objects)
            assert entry.labels == entry.p_true == [None] * n_objects
            assert entry.exclusions == [
                {"object_index": i, "reason": reason} for i in range(n_objects)
            ]
            assert entry.rule_text is None


@pytest.mark.parametrize("mode", ["chat", "completion", "chat+elicitation"])
def test_null_top_logprobs_give_no_p_true(mode):
    """A label read from a reply whose top logprobs are null has no
    True-probability."""
    oracle = _oracle_for(mode)

    def transport(url, payload, headers, timeout):
        response = oracle(url, payload, headers, timeout)
        logprobs = response["choices"][0]["logprobs"]
        if mode == "completion":
            logprobs["top_logprobs"] = [None]
        for item in logprobs.get("content", []):
            item["top_logprobs"] = None
        return response

    exemplar_list = fixture_list(n_sets=3)
    transcript = run_session(exemplar_list, endpoint(), mode, transport=transport)
    for entry, exemplar_set in zip(transcript.sets, exemplar_list.sets):
        assert entry.labels == list(exemplar_set.labels)
        assert entry.p_true == [None] * len(exemplar_set.objects)


@pytest.mark.parametrize("mode", ["chat", "completion", "chat+elicitation"])
def test_an_excluded_object_has_no_p_true(mode):
    """Every mode gives an excluded label no True-probability, so metrics
    that read ``p_true`` skip the objects whose labels they skip.  The
    script's non-boolean completions carry top logprobs, which completion
    mode used to keep."""
    transcript = run_session(
        fixture_list(n_sets=SCRIPTED_SETS), endpoint(), mode, transport=ScriptedTransport(mode)
    )
    excluded = [(entry.set_index, i) for entry in transcript.sets
                for i, label in enumerate(entry.labels) if label is None]
    assert excluded
    for entry in transcript.sets:
        assert len(entry.p_true) == len(entry.labels)
        for label, p_true in zip(entry.labels, entry.p_true):
            assert label is not None or p_true is None, (entry.set_index, entry.p_true)


def test_completion_exclusions_name_the_object_within_its_set():
    """Completion mode queries one object at a time; an exclusion names
    the object's index in its set, not its index in the query."""
    exemplar_list = fixture_list()
    spoiled = {(2, 2), (4, 1)}  # (set, object), neither a set's first object
    oracle = CompletionOracle()

    def transport(url, payload, headers, timeout):
        response = oracle(url, payload, headers, timeout)
        if _completion_query(payload["prompt"])[:2] in spoiled:
            response["choices"][0]["text"] = " Perhaps"
        return response

    transcript = run_session(exemplar_list, endpoint(), "completion", transport=transport)
    assert [(entry.set_index, e["object_index"], e["reason"])
            for entry in transcript.sets for e in entry.exclusions] == [
        (2, 2, "non-boolean completion"), (4, 1, "non-boolean completion"),
    ]
    assert [(entry.set_index, i) for entry in transcript.sets
            for i, label in enumerate(entry.labels) if label is None] == sorted(spoiled)


def _retokenized(response: dict, cuts: set[int]) -> dict:
    """``response`` with its logprob tokens re-cut at ``cuts``: offsets into
    the tokens' joined text.  Tokens carrying top logprobs are labels; their
    words are cut out whole and keep the logprobs, every other token loses
    them."""
    content = response["choices"][0]["logprobs"]["content"]
    text = "".join(item["token"] for item in content)
    labels = {}  # start of a label word -> (its end, the top logprobs)
    start = 0
    for item in content:
        if "top_logprobs" in item:
            word_start = start + len(item["token"]) - len(item["token"].lstrip())
            labels[word_start] = (start + len(item["token"]), item["top_logprobs"])
        start += len(item["token"])
    inside = {i for s, (e, _) in labels.items() for i in range(s + 1, e)}
    bounds = sorted(({0, len(text)} | cuts | set(labels) | {e for e, _ in labels.values()}) - inside)
    tokens = []
    for s, e in zip(bounds, bounds[1:]):
        token = {"token": text[s:e], "logprob": -0.1}
        if s in labels:
            token["top_logprobs"] = labels[s][1]
        tokens.append(token)
    response["choices"][0]["logprobs"]["content"] = tokens
    return response


def test_arrow_in_rule_line_keeps_p_true_aligned():
    # The reply opens "Rule: blue -> True", tokenized as "Rule: blue ->" and
    # " True\n": a token after an "->" that is no object's label.
    oracle = ChatOracle(rule_line="Rule: blue -> True")
    even = [{"token": " True", "logprob": math.log(0.5)}, {"token": " False", "logprob": math.log(0.5)}]

    def transport(url, payload, headers, timeout):
        response = oracle(url, payload, headers, timeout)
        content = response["choices"][0]["logprobs"]["content"]
        assert content[0]["token"] == "Rule: blue -> True\n"
        content[:1] = [
            {"token": "Rule: blue ->", "logprob": -0.1},
            {"token": " True\n", "logprob": math.log(0.5), "top_logprobs": even},
        ]
        return response

    exemplar_list = fixture_list(n_sets=1)
    entry = run_session(exemplar_list, endpoint(), "chat+elicitation", transport=transport).sets[0]
    assert entry.rule_text == "blue -> True"
    assert entry.labels == [False, True, False, False] == list(exemplar_list.sets[0].labels)
    assert entry.p_true == pytest.approx([0.05 / 0.95, 0.9 / 0.95, 0.05 / 0.95, 0.05 / 0.95])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_p_true_survives_any_tokenization(data):
    exemplar_list = fixture_list(n_sets=4)
    whole = run_session(
        exemplar_list, endpoint(), "chat+elicitation",
        transport=ChatOracle(rule_line="Rule: blue -> True"),
    )
    oracle = ChatOracle(rule_line="Rule: blue -> True")

    def transport(url, payload, headers, timeout):
        response = oracle(url, payload, headers, timeout)
        length = sum(len(item["token"]) for item in response["choices"][0]["logprobs"]["content"])
        cuts = data.draw(st.sets(st.integers(1, length - 1)), label="cuts")
        return _retokenized(response, cuts)

    cut = run_session(exemplar_list, endpoint(), "chat+elicitation", transport=transport)
    assert [e.labels for e in cut.sets] == [e.labels for e in whole.sets]
    assert [e.p_true for e in cut.sets] == [e.p_true for e in whole.sets]
    assert None not in [p for e in cut.sets for p in e.p_true]


class _Server:
    """A loopback HTTP server that answers every POST with ``status`` and
    ``body`` and records what it received."""

    def __init__(self, status=200, body=b'{"ok": true}'):
        self.requests = []
        recorded = self.requests

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers["Content-Length"])
                recorded.append((self.path, dict(self.headers), self.rfile.read(length)))
                self.send_response(status)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self.httpd.server_address[1]}/v1"
        self.thread = threading.Thread(target=self.httpd.serve_forever, daemon=True)

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join()


def test_http_transport_posts_json_and_returns_reply():
    payload = {"model": "fake-model", "messages": [{"role": "user", "content": "hi"}]}
    with _Server(body=b'{"choices": []}') as server:
        reply = http_transport(
            server.url + "/chat/completions", payload, {"Authorization": "Bearer k"}, 5.0
        )
    assert reply == {"choices": []}
    (path, headers, body), = server.requests
    assert path == "/v1/chat/completions"
    assert json.loads(body) == payload
    assert headers["Content-Type"] == "application/json"
    assert headers["Authorization"] == "Bearer k"


def test_http_503_is_retried_then_raises(monkeypatch):
    monkeypatch.setenv("RULELAB_TEST_KEY", "k")
    with _Server(status=503, body=b'{"error": "busy"}') as server:
        with pytest.raises(TransportError):
            run_session(fixture_list(n_sets=1), endpoint(base_url=server.url), "chat")
    assert len(server.requests) == endpoint().max_retries + 1
    assert all(headers["Authorization"] == "Bearer k" for _, headers, _ in server.requests)


@pytest.mark.parametrize("status", [400, 401, 403, 404, 422])
def test_http_4xx_is_not_retried(monkeypatch, status):
    monkeypatch.setenv("RULELAB_TEST_KEY", "k")
    sleeps = []
    with _Server(status=status, body=b'{"error": "rejected"}') as server:
        with pytest.raises(TransportError) as raised:
            run_session(
                fixture_list(n_sets=1), endpoint(base_url=server.url, max_retries=4), "chat",
                sleep=sleeps.append,
            )
    assert len(server.requests) == 1
    assert sleeps == []
    assert raised.value.status == status
    assert not raised.value.retryable


@pytest.mark.parametrize("status", [408, 429, 500, 502, 503])
def test_http_timeout_rate_limit_and_5xx_are_retried(monkeypatch, status):
    monkeypatch.setenv("RULELAB_TEST_KEY", "k")
    with _Server(status=status, body=b'{"error": "later"}') as server:
        with pytest.raises(TransportError) as raised:
            run_session(
                fixture_list(n_sets=1), endpoint(base_url=server.url, max_retries=4), "chat",
                sleep=lambda seconds: None,
            )
    assert len(server.requests) == 4 + 1
    assert raised.value.status == status


def test_transport_error_without_a_status_is_retried():
    calls = []

    def refused(url, payload, headers, timeout):
        calls.append(url)
        raise TransportError("connection refused")

    with pytest.raises(TransportError):
        run_session(fixture_list(n_sets=1), endpoint(max_retries=3), "chat", transport=refused)
    assert len(calls) == 3 + 1


def test_http_non_json_reply_raises_transport_error():
    with _Server(body=b"<html>not json</html>") as server:
        with pytest.raises(TransportError):
            http_transport(server.url + "/completions", {}, {}, 5.0)


def test_http_refused_connection_raises_transport_error():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    with pytest.raises(TransportError):
        http_transport(f"http://127.0.0.1:{port}/v1/completions", {}, {}, 5.0)


def test_transport_errors_carry_the_reply_status():
    with _Server(body=b"<html>not json</html>") as server:
        with pytest.raises(TransportError) as not_json:
            http_transport(server.url + "/completions", {}, {}, 5.0)
    assert not_json.value.status == 200 and not not_json.value.retryable
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    with pytest.raises(TransportError) as refused:
        http_transport(f"http://127.0.0.1:{port}/v1/completions", {}, {}, 5.0)
    assert refused.value.status is None and refused.value.retryable


@pytest.mark.parametrize("status", [404, 429, 503])
def test_an_error_status_reply_is_closed_when_its_error_is_raised(status):
    """The TransportError chains the HTTPError, which holds the reply: an
    unclosed reply would keep its socket until garbage collection."""
    with _Server(status=status, body=b'{"error": "no"}') as server:
        with pytest.raises(TransportError) as raised:
            http_transport(server.url + "/completions", {}, {}, 5.0)
    reply = raised.value.__cause__
    assert reply.code == status
    assert reply.fp.closed


_KILLED_CHILD = """
import os, signal, sys
from test_session import ChatOracle, endpoint, fixture_list
from rulelab.harness import run_session

kill_at, path = int(sys.argv[1]), sys.argv[2]
oracle = ChatOracle(rule_line="Rule: blue objects only")

def transport(url, payload, headers, timeout):
    if len(oracle.calls) == kill_at:
        os.kill(os.getpid(), signal.SIGKILL)
    return oracle(url, payload, headers, timeout)

run_session(fixture_list(n_sets=6), endpoint(), "chat+elicitation",
            transport=transport, transcript_path=path)
"""


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
def test_resume_after_hard_kill(tmp_path):
    import rulelab

    n_sets, kill_at = 6, 4
    path = tmp_path / "killed.json"
    search_path = os.pathsep.join(
        [str(Path(rulelab.__file__).parents[1]), str(Path(__file__).parent)]
    )
    child = subprocess.run(
        [sys.executable, "-c", _KILLED_CHILD, str(kill_at), str(path)],
        env={**os.environ, "PYTHONPATH": search_path},
        capture_output=True,
        text=True,
    )
    assert child.returncode == -signal.SIGKILL, child.stderr
    assert len(load_transcript(path).sets) == kill_at

    oracle = ChatOracle(rule_line="Rule: blue objects only")
    resumed = run_session(
        fixture_list(n_sets=n_sets), endpoint(), "chat+elicitation",
        transport=oracle, transcript_path=path,
    )
    assert len(oracle.calls) == n_sets - kill_at
    assert path.read_text() == _document_bytes(resumed)

    whole_path = tmp_path / "whole.json"
    run_session(
        fixture_list(n_sets=n_sets), endpoint(), "chat+elicitation",
        transport=ChatOracle(rule_line="Rule: blue objects only"), transcript_path=whole_path,
    )
    assert path.read_bytes() == whole_path.read_bytes()
