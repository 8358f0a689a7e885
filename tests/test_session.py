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
    assert all(r.model == r.gold for r in series.records)  # oracle labels truthfully


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
    assert all(r.model == r.gold for r in series.records)
    assert all(r.p_true == pytest.approx(8 / 9) or r.p_true == pytest.approx(1 / 9)
               for r in series.records)


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


def _document_bytes(transcript: SessionTranscript) -> str:
    return json.dumps(transcript.to_document(), indent=2, sort_keys=True) + "\n"


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
    """No entry stores a prompt beside its requests, and each request is the
    payload built from build_prompt for its set (and object, in completion
    mode), so the requests hold everything a stored prompt held."""
    from rulelab.harness import build_prompt
    from rulelab.harness.session import _chat_payload, _completion_payload

    exemplar_list = fixture_list(n_sets=4)
    config = endpoint()
    path = tmp_path / "t.json"
    run_session(exemplar_list, config, mode, transport=_oracle_for(mode), transcript_path=path)
    saved = json.loads(path.read_text())["sets"]
    assert len(saved) == 4
    for entry in saved:
        assert "prompt" not in entry
        set_index = entry["set_index"]
        requests = [exchange["request"] for exchange in entry["exchanges"]]
        bundle = build_prompt(exemplar_list, set_index, mode)
        if mode == "completion":
            objects = range(len(exemplar_list.sets[set_index].objects))
            assert requests == [
                _completion_payload(config, build_prompt(exemplar_list, set_index, mode, j))
                for j in objects
            ]
        else:
            assert requests == [_chat_payload(config, bundle)]
        assert _prompt_document(mode, requests) == bundle.as_document()


@pytest.mark.parametrize("mode", ["chat", "completion", "chat+elicitation"])
def test_a_transcript_that_stores_prompts_resumes_to_a_fresh_runs_bytes(tmp_path, mode):
    """Older transcripts stored each set's prompt beside its requests.  Such
    a transcript resumes with no request for its finished sets, and the
    completed file is the bytes of a fresh run, which stores no prompt."""
    from rulelab.harness import build_prompt

    exemplar_list = fixture_list(n_sets=5)
    fresh_path = tmp_path / "fresh.json"
    run_session(
        exemplar_list, endpoint(), mode, transport=_oracle_for(mode), transcript_path=fresh_path
    )
    old = json.loads(fresh_path.read_text())
    old["sets"] = old["sets"][:3]
    for entry in old["sets"]:
        entry["prompt"] = build_prompt(exemplar_list, entry["set_index"], mode).as_document()
    old["exclusion_count"] = sum(len(entry["exclusions"]) for entry in old["sets"])
    path = tmp_path / "old.json"
    path.write_text(json.dumps(old, indent=2, sort_keys=True) + "\n")

    oracle = _oracle_for(mode)
    run_session(exemplar_list, endpoint(), mode, transport=oracle, transcript_path=path)
    unfinished = json.loads(fresh_path.read_text())["sets"][3:]
    assert [payload for _url, payload in oracle.calls] == [
        exchange["request"] for entry in unfinished for exchange in entry["exchanges"]
    ]
    assert path.read_bytes() == fresh_path.read_bytes()
    assert all("prompt" not in entry for entry in json.loads(path.read_text())["sets"])


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
