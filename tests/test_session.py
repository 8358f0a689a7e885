"""Session driving: caching, retries, resumption, and transcripts."""

import json
import math

import pytest

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
