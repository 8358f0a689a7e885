"""The oracle transport is deterministic and exercises extraction."""

from rulelab.catalog import DEFAULT_VOCAB, DEMO_RULES
from rulelab.dsl import parse_concept
from rulelab.exemplars import generate_list
from rulelab.harness import EndpointConfig, build_prompt, run_session

from oracle import RULE_SWITCH_SET, OracleTransport

ENDPOINT = EndpointConfig(base_url="http://oracle.invalid/v1", model="oracle", temperature=0.0)
RULE = next(r for r in DEMO_RULES if r.rule_id == "same-shape-as-a-yellow")


def _list(seed=5):
    return generate_list(parse_concept(RULE.source, DEFAULT_VOCAB), DEFAULT_VOCAB, seed=seed,
                         rule_id=RULE.rule_id)


def _payload(exemplar_list, set_index):
    bundle = build_prompt(exemplar_list, set_index, "chat+elicitation")
    return {"messages": [{"role": role, "content": text} for role, text in bundle.turns]}


def test_same_query_same_reply_and_counted():
    exemplar_list = _list()
    a = OracleTransport(exemplar_list.concept, DEFAULT_VOCAB, RULE.rule_id, seed=3)
    b = OracleTransport(exemplar_list.concept, DEFAULT_VOCAB, RULE.rule_id, seed=3)
    for set_index in (0, 7, 24):
        payload = _payload(exemplar_list, set_index)
        assert a("u", payload, {}, 1.0) == b("u", payload, {}, 1.0)
    assert a.calls == 3 and a.seconds > 0.0


def test_seed_changes_replies():
    exemplar_list = _list()
    replies = [
        [OracleTransport(exemplar_list.concept, DEFAULT_VOCAB, RULE.rule_id, seed)(
            "u", _payload(exemplar_list, s), {}, 1.0) for s in range(10)]
        for seed in (1, 2)
    ]
    assert replies[0] != replies[1]


def test_sessions_are_reproducible_with_exclusions_and_gold_final_rule(tmp_path):
    exemplar_list = _list()
    transcripts = []
    for attempt in range(2):
        oracle = OracleTransport(exemplar_list.concept, DEFAULT_VOCAB, RULE.rule_id, seed=3)
        transcripts.append(run_session(exemplar_list, ENDPOINT, "chat+elicitation", transport=oracle))
        assert oracle.calls == len(exemplar_list.sets)
    assert transcripts[0].to_document() == transcripts[1].to_document()

    entries = transcripts[0].sets
    for entry, exemplar_set in zip(entries, exemplar_list.sets):
        assert len(entry.exclusions) <= (1 if len(exemplar_set.objects) > 1 else 0)
        assert sum(label is not None for label in entry.labels) + len(entry.exclusions) == len(
            exemplar_set.objects
        )
    assert all(
        parse_concept(entry.rule_text, DEFAULT_VOCAB) == exemplar_list.concept
        for entry in entries[RULE_SWITCH_SET:]
    )
    assert any(entry.p_true[0] is not None for entry in entries)


def test_malformed_lines_occur_somewhere():
    total = 0
    for seed in range(6):
        exemplar_list = _list(seed)
        oracle = OracleTransport(exemplar_list.concept, DEFAULT_VOCAB, RULE.rule_id, seed)
        total += run_session(exemplar_list, ENDPOINT, "chat+elicitation", transport=oracle).exclusion_count
    assert total > 0
