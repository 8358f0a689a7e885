"""Deterministic in-process stand-in for a hosted chat model.

``OracleTransport`` has the signature of ``rulelab.harness`` transports.
It answers a ``chat+elicitation`` query for one rule's session:

* a ``Rule:`` line holding a DSL concept: a seeded single-feature guess
  early in the session and the gold rule from ``RULE_SWITCH_SET`` on, so
  the final elicited rule always grades as a match;
* one ``- <object> -> <label>`` line per queried object, labelled by the
  gold rule with a seeded error rate that falls over the session;
* a seeded share of malformed lines (an unreadable label, a re-described
  object, or a dropped line), so the harness's extraction exclusions run.
  A reply has at most one, and only when it labels two or more objects:
  ``rulelab report`` raises ``EmptyWindowError`` when a cohort's only
  series has no label at all in some set;
* top log-probabilities on every label token.

Every reply is a function of the query, the rule and the seed alone, so
a replay never depends on call order.  The transport counts its calls and
the time spent inside them.
"""

from __future__ import annotations

import math
import random
import re
import time

from rulelab.dsl import Concept, Context, FeatureVocab, Obj, evaluate, print_concept

RULE_SWITCH_SET = 12
MALFORMED_SHARE = 0.04
_GROUP = re.compile(r"^Group (\d+):")


class OracleTransport:
    def __init__(self, concept: Concept, vocab: FeatureVocab, rule_id: str, seed: int):
        self.concept = concept
        self.vocab = vocab
        self.rule_id = rule_id
        self.seed = seed
        self.calls = 0
        self.seconds = 0.0

    def __call__(self, url: str, payload: dict, headers: dict, timeout: float) -> dict:
        started = time.perf_counter()
        try:
            return self._reply(payload)
        finally:
            self.calls += 1
            self.seconds += time.perf_counter() - started

    def _parse_query(self, text: str) -> tuple[int, list[str], tuple[Obj, ...]]:
        lines = text.splitlines()
        set_index = int(_GROUP.match(lines[0]).group(1)) - 1
        descriptions = [line[2:] for line in lines[1:] if line.startswith("- ")]
        objects = []
        for description in descriptions:
            size, color, shape = description.split()
            objects.append(
                Obj(
                    self.vocab.index("size", size),
                    self.vocab.index("color", color),
                    self.vocab.index("shape", shape),
                )
            )
        return set_index, descriptions, tuple(objects)

    def _reply(self, payload: dict) -> dict:
        set_index, descriptions, objects = self._parse_query(payload["messages"][-1]["content"])
        rng = random.Random(f"{self.seed}:{self.rule_id}:{set_index}")
        if set_index >= RULE_SWITCH_SET:
            rule = print_concept(self.concept, self.vocab)
        else:
            dim = rng.choice(("size", "color", "shape"))
            rule = f"(is-{dim} {rng.choice(self.vocab.values(dim))})"
        error_rate = 0.3 * math.exp(-set_index / 6.0)

        malformed_budget = 1 if len(descriptions) > 1 else 0
        lines = [f"Rule: {rule}"]
        content = [{"token": f"Rule: {rule}\n", "logprob": -0.2, "top_logprobs": []}]
        for index, description in enumerate(descriptions):
            gold = evaluate(self.concept, Context(objects, index))
            label = gold != (rng.random() < error_rate)
            confidence = rng.uniform(0.55, 0.99)
            label_text = str(label)
            if malformed_budget and rng.random() < MALFORMED_SHARE:
                malformed_budget -= 1
                fault = rng.choice(("label", "object", "drop"))
                if fault == "drop":
                    continue
                if fault == "label":
                    label_text = "unsure"
                else:
                    description = "a " + description.replace(" ", "-")
            lines.append(f"- {description} -> {label_text}")
            other = str(not label)
            content += [
                {"token": f"- {description} ->", "logprob": -0.05, "top_logprobs": []},
                {
                    "token": f" {label_text}",
                    "logprob": math.log(confidence),
                    "top_logprobs": [
                        {"token": f" {label}", "logprob": math.log(confidence)},
                        {"token": f" {other}", "logprob": math.log(1.0 - confidence)},
                    ],
                },
                {"token": "\n", "logprob": -0.01, "top_logprobs": []},
            ]
        return {
            "choices": [
                {
                    "message": {"role": "assistant", "content": "\n".join(lines)},
                    "logprobs": {"content": content},
                }
            ]
        }
