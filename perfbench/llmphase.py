"""One ``run`` of the hosted-model engine, answered by the oracle transport.

This mirrors ``rulelab run --engine llm``: one ``run_session`` per rule,
in rule-id order, with a response cache and resumable transcripts, and a
label series per rule.  The CLI's path talks HTTP, so the benchmark calls
the public ``run_session`` with its own transport instead.  It also
writes the elicited rules per set as ``grade --elicited`` reads them.

``main`` is one stage process of a workload's session phases (started
through ``stage.py llm``); it prints its counts as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from rulelab.cli import load_config
from rulelab.catalog import read_rules_manifest
from rulelab.exemplars import load_list
from rulelab.harness import EndpointConfig, run_session, transcript_series
from rulelab.metrics import save_series

from oracle import OracleTransport

MODE = "chat+elicitation"
ENDPOINT = EndpointConfig(
    base_url="http://oracle.invalid/v1", model="oracle", temperature=0.0, top_logprobs=2
)


def paths(output_dir: Path) -> dict[str, Path]:
    return {
        "cache": output_dir / "cache",
        "transcripts": output_dir / "transcripts" / ENDPOINT.model,
        "series": output_dir / "runs" / "llm",
        "elicited": output_dir / "llm_elicited.json",
    }


def run_phase(config_path: str | Path, seed: int) -> dict:
    """Run (or resume, or replay) every rule's session; return counts."""
    config = load_config(config_path)
    where = paths(config.output_dir)
    where["transcripts"].mkdir(parents=True, exist_ok=True)
    where["series"].mkdir(parents=True, exist_ok=True)
    stats = {"sessions": 0, "failed": 0, "requests": 0, "transport_s": 0.0}
    elicited = {}
    for rule_id in sorted(rule.rule_id for rule in read_rules_manifest(config.rules)):
        stats["sessions"] += 1
        try:
            exemplar_list = load_list(config.lists_dir / f"{rule_id}.json")
            oracle = OracleTransport(exemplar_list.concept, exemplar_list.vocab, rule_id, seed)
            transcript = run_session(
                exemplar_list,
                ENDPOINT,
                MODE,
                transport=oracle,
                cache_dir=where["cache"],
                transcript_path=where["transcripts"] / f"{rule_id}.json",
            )
            save_series(
                transcript_series(transcript, exemplar_list),
                where["series"] / f"{rule_id}.series.json",
            )
        except Exception as error:  # one failed session must not hide the others
            print(f"llm session {rule_id!r} failed: {error!r}", file=sys.stderr)
            stats["failed"] += 1
            continue
        stats["requests"] += oracle.calls
        stats["transport_s"] += oracle.seconds
        elicited[rule_id] = [entry.rule_text for entry in transcript.sets]
    where["elicited"].write_text(json.dumps(elicited, indent=2, sort_keys=True) + "\n")
    return stats


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    stats = run_phase(args.config, args.seed)
    print(json.dumps(stats))
    return 1 if stats["failed"] else 0
