"""Sim-time facts read from an event log, and the percentile helper.

Everything here works on records as ``read_log`` returns them (``time``,
``kind`` and text ``fields``), so each number can be re-derived from a log
file alone.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

PACKET_KINDS = ("Prepare", "Promise", "AcceptRequest", "Accepted", "Heartbeat",
                "ClientResponse")


@dataclass
class LogFacts:
    final_time: int = 0
    records: int = 0
    verdicts: dict[int, dict] = field(default_factory=dict)  # request id -> fields
    verdict_time: dict[int, int] = field(default_factory=dict)
    first_report: dict[int, int] = field(default_factory=dict)  # first Accepted at the learner
    # Sends by packet kind: delivered, dropped, or discarded at a crashed node.
    packets: Counter = field(default_factory=Counter)
    kinds: Counter = field(default_factory=Counter)  # records by kind


def read_facts(records, acceptors: int) -> LogFacts:
    """Scan one run's records; the learner is node ``acceptors``."""
    facts = LogFacts()
    learner = str(acceptors)
    for record in records:
        kind = record.kind
        fields = record.fields
        facts.kinds[kind] += 1
        if kind in PACKET_KINDS:
            facts.packets[kind] += 1
            if kind == "Accepted" and str(fields["to"]) == learner:
                facts.first_report.setdefault(int(fields["req"]), record.time)
        elif kind in ("Drop", "DiscardCrashed"):
            facts.packets[str(fields["pkt"])] += 1
        elif kind == "Verdict":
            rid = int(fields["req"])
            if rid in facts.verdicts:
                raise ValueError(f"request {rid} has two Verdict records")
            facts.verdicts[rid] = {k: str(v) for k, v in fields.items()}
            facts.verdict_time[rid] = record.time
        facts.final_time = max(facts.final_time, record.time)
    facts.records = sum(facts.kinds.values())
    return facts


def latencies(arrivals, verdict_time: dict[int, int], failed, final_time: int) -> list[int]:
    """Arrival-to-verdict ticks per request.

    A failed request counts as unanswered until the end of its run, so
    mending a failure can only lower the percentiles.
    """
    return [(final_time if rid in failed else verdict_time[rid]) - at
            for rid, at in enumerate(arrivals)]


def percentile(values, q: float):
    """Nearest-rank percentile: the smallest value with at least q% of values at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]
