"""Learner-side verdict logic: consensus detection by replica comparison.

The learner keeps each replica's first result triple for an undecided slot,
and decides once the reports cover every believed-alive member (checked again
on each membership change) or the slot's deadline expires. A decided slot
keeps only its verdict: its reports are dropped, and a report arriving after
the verdict is ignored. The learner pulls a missing report rather than
waiting for the deadline: every Q ticks after a slot's first report, until
the deadline, it sends Query(slot) to each alive member whose report is
missing and whose heartbeat it has heard within the last Q ticks (a member
silent that long may have crashed undetected, and a query to it would only
be discarded). Q = max(instance_deadline // 6, 2 x (base_delay + jitter)):
at least the network's longest round trip, so that no query asks for a
report that is still in flight. Replicas are compared on
(output, new state) jointly, whatever round each report came under, since an
acceptor answers every round of a slot from its result cache. Any divergence
is an anomaly under the default strict policy; the majority policy instead
sides with the largest agreeing group when that group is a majority. Under
either policy a divergent slot first logs an AnomalyReport: the strict
verdict's dissenting and states fields, as verdict_fields renders them, plus
the outputs reported.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .messages import Accepted, ClientResponse, NodeId, Query
from .proposer import majority_threshold

STRICT = "strict"
MAJORITY = "majority"


@dataclass(frozen=True, slots=True)
class Consensus:
    output: str
    state: str

    kind = "Consensus"


@dataclass(frozen=True, slots=True)
class Anomaly:
    agreeing: frozenset[NodeId]
    dissenting: frozenset[NodeId]
    states_seen: tuple[tuple[str, int], ...]  # state name -> count, sorted by name

    kind = "Anomaly"


@dataclass(frozen=True, slots=True)
class Inconclusive:
    received: int
    needed: int

    kind = "Inconclusive"


Verdict = Consensus | Anomaly | Inconclusive


def _groups(reports: dict[NodeId, Accepted]) -> list[tuple[tuple[str, str], list[NodeId]]]:
    """Group nodes by (output, state) pair; largest first, ties toward the
    lexicographically smallest state name (then output)."""
    by_pair: dict[tuple[str, str], list[NodeId]] = {}
    for node in sorted(reports):
        pair = (reports[node].output, reports[node].new_state)
        by_pair.setdefault(pair, []).append(node)
    return sorted(by_pair.items(), key=lambda kv: (-len(kv[1]), kv[0][1], kv[0][0]))


def decide(reports: dict[NodeId, Accepted], membership_size: int,
           policy: str = STRICT) -> Verdict:
    """Pure decision function over a slot's reports (node -> its first) and the membership size.

    A membership of 0, a group that emptied before the run halted, has no
    majority: its slot is never Consensus, and it counts as needing the one
    report a membership of 1 would.
    """
    needed = majority_threshold(max(1, membership_size))
    if not reports:
        return Inconclusive(received=0, needed=needed)

    groups = _groups(reports)
    (output, state), winners = groups[0]
    if (membership_size and len(winners) >= needed
            and (len(groups) == 1 or policy == MAJORITY)):
        return Consensus(output=output, state=state)
    if len(groups) == 1:
        return Inconclusive(received=len(reports), needed=needed)
    states = Counter(a.new_state for a in reports.values())
    return Anomaly(agreeing=frozenset(winners),
                   dissenting=frozenset(n for _, nodes in groups[1:] for n in nodes),
                   states_seen=tuple(sorted(states.items())))


class Learner:
    """Event-driven wrapper around the pure verdict logic.

    membership_view exposes the believed-alive set; bus provides send /
    set_timer / log as for the other roles. on_verdict() is invoked once
    per slot, after its verdict is sealed in verdicts. round_trip is the
    network's longest round trip, 2 x (base_delay + jitter): Q's floor.
    """

    def __init__(self, client_id: NodeId, membership_view, bus, policy: str,
                 instance_deadline: int, on_verdict, round_trip: int = 0):
        self.client_id = client_id
        self.view = membership_view
        self.bus = bus
        self.policy = policy
        self.instance_deadline = instance_deadline
        self.query_interval = max(instance_deadline // 6, round_trip)  # Q; 0 turns the pull off
        self.on_verdict = on_verdict
        self.verdicts: dict[int, Verdict] = {}  # the one record of a decided slot
        self.reports: dict[int, dict[NodeId, Accepted]] = {}  # undecided slots: node -> first

    def on_accepted(self, a: Accepted, src: NodeId) -> None:
        rid = a.request_id
        if rid in self.verdicts:
            return  # a report after the verdict changes nothing
        reports = self.reports.get(rid)
        if reports is None:  # the slot's first report arms its deadline and its first query
            reports = self.reports[rid] = {}
            self.bus.set_timer(("deadline", rid), self.instance_deadline)
            self._arm_query(rid, self.instance_deadline)
        reports.setdefault(src, a)
        if reports.keys() >= self.view.alive:
            self._decide(rid, deadline_reached=False)

    def on_membership_change(self) -> None:
        """Decide every undecided slot whose reports now cover the alive set."""
        alive = self.view.alive
        for rid in [rid for rid, reports in self.reports.items() if reports.keys() >= alive]:
            self._decide(rid, deadline_reached=False)

    def on_query_timer(self, request_id: int, budget: int, now: int) -> None:
        """Query the members an undecided slot lacks a report from; budget: ticks to its deadline."""
        reports = self.reports.get(request_id)
        if reports is None:
            return
        last_heartbeat = self.view.last_heartbeat
        query = Query(slot=request_id)
        for node in sorted(self.view.alive - reports.keys()):
            if now - last_heartbeat[node] <= self.query_interval:
                self.bus.send(query, node)
        self._arm_query(request_id, budget)

    def _arm_query(self, request_id: int, budget: int) -> None:
        """Arm the slot's next query Q ticks out, if its deadline is further off than that."""
        if 0 < self.query_interval < budget:
            self.bus.set_timer(("query", request_id, budget - self.query_interval),
                               self.query_interval)

    def on_deadline(self, request_id: int) -> None:
        if request_id not in self.verdicts:
            self._decide(request_id, deadline_reached=True)

    finalize = on_deadline  # forces a verdict at the end of a run

    def _decide(self, request_id: int, deadline_reached: bool) -> None:
        """Seal the slot's verdict and drop its reports."""
        reports = self.reports.pop(request_id, {})  # none if the run ends before any report
        membership_size = len(self.view.alive)  # 0 if the group emptied before a halt
        verdict = self.verdicts[request_id] = decide(reports, membership_size, self.policy)
        dissent = verdict if self.policy == STRICT else decide(reports, membership_size, STRICT)
        if isinstance(dissent, Anomaly):
            fields = verdict_fields(dissent)
            outputs = Counter(a.output for a in reports.values())
            self.bus.log("AnomalyReport", req=request_id, dissenting=fields["dissenting"],
                         states=fields["states"], outputs=_counts_text(outputs))
        self.bus.log("Verdict", req=request_id, verdict=verdict.kind,
                     membership=membership_size, deadline=1 if deadline_reached else 0,
                     **verdict_fields(verdict))
        if isinstance(verdict, Consensus):
            self.bus.send(ClientResponse(request_id=request_id, output=verdict.output),
                          self.client_id)
        self.on_verdict()


def verdict_fields(verdict: Verdict) -> dict[str, str]:
    """The kind-specific fields of a Verdict log record, in log-text form."""
    if isinstance(verdict, Consensus):
        return {"output": verdict.output, "state": verdict.state}
    if isinstance(verdict, Anomaly):
        return {"agreeing": ",".join(map(str, sorted(verdict.agreeing))),
                "dissenting": ",".join(map(str, sorted(verdict.dissenting))),
                "states": _counts_text(dict(verdict.states_seen))}
    return {"received": str(verdict.received), "needed": str(verdict.needed)}


def _counts_text(counts: dict[str, int]) -> str:
    return ";".join(f"{name}:{count}" for name, count in sorted(counts.items()))
