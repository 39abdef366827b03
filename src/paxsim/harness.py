"""Cluster wiring, the run loop, end-of-run reporting, and log replay.

Node ids in a run with n replicas: replicas are 0..n-1 (node 0 starts as
leader), the learner lives at id n (and hosts the membership watch), and
the ClusterRun itself is the client at id n+1, whose timers deliver the
scenario's arrivals and faults. A packet between two nodes travels through
the simulated network. A node's packet to itself, such as the leader's own
Prepare, Promise and AcceptRequest, is an in-node hand-off: it runs later
in the same tick, with no loss or delay draw and no record.

A ClusterRun runs once. At the end of run() it unlinks its node graph, so
that dropping it and its RunResult frees the whole run by reference counting.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass, field, replace

from .acceptor import Acceptor
from .eventlog import Delivery, LineRecord, Record, record_error
from .learner import MAJORITY, STRICT, Anomaly, Consensus, Learner, decide, verdict_fields
from .membership import EmptyGroup, MembershipService, MembershipView
from .messages import (
    Accepted,
    AcceptRequest,
    CatchUp,
    ClientRequest,
    Decided,
    Heartbeat,
    NodeId,
    Packet,
    Prepare,
    Promise,
    Query,
    packet_from_fields,
)
from .proposer import Proposer, majority_threshold
from .scenario import CrashFault, FaultSpec, Scenario
from .simnet import Simulation


class Replica:
    """A replica node: an acceptor, and a proposer that proposes only while the node leads.

    Leadership is read from the membership view alone: the client hands
    requests to its leader's proposer, and its epoch is the fence. Every
    Accepted the acceptor makes, from an AcceptRequest or a Decided, goes to
    the learner only.

    The leader sends each request to phase 2 as soon as it has it, so
    AcceptRequests can arrive out of slot order. One for a slot past the
    acceptor's cursor is held in ahead, and executed once the slots before
    it have been, from an AcceptRequest or a Decided; the epoch fence and
    the promise are checked again then. It also reveals a gap: net.jitter
    ticks later, the longest an AcceptRequest sent earlier can trail one
    sent later, the replica sends CatchUp(next_slot) if the gap is still
    open (at once with no jitter). It asks n - majority(n) peers, which
    include one that executed any slot a majority accepted. The peers are a
    window of the ring of the other replicas (from id + 1 on) that moves
    with the revealing slot, so the asks that follow cover every peer. A
    peer answers with a Decided packet per slot it has executed from that
    slot on.

    A Query from the learner names a slot whose report from this replica it
    lacks. An executed slot's cached Accepted is sent again. A slot at or
    past the cursor is a gap, which the Query reveals at once: the replica
    sends CatchUp. The learner queries every Q ticks until the slot's
    deadline, so a lost report, a lost AcceptRequest or CatchUp, or a gap
    that no later AcceptRequest reveals is retried.
    """

    def __init__(self, node_id: NodeId, scenario: Scenario, sim: Simulation,
                 learner_id: NodeId, view: MembershipView):
        self.id = node_id
        self.bus = NodeBus(sim, node_id)
        self.learner_id = learner_id
        self.view = view
        self.acceptor = Acceptor(definition=scenario.machine, model=scenario.app_model)
        self.proposer = Proposer(node_id=node_id, view=view, bus=self.bus,
                                 timeout=scenario.timing.prepare_timeout)
        self.group_size = scenario.acceptors
        self.gap_delay = scenario.net.jitter
        self.ahead: dict[int, AcceptRequest] = {}  # slot -> AcceptRequest past the cursor

    def on_packet(self, packet: Packet, src: NodeId, now: int) -> None:
        if isinstance(packet, CatchUp):
            for decided in self.acceptor.decided_from(packet.from_slot):
                self.bus.send(decided, src)
            return
        if isinstance(packet, Query):  # from the learner, which lacks this replica's report
            if packet.slot < self.acceptor.next_slot:
                self.bus.send(self.acceptor.report_of(packet.slot), self.learner_id)
            else:  # a gap that no AcceptRequest may reveal, such as the run's last slots
                self._catch_up(packet.slot)
            return
        self.proposer.note(packet.n.round)  # every other kind a replica receives is numbered
        if isinstance(packet, Promise):
            self.proposer.on_promise(packet, src)
        elif isinstance(packet, Decided):
            self._report(self.acceptor.on_decided(packet))
        elif packet.epoch != self.view.epoch:
            return  # fenced: a deposed leader's leftover Prepare or AcceptRequest
        elif isinstance(packet, Prepare):
            reply = self.acceptor.on_prepare(packet)
            if reply is not None:
                self.bus.send(reply, src)
        else:  # AcceptRequest
            slot = packet.request.request_id
            if slot <= self.acceptor.next_slot:
                self._report(self.acceptor.on_accept_request(packet))
            else:
                self.ahead[slot] = packet
                if self.gap_delay:
                    self.bus.set_timer(("gap", slot), self.gap_delay)
                else:
                    self._catch_up(slot)

    def _report(self, accepted: Accepted | None) -> None:
        """Send an Accepted to the learner, then execute each held AcceptRequest it unblocks."""
        if accepted is None:
            return
        self.bus.send(accepted, self.learner_id)
        ahead = self.ahead
        while ahead:
            packet = ahead.pop(self.acceptor.next_slot, None)
            if packet is None:
                return
            if packet.epoch == self.view.epoch:  # else an election came while it was held
                accepted = self.acceptor.on_accept_request(packet)
                if accepted is not None:
                    self.bus.send(accepted, self.learner_id)

    def _catch_up(self, revealing_slot: int) -> None:
        """Ask the window of peers that revealing_slot selects for the missing slots."""
        n = self.group_size
        # A group of two asks its one peer, though a majority of two leaves no other.
        fanout = min(n - 1, max(1, n - majority_threshold(n)))
        ask = CatchUp(from_slot=self.acceptor.next_slot)
        start = revealing_slot * fanout
        for i in range(start, start + fanout):
            self.bus.send(ask, (self.id + 1 + i % (n - 1)) % n)  # the i-th peer on the ring

    def on_timer(self, tag: tuple, now: int) -> None:
        if tag[0] == "phase":
            self.proposer.on_phase_timeout(tag[1])
        elif self.acceptor.next_slot < tag[1]:  # ("gap", slot): the gap is still open
            self._catch_up(tag[1])


class InfraNode:
    """Hosts the learner and the membership watch, outside the replica group."""

    def __init__(self, bus: NodeBus, learner: Learner,
                 membership: MembershipService, heartbeat_interval: int):
        self.bus = bus
        self.learner = learner
        self.membership = membership
        self.heartbeat_interval = heartbeat_interval

    def on_packet(self, packet: Packet, src: NodeId, now: int) -> None:
        if isinstance(packet, Heartbeat):
            self.membership.record_heartbeat(src, now)
        elif isinstance(packet, Accepted):
            self.learner.on_accepted(packet, src)

    def on_timer(self, tag: tuple, now: int) -> None:
        if tag[0] == "detect":
            self.membership.detect_failures(now)
            if not self.bus.shutting_down:
                self.bus.set_timer(("detect",), self.heartbeat_interval)
        elif tag[0] == "deadline":
            self.learner.on_deadline(tag[1])
        elif tag[0] == "query":
            self.learner.on_query_timer(tag[1], tag[2], now)


@dataclass
class Report:
    scenario: str
    seed: int
    final_time: int
    verdicts: list[dict]
    counts: dict[str, int]
    final_membership: list[int]
    final_leader: int
    final_epoch: int
    horizon_reached: bool = False
    livelock: bool = False
    halted: bool = False
    anomalies: list[dict] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2, sort_keys=False)

    def to_text(self) -> str:
        lines = [f"scenario {self.scenario} (seed {self.seed}) finished at t={self.final_time}"]
        for entry in self.verdicts:
            detail = {k: v for k, v in entry.items() if k not in ("request_id", "verdict")}
            lines.append(f"  request {entry['request_id']}: {entry['verdict']} {detail}")
        lines.append("  counts: " + ", ".join(f"{k}={v}" for k, v in self.counts.items()))
        lines.append(f"  membership: {self.final_membership} leader={self.final_leader} "
                     f"epoch={self.final_epoch}")
        flags = [name for name in ("horizon_reached", "livelock", "halted") if getattr(self, name)]
        if flags:
            lines.append("  flags: " + ", ".join(flags))
        return "\n".join(lines)


@dataclass
class RunResult:
    report: Report
    records: list[Record | Delivery]


class ClusterRun:
    """One scenario execution: builds the nodes, drives the loop, reports.

    It is also the client node: it receives the ClientResponses, and its own
    timers deliver each scheduled arrival and fault and keep the group's
    heartbeat clock.
    """

    def __init__(self, scenario: Scenario, seed: int | None = None):
        self.scenario = scenario
        net = scenario.net if seed is None else replace(scenario.net, seed=seed)
        self.seed = net.seed
        self.sim = Simulation(net)
        n = scenario.acceptors
        self.learner_id = n
        self.client_id = n + 1
        self.membership = MembershipService(
            members=range(n), suspect_after=scenario.timing.suspect_after,
            bus=self.sim, on_change=self._on_membership_change,
            on_election=self._on_election)
        infra_bus = NodeBus(self.sim, self.learner_id)
        self.learner = Learner(
            client_id=self.client_id, membership_view=self.membership.view, bus=infra_bus,
            policy=scenario.anomaly_policy,
            instance_deadline=scenario.timing.instance_deadline,
            on_verdict=self._shut_down_when_done,
            round_trip=2 * (net.base_delay + net.jitter))
        self.replicas = [Replica(i, scenario, self.sim, self.learner_id, self.membership.view)
                         for i in range(n)]
        infra = InfraNode(infra_bus, self.learner, self.membership,
                          scenario.timing.heartbeat_interval)
        self.sim.nodes = {i: r for i, r in enumerate(self.replicas)}
        self.sim.nodes[self.learner_id] = infra
        self.sim.nodes[self.client_id] = self
        self.requests = [ClientRequest(request_id=i, payload=payload)
                         for i, (_, payload) in enumerate(scenario.requests)]
        self.seen: dict[int, ClientRequest] = {}
        # A fault past the horizon never fires: neither schedule it nor wait for it.
        self.faults = [f for f in scenario.faults if f.at <= scenario.timing.horizon]
        self.faults_applied = 0
        self.halted = False

    # -- the client node ----------------------------------------------------------

    def on_packet(self, packet: Packet, src: NodeId, now: int) -> None:
        pass  # a ClientResponse, whose delivery is already logged

    def on_timer(self, tag: tuple, now: int) -> None:
        if tag[0] == "arrival":
            self._on_arrival(tag[1])
        elif tag[0] == "hb":
            self._beat(tag[1])
        elif tag[0] == "fault":
            self._on_fault(tag[1])

    def _beat(self, seq: int) -> None:
        """Send each replica's Heartbeat number seq to the learner, in id order, and re-arm.

        One clock for the group stands in for a timer per replica, each armed
        at tick 0 and re-armed every heartbeat_interval: the sends and their
        draws come in the same order, and a crashed replica sends nothing
        either way. Same-tick order can differ only where a heartbeat's delay
        equals the interval exactly: a timer per replica would interleave the
        previous beat's deliveries with this beat's sends, where the one
        clock runs after all of them.
        """
        heartbeat = Heartbeat(seq=seq)
        for replica in self.replicas:
            self.sim.send(heartbeat, replica.id, self.learner_id)
        if not self.sim.shutting_down:
            self.sim.set_timer(self.client_id, ("hb", seq + 1),
                               self.scenario.timing.heartbeat_interval)

    # -- callbacks ---------------------------------------------------------------

    def _on_membership_change(self) -> None:
        self.learner.on_membership_change()
        leader = self.membership.view.leader
        if leader not in self.sim.crashed:
            self.replicas[leader].proposer.on_membership_change()

    def _on_election(self) -> None:
        # Every proposer stands down, a deposed one still running too: the
        # view's new epoch would let its packets through the fence.
        for replica in self.replicas:
            replica.proposer.stand_down()
        # The learner first seals the slots this election's Failure completed.
        # Then the client retries every unanswered request against the new
        # leader, synchronously and in slot order, so nothing arriving later
        # this tick can jump the queue ahead of an older unfinished slot.
        self.learner.on_membership_change()
        for rid in sorted(self.seen):
            if not isinstance(self.learner.verdicts.get(rid), Consensus):
                self._on_arrival(self.seen[rid], redispatch=True)

    def _on_arrival(self, request: ClientRequest, redispatch: bool = False) -> None:
        leader = self.membership.view.leader
        fields = {"req": request.request_id, "to": leader, "payload": request.payload}
        if redispatch:
            fields["redispatch"] = 1
        self.sim.log("ClientArrival", **fields)
        self.seen[request.request_id] = request
        if isinstance(self.learner.verdicts.get(request.request_id), Consensus):
            return
        if leader in self.sim.crashed:
            return  # lost until the next election retries it
        self.replicas[leader].proposer.submit(request)

    def _on_fault(self, spec: FaultSpec) -> None:
        self.sim.log(spec.kind, node=spec.target)
        self.faults_applied += 1
        if isinstance(spec, CrashFault):
            self.sim.crashed.add(spec.target)
            self.membership.mark_crashed(spec.target)
        else:
            self.replicas[spec.target].acceptor.compromise(spec.override)
        self._shut_down_when_done()

    def _shut_down_when_done(self) -> None:
        """Stop periodic activity once every request has a verdict and every fault fired.

        A run without requests observes heartbeats and plays to the horizon.
        """
        if (self.requests and len(self.learner.verdicts) == len(self.requests)
                and self.faults_applied == len(self.faults)):
            self.sim.request_shutdown()

    # -- the run loop -------------------------------------------------------------

    def run(self) -> RunResult:
        if not self.sim.nodes:  # unlinked by an earlier run, whose records a rerun would extend
            raise RuntimeError("a ClusterRun runs once")
        scenario = self.scenario
        self.sim.log("Init", acceptors=scenario.acceptors, leader=0, epoch=0,
                     policy=scenario.anomaly_policy, seed=self.seed)
        # Same-tick events run in push order, so this order is part of the log.
        for fault in self.faults:
            self.sim.set_timer(self.client_id, ("fault", fault), fault.at)
        self.sim.set_timer(self.client_id, ("hb", 0), 0)
        self.sim.set_timer(self.learner_id, ("detect",), scenario.timing.heartbeat_interval)
        for request, (at, _) in zip(self.requests, scenario.requests):
            self.sim.set_timer(self.client_id, ("arrival", request), at)

        horizon = scenario.timing.horizon
        horizon_reached = False
        try:
            horizon_reached = self.sim.run(horizon)
        except EmptyGroup:
            self.halted = True

        undecided = [r.request_id for r in self.requests
                     if self.learner.verdicts.get(r.request_id) is None]
        if horizon_reached and undecided:
            self.sim.log("Horizon", at=horizon)
        for rid in undecided:
            self.learner.finalize(rid)

        report = self._build_report(horizon_reached, bool(undecided) and horizon_reached)
        # Each node's bus holds the simulation, and the learner and the membership watch
        # call back into this cluster: unlink both, as the module docstring says.
        self.sim.nodes.clear()
        self.learner.on_verdict = self.membership.on_change = self.membership.on_election = None
        return RunResult(report=report, records=self.sim.records)

    def _build_report(self, horizon_reached: bool, livelock: bool) -> Report:
        verdicts = []
        for request in self.requests:
            verdict = self.learner.verdicts.get(request.request_id)
            verdicts.append({"request_id": request.request_id, "verdict": verdict.kind,
                             **_report_fields(verdict)})
        verdict_kinds = Counter(entry["verdict"].lower() for entry in verdicts)
        record_kinds = self.sim.record_kinds
        counts = {kind: verdict_kinds[kind] for kind in ("consensus", "anomaly", "inconclusive")}
        counts.update(reproposals=record_kinds["Repropose"], elections=record_kinds["Election"],
                      drops=record_kinds["Drop"])
        anomalies = [{key: entry[key] for key in ("request_id", "dissenting", "states_seen")}
                     for entry in verdicts if entry["verdict"] == "Anomaly"]
        view = self.membership.view
        return Report(
            scenario=self.scenario.name, seed=self.seed, final_time=self.sim.now,
            verdicts=verdicts, counts=counts,
            final_membership=sorted(view.alive), final_leader=view.leader,
            final_epoch=view.epoch, horizon_reached=horizon_reached,
            livelock=livelock, halted=self.halted, anomalies=anomalies)


def _report_fields(verdict) -> dict:
    """The kind-specific fields of a report entry, as JSON-ready values."""
    if isinstance(verdict, Anomaly):
        return {"agreeing": sorted(verdict.agreeing),
                "dissenting": sorted(verdict.dissenting),
                "states_seen": dict(verdict.states_seen)}
    return asdict(verdict)


class NodeBus:
    """One node's view of the simulation: the bus every protocol role sends through."""

    def __init__(self, sim: Simulation, node_id: NodeId):
        self.sim = sim
        self.id = node_id

    def send(self, packet: Packet, dst: NodeId) -> None:
        self.sim.send(packet, self.id, dst)

    def set_timer(self, tag: tuple, delay: int) -> None:
        self.sim.set_timer(self.id, tag, delay)

    def log(self, kind: str, **fields) -> None:
        self.sim.log(kind, **fields)

    @property
    def shutting_down(self) -> bool:
        return self.sim.shutting_down


def run(scenario: Scenario, seed: int | None = None) -> RunResult:
    """Execute a scenario and return its report plus the full event log."""
    return ClusterRun(scenario, seed=seed).run()


def replay_verdicts(records: list[Record | Delivery | LineRecord]) -> tuple[int, list[str]]:
    """Re-derive every Verdict record from the log and diff against it.

    Returns (number of verdicts checked, list of mismatch descriptions).
    The log itself carries everything needed: Init for the group size and
    policy, Failure/Rejoin for membership tracking, Accepted deliveries to
    the learner for each slot's reports, and each Verdict's
    membership/deadline context fields. As in the learner, a slot's Verdict
    drops its reports and a report after it is ignored; a second Verdict for
    one slot is a mismatch, since the learner logs one per slot. A Verdict
    logged before its deadline (deadline=0) must follow a report from every
    member replay tracks as alive; the reporters are counted, so no alive set
    is built. A live Delivery's fields are its parsed log text, and logged
    verdict values are compared as str(), so live records and those read back
    with read_log replay alike. A record lacking a field replay reads, or
    holding a malformed one (an Init whose group size or policy no scenario
    can have, or a Failure/Rejoin of a node outside the group, too), raises
    ValueError naming the record.
    """
    init = next((r for r in records if r.kind == "Init"), None)
    if init is None:
        return 0, ["no Init record found"]
    reports: dict[int, dict[int, Accepted]] = {}  # undecided slots: sender -> first report
    decided: set[int] = set()
    diffs: list[str] = []
    checked = 0
    record = init
    try:
        n = int(init.fields["acceptors"])
        policy = init.fields["policy"]
        if n < 1:
            raise ValueError(f"acceptors: expected at least 1, got {n}")
        if policy not in (STRICT, MAJORITY):
            raise ValueError(f"policy: expected strict or majority, got {policy!r}")
        learner_id = n
        departed: set[int] = set()  # not the alive set: that would grow with the n the log claims
        for record in records:
            kind = record.kind
            if kind == "Failure" or kind == "Rejoin":
                node = int(record.fields["node"])
                if not 0 <= node < n:
                    raise ValueError(f"node: expected 0..{n - 1}, got {node}")
                if kind == "Failure":
                    departed.add(node)
                else:
                    departed.discard(node)
            elif kind == "Accepted":
                fields = record.fields
                if int(fields["to"]) == learner_id:
                    packet, sender = packet_from_fields("Accepted", fields), int(fields["from"])
                    if packet.request_id not in decided:
                        reports.setdefault(packet.request_id, {}).setdefault(sender, packet)
            elif kind == "Verdict":
                fields = record.fields
                rid = int(fields["req"])
                membership_size = int(fields["membership"])
                checked += 1
                if rid in decided:
                    diffs.append(f"req {rid}: a second Verdict")
                    continue
                decided.add(rid)
                slot_reports = reports.pop(rid, {})
                alive = n - len(departed)  # 0 once the group has emptied, as the learner logs it
                verdict = decide(slot_reports, membership_size, policy)
                if membership_size != alive:
                    diffs.append(f"req {rid}: logged membership {membership_size} "
                                 f"!= tracked {alive}")
                if int(fields["deadline"]) == 0:  # decided early: every member reported
                    reporters = sum(0 <= s < n and s not in departed for s in slot_reports)
                    if reporters < alive:
                        diffs.append(f"req {rid}: decided early on {reporters} of {alive} "
                                     "members' reports")
                expected = {"verdict": verdict.kind, **verdict_fields(verdict)}
                actual = {k: str(fields[k]) for k in expected if k in fields}
                if expected != actual:
                    diffs.append(f"req {rid}: recomputed {expected} != logged {actual}")
    except (KeyError, ValueError) as exc:
        raise record_error(record, exc) from exc
    return checked, diffs

