"""Replica catch-up: a replica that misses a slot fetches it from its peers."""

from collections import Counter
from pathlib import Path

import pytest

from paxsim import ClusterRun, load_scenario, majority_threshold, parse_scenario, run
from paxsim.acceptor import CATCH_UP_LIMIT
from paxsim.harness import Replica
from paxsim.messages import (Accepted, AcceptRequest, CatchUp, ClientRequest, Decided,
                             Prepare, ProposalNumber, Query)
from test_harness import COMPROMISE, MIXED_ROUND
from test_proposer import duplicate_proposals, view_of

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def group(acceptors: int, jitter: int = 0):
    return parse_scenario(f"""
name: group
acceptors: {acceptors}
net: {{seed: 1, jitter: {jitter}}}
machine: {{states: ["S0", "S1"], start: "S0",
           rules: [{{from: "S0", to: "S1", output_regex: "Error", threshold: 0}}]}}
app_model: {{outputs: [{{request: "bad.*", output: "Error"}}], default_output: "OK"}}
requests: []
""")


class Wire:
    """A stand-in for the simulation: keeps every send, delivers nothing by itself."""

    shutting_down = False

    def __init__(self):
        self.sent = []
        self.timers = []  # (owner, tag, delay)

    def send(self, packet, src, dst):
        self.sent.append((packet, src, dst))

    def set_timer(self, owner, tag, delay):
        self.timers.append((owner, tag, delay))

    def log(self, kind, **fields):
        pass

    def take(self):
        sent, self.sent = self.sent, []
        return sent


def replicas(acceptors: int, jitter: int = 0):
    wire, scenario = Wire(), group(acceptors, jitter)
    view = view_of(range(acceptors))
    return wire, [Replica(i, scenario, wire, learner_id=acceptors, view=view)
                  for i in range(acceptors)]


def accept_request(slot: int, payload: str = "ok") -> AcceptRequest:
    return AcceptRequest(n=ProposalNumber(slot, 0), request=ClientRequest(slot, payload), epoch=0)


def execute(replica: Replica, slots) -> None:
    for slot in slots:
        replica.on_packet(accept_request(slot), 0, 0)


@pytest.mark.parametrize("acceptors", [3, 4, 5, 7, 9])
def test_a_gap_asks_n_minus_majority_peers_from_a_window_that_rotates(acceptors):
    wire, nodes = replicas(acceptors)
    laggard = nodes[acceptors - 1]
    execute(laggard, [0])
    wire.take()
    fanout = acceptors - majority_threshold(acceptors)
    others = set(range(acceptors - 1))
    asked = set()
    for slot in range(2, 2 + acceptors):
        laggard.on_packet(accept_request(slot), 0, 0)
        sent = wire.take()
        assert {packet for packet, _, _ in sent} == {CatchUp(from_slot=1)}
        peers = [dst for _, _, dst in sent]
        assert len(set(peers)) == len(peers) == fanout and set(peers) <= others
        asked |= set(peers)
    assert asked == others  # consecutive revealing slots cover every peer
    assert laggard.acceptor.next_slot == 1


def test_a_group_of_two_asks_its_one_peer():
    wire, nodes = replicas(2)
    nodes[1].on_packet(accept_request(1), 0, 0)
    assert wire.take() == [(CatchUp(from_slot=0), 1, 0)]


def test_a_peer_answers_from_its_executed_prefix_with_the_cap():
    wire, nodes = replicas(3)
    peer = nodes[1]
    total = CATCH_UP_LIMIT + 6
    execute(peer, range(total))
    wire.take()
    peer.on_packet(CatchUp(from_slot=3), 2, 0)
    sent = wire.take()
    slots = [packet.request.request_id for packet, _, _ in sent]
    assert slots == list(range(3, 3 + CATCH_UP_LIMIT))
    assert all(type(packet) is Decided and (src, dst) == (1, 2) for packet, src, dst in sent)
    assert sent[0][0] == Decided(request=ClientRequest(3, "ok"))
    peer.on_packet(CatchUp(from_slot=total - 2), 0, 0)
    assert [(packet.request.request_id, dst) for packet, _, dst in wire.take()] == [
        (total - 2, 0), (total - 1, 0)]
    peer.on_packet(CatchUp(from_slot=total), 0, 0)
    assert wire.take() == []


def test_an_accepted_made_from_a_decided_goes_to_the_learner_only():
    wire, nodes = replicas(5)
    laggard = nodes[3]
    decided = Decided(request=ClientRequest(0, "bad"))
    laggard.on_packet(decided, 2, 0)
    assert wire.take() == [(Accepted(request_id=0, output="Error", new_state="S1"), 3, 5)]
    laggard.on_packet(decided, 4, 0)  # a second peer's copy of the same slot
    assert wire.take() == []
    assert laggard.proposer.highest_round == -1  # a Decided carries no round to note


def test_a_held_accept_request_runs_once_a_decided_fills_its_gap_and_reports_to_the_learner():
    wire, nodes = replicas(5)
    laggard = nodes[4]
    laggard.on_packet(accept_request(2), 0, 0)  # ahead of the cursor: held
    laggard.on_packet(accept_request(1), 0, 0)
    assert {packet for packet, _, _ in wire.take()} == {CatchUp(from_slot=0)}
    assert laggard.acceptor.next_slot == 0 and sorted(laggard.ahead) == [1, 2]
    laggard.on_packet(Decided(request=ClientRequest(0, "ok")), 1, 0)
    assert [(packet.request_id, src, dst) for packet, src, dst in wire.take()] == [
        (0, 4, 5), (1, 4, 5), (2, 4, 5)]
    assert laggard.acceptor.next_slot == 3 and laggard.ahead == {}


@pytest.mark.parametrize("change", ["election", "higher promise"])
def test_a_held_accept_request_is_checked_again_when_its_turn_comes(change):
    # An election fences it; a Prepare under a higher number makes it stale.
    wire, nodes = replicas(5)
    laggard = nodes[4]
    laggard.on_packet(accept_request(1), 0, 0)
    if change == "election":
        laggard.view.epoch = 1
    else:
        laggard.on_packet(Prepare(n=ProposalNumber(9, 0), epoch=0), 0, 0)
    wire.take()
    laggard.on_packet(Decided(request=ClientRequest(0, "ok")), 1, 0)
    assert [(packet.request_id, dst) for packet, _, dst in wire.take()] == [(0, 5)]
    assert laggard.acceptor.next_slot == 1 and laggard.ahead == {}


def test_with_jitter_a_gap_asks_after_jitter_ticks_and_only_if_still_open():
    wire, nodes = replicas(5, jitter=3)
    laggard = nodes[4]
    laggard.on_packet(accept_request(1), 0, 0)
    laggard.on_packet(accept_request(3), 0, 0)
    assert wire.take() == []
    assert wire.timers == [(4, ("gap", 1), 3), (4, ("gap", 3), 3)]
    laggard.on_packet(accept_request(0), 0, 0)  # trailed slot 1's: that gap closes
    assert [packet.request_id for packet, _, _ in wire.take()] == [0, 1]
    laggard.on_timer(("gap", 1), 3)
    assert wire.take() == []
    laggard.on_timer(("gap", 3), 3)  # slot 2 is still missing
    sent = wire.take()
    assert {packet for packet, _, _ in sent} == {CatchUp(from_slot=2)}
    assert len(sent) == 5 - majority_threshold(5)


def test_without_jitter_a_gap_asks_at_once():
    wire, nodes = replicas(5)
    nodes[4].on_packet(accept_request(1), 0, 0)
    assert {packet for packet, _, _ in wire.take()} == {CatchUp(from_slot=0)}
    assert wire.timers == []


def test_a_query_for_an_executed_slot_resends_its_cached_report_to_the_learner_only():
    wire, nodes = replicas(5)
    liar = nodes[3]
    liar.acceptor.compromise({"bad": "Lie"})
    execute(liar, [0])
    liar.on_packet(accept_request(1, "bad"), 0, 0)
    first = [(packet, dst) for packet, _, dst in wire.take() if dst == 5]
    assert [packet.output for packet, _ in first] == ["OK", "Lie"]
    # A retry of slot 1 under a higher number is answered with the cached report.
    liar.on_packet(AcceptRequest(n=ProposalNumber(7, 0), request=ClientRequest(1, "bad"),
                                 epoch=0), 0, 0)
    wire.take()
    for slot in (1, 0):
        liar.on_packet(Query(slot=slot), 5, 0)
    assert wire.take() == [(packet, 3, 5) for packet, _ in reversed(first)]


@pytest.mark.parametrize("ahead", [0, 2])
def test_a_query_at_or_past_the_cursor_sends_catch_up(ahead):
    wire, nodes = replicas(5)
    laggard = nodes[4]
    execute(laggard, [0])
    wire.take()
    laggard.on_packet(Query(slot=1 + ahead), 5, 0)
    sent = wire.take()
    assert {packet for packet, _, _ in sent} == {CatchUp(from_slot=1)}
    assert len(sent) == 5 - majority_threshold(5)
    assert all(dst in range(4) for _, _, dst in sent)


def pump(wire: Wire, nodes, crashed=frozenset()) -> list:
    """Deliver every send to its replica, crashed ones excepted, until none is left;
    returns the (packet, src) pairs sent to the learner."""
    to_learner = []
    while wire.sent:
        for packet, src, dst in wire.take():
            if dst == len(nodes):
                to_learner.append((packet, src))
            elif dst not in crashed:
                nodes[dst].on_packet(packet, src, 0)
    return to_learner


def test_a_laggard_whose_first_ring_peers_are_crashed_still_catches_up():
    wire, nodes = replicas(5)
    laggard = nodes[2]
    for node in nodes:
        if node is not laggard:
            execute(node, range(4))
    wire.take()
    laggard.on_packet(accept_request(3), 0, 0)
    first = {dst for _, _, dst in wire.sent}
    assert len(first) == 2
    assert pump(wire, nodes, crashed=first) == []
    assert laggard.acceptor.next_slot == 0
    for node in nodes:
        if node is not laggard and node.id not in first:
            execute(node, [4])
    wire.take()
    laggard.on_packet(accept_request(4), 0, 0)
    second = {dst for _, _, dst in wire.sent}
    assert second.isdisjoint(first)
    reports = pump(wire, nodes, crashed=first)
    assert [a.request_id for a, _ in reports] == [0, 1, 2, 3, 4]
    assert all(src == 2 for _, src in reports)
    assert laggard.acceptor.next_slot == 5


def test_a_lossless_run_sends_no_catch_up():
    runs = [run(load_scenario(SCENARIO_DIR / f"{name}.scenario"), seed=seed)
            for name in ("baseline", "error_streak", "stale_count") for seed in range(4)]
    runs += [run(parse_scenario(text)) for text in (COMPROMISE, MIXED_ROUND)]
    for result in runs:
        kinds = Counter(record.kind for record in result.records)
        assert kinds["CatchUp"] == kinds["Decided"] == 0
        assert "CatchUp" not in {record.fields.get("pkt") for record in result.records
                                 if record.kind == "Drop"}


def test_no_propose_follows_a_slots_verdict_in_mixed_round():
    # The Failure that elects the new leader completes slot 0's reports: the
    # learner seals it before the client retries, so it is not proposed again.
    records = run(parse_scenario(MIXED_ROUND)).records
    sealed = set()
    for record in records:
        if record.kind == "Verdict":
            sealed.add(record.fields["req"])
        elif record.kind in ("Propose", "Repropose", "AcceptRequest"):
            assert int(record.fields["req"]) not in sealed, record
    assert sealed == {0, 1, 2}
    # One phase 1 per epoch: node 0's for slot 0, with slot 1 (submitted meanwhile) sent
    # to phase 2 right after it, before node 0 crashes; node 1's for the retried slot 2.
    proposals = [(r.fields["epoch"], r.fields["req"], str(r.fields["n"])) for r in records
                 if r.kind in ("Propose", "Repropose")]
    assert proposals == [(0, 0, "0.0"), (1, 2, "1.1")]
    accepts = {(r.fields["req"], r.fields["n"]) for r in records if r.kind == "AcceptRequest"}
    assert accepts == {("0", "0.0"), ("1", "0.0"), ("2", "1.1")}


def liveness_scenario(seed: int, loss_rate: float) -> str:
    requests = "\n".join(f'  - {{at: {1 + 10 * i}, payload: "r{i % 7}"}}' for i in range(200))
    return f"""
name: liveness
acceptors: 9
net: {{seed: {seed}, base_delay: 1, jitter: 2, loss_rate: {loss_rate}}}
timing: {{horizon: 4000}}
machine: {{states: ["S"], start: "S", rules: []}}
app_model: {{outputs: [], default_output: "OK"}}
requests:
{requests}
"""


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("loss_rate, decided", [(0.02, 200), (0.1, 200)])
def test_lossy_groups_stay_live(seed, loss_rate, decided):
    # 9 replicas x 200 requests. Without catch-up one lost AcceptRequest stops a
    # replica for good: 182-188 Consensus at 2% loss and 86-96 at 10%. Without
    # the learner's Query, at 10% loss a slot could end Inconclusive when too
    # many of its reports to the learner were lost, and a replica could end
    # behind when the last slots' AcceptRequests to it were lost (a trailing
    # gap: no later AcceptRequest reveals it).
    cluster = ClusterRun(parse_scenario(liveness_scenario(seed, loss_rate)))
    result = cluster.run()
    assert result.report.counts["consensus"] == decided
    assert duplicate_proposals(result.records) == []
    assert [replica.acceptor.next_slot for replica in cluster.replicas] == [decided] * 9
