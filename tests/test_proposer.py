"""Proposer numbering, majority tracking and retry behaviour."""

from collections import Counter
from pathlib import Path

import pytest

from paxsim import load_scenario, parse_scenario, run
from paxsim.harness import Replica
from paxsim.membership import MembershipView
from paxsim.messages import Accepted, ClientRequest, Prepare, Promise, ProposalNumber
from paxsim.proposer import Proposer, ZeroMembership, majority_threshold
from paxsim.simnet import NetConfig, Simulation

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

FIVE_REPLICAS = """
acceptors: 5
machine: {states: ["S"], start: "S", rules: []}
app_model: {outputs: [], default_output: "OK"}
requests: []
"""


class FakeBus:
    def __init__(self):
        self.sent = []       # (packet, dst)
        self.timers = []     # (tag, delay)
        self.logs = []       # (kind, fields)
        self.shutting_down = False

    def send(self, packet, dst):
        self.sent.append((packet, dst))

    def set_timer(self, tag, delay):
        self.timers.append((tag, delay))

    def log(self, kind, **fields):
        self.logs.append((kind, fields))


def view_of(members):
    return MembershipView(epoch=0, alive=set(members), leader=0)


def make_proposer(members=range(5), node_id=0):
    bus = FakeBus()
    return Proposer(node_id=node_id, view=view_of(members), bus=bus, timeout=10), bus


def make_replica(node_id=0):
    """A lone replica of a five-node group; its sends queue up undelivered."""
    sim = Simulation(NetConfig(seed=0))
    return Replica(node_id, parse_scenario(FIVE_REPLICAS), sim, learner_id=5,
                   view=view_of(range(5))), sim


def proposed_rounds(sim):
    return [r.fields["n"].round for r in sim.records if r.kind in ("Propose", "Repropose")]


def promise(n):
    return Promise(n=n)


def accepted(slot=0):
    return Accepted(request_id=slot, output="o", new_state="s")


@pytest.mark.parametrize("size,expected", [(6, 4), (5, 3), (1, 1), (2, 2), (9, 5)])
def test_majority_threshold(size, expected):
    assert majority_threshold(size) == expected


def test_majority_threshold_rejects_empty_group():
    with pytest.raises(ZeroMembership):
        majority_threshold(0)


def test_first_request_broadcasts_round_zero_to_all_members_including_self():
    p, bus = make_proposer()
    p.submit(ClientRequest(0, "q"))
    assert [dst for _, dst in bus.sent] == [0, 1, 2, 3, 4]
    packets = {pkt for pkt, _ in bus.sent}
    assert len(packets) == 1
    assert bus.sent[0][0].n == ProposalNumber(0, 0)


def reach_majority(p, n, voters=(0, 1, 2)):
    for node in voters:
        p.on_promise(promise(n), node)


def test_rounds_strictly_increase_across_requests():
    # Phase 1 runs once per epoch; each new one, after an election or a timeout, takes
    # a higher round, and a request in between goes to phase 2 under the last one.
    p, bus = make_proposer()
    p.submit(ClientRequest(0, "a"))
    reach_majority(p, ProposalNumber(0, 0))
    p.submit(ClientRequest(1, "b"))
    p.stand_down()
    p.submit(ClientRequest(1, "b"))
    p.on_phase_timeout(p.in_flight)
    rounds = [pkt.n.round for pkt, _ in bus.sent if pkt.kind == "Prepare"]
    assert rounds == [0] * 5 + [1] * 5 + [2] * 5


def test_once_promised_each_request_goes_straight_to_phase_two_and_waits_for_nothing():
    p, bus = make_proposer()
    p.submit(ClientRequest(0, "a"))
    reach_majority(p, ProposalNumber(0, 0))
    bus.sent.clear()
    bus.logs.clear()
    bus.timers.clear()
    # No acceptance arrives between the two: the second is not held behind the first.
    p.submit(ClientRequest(1, "b"))
    p.submit(ClientRequest(2, "c"))
    assert [(pkt.kind, pkt.n, pkt.request, dst) for pkt, dst in bus.sent] == [
        ("AcceptRequest", ProposalNumber(0, 0), ClientRequest(rid, payload), dst)
        for rid, payload in ((1, "b"), (2, "c")) for dst in range(5)]
    assert bus.logs == [] and bus.timers == []  # no Propose, no MajorityReached, no timer
    assert p.in_flight is None and p.pending == []


def test_requests_submitted_during_phase_one_follow_the_first_in_slot_order():
    p, bus = make_proposer()
    p.submit(ClientRequest(0, "a"))
    p.submit(ClientRequest(1, "b"))
    p.submit(ClientRequest(2, "c"))
    assert [pkt.kind for pkt, _ in bus.sent] == ["Prepare"] * 5
    assert p.pending == [ClientRequest(1, "b"), ClientRequest(2, "c")]
    bus.sent.clear()
    reach_majority(p, ProposalNumber(0, 0))
    assert [(pkt.kind, pkt.n, pkt.request.request_id) for pkt, _ in bus.sent] == [
        ("AcceptRequest", ProposalNumber(0, 0), rid) for rid in (0, 1, 2) for _ in range(5)]
    assert p.pending == [] and p.in_flight is None
    (tag, _), = bus.timers  # phase 1's own timer, and nothing for phase 2
    assert tag[0] == "phase"


def test_a_phase_one_timeout_re_proposes_under_a_higher_round_and_keeps_the_pending():
    p, bus = make_proposer()
    p.submit(ClientRequest(0, "a"))
    p.submit(ClientRequest(1, "b"))  # pending behind phase 1
    bus.sent.clear()
    p.on_phase_timeout(p.in_flight)
    assert [k for k, _ in bus.logs] == ["Propose", "Repropose"]
    assert {(pkt.kind, pkt.n) for pkt, _ in bus.sent} == {("Prepare", ProposalNumber(1, 0))}
    assert p.promised is None and p.in_flight.n == ProposalNumber(1, 0)
    assert p.pending == [ClientRequest(1, "b")]
    reach_majority(p, ProposalNumber(0, 0))  # promises for the superseded number
    assert p.promised is None
    bus.sent.clear()
    reach_majority(p, ProposalNumber(1, 0))
    p.submit(ClientRequest(2, "c"))
    assert [(pkt.kind, pkt.n, pkt.request.request_id) for pkt, _ in bus.sent[::5]] == [
        ("AcceptRequest", ProposalNumber(1, 0), rid) for rid in (0, 1, 2)]


def test_stand_down_forces_a_fresh_phase_one_under_a_higher_round():
    p, bus = make_proposer()
    p.submit(ClientRequest(0, "a"))
    reach_majority(p, ProposalNumber(0, 0))
    p.stand_down()  # an election; this node is later re-elected
    bus.sent.clear()
    p.submit(ClientRequest(1, "b"))
    assert [k for k, _ in bus.logs][-1] == "Propose"
    assert {(pkt.kind, pkt.n) for pkt, _ in bus.sent} == {("Prepare", ProposalNumber(1, 0))}


def test_third_distinct_promise_of_five_triggers_accept_broadcast():
    p, bus = make_proposer()
    p.submit(ClientRequest(0, "q"))
    bus.sent.clear()
    p.on_promise(promise(ProposalNumber(0, 0)), 1)
    p.on_promise(promise(ProposalNumber(0, 0)), 1)  # duplicate: no effect
    p.on_promise(promise(ProposalNumber(0, 0)), 2)
    assert bus.sent == []
    p.on_promise(promise(ProposalNumber(0, 0)), 3)
    accepts = [pkt for pkt, _ in bus.sent if pkt.kind == "AcceptRequest"]
    assert len(accepts) == 5
    majority = [f for k, f in bus.logs if k == "MajorityReached"]
    assert majority == [{"from": 0, "req": 0, "n": ProposalNumber(0, 0),
                         "promises": 3, "membership": 5}]


def test_promise_for_a_foreign_number_or_after_the_majority_is_ignored():
    p, bus = make_proposer()
    p.submit(ClientRequest(0, "q"))
    bus.sent.clear()
    p.on_promise(promise(ProposalNumber(9, 9)), 1)  # foreign number
    assert p.in_flight.votes == set()
    for node in (1, 2, 3):
        p.on_promise(promise(ProposalNumber(0, 0)), node)
    assert p.promised == ProposalNumber(0, 0) and p.in_flight is None
    bus.sent.clear(), bus.logs.clear()
    p.on_promise(promise(ProposalNumber(0, 0)), 4)  # late: phase 1 is over
    assert bus.sent == bus.logs == [] and p.in_flight is None


def test_timeout_with_no_promises_bumps_round_by_one():
    p, bus = make_proposer()
    p.submit(ClientRequest(0, "q"))
    p.on_phase_timeout(p.in_flight)
    reproposals = [f for k, f in bus.logs if k == "Repropose"]
    assert len(reproposals) == 1
    assert reproposals[0]["n"] == ProposalNumber(1, 0)
    assert p.in_flight.votes == set()


def test_repropose_exceeds_every_observed_round():
    replica, sim = make_replica()
    replica.proposer.submit(ClientRequest(0, "q"))
    # A peer's Prepare is numbered, and the replica notes its round.
    replica.on_packet(Prepare(n=ProposalNumber(7, 1), epoch=0), 1, 0)
    replica.on_timer(("phase", replica.proposer.in_flight), 10)
    assert proposed_rounds(sim) == [0, 8]


def test_reelected_leader_never_reuses_a_round():
    replica, sim = make_replica()
    replica.proposer.submit(ClientRequest(0, "q"))
    replica.proposer.stand_down()  # deposed before any packet came back, later re-elected
    replica.proposer.submit(ClientRequest(0, "q"))
    assert proposed_rounds(sim) == [0, 1]


def superseded_flight():
    """An in-flight proposal that a timeout and a re-proposal have replaced."""
    p, _ = make_proposer()
    p.submit(ClientRequest(0, "q"))
    flight = p.in_flight
    p.on_phase_timeout(flight)
    assert p.in_flight is not flight
    return flight


def test_a_replica_that_does_not_lead_stays_idle():
    replica, sim = make_replica(node_id=1)  # the view's leader is 0
    replica.on_packet(promise(ProposalNumber(0, 1)), 2, 0)
    replica.on_timer(("phase", superseded_flight()), 10)  # another proposer's flight
    assert sim.records == [] and sim.pending() == 0


def test_stale_timer_is_ignored():
    p, bus = make_proposer()
    p.submit(ClientRequest(0, "q"))
    first = p.in_flight
    p.on_phase_timeout(first)  # Repropose under 1.0
    second = p.in_flight
    reach_majority(p, ProposalNumber(1, 0))  # phase 1 ends: phase 2 has no timer
    p.on_phase_timeout(first)   # superseded by the re-proposal
    p.on_phase_timeout(second)  # ended by the majority
    p.on_phase_timeout(superseded_flight())  # another proposer's
    assert [k for k, _ in bus.logs] == ["Propose", "Repropose", "MajorityReached"]


def test_a_first_requests_phase_one_timer_is_ignored_once_its_majority_is_reached():
    p, bus = make_proposer()
    p.submit(ClientRequest(0, "q"))
    (phase_one_tag, _), = bus.timers
    reach_majority(p, ProposalNumber(0, 0))
    p.on_phase_timeout(phase_one_tag[1])
    assert [k for k, _ in bus.logs] == ["Propose", "MajorityReached"]
    assert p.in_flight is None and p.promised == ProposalNumber(0, 0)
    assert len(bus.timers) == 1


def test_membership_shrink_unblocks_pending_majority():
    p, bus = make_proposer(members=range(6))
    p.submit(ClientRequest(0, "q"))
    bus.sent.clear()
    for node in (0, 1, 2):
        p.on_promise(promise(ProposalNumber(0, 0)), node)
    assert p.promised is None  # 3 of 6 is not a majority
    p.view.alive.discard(5)
    p.on_membership_change()
    assert p.promised == ProposalNumber(0, 0)  # 3 of 5 is
    accepts = [dst for pkt, dst in bus.sent if pkt.kind == "AcceptRequest"]
    assert accepts == [0, 1, 2, 3, 4]


def test_membership_noop_keeps_state():
    p, _ = make_proposer()
    p.submit(ClientRequest(0, "q"))
    p.on_promise(promise(ProposalNumber(0, 0)), 1)
    before = set(p.in_flight.votes)
    p.on_membership_change()
    assert p.in_flight.votes == before


def test_a_node_added_to_the_view_gets_the_next_broadcast_and_its_vote_counts():
    view, bus = view_of(range(3)), FakeBus()
    p = Proposer(node_id=0, view=view, bus=bus, timeout=10)
    p.submit(ClientRequest(0, "q"))
    p.on_promise(promise(ProposalNumber(0, 0)), 3)  # not yet a member: ignored
    assert p.in_flight.votes == set()
    view.alive.add(3)  # a rejoin, as the membership service records it
    p.on_membership_change()
    bus.sent.clear()
    for node in (3, 0):
        p.on_promise(promise(ProposalNumber(0, 0)), node)
    assert p.in_flight.votes == {0, 3} and p.promised is None  # 2 of 4
    p.on_promise(promise(ProposalNumber(0, 0)), 1)
    assert [dst for pkt, dst in bus.sent if pkt.kind == "AcceptRequest"] == [0, 1, 2, 3]
    majority = [f for k, f in bus.logs if k == "MajorityReached"]
    assert [(f["promises"], f["membership"]) for f in majority] == [(3, 4)]


def test_departed_promises_discarded_before_threshold_check():
    p, bus = make_proposer(members=range(7))
    p.submit(ClientRequest(0, "q"))
    for node in (0, 1, 4):
        p.on_promise(promise(ProposalNumber(0, 0)), node)
    assert p.promised is None  # 3 of 7 is not a majority
    # Membership collapses to three nodes, two of which promised.
    p.view.alive &= {0, 1, 3}
    p.on_membership_change()
    majority = [f for k, f in bus.logs if k == "MajorityReached"]
    assert [(f["promises"], f["membership"]) for f in majority] == [(2, 3)]


def test_an_acceptance_changes_nothing():
    # Acceptors report to the learner only; on_accepted stays for the bench's tracer.
    p, bus = make_proposer()
    p.submit(ClientRequest(0, "q"))
    p.on_promise(promise(ProposalNumber(0, 0)), 1)
    for node in (1, 2, 3, 4):
        p.on_accepted(accepted(), node)
    assert p.in_flight.votes == {1} and p.promised is None
    assert len(bus.sent) == 5 and [k for k, _ in bus.logs] == ["Propose"]


def test_exactly_one_accept_broadcast_per_round():
    p, bus = make_proposer()
    p.submit(ClientRequest(0, "q"))
    bus.sent.clear()
    for node in (1, 2, 3, 4, 0):
        p.on_promise(promise(ProposalNumber(0, 0)), node)
    accepts = [pkt for pkt, _ in bus.sent if pkt.kind == "AcceptRequest"]
    assert len(accepts) == 5  # one broadcast, not one per extra promise


def duplicate_proposals(records):
    """The (epoch, req) pairs that more than one Propose record of a log carries."""
    proposed = Counter((r.fields["epoch"], r.fields["req"]) for r in records if r.kind == "Propose")
    return sorted(key for key, count in proposed.items() if count > 1)


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.scenario")), ids=lambda p: p.stem)
def test_no_incumbency_proposes_a_request_twice(path):
    # The client submits each request once per election (epoch), and each
    # election stands the proposer down; it keeps no guard of its own.
    scenario = load_scenario(path)
    for seed in range(8):
        assert duplicate_proposals(run(scenario, seed=seed).records) == [], seed
