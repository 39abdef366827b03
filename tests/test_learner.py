"""Learner report upkeep and the verdict decision table."""

import itertools
import random

import pytest

from paxsim.learner import (
    Anomaly,
    Consensus,
    Inconclusive,
    Learner,
    MAJORITY,
    STRICT,
    decide,
)
from paxsim.messages import Accepted, Query
from paxsim.proposer import majority_threshold
from test_proposer import FakeBus


def accepted(output="OK", state="S1", rid=0):
    return Accepted(request_id=rid, output=output, new_state=state)


def filled_reports(pairs, rid=0):
    return {sender: accepted(output=output, state=state, rid=rid)
            for sender, (output, state) in pairs.items()}


def test_first_tuple_recorded():
    # A sender's first report stands; its later ones are ignored.
    learner, _ = make_learner(STRICT)
    learner.on_accepted(accepted(output="first"), 1)
    learner.on_accepted(accepted(output="later"), 1)
    assert {node: a.output for node, a in learner.reports[0].items()} == {1: "first"}
    # A decided slot keeps only its verdict, and a later report changes nothing.
    feed(learner, {n: ("first", "S1") for n in range(5)})
    verdict = Consensus(output="first", state="S1")
    assert learner.verdicts == {0: verdict} and learner.reports == {}
    learner.on_accepted(accepted(output="late", state="S7"), 2)
    assert learner.verdicts == {0: verdict} and learner.reports == {}


def test_duplicate_tuple_ignored():
    learner, _ = make_learner(STRICT)
    learner.on_accepted(accepted(), 1)
    learner.on_accepted(accepted(), 1)
    assert len(learner.reports[0]) == 1


def test_unanimous_majority_is_consensus():
    reports = filled_reports({i: ("OK", "S1") for i in range(5)})
    verdict = decide(reports, membership_size=5)
    assert verdict == Consensus(output="OK", state="S1")


def test_single_divergent_replica_is_anomaly():
    reports = {i: ("OK", "S1") for i in range(4)}
    reports[4] = ("OK", "S7")
    verdict = decide(filled_reports(reports), membership_size=5)
    assert isinstance(verdict, Anomaly)
    assert verdict.dissenting == frozenset({4})
    assert verdict.agreeing == frozenset({0, 1, 2, 3})
    assert dict(verdict.states_seen) == {"S1": 4, "S7": 1}
    # A lone dissenter whose state sorts first still dissents from a larger group.
    reports = {0: ("old", "S0"), 1: ("new", "S1"), 2: ("new", "S1")}
    verdict = decide(filled_reports(reports), membership_size=3)
    assert verdict == Anomaly(agreeing=frozenset({1, 2}), dissenting=frozenset({0}),
                              states_seen=(("S0", 1), ("S1", 2)))


def test_too_few_tuples_is_inconclusive():
    reports = filled_reports({i: ("OK", "S1") for i in range(2)})
    verdict = decide(reports, membership_size=5)
    assert verdict == Inconclusive(received=2, needed=3)


def test_empty_ledger_is_inconclusive_zero():
    verdict = decide({}, membership_size=5)
    assert verdict == Inconclusive(received=0, needed=3)


def brute_force_decision(pairs_by_node, membership_size):
    """Independent decision-table oracle over (output, state) reports."""
    if not pairs_by_node:
        return ("Inconclusive", 0, membership_size // 2 + 1)
    distinct = set(pairs_by_node.values())
    if len(distinct) >= 2:
        best_size = max(len([n for n, p in pairs_by_node.items() if p == q]) for q in distinct)
        candidates = sorted(
            (q for q in distinct
             if len([n for n, p in pairs_by_node.items() if p == q]) == best_size),
            key=lambda q: (q[1], q[0]))
        winner = candidates[0]
        agreeing = frozenset(n for n, p in pairs_by_node.items() if p == winner)
        return ("Anomaly", agreeing, frozenset(pairs_by_node) - agreeing)
    if len(pairs_by_node) >= membership_size // 2 + 1:
        pair = next(iter(distinct))
        return ("Consensus", pair[0], pair[1])
    return ("Inconclusive", len(pairs_by_node), membership_size // 2 + 1)


def assert_matches_oracle(pairs_by_node, membership_size):
    reports = filled_reports(pairs_by_node)
    verdict = decide(reports, membership_size=membership_size)
    expected = brute_force_decision(pairs_by_node, membership_size)
    if expected[0] == "Consensus":
        assert verdict == Consensus(output=expected[1], state=expected[2])
    elif expected[0] == "Anomaly":
        assert isinstance(verdict, Anomaly)
        assert verdict.agreeing == expected[1]
        assert verdict.dissenting == expected[2]
    else:
        assert verdict == Inconclusive(received=expected[1], needed=expected[2])


def test_decide_agrees_with_oracle_on_all_small_multisets():
    # Every assignment of <= 3 distinct pairs (or absence) to up to 7 nodes.
    palette = [("O1", "S1"), ("O2", "S1"), ("O1", "S2")]
    options = [None] + palette
    for n_nodes in range(1, 8):
        for combo in itertools.product(options, repeat=n_nodes):
            pairs = {node: pair for node, pair in enumerate(combo) if pair is not None}
            assert_matches_oracle(pairs, membership_size=n_nodes)


def test_any_divergence_beats_any_count_under_strict_policy():
    rng = random.Random(99)
    palette = [("a", "X"), ("b", "X"), ("a", "Y")]
    for _ in range(300):
        size = rng.randint(2, 7)
        pairs = {node: rng.choice(palette) for node in range(size)}
        if len(set(pairs.values())) < 2:
            pairs[0] = ("zzz", "Z")
        reports = filled_reports(pairs)
        verdict = decide(reports, membership_size=size, policy=STRICT)
        assert isinstance(verdict, Anomaly)


def test_majority_policy_sides_with_majority_group():
    pairs = {i: ("OK", "S1") for i in range(4)}
    pairs[4] = ("Error", "S7")
    reports = filled_reports(pairs)
    assert decide(reports, 5, policy=MAJORITY) == Consensus(output="OK", state="S1")
    # The strict policy names the liar that the majority policy outvotes.
    assert decide(reports, 5, policy=STRICT).dissenting == frozenset({4})
    # Without a majority group the anomaly stands even in majority mode.
    split = filled_reports({0: ("a", "X"), 1: ("b", "Y"), 2: ("c", "Z"),
                           3: ("a", "X"), 4: ("b", "Y")})
    assert isinstance(decide(split, 5, policy=MAJORITY), Anomaly)


def test_anomaly_tie_breaks_toward_smallest_state_name():
    reports = filled_reports({0: ("x", "S2"), 1: ("x", "S1")})
    verdict = decide(reports, membership_size=2)
    assert verdict.agreeing == frozenset({1})  # S1 sorts before S2
    assert verdict.dissenting == frozenset({0})


def test_decide_is_pure():
    reports = filled_reports({i: ("OK", "S1") for i in range(3)})
    first = decide(reports, 5)
    second = decide(reports, 5)
    assert first == second
    assert set(reports) == {0, 1, 2}


def test_needed_tracks_membership_size():
    reports = filled_reports({0: ("OK", "S1")})
    for size in range(1, 8):
        verdict = decide(reports, membership_size=size)
        if size <= 1:
            assert verdict == Consensus(output="OK", state="S1")
        else:
            assert verdict.needed == majority_threshold(size)


def test_an_emptied_group_has_no_majority():
    # Membership 0: every replica failed before the run halted. No report is a majority of it.
    one = filled_reports({2: ("OK", "S1")})
    assert decide(one, 0) == Inconclusive(received=1, needed=1)
    split = filled_reports({0: ("a", "X"), 1: ("a", "X"), 2: ("b", "Y")})
    assert isinstance(decide(split, 0, policy=MAJORITY), Anomaly)


class View:
    def __init__(self, alive):
        self.alive = set(alive)
        self.last_heartbeat = dict.fromkeys(self.alive, 0)


def make_learner(policy, members=range(5)):
    bus = FakeBus()
    learner = Learner(client_id=6, membership_view=View(members), bus=bus, policy=policy,
                      instance_deadline=50, on_verdict=lambda: None)
    return learner, bus


FOUR_AGAINST_ONE = {0: ("OK", "S1"), 1: ("OK", "S1"), 2: ("OK", "S1"),
                    3: ("OK", "S1"), 4: ("Error", "S7")}
FOUR_AGAINST_ONE_REPORT = ("AnomalyReport", {"req": 0, "dissenting": "4", "states": "S1:4;S7:1",
                                             "outputs": "Error:1;OK:4"})


def feed(learner, reports, rid=0):
    for sender, (output, state) in reports.items():
        learner.on_accepted(accepted(output=output, state=state, rid=rid), sender)


def test_majority_learner_logs_the_anomaly_report_then_a_consensus():
    learner, bus = make_learner(MAJORITY)
    feed(learner, FOUR_AGAINST_ONE)
    assert bus.logs == [FOUR_AGAINST_ONE_REPORT,
                        ("Verdict", {"req": 0, "verdict": "Consensus", "membership": 5,
                                     "deadline": 0, "output": "OK", "state": "S1"})]
    assert [(p.output, dst) for p, dst in bus.sent] == [("OK", 6)]


def test_strict_learner_logs_the_same_report_then_an_anomaly_that_agrees_with_it():
    learner, bus = make_learner(STRICT)
    feed(learner, FOUR_AGAINST_ONE)
    assert bus.logs == [FOUR_AGAINST_ONE_REPORT,
                        ("Verdict", {"req": 0, "verdict": "Anomaly", "membership": 5,
                                     "deadline": 0, "agreeing": "0,1,2,3", "dissenting": "4",
                                     "states": "S1:4;S7:1"})]
    (_, report), (_, verdict) = bus.logs
    assert (report["dissenting"], report["states"]) == (verdict["dissenting"], verdict["states"])
    assert bus.sent == []


def test_anomaly_report_counts_every_round():
    reports = {0: ("old", "S0"), 1: ("OK", "S1"), 2: ("OK", "S1"),
               3: ("OK", "S1"), 4: ("Error", "S7")}
    for policy in (STRICT, MAJORITY):
        learner, bus = make_learner(policy)
        feed(learner, reports)
        kind, report = bus.logs[0]
        assert kind == "AnomalyReport"
        assert report == {"req": 0, "dissenting": "0,4", "states": "S0:1;S1:3;S7:1",
                          "outputs": "Error:1;OK:3;old:1"}


def test_a_departure_that_completes_a_slots_reports_decides_it():
    learner, bus = make_learner(STRICT, members=range(3))
    feed(learner, {0: ("OK", "S1"), 1: ("OK", "S1")}, rid=0)
    feed(learner, {0: ("OK", "S1")}, rid=1)
    assert bus.logs == []
    learner.view.alive.discard(2)
    learner.on_membership_change()
    learner.on_membership_change()  # a decided slot is not decided again
    assert bus.logs == [("Verdict", {"req": 0, "verdict": "Consensus", "membership": 2,
                                     "deadline": 0, "output": "OK", "state": "S1"})]
    assert list(learner.verdicts) == [0] and list(learner.reports) == [1]


def test_a_slot_finalized_after_the_group_emptied_is_inconclusive():
    learner, bus = make_learner(STRICT, members=range(3))
    feed(learner, {2: ("OK", "S1")})
    learner.view.alive.clear()
    learner.finalize(0)
    assert bus.logs == [("Verdict", {"req": 0, "verdict": "Inconclusive", "membership": 0,
                                     "deadline": 1, "received": "1", "needed": "1"})]
    assert bus.sent == []  # no ClientResponse


def test_one_deadline_timer_per_slot_however_many_reports():
    learner, bus = make_learner(STRICT)
    learner.on_accepted(accepted(rid=0), 0)
    learner.on_accepted(accepted(rid=0), 0)            # duplicate
    learner.on_accepted(accepted(rid=1), 1)
    learner.on_accepted(accepted(output="later", rid=0), 0)  # a later report, ignored
    learner.on_accepted(accepted(rid=0), 1)
    learner.on_deadline(0)
    learner.on_accepted(accepted(rid=0), 2)            # after the slot's verdict
    feed(learner, {n: ("OK", "S1") for n in range(5)}, rid=1)
    learner.on_accepted(accepted(output="late", rid=1), 0)  # after a Consensus
    # Each slot's first report also arms its first query, Q = 50 // 6 = 8 ticks out.
    assert bus.timers == [(("deadline", 0), 50), (("query", 0, 42), 8),
                          (("deadline", 1), 50), (("query", 1, 42), 8)]
    deadlines = [tag[1] for tag, _ in bus.timers if tag[0] == "deadline"]
    assert deadlines == [0, 1]


def test_a_query_goes_to_each_alive_member_missing_a_report_and_heard_from_lately():
    learner, bus = make_learner(STRICT)
    feed(learner, {0: ("OK", "S1"), 1: ("OK", "S1")})
    learner.view.alive.discard(4)  # departed
    # At t=20 with Q = 8: 2 was heard from 8 ticks ago, 3 only 9 ticks ago (it may have crashed).
    learner.view.last_heartbeat.update({0: 20, 1: 20, 2: 12, 3: 11, 4: 20})
    bus.timers.clear()
    learner.on_query_timer(0, 42, now=20)
    assert bus.sent == [(Query(slot=0), 2)]
    assert bus.timers == [(("query", 0, 34), 8)]


def test_no_query_follows_a_slots_verdict():
    learner, bus = make_learner(STRICT)
    feed(learner, {0: ("OK", "S1")}, rid=0)
    learner.on_deadline(0)
    feed(learner, {n: ("OK", "S1") for n in range(5)}, rid=1)
    bus.sent.clear(), bus.timers.clear()
    for rid in (0, 1):
        learner.on_query_timer(rid, 42, now=8)
    assert bus.sent == [] and bus.timers == []


@pytest.mark.parametrize("deadline", [1, 5, 6, 7, 12, 13, 49, 50, 250])
def test_no_query_timer_fires_at_or_past_the_deadline(deadline):
    bus = FakeBus()
    learner = Learner(client_id=6, membership_view=View(range(5)), bus=bus, policy=STRICT,
                      instance_deadline=deadline, on_verdict=lambda: None)
    feed(learner, {0: ("OK", "S1")})
    fired, now = [], 0
    while bus.timers:
        tag, delay = bus.timers.pop()
        if tag[0] == "query":
            now += delay
            fired.append(now)
            learner.view.last_heartbeat = dict.fromkeys(range(5), now)
            learner.on_query_timer(tag[1], tag[2], now)
            assert now + tag[2] == deadline  # the tag carries the ticks left to the deadline
    q = deadline // 6  # 0 below 6 ticks: no pull
    assert fired == (list(range(q, deadline, q)) if q else [])  # every Q ticks, all before it
    assert len(bus.sent) == 4 * len(fired)



@pytest.mark.parametrize("deadline, round_trip, q", [
    (50, 0, 8), (50, 8, 8), (50, 26, 26),  # bench lossy's round trip is 6; stale_count's, 26
    (5, 0, 0), (5, 4, 4), (5, 6, 6)])      # a Q at or past the deadline arms no query
def test_q_is_at_least_the_networks_round_trip(deadline, round_trip, q):
    bus = FakeBus()
    learner = Learner(client_id=6, membership_view=View(range(5)), bus=bus, policy=STRICT,
                      instance_deadline=deadline, on_verdict=lambda: None, round_trip=round_trip)
    assert learner.query_interval == q
    feed(learner, {0: ("OK", "S1")})
    queries = [(tag, delay) for tag, delay in bus.timers if tag[0] == "query"]
    assert queries == ([(("query", 0, deadline - q), q)] if 0 < q < deadline else [])
