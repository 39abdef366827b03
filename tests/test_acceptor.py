"""Acceptor promise rule and execution behaviour."""

import random

from paxsim.acceptor import Acceptor
from paxsim.messages import (Accepted, AcceptRequest, ClientRequest, Decided, Prepare, Promise,
                             ProposalNumber)
from paxsim.statemachine import compile_app_model, compile_machine

MACHINE = compile_machine({
    "states": ["S0", "S1"],
    "start": "S0",
    "rules": [{"from": "S0", "to": "S1", "output_regex": "Error", "threshold": 0}],
})
MODEL = compile_app_model({
    "outputs": [{"request": "GET /health", "output": "OK"}],
    "default_output": "Error",
})


def make_acceptor():
    return Acceptor(definition=MACHINE, model=MODEL)


def prepare(n):
    return Prepare(n=n, epoch=0)


def accept(n, payload="GET /health", rid=0):
    return AcceptRequest(n=n, request=ClientRequest(rid, payload), epoch=0)


def test_fresh_acceptor_promises_with_empty_history():
    a = make_acceptor()
    p = a.on_prepare(prepare(ProposalNumber(1, 0)))
    assert p is not None
    assert p == Promise(n=ProposalNumber(1, 0))


def test_promise_rule_matches_brute_force():
    # Oracle: respond iff incoming strictly exceeds the highest promised.
    for hr in range(5):
        for hp in range(3):
            for ir in range(5):
                for ip in range(3):
                    a = make_acceptor()
                    a.highest_promised = ProposalNumber(hr, hp)
                    incoming = ProposalNumber(ir, ip)
                    reply = a.on_prepare(prepare(incoming))
                    should_reply = (ir, ip) > (hr, hp)
                    assert (reply is not None) == should_reply
                    if should_reply:
                        assert a.highest_promised == incoming


def test_refusal_is_silent():
    a = make_acceptor()
    a.highest_promised = ProposalNumber(3, 0)
    assert a.on_prepare(prepare(ProposalNumber(2, 1))) is None
    assert a.highest_promised == ProposalNumber(3, 0)


def test_honest_execution_emits_result_triple():
    a = make_acceptor()
    out = a.on_accept_request(accept(ProposalNumber(0, 0)))
    assert out == Accepted(request_id=0, output="OK", new_state="S0")


def test_stale_accept_request_dropped_silently():
    a = make_acceptor()
    a.highest_promised = ProposalNumber(5, 0)
    before = a.machine
    assert a.on_accept_request(accept(ProposalNumber(4, 0))) is None
    assert a.machine == before
    assert a.next_slot == 0 and a.executed == {}


def test_compromised_output_diverges_exactly_when_rule_changes():
    # Side by side: honest vs compromised on the same request stream.
    honest = make_acceptor()
    shady = make_acceptor()
    shady.compromise({"GET /health": "Error"})
    n = ProposalNumber(0, 0)
    a, b = honest.on_accept_request(accept(n)), shady.on_accept_request(accept(n))
    assert a.output == "OK" and b.output == "Error"
    assert a.new_state == "S0" and b.new_state == "S1"  # override flips the active rule
    # Payloads outside the override behave honestly.
    n2 = ProposalNumber(1, 0)
    b2 = shady.on_accept_request(accept(n2, payload="other", rid=1))
    assert b2.output == MODEL.default_output


def test_highest_promised_is_monotone():
    rng = random.Random(5)
    a = make_acceptor()
    floor = None
    for _ in range(200):
        incoming = ProposalNumber(rng.randint(0, 8), rng.randint(0, 3))
        a.on_prepare(prepare(incoming))
        if floor is not None:
            assert a.highest_promised >= floor
        floor = a.highest_promised


def test_never_two_promises_for_equal_numbers():
    rng = random.Random(6)
    a = make_acceptor()
    promised = []
    for _ in range(300):
        incoming = ProposalNumber(rng.randint(0, 6), rng.randint(0, 3))
        reply = a.on_prepare(prepare(incoming))
        if reply is not None:
            promised.append(reply.n)
    assert len(promised) == len(set(promised))


def test_identical_streams_give_identical_outputs():
    rng = random.Random(7)
    stream = []
    for rid in range(20):
        stream.append(accept(ProposalNumber(rid, 0), payload=rng.choice(["GET /health", "x"]), rid=rid))
    a, b = make_acceptor(), make_acceptor()
    outs_a = [a.on_accept_request(pkt) for pkt in stream]
    outs_b = [b.on_accept_request(pkt) for pkt in stream]
    for x, y in zip(outs_a, outs_b):
        assert (x.request_id, x.output, x.new_state) == (y.request_id, y.output, y.new_state)
    assert a.machine == b.machine


def test_slots_execute_in_order_exactly_once():
    a = make_acceptor()
    # Slot 1 before slot 0: dropped, no state change.
    assert a.on_accept_request(accept(ProposalNumber(0, 0), rid=1)) is None
    first = a.on_accept_request(accept(ProposalNumber(1, 0), payload="boom", rid=0))
    assert first.output == "Error" and first.new_state == "S1"
    machine_after = a.machine
    # Retry of slot 0 under a higher number: the cached report itself, no re-execution.
    retry = a.on_accept_request(accept(ProposalNumber(7, 2), payload="boom", rid=0))
    assert retry is first
    assert a.machine == machine_after and a.next_slot == 1 and list(a.executed) == [0]
    # Slot 1 now executes.
    second = a.on_accept_request(accept(ProposalNumber(8, 2), rid=1))
    assert second is not None and second.request_id == 1


def test_on_decided_executes_only_the_next_slot():
    a = make_acceptor()
    a.highest_promised = ProposalNumber(9, 1)

    def decided(rid, payload="GET /health"):
        return Decided(request=ClientRequest(rid, payload))

    assert a.on_decided(decided(1)) is None  # ahead of the cursor: not buffered
    assert a.next_slot == 0 and a.executed == {}
    out = a.on_decided(decided(0, payload="boom"))
    assert out == Accepted(request_id=0, output="Error", new_state="S1")
    assert a.next_slot == 1
    # A Decided moves no promise.
    assert a.highest_promised == ProposalNumber(9, 1)
    machine = a.machine
    assert a.on_decided(decided(0, payload="boom")) is None  # behind the cursor
    assert a.machine == machine and a.next_slot == 1
    # The slot is cached as an AcceptRequest would have left it.
    retry = a.on_accept_request(accept(ProposalNumber(10, 2), payload="boom", rid=0))
    assert retry is out and a.report_of(0) is out
    assert a.decided_from(0) == [decided(0, payload="boom")]


def test_a_compromised_replica_lies_about_a_decided_slot_too():
    shady = make_acceptor()
    shady.compromise({"GET /health": "Error"})
    decided = Decided(request=ClientRequest(0, "GET /health"))
    out = shady.on_decided(decided)
    assert (out.output, out.new_state) == ("Error", "S1")
