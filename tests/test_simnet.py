"""Event loop ordering, seeded loss/delay, and crashed-node handling."""

import gc
import random

import pytest

from paxsim.eventlog import dump_records
from paxsim.membership import EmptyGroup
from paxsim.messages import Heartbeat
from paxsim.simnet import NetConfig, QueueEmpty, Simulation


class Sink:
    def __init__(self):
        self.packets = []
        self.timers = []

    def on_packet(self, packet, src, now):
        self.packets.append((now, packet, src))

    def on_timer(self, tag, now):
        self.timers.append((now, tag))


FOREVER = float("inf")  # a horizon that drains the queue


def run_until(sim, t):
    """Run every event due by t, then stand the clock at t even if none was due."""
    sim.run(t)
    sim.now = max(sim.now, t)


def make_sim(**net):
    sim = Simulation(NetConfig(seed=net.pop("seed", 1), **net))
    nodes = {i: Sink() for i in range(3)}
    sim.nodes = dict(nodes)
    return sim, nodes


def test_degenerate_config_delivers_at_now_plus_base_delay():
    sim, nodes = make_sim(base_delay=1, jitter=0, loss_rate=0.0)
    sim.send(Heartbeat(seq=0), 0, 1)
    sim.run(FOREVER)
    assert [t for t, _, _ in nodes[1].packets] == [1]


def test_full_loss_drops_everything():
    sim, nodes = make_sim(loss_rate=1.0)
    for _ in range(10):
        sim.send(Heartbeat(seq=0), 0, 1)
    sim.run(FOREVER)
    assert nodes[1].packets == []
    assert sum(1 for r in sim.records if r.kind == "Drop") == 10


def test_same_time_events_process_in_schedule_order():
    sim, nodes = make_sim()
    sim.set_timer(0, ("a",), 5)
    sim.set_timer(0, ("b",), 5)
    sim.set_timer(0, ("c",), 2)
    sim.run(FOREVER)
    assert [tag for _, tag in nodes[0].timers] == [("c",), ("a",), ("b",)]


def test_delivery_to_crashed_node_logged_and_discarded():
    sim, nodes = make_sim()
    sim.crashed.add(1)
    sim.send(Heartbeat(seq=0), 0, 1)
    sim.run(FOREVER)
    assert nodes[1].packets == []
    discards = [r for r in sim.records if r.kind == "DiscardCrashed"]
    assert len(discards) == 1 and discards[0].fields["to"] == 1


def test_crashed_node_timers_dropped_silently():
    sim, nodes = make_sim()
    sim.set_timer(1, ("tick",), 3)
    sim.crashed.add(1)
    sim.run(FOREVER)
    assert nodes[1].timers == []
    assert all(r.kind != "DiscardCrashed" for r in sim.records)


def test_crashed_sender_emits_nothing():
    sim, nodes = make_sim()
    sim.crashed.add(0)
    sim.send(Heartbeat(seq=0), 0, 1)
    sim.run(FOREVER)
    assert nodes[1].packets == []
    assert sim.records == []


class SelfSender(Sink):
    """Logs its timers and packets in one list; its ("send",) timer sends it a Heartbeat."""

    def __init__(self, sim, node_id):
        super().__init__()
        self.sim = sim
        self.id = node_id
        self.events = []

    def on_timer(self, tag, now):
        self.events.append((now, tag))
        if tag == ("send",):
            self.sim.send(Heartbeat(seq=now), self.id, self.id)

    def on_packet(self, packet, src, now):
        self.events.append((now, packet, src))


def test_a_send_to_self_is_handed_off_this_tick_after_the_events_queued_for_it():
    sim, _ = make_sim(jitter=3, loss_rate=0.5)
    sim.nodes[0] = node = SelfSender(sim, 0)
    sim.set_timer(0, ("send",), 2)
    sim.set_timer(0, ("queued",), 2)
    sim.set_timer(0, ("next tick",), 3)
    state = sim.rng.getstate()
    sim.run(FOREVER)
    assert node.events == [(2, ("send",)), (2, ("queued",)), (2, Heartbeat(seq=2), 0),
                           (3, ("next tick",))]
    assert sim.rng.getstate() == state  # neither a loss nor a jitter draw
    assert sim.records == []  # no Delivery


def test_a_hand_off_to_a_node_that_crashed_meanwhile_is_dropped_silently():
    sim, nodes = make_sim()
    sim.send(Heartbeat(seq=0), 0, 0)
    sim.crashed.add(0)
    sim.run(FOREVER)
    assert nodes[0].packets == [] and sim.records == [] and sim.pending() == 0


def test_step_on_empty_queue_raises():
    sim, _ = make_sim()
    with pytest.raises(QueueEmpty):
        sim.step()


def test_run_stops_at_the_first_event_past_the_horizon_and_keeps_it():
    sim, nodes = make_sim()
    for delay in (3, 5, 6, 9):
        sim.set_timer(0, (delay,), delay)
    assert sim.run(5) is True
    assert nodes[0].timers == [(3, (3,)), (5, (5,))]
    assert sim.pending() == 2 and sim.now == 5
    assert sim.run(100) is False
    assert [tag for _, tag in nodes[0].timers] == [(3,), (5,), (6,), (9,)]


def test_run_returns_false_when_the_queue_drains():
    sim, nodes = make_sim()
    sim.send(Heartbeat(seq=0), 0, 1)
    assert sim.run(10) is False
    assert sim.pending() == 0 and len(nodes[1].packets) == 1
    assert sim.run(10) is False  # an empty queue is already drained


def test_run_lets_a_handler_exception_propagate():
    class Halting(Sink):
        def on_timer(self, tag, now):
            raise EmptyGroup("no members left")

    sim, nodes = make_sim()
    sim.nodes[2] = Halting()
    sim.set_timer(2, ("halt",), 1)
    sim.set_timer(0, ("later",), 2)
    with pytest.raises(EmptyGroup):
        sim.run(10)
    assert sim.now == 1 and sim.pending() == 1 and nodes[0].timers == []
    assert gc.isenabled()  # the collector paused for the run is on again


class CollectorProbe(Sink):
    """Notes whether the cyclic collector is on at each timer it handles."""

    def __init__(self):
        super().__init__()
        self.collector = []

    def on_timer(self, tag, now):
        self.collector.append(gc.isenabled())


def test_run_pauses_the_collector_and_turns_it_back_on():
    sim, _ = make_sim()
    sim.nodes[0] = probe = CollectorProbe()
    sim.set_timer(0, ("a",), 1)
    sim.set_timer(0, ("b",), 2)
    assert gc.isenabled()
    assert sim.run(10) is False
    assert probe.collector == [False, False]
    assert gc.isenabled()


def test_run_leaves_a_paused_collector_paused():
    sim, _ = make_sim()
    sim.nodes[0] = probe = CollectorProbe()
    sim.set_timer(0, ("a",), 1)
    gc.disable()
    try:
        sim.run(10)
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert probe.collector == [False]


def test_identical_seed_identical_records():
    def one_run():
        sim, _ = make_sim(seed=77, jitter=4, loss_rate=0.3)
        for i in range(40):
            sim.send(Heartbeat(seq=i), 0, 1)
            run_until(sim, sim.now + 1)
        sim.run(FOREVER)
        return dump_records(sim.records)

    assert one_run() == one_run()


def test_different_seed_changes_delivery_pattern():
    def one_run(seed):
        sim, _ = make_sim(seed=seed, jitter=4, loss_rate=0.3)
        for i in range(40):
            sim.send(Heartbeat(seq=i), 0, 1)
        sim.run(FOREVER)
        return dump_records(sim.records)

    assert one_run(1) != one_run(2)


def test_monotone_watermark_over_records():
    sim, _ = make_sim(jitter=3, loss_rate=0.2, seed=5)
    for i in range(50):
        sim.send(Heartbeat(seq=i), 0, (i % 2) + 1)
    sim.run(FOREVER)
    stamps = [(r.time, r.seq) for r in sim.records]
    assert stamps == sorted(stamps)
    assert len({seq for _, seq in stamps}) == len(stamps)


@pytest.mark.parametrize("jitter", [1, 2, 3, 7, 10, 25])
def test_jitter_draws_are_those_of_randint(jitter):
    # send() draws the extra delay with getrandbits itself; the delays, the
    # drops and the generator's state after must be those of random() then
    # randint(0, jitter) on a reference generator.
    for seed in (0, 5, 97, 20120611):
        for loss_rate in (0.0, 0.1, 0.5):
            sim, nodes = make_sim(seed=seed, base_delay=2, jitter=jitter, loss_rate=loss_rate)
            for i in range(200):
                sim.send(Heartbeat(seq=i), 0, 1)
            sim.run(FOREVER)
            reference = random.Random(seed)
            expected = {}
            for i in range(200):
                if reference.random() >= loss_rate:
                    expected[i] = 2 + reference.randint(0, jitter)
            assert {packet.seq: now for now, packet, _ in nodes[1].packets} == expected
            assert sum(r.kind == "Drop" for r in sim.records) == 200 - len(expected)
            assert sim.rng.getstate() == reference.getstate()
