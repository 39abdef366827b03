"""Failure detection, rejoin and leader election."""

import pytest

from paxsim.membership import EmptyGroup, MembershipService, UnknownNode


class RecordingBus:
    def __init__(self):
        self.logs = []

    def log(self, kind, **fields):
        self.logs.append((kind, fields))


def make_service(n=5, suspect_after=15):
    bus = RecordingBus()
    changes = []
    elections = []
    service = MembershipService(
        members=range(n), suspect_after=suspect_after, bus=bus,
        on_change=lambda: changes.append(set(service.view.alive)),
        on_election=lambda: elections.append((service.view.epoch, service.view.leader)))
    return service, bus, changes, elections


def test_heartbeat_refreshes_timestamp():
    service, _, changes, _ = make_service()
    service.record_heartbeat(2, now=9)
    assert service.view.last_heartbeat[2] == 9
    assert changes == []


def test_suspected_node_rejoins_on_heartbeat():
    service, bus, changes, _ = make_service()
    service.view.alive.discard(3)
    service.record_heartbeat(3, now=20)
    assert 3 in service.view.alive
    assert ("Rejoin", {"node": 3}) in bus.logs
    assert changes == [{0, 1, 2, 3, 4}]
    assert service.view.epoch == 0  # leadership untouched


def test_heartbeat_from_undeclared_node_rejected():
    service, _, _, _ = make_service()
    with pytest.raises(UnknownNode):
        service.record_heartbeat(17, now=1)


def test_crash_stopped_node_never_rejoins():
    service, bus, _, _ = make_service()
    service.mark_crashed(3)
    service.view.alive.discard(3)
    service.record_heartbeat(3, now=30)  # a stray pre-crash heartbeat
    assert 3 not in service.view.alive
    assert all(kind != "Rejoin" for kind, _ in bus.logs)


def test_silent_node_removed_and_leader_notified():
    service, bus, changes, _ = make_service(suspect_after=10)
    for node in range(5):
        service.record_heartbeat(node, now=12)
    service.view.last_heartbeat[4] = 0
    removed = service.detect_failures(now=12)
    assert removed == {4}
    assert ("Failure", {"node": 4}) in bus.logs
    assert changes == [{0, 1, 2, 3}]


def test_all_heartbeating_removes_nobody():
    service, _, changes, _ = make_service(suspect_after=10)
    for node in range(5):
        service.record_heartbeat(node, now=8)
    assert service.detect_failures(now=12) == set()
    assert changes == []


def test_two_expiries_one_notification():
    service, bus, changes, _ = make_service(suspect_after=10)
    for node in range(5):
        service.record_heartbeat(node, now=20)
    service.view.last_heartbeat[2] = 0
    service.view.last_heartbeat[4] = 0
    removed = service.detect_failures(now=20)
    assert removed == {2, 4}
    failures = [f["node"] for k, f in bus.logs if k == "Failure"]
    assert failures == [2, 4]
    assert changes == [{0, 1, 3}]  # a single membership change event


def test_leader_failure_triggers_election_of_smallest_alive():
    service, bus, changes, elections = make_service(suspect_after=10)
    for node in range(5):
        service.record_heartbeat(node, now=20)
    service.view.last_heartbeat[0] = 0
    service.view.last_heartbeat[2] = 0
    service.detect_failures(now=20)
    assert service.view.leader == 1
    assert service.view.epoch == 1
    assert elections == [(1, 1)]
    assert changes == [{1, 3, 4}]  # change notification follows the election


def test_election_picks_smallest_alive_id():
    service, _, _, _ = make_service()
    service.view.alive = {1, 3, 4}
    service.elect_leader()
    assert service.view.leader == 1


def test_singleton_election():
    service, _, _, _ = make_service()
    service.view.alive = {2}
    assert service.elect_leader() == 2


def test_two_successive_leader_crashes_two_epochs():
    service, bus, _, elections = make_service(suspect_after=10)
    for node in range(5):
        service.record_heartbeat(node, now=20)
    service.view.last_heartbeat[0] = 0
    service.detect_failures(now=20)
    for node in (1, 2, 3, 4):
        service.record_heartbeat(node, now=25)
    service.view.last_heartbeat[1] = 0
    service.detect_failures(now=30)
    assert elections == [(1, 1), (2, 2)]
    recorded = [(f["epoch"], f["leader"]) for k, f in bus.logs if k == "Election"]
    assert recorded == [(1, 1), (2, 2)]


def test_empty_group_halts():
    service, bus, _, _ = make_service(n=1, suspect_after=5)
    service.view.last_heartbeat[0] = 0
    with pytest.raises(EmptyGroup):
        service.detect_failures(now=50)
    assert ("Halt", {"reason": "EmptyGroup"}) in bus.logs
