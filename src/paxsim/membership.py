"""Heartbeat-based failure detection and leader election for the replica group.

A single in-simulation service watches heartbeats from every replica,
removes nodes that have been silent longer than suspect_after, and elects
the smallest alive node id as the new leader whenever the current leader is
removed. Its view is the one source of leadership. Each leadership change
bumps the view's epoch; proposal packets carry the epoch so replicas can
ignore a deposed leader's leftovers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .messages import NodeId


class UnknownNode(ValueError):
    pass


class EmptyGroup(RuntimeError):
    pass


@dataclass
class MembershipView:
    epoch: int
    alive: set[NodeId]
    leader: NodeId
    last_heartbeat: dict[NodeId, int] = field(default_factory=dict)


class MembershipService:
    """Centralized group watch. Notification callbacks, which read the view:

    on_change() is invoked once per membership change, after any election
    it triggered; on_election() on every leader change.
    """

    def __init__(self, members, suspect_after: int, bus, on_change, on_election):
        members = sorted(members)
        self.members: frozenset[NodeId] = frozenset(members)
        self.suspect_after = suspect_after
        self.bus = bus
        self.on_change = on_change
        self.on_election = on_election
        self.view = MembershipView(
            epoch=0,
            alive=set(members),
            leader=members[0],
            last_heartbeat={m: 0 for m in members},
        )
        self.crashed: set[NodeId] = set()

    def record_heartbeat(self, sender: NodeId, now: int) -> None:
        """Refresh a member's liveness; a falsely suspected node rejoins."""
        if sender not in self.members:
            raise UnknownNode(f"heartbeat from undeclared node {sender}")
        if sender in self.crashed:
            return  # a crash-stopped node never rejoins
        self.view.last_heartbeat[sender] = now
        if sender not in self.view.alive:
            self.view.alive.add(sender)
            self.bus.log("Rejoin", node=sender)
            self.on_change()

    def detect_failures(self, now: int) -> set[NodeId]:
        """Drop every node silent for longer than suspect_after.

        Returns the newly removed set. If the leader is among them, a new
        leader is elected before the single change notification goes out.
        """
        removed = {
            node for node in sorted(self.view.alive)
            if now - self.view.last_heartbeat[node] > self.suspect_after
        }
        if not removed:
            return removed
        for node in sorted(removed):
            self.view.alive.discard(node)
            self.bus.log("Failure", node=node)
        if self.view.leader not in self.view.alive:
            self.elect_leader()
        self.on_change()
        return removed

    def elect_leader(self) -> NodeId:
        """Predefined strategy: the smallest alive node id leads."""
        if not self.view.alive:
            self.bus.log("Halt", reason="EmptyGroup")
            raise EmptyGroup("no alive members left to lead")
        self.view.leader = min(self.view.alive)
        self.view.epoch += 1
        self.bus.log("Election", epoch=self.view.epoch, leader=self.view.leader)
        self.on_election()
        return self.view.leader

    def mark_crashed(self, node: NodeId) -> None:
        """Record a crash-stop so stray pre-crash heartbeats cannot rejoin it.

        Detection itself still happens through heartbeat silence.
        """
        if node in self.members:
            self.crashed.add(node)
