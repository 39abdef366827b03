"""Leader-side protocol logic: numbering, quorum counting, retry.

Each replica holds one proposer for the whole run; only the membership
view's leader is handed requests. The proposer runs phase 1 once per epoch:
for the epoch's first request it takes a new number, broadcasts Prepare
(carrying that request) to every member of the view's alive set (itself
included, as an in-node hand-off that never touches the network), and once
a majority of that set has promised it keeps the number as the epoch's
promised one. Every request, the first included, then goes to
phase 2: an AcceptRequest broadcast under the promised number, done once a
majority of the set has accepted it. A phase that times out without reaching
majority opens phase 1 again under a strictly higher number, and an election
drops the promised number with everything else. The in-flight proposal is
in phase 2 exactly when the promised number is set. It keeps one vote set,
promises in phase 1 and acceptances in phase 2, and one majority check
drives both phase changes. An acceptance counts only for its own slot, since
one number spans all of the epoch's slots. A phase timeout holds the
in-flight proposal it guards and re-proposes only while that one is current.
Requests are driven one slot at a time, in slot order; the client submits
each request once per election. Rounds only grow past the highest the node
has proposed or seen, so none is ever reused.

All outward effects go through a bus object supplied by the host node,
with the surface: send(packet, dst), set_timer(tag, delay),
log(kind, **fields) and a shutting_down flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .messages import (
    Accepted,
    AcceptRequest,
    ClientRequest,
    NodeId,
    Prepare,
    Promise,
    ProposalNumber,
)


class ZeroMembership(ValueError):
    pass


def majority_threshold(membership_size: int) -> int:
    """Smallest count that is a strict majority of the given membership."""
    if membership_size < 1:
        raise ZeroMembership(f"membership size must be >= 1, got {membership_size}")
    return membership_size // 2 + 1


@dataclass
class InFlight:
    request: ClientRequest
    n: ProposalNumber
    votes: set[NodeId] = field(default_factory=set)  # promises, or acceptances once promised


class Proposer:
    """A node's proposer role for the whole run; idle unless its node leads.

    Its packets and records carry the view's epoch. That is safe only
    because every election stands every proposer down, so a deposed leader
    never proposes in its successor's epoch.
    """

    def __init__(self, node_id: NodeId, view, bus, timeout: int):
        self.id = node_id
        self.view = view  # its alive set is the group: broadcast targets and voters
        self.bus = bus
        self.timeout = timeout
        self.highest_round = -1  # the highest round this node has proposed or seen
        self.promised: ProposalNumber | None = None  # what a majority promised in this epoch
        self.in_flight: InFlight | None = None
        self.pending: list[ClientRequest] = []  # a list: an idle one costs little

    def note(self, round_: int) -> None:
        if round_ > self.highest_round:
            self.highest_round = round_

    def stand_down(self) -> None:
        """Drop every request and the promised number on an election; the client re-submits."""
        self.in_flight = None
        self.promised = None
        self.pending.clear()

    # -- client side -------------------------------------------------------

    def submit(self, request: ClientRequest) -> None:
        if self.in_flight is not None:
            self.pending.append(request)
        else:
            self._start(request)

    # -- packet handlers ----------------------------------------------------

    def on_promise(self, p: Promise, src: NodeId) -> None:
        # Once promised, a late promise for the promised number is no acceptance.
        if self.promised is None:
            self._vote(p.n, src)

    def on_accepted(self, a: Accepted, src: NodeId) -> None:
        flight = self.in_flight
        # The promised number spans the epoch's slots: a late acceptance of an
        # earlier slot carries this slot's n too. No acceptance carries a phase-1
        # flight's n, which no AcceptRequest has carried yet.
        if flight is not None and a.request_id == flight.request.request_id:
            self._vote(a.n, src)

    # -- timers and membership ----------------------------------------------

    def on_phase_timeout(self, flight: InFlight) -> None:
        """Re-propose the flight's request, unless the flight has ended or been superseded."""
        if flight is self.in_flight and not self.bus.shutting_down:
            self._propose(flight.request, "Repropose")

    def on_membership_change(self) -> None:
        """Re-evaluate the majority against the view's changed alive set immediately.

        Votes from departed nodes are discarded before the threshold is
        recomputed, so a stalled 3-of-6 can become a satisfied 3-of-5
        without waiting for a timeout.
        """
        flight = self.in_flight
        if flight is not None:
            flight.votes &= self.view.alive
            self._check_majority()

    # -- internals -----------------------------------------------------------

    def _start(self, request: ClientRequest) -> None:
        """Send a request to phase 2 under the promised number, or to phase 1 for one."""
        if self.promised is None:
            self._propose(request, "Propose")
        else:
            self._accept(request)

    def _propose(self, request: ClientRequest, kind: str) -> None:
        """Open phase 1 for a request under a new number: kind Propose, or Repropose after a
        timeout."""
        self.highest_round += 1
        n = ProposalNumber(self.highest_round, self.id)
        self.promised = None
        self.in_flight = InFlight(request=request, n=n)
        self.bus.log(kind, **{"from": self.id, "req": request.request_id,
                              "n": n, "epoch": self.view.epoch})
        self._broadcast(Prepare(n=n, request=request, epoch=self.view.epoch))

    def _accept(self, request: ClientRequest) -> None:
        """Open phase 2 for a request under the promised number."""
        self.in_flight = InFlight(request=request, n=self.promised)
        self._broadcast(AcceptRequest(n=self.promised, request=request, epoch=self.view.epoch))

    def _broadcast(self, packet: Prepare | AcceptRequest) -> None:
        """Send to every alive member, then arm the in-flight phase's timeout."""
        flight = self.in_flight
        for member in sorted(self.view.alive):
            self.bus.send(packet, member)
        self.bus.set_timer(("phase", flight), self.timeout)

    def _vote(self, n: ProposalNumber, src: NodeId) -> None:
        flight = self.in_flight
        if flight is None or n != flight.n or src not in self.view.alive:
            return  # stale, foreign or from a non-member
        flight.votes.add(src)
        self._check_majority()

    def _check_majority(self) -> None:
        flight = self.in_flight
        membership = len(self.view.alive)
        if len(flight.votes) < majority_threshold(membership):
            return
        if self.promised is None:
            self.bus.log("MajorityReached", **{"from": self.id, "req": flight.request.request_id,
                                               "n": flight.n, "promises": len(flight.votes),
                                               "membership": membership})
            self.promised = flight.n
            self._accept(flight.request)
        else:
            self.in_flight = None
            if self.pending:
                self._start(self.pending.pop(0))
