"""Leader-side protocol logic: numbering, the phase-1 quorum, retry.

Each replica holds one proposer for the whole run; only the membership
view's leader is handed requests. The proposer runs phase 1 once per epoch:
for the epoch's first request it takes a new number, broadcasts Prepare (the
number and epoch alone; InFlight keeps the request) to every member of the
view's alive set (itself included, as an in-node hand-off that never touches
the network), and once a majority of that set has promised it keeps the
number as the epoch's promised one. A request submitted meanwhile waits in
pending. Phase 2 is one AcceptRequest broadcast under the promised number,
with no vote count and no timer: the first request goes out as the majority
is reached, the pending ones right after it in the order they were submitted
(slot order), and every later one as soon as it is submitted, with no
request waiting for the slot before it. Acceptors report each acceptance to
the learner only; a slot is its request's index, so the proposer has no
value to learn from an acceptance, and nothing acts on a slot's outcome but
the learner. A phase 1 that times out without reaching majority opens again
under a strictly higher number, and an election drops the promised number
with everything else. The in-flight proposal is the phase-1 one, so it is
set exactly while phase 1 runs. A phase timeout holds the in-flight proposal
it guards and re-proposes only while that one is current. The client submits
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
    """The epoch's phase 1: its first request, the number it runs under and the promises."""

    request: ClientRequest
    n: ProposalNumber
    votes: set[NodeId] = field(default_factory=set)


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
        self.in_flight: InFlight | None = None  # the phase 1 running, if one is
        self.pending: list[ClientRequest] = []  # submitted during phase 1, in order

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
        """Send a request to phase 2 under the promised number, or hold it for phase 1's end."""
        if self.promised is not None:
            self._accept(request)
        elif self.in_flight is not None:
            self.pending.append(request)
        else:
            self._propose(request, "Propose")

    # -- packet handlers ----------------------------------------------------

    def on_promise(self, p: Promise, src: NodeId) -> None:
        flight = self.in_flight
        if flight is None or p.n != flight.n or src not in self.view.alive:
            return  # late (phase 1 is over), stale, foreign or from a non-member
        flight.votes.add(src)
        self._check_majority()

    def on_accepted(self, a: Accepted, src: NodeId) -> None:
        """Ignore an acceptance: acceptors report to the learner only, so none arrives here.

        Kept, as a no-op, only because the benchmark's tracer wraps this
        method by name.
        """

    # -- timers and membership ----------------------------------------------

    def on_phase_timeout(self, flight: InFlight) -> None:
        """Re-propose phase 1's request, unless that phase 1 has ended or been superseded."""
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

    def _propose(self, request: ClientRequest, kind: str) -> None:
        """Open phase 1 for a request under a new number: kind Propose, or Repropose after a
        timeout."""
        self.highest_round += 1
        n = ProposalNumber(self.highest_round, self.id)
        self.in_flight = InFlight(request=request, n=n)
        self.bus.log(kind, **{"from": self.id, "req": request.request_id,
                              "n": n, "epoch": self.view.epoch})
        self._broadcast(Prepare(n=n, epoch=self.view.epoch))
        self.bus.set_timer(("phase", self.in_flight), self.timeout)

    def _accept(self, request: ClientRequest) -> None:
        """Send a request to phase 2 under the promised number; nothing waits for its outcome."""
        self._broadcast(AcceptRequest(n=self.promised, request=request, epoch=self.view.epoch))

    def _broadcast(self, packet: Prepare | AcceptRequest) -> None:
        for member in sorted(self.view.alive):
            self.bus.send(packet, member)

    def _check_majority(self) -> None:
        flight = self.in_flight
        membership = len(self.view.alive)
        if len(flight.votes) < majority_threshold(membership):
            return
        self.bus.log("MajorityReached", **{"from": self.id, "req": flight.request.request_id,
                                           "n": flight.n, "promises": len(flight.votes),
                                           "membership": membership})
        self.promised = flight.n
        self.in_flight = None
        self._accept(flight.request)
        for request in self.pending:
            self._accept(request)
        self.pending.clear()
