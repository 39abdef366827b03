"""Replica-side protocol logic: the promise rule plus request execution.

An acceptor answers Prepare with Promise(n) when the incoming number n beats
everything it has promised before (refusal is silence), and on AcceptRequest
executes the request, steps its state machine, and reports the result triple
to the learner only: the proposer does not wait for acceptances.

Requests are executed strictly in slot order, each at most once. Each
executed slot keeps the number and request it was executed under beside its
result, so that a proposal retried under a higher number (after a leader
change or a timeout) is answered from the cache instead of being executed
again, which would fork this replica's state off the others, and so that a
lagging peer can be sent the slot as a Decided packet. A Decided packet is
executed by the same step as an AcceptRequest, but only when its slot is the
next one to execute; it moves no promise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .messages import Accepted, AcceptRequest, Decided, Prepare, Promise, ProposalNumber
from .statemachine import AppModel, RuntimeState, StateMachineDef, apply, execute, initial_state

CATCH_UP_LIMIT = 64  # Decided packets sent in answer to one CatchUp


@dataclass
class Acceptor:
    definition: StateMachineDef
    model: AppModel
    highest_promised: ProposalNumber | None = None
    machine: RuntimeState = None  # type: ignore[assignment]
    output_override: dict[str, str] = field(default_factory=dict)
    # Execution cursor and per-slot cache: (the packet the slot was executed from, which
    # holds its number and request; output; new state).
    next_slot: int = 0
    executed: dict[int, tuple[AcceptRequest | Decided, str, str]] = field(default_factory=dict)

    def __post_init__(self):
        if self.machine is None:
            self.machine = initial_state(self.definition)

    def on_prepare(self, p: Prepare) -> Promise | None:
        """Promise iff p.n beats the highest number promised so far; else stay silent."""
        if self.highest_promised is None or p.n > self.highest_promised:
            self.highest_promised = p.n
            return Promise(n=p.n)
        return None

    def on_accept_request(self, a: AcceptRequest) -> Accepted | None:
        """Execute the request (or answer from cache) and report the result triple.

        Stale accept-requests (numbered below the current promise) are dropped.
        Slots ahead of the execution cursor are also refused: executing them
        would skip requests this replica never saw. The caller holds such a
        request, and hands it over once the gap before it is filled, by
        other AcceptRequests or by its peers' Decided packets.
        """
        if self.highest_promised is not None and a.n < self.highest_promised:
            return None
        slot = a.request.request_id
        if slot > self.next_slot:
            return None

        if self.highest_promised is None or a.n > self.highest_promised:
            self.highest_promised = a.n

        if slot == self.next_slot:
            self._execute(a)
        return self._report(a.n, slot)

    def on_decided(self, d: Decided) -> Accepted | None:
        """Execute a slot a peer has executed, if it is the next slot; report its triple.

        Any other slot is ignored, not buffered: an earlier one is executed
        already, and a later one would skip a slot.
        """
        slot = d.request.request_id
        if slot != self.next_slot:
            return None
        self._execute(d)
        return self._report(d.n, slot)

    def decided_from(self, from_slot: int) -> list[Decided]:
        """The executed slots from from_slot on, at most CATCH_UP_LIMIT of them, in slot order."""
        end = min(self.next_slot, from_slot + CATCH_UP_LIMIT)
        packets = (self.executed[slot][0] for slot in range(from_slot, end))
        return [Decided(n=p.n, request=p.request) for p in packets]

    def report_of(self, slot: int) -> Accepted:
        """An executed slot's triple, as reported when it was executed."""
        return self._report(self.executed[slot][0].n, slot)

    def _execute(self, packet: AcceptRequest | Decided) -> None:
        """Run the next slot's request, step the state machine and cache the result."""
        output = self._produce_output(packet)
        self.machine = apply(self.definition, self.machine, packet.request.payload, output)
        self.executed[self.next_slot] = (packet, output, self.machine.current)
        self.next_slot += 1

    def _report(self, n: ProposalNumber, slot: int) -> Accepted:
        _, output, new_state = self.executed[slot]
        return Accepted(n=n, request_id=slot, output=output, new_state=new_state)

    def _produce_output(self, a: AcceptRequest | Decided) -> str:
        if a.request.payload in self.output_override:
            return self.output_override[a.request.payload]
        return execute(self.model, a.request)

    def compromise(self, override: dict[str, str]) -> None:
        """Install an output override table; protocol behaviour stays honest."""
        self.output_override = dict(override)
