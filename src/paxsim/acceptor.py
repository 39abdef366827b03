"""Replica-side protocol logic: the promise rule plus request execution.

An acceptor answers Prepare with Promise(n) when the incoming number n beats
everything it has promised before (refusal is silence), and on AcceptRequest
executes the request, steps its state machine, and reports the result (output
and new state) to the learner only: the proposer does not wait for acceptances.

Requests are executed strictly in slot order, each at most once. Each
executed slot keeps its request and the Accepted it was reported in, built
once as it executes, so that a proposal retried under a higher number (after
a leader change or a timeout) and a learner's Query are answered with that
same report instead of executing again, which would fork this replica's
state off the others, and so that a lagging peer can be sent the slot as a
Decided packet. A Decided packet is executed by the same step as an
AcceptRequest, but only when its slot is the next one to execute; it moves
no promise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .messages import (Accepted, AcceptRequest, ClientRequest, Decided, Prepare, Promise,
                       ProposalNumber)
from .statemachine import AppModel, RuntimeState, StateMachineDef, apply, execute, initial_state

CATCH_UP_LIMIT = 64  # Decided packets sent in answer to one CatchUp


@dataclass
class Acceptor:
    definition: StateMachineDef
    model: AppModel
    highest_promised: ProposalNumber | None = None
    machine: RuntimeState = None  # type: ignore[assignment]
    output_override: dict[str, str] = field(default_factory=dict)
    # Execution cursor and per-slot cache: (the slot's request, the Accepted it reported).
    next_slot: int = 0
    executed: dict[int, tuple[ClientRequest, Accepted]] = field(default_factory=dict)

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
        """Execute the request if its slot is next, and return the slot's cached report.

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
            self._execute(a.request)
        return self.executed[slot][1]

    def on_decided(self, d: Decided) -> Accepted | None:
        """Execute a slot a peer has executed, if it is the next slot; return its report.

        Any other slot is ignored, not buffered: an earlier one is executed
        already, and a later one would skip a slot.
        """
        slot = d.request.request_id
        if slot != self.next_slot:
            return None
        return self._execute(d.request)

    def decided_from(self, from_slot: int) -> list[Decided]:
        """The executed slots from from_slot on, at most CATCH_UP_LIMIT of them, in slot order."""
        end = min(self.next_slot, from_slot + CATCH_UP_LIMIT)
        return [Decided(request=self.executed[slot][0]) for slot in range(from_slot, end)]

    def report_of(self, slot: int) -> Accepted:
        """An executed slot's Accepted, the one reported when it was executed."""
        return self.executed[slot][1]

    def _execute(self, request: ClientRequest) -> Accepted:
        """Run the next slot's request, step the state machine, and cache and return its report."""
        output = self._produce_output(request)
        self.machine = apply(self.definition, self.machine, request.payload, output)
        report = Accepted(request_id=self.next_slot, output=output, new_state=self.machine.current)
        self.executed[self.next_slot] = (request, report)
        self.next_slot += 1
        return report

    def _produce_output(self, request: ClientRequest) -> str:
        if request.payload in self.output_override:
            return self.output_override[request.payload]
        return execute(self.model, request)

    def compromise(self, override: dict[str, str]) -> None:
        """Install an output override table; protocol behaviour stays honest."""
        self.output_override = dict(override)
