"""Replica-side protocol logic: the promise rule plus request execution.

An acceptor answers Prepare with Promise when the incoming number beats
everything it has promised before (refusal is silence), and on AcceptRequest
executes the request, steps its state machine, and reports the result triple
to both the proposer and the learner.

Requests are executed strictly in slot order, each at most once. Results are
cached per slot so that a proposal retried under a higher number (after a
leader change or a timeout) is answered from the cache instead of being
executed again, which would fork this replica's state off the others.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .messages import Accepted, AcceptRequest, NodeId, Prepare, Promise, ProposalNumber
from .statemachine import AppModel, RuntimeState, StateMachineDef, apply, execute, initial_state


@dataclass
class Acceptor:
    id: NodeId
    definition: StateMachineDef
    model: AppModel
    highest_promised: ProposalNumber | None = None
    last_served: ProposalNumber | None = None
    machine: RuntimeState = None  # type: ignore[assignment]
    output_override: dict[str, str] = field(default_factory=dict)
    # Execution cursor and per-slot result cache (output, new state).
    next_slot: int = 0
    executed: dict[int, tuple[str, str]] = field(default_factory=dict)

    def __post_init__(self):
        if self.machine is None:
            self.machine = initial_state(self.definition)

    def on_prepare(self, p: Prepare) -> Promise | None:
        """Promise iff p.n beats the highest number promised so far; else stay silent."""
        if self.highest_promised is None or p.n > self.highest_promised:
            promise = Promise(n=p.n, last_served=self.last_served, sender=self.id)
            self.highest_promised = p.n
            return promise
        return None

    def on_accept_request(self, a: AcceptRequest) -> Accepted | None:
        """Execute the request (or answer from cache) and report the result triple.

        Stale accept-requests (numbered below the current promise) are dropped.
        Slots ahead of the execution cursor are also dropped: executing them
        would skip requests this replica never saw.
        """
        if self.highest_promised is not None and a.n < self.highest_promised:
            return None
        slot = a.request.request_id
        if slot > self.next_slot:
            return None

        if self.highest_promised is None or a.n > self.highest_promised:
            self.highest_promised = a.n

        if slot == self.next_slot:
            output = self._produce_output(a)
            self.machine = apply(self.definition, self.machine, a.request.payload, output)
            self.executed[slot] = (output, self.machine.current)
            self.next_slot += 1
        output, new_state = self.executed[slot]
        self.last_served = a.n
        return Accepted(n=a.n, request_id=slot, output=output, new_state=new_state, sender=self.id)

    def _produce_output(self, a: AcceptRequest) -> str:
        if a.request.payload in self.output_override:
            return self.output_override[a.request.payload]
        return execute(self.model, a.request)

    def compromise(self, override: dict[str, str]) -> None:
        """Install an output override table; protocol behaviour stays honest."""
        self.output_override = dict(override)
