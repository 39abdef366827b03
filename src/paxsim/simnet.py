"""Deterministic discrete-event network: packets and timers, nothing else.

The queue holds two kinds of action, a packet delivery and a node's timer.
Simulated time is integer-valued and all randomness flows from one seeded
generator with a fixed draw order: draws happen only inside send(), first
the loss draw, then (for surviving packets, when jitter > 0) the extra-delay
draw. Events are processed in strict (time, seq) order, seq being assigned
at scheduling time. Identical (scenario, seed) pairs therefore produce
byte-identical event logs.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass

from .eventlog import Delivery, Record
from .messages import NodeId, Packet


class QueueEmpty(RuntimeError):
    pass


@dataclass(frozen=True, slots=True)
class NetConfig:
    seed: int
    base_delay: int = 1
    jitter: int = 0
    loss_rate: float = 0.0


@dataclass(slots=True)
class Deliver:
    packet: Packet
    src: NodeId
    dst: NodeId


@dataclass(slots=True)
class Timer:
    owner: NodeId
    tag: tuple


Action = Deliver | Timer


class Simulation:
    """Single-threaded event loop over a registry of node objects.

    Nodes implement on_packet(packet, src, now) and on_timer(tag, now).
    Nodes listed in crashed (the caller fills it) send nothing and silently
    lose their timers; deliveries to them are logged as DiscardCrashed.
    """

    def __init__(self, config: NetConfig):
        self.config = config
        self.rng = random.Random(config.seed)
        self.now = 0
        self._seq = 0
        self._record_seq = 0
        self._queue: list[tuple[int, int, Action]] = []
        self.nodes: dict[NodeId, object] = {}
        self.crashed: set[NodeId] = set()
        self.records: list[Record | Delivery] = []
        self.shutting_down = False

    # -- logging -------------------------------------------------------------

    def log(self, kind: str, **fields) -> None:
        self.records.append(Record(time=self.now, seq=self._record_seq, kind=kind, fields=fields))
        self._record_seq += 1

    # -- scheduling ------------------------------------------------------------

    def _push(self, time: int, action: Action) -> None:
        heapq.heappush(self._queue, (time, self._seq, action))
        self._seq += 1

    def send(self, packet: Packet, src: NodeId, dst: NodeId) -> None:
        """Schedule delivery with seeded loss and delay; crashed senders emit nothing."""
        if src in self.crashed:
            return
        if self.rng.random() < self.config.loss_rate:
            self.log("Drop", pkt=packet.kind, **{"from": src, "to": dst})
            return
        delay = self.config.base_delay
        if self.config.jitter > 0:
            delay += self.rng.randint(0, self.config.jitter)
        self._push(self.now + delay, Deliver(packet=packet, src=src, dst=dst))

    def set_timer(self, owner: NodeId, tag: tuple, delay: int) -> None:
        self._push(self.now + delay, Timer(owner=owner, tag=tag))

    def request_shutdown(self) -> None:
        """Stop periodic activity; already queued events still run."""
        self.shutting_down = True

    # -- event loop -------------------------------------------------------------

    def pending(self) -> int:
        return len(self._queue)

    def peek_time(self) -> int | None:
        return self._queue[0][0] if self._queue else None

    def step(self) -> None:
        """Process exactly the earliest (time, seq) event."""
        if not self._queue:
            raise QueueEmpty("step on an empty event queue")
        time, _, action = heapq.heappop(self._queue)
        self.now = time
        self._dispatch(action)

    def run_until(self, t: int) -> None:
        while self._queue and self._queue[0][0] <= t:
            self.step()
        self.now = max(self.now, t)

    def run_to_quiescence(self) -> int:
        """Drain the queue completely; returns the final simulated time."""
        while self._queue:
            self.step()
        return self.now

    # -- dispatch ---------------------------------------------------------------

    def _dispatch(self, action: Action) -> None:
        if isinstance(action, Deliver):
            if action.dst in self.crashed:
                self.log("DiscardCrashed", pkt=action.packet.kind,
                         **{"from": action.src, "to": action.dst})
                return
            self.records.append(Delivery(self.now, self._record_seq, action.packet,
                                         action.src, action.dst))
            self._record_seq += 1
            self.nodes[action.dst].on_packet(action.packet, action.src, self.now)
        elif action.owner not in self.crashed:
            self.nodes[action.owner].on_timer(action.tag, self.now)
