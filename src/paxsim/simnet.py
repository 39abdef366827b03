"""Deterministic discrete-event network: packets and timers, nothing else.

The queue is a heap of plain tuples ordered by (time, seq): a packet
delivery is (time, seq, dst, packet, src), a node's timer is
(time, seq, owner, None, tag), and a packet a node sends itself is an
in-node hand-off, (now, seq, node, packet, None). seq is assigned at
scheduling time and is unique, so the comparison never reaches the third
field. The simulation owns the event loop: run(horizon) steps through the
queue until it drains or its next event lies past the horizon. The loop
runs with the cyclic collector paused: its events, packets and records are
acyclic, so reference counting frees all it drops, and the caller's
collector state comes back when it returns or raises.

Simulated time is integer-valued and all randomness flows from one seeded
generator with a fixed draw order: draws happen only on network sends, in
send(), first the loss draw, then (for surviving packets, when jitter > 0)
the extra-delay draw. A hand-off makes no draw. Identical (scenario, seed)
pairs therefore produce byte-identical event logs. The extra delay is drawn
as randint(0, jitter) draws it: getrandbits of (jitter + 1).bit_length()
bits, redrawn while it exceeds jitter. send() makes those calls itself, so
the stream is the same.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from heapq import heappop, heappush

from .eventlog import Delivery, Record, collector_paused
from .messages import NodeId, Packet


class QueueEmpty(RuntimeError):
    pass


@dataclass(frozen=True, slots=True)
class NetConfig:
    seed: int
    base_delay: int = 1
    jitter: int = 0
    loss_rate: float = 0.0


class Simulation:
    """Single-threaded event loop over a registry of node objects.

    Nodes implement on_packet(packet, src, now) and on_timer(tag, now).
    Nodes listed in crashed (the caller fills it) send nothing and silently
    lose their timers and hand-offs; deliveries to them are logged as
    DiscardCrashed.
    """

    def __init__(self, config: NetConfig):
        self.base_delay = config.base_delay
        self.jitter = config.jitter
        self._jitter_bits = (config.jitter + 1).bit_length()
        self.loss_rate = config.loss_rate
        self.rng = random.Random(config.seed)
        self.now = 0
        self._seq = 0
        self._record_seq = 0
        self._queue: list[tuple] = []
        self.nodes: dict[NodeId, object] = {}
        self.crashed: set[NodeId] = set()
        self.records: list[Record | Delivery] = []
        self.record_kinds: Counter[str] = Counter()  # of the logged records; no Delivery
        self.shutting_down = False

    # -- logging -------------------------------------------------------------

    def log(self, kind: str, **fields) -> None:
        self.records.append(Record(time=self.now, seq=self._record_seq, kind=kind, fields=fields))
        self.record_kinds[kind] += 1
        self._record_seq += 1

    # -- scheduling ------------------------------------------------------------

    def send(self, packet: Packet, src: NodeId, dst: NodeId) -> None:
        """Schedule delivery with seeded loss and delay; crashed senders emit nothing.

        A packet to src itself never touches the network: it is handed off at
        this tick, after the events already queued for it, with no draw and
        no Delivery record.
        """
        if src in self.crashed:
            return
        if src == dst:
            heappush(self._queue, (self.now, self._seq, dst, packet, None))
            self._seq += 1
            return
        if self.rng.random() < self.loss_rate:
            self.log("Drop", pkt=packet.kind, **{"from": src, "to": dst})
            return
        delay = self.base_delay
        if self.jitter > 0:
            extra = self.rng.getrandbits(self._jitter_bits)
            while extra > self.jitter:
                extra = self.rng.getrandbits(self._jitter_bits)
            delay += extra
        heappush(self._queue, (self.now + delay, self._seq, dst, packet, src))
        self._seq += 1

    def set_timer(self, owner: NodeId, tag: tuple, delay: int) -> None:
        heappush(self._queue, (self.now + delay, self._seq, owner, None, tag))
        self._seq += 1

    def request_shutdown(self) -> None:
        """Stop periodic activity; already queued events still run."""
        self.shutting_down = True

    # -- event loop -------------------------------------------------------------

    def pending(self) -> int:
        return len(self._queue)

    def step(self) -> None:
        """Process exactly the earliest (time, seq) event."""
        try:
            time, _, node, packet, info = heappop(self._queue)
        except IndexError:
            raise QueueEmpty("step on an empty event queue") from None
        if time == self.now:
            time = self.now  # one int per tick, shared by every record made at it
        else:
            self.now = time
        if packet is None:  # a timer; info is its tag
            if node not in self.crashed:
                self.nodes[node].on_timer(info, time)
        elif info is None:  # a hand-off from the node to itself
            if node not in self.crashed:
                self.nodes[node].on_packet(packet, node, time)
        elif node in self.crashed:  # info is the sender
            self.log("DiscardCrashed", pkt=packet.kind, **{"from": info, "to": node})
        else:
            self.records.append(Delivery(time, self._record_seq, packet, info, node))
            self._record_seq += 1
            self.nodes[node].on_packet(packet, info, time)

    def run(self, horizon: float) -> bool:
        """Step event by event; True when stopped at an event past horizon, False when drained."""
        queue = self._queue
        step = self.step
        with collector_paused():
            while queue:
                if queue[0][0] > horizon:
                    return True
                step()
        return False
