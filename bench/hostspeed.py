"""Host-speed calibration for the benchmark's timings.

The benchmark's host shares its cores: the same code runs up to twice as
slow while a neighbour is busy, switching from under a second to minutes at
a time, and process CPU time slows exactly as much as wall time. A fixed
set of pure-Python kernels, timed right before and right after each call,
slows with it, so each call is reported as its wall time divided by the
kernels' time beside it: how many kernel passes the call was worth.
Multiplying by the kernels' time on the reference host (``REFERENCE_S``)
turns that back into seconds, the seconds the call takes on that host at
its uncontended speed.

A change to the program moves the call's time and not the kernels', so it
shows in full; a slowdown of the whole host moves both and cancels. The
kernels differ in what they lean on (dictionaries, a walk through a few
megabytes, string matching, tree walking, many small calls), because a busy
neighbour slows some kinds of code more than others; one kernel alone
tracked the program's slowdowns less well than their geometric mean.
"""

from __future__ import annotations

import ast
import difflib
import heapq
import io
import math
import pickle
import random
import time

# The kernels' geometric-mean time per pass on the reference host, a 2-vCPU
# Intel Xeon VM running Python 3.11, at its fastest; see README "Host time".
REFERENCE_S = 0.00022

_rng = random.Random(0)

# About 3 MB of small records, more than a core's own caches hold, walked in
# a fixed shuffled order, so that the walk waits on memory as the program does.
_RECORDS = [(i, f"n={i}.{i % 7}", 3 * i) for i in range(20000)]
_ORDER = _rng.sample(range(len(_RECORDS)), len(_RECORDS))
_STEPS = 400
_cursor = 0


def _walk():
    global _cursor
    counts = {}
    for index in _ORDER[_cursor:_cursor + _STEPS]:
        number, text, slot = _RECORDS[index]
        _, value = text.split("=")
        counts[number % 97] = counts.get(number % 97, 0) + slot + len(value)
    _cursor = (_cursor + _STEPS) % len(_ORDER)
    return counts


_WORDS = [f"w{_rng.randrange(30)}" for _ in range(50)]
_EDITED = ["x" if i % 7 == 0 else word for i, word in enumerate(_WORDS)]


def _diff():
    return difflib.SequenceMatcher(None, _WORDS, _EDITED).ratio()


_TREE = ast.parse('''
class Ledger:
    def __init__(self, slot, members):
        self.slot = slot
        self.reports = {member: None for member in members}

    def add(self, member, value, round_):
        if round_ < 0 or member not in self.reports:
            raise ValueError(f"bad report {member} {round_}")
        self.reports[member] = (round_, value)
        return all(report is not None for report in self.reports.values())

    def decide(self):
        best = max(r[0] for r in self.reports.values() if r)
        values = [r[1] for r in self.reports.values() if r and r[0] == best]
        return values[0] if len(set(values)) == 1 else None
''')


def _unparse():
    return len(ast.unparse(_TREE))


_ROWS = [{"time": i, "kind": "Accepted", "fields": {"n": f"{i}.1", "req": i % 13}}
         for i in range(8)]


def _pickle():
    buffer = io.BytesIO()
    pickle._Pickler(buffer).dump(_ROWS)  # the pure-Python pickler, not the C one
    buffer.seek(0)
    return pickle._Unpickler(buffer).load()


class _Node:
    def __init__(self, number):
        self.number = number
        self.seen = {}

    def on_message(self, now, message):
        sender, count = message
        self.seen[sender] = self.seen.get(sender, 0) + 1
        return (self.number, count + 1) if count < 40 else None


def _events():
    nodes = [_Node(i) for i in range(5)]
    queue = [(0, i, (i, 0), i) for i in range(5)]
    seq = len(queue)
    for _ in range(150):
        now, _, message, target = heapq.heappop(queue)
        reply = nodes[target].on_message(now, message)
        if reply:
            seq += 1
            heapq.heappush(queue, (now + 1 + seq % 3, seq, reply, (target + 1) % 5))
    return seq


KERNELS = (_walk, _diff, _unparse, _pickle, _events)


def sample() -> float:
    """One pass of every kernel; the geometric mean of their times, in seconds."""
    log_sum = 0.0
    for kernel in KERNELS:
        start = time.perf_counter()
        kernel()
        log_sum += math.log(time.perf_counter() - start)
    return math.exp(log_sum / len(KERNELS))


class Meter:
    """Times calls, each between two calibration samples."""

    def __init__(self):
        for _ in range(20):
            sample()  # warm the kernels before their first sample counts
        self.last = sample()

    def call(self, fn, *args):
        """fn(*args), its wall seconds and its reference seconds."""
        before = self.last
        start = time.perf_counter()
        result = fn(*args)
        seconds = time.perf_counter() - start
        self.last = sample()
        return result, seconds, seconds * REFERENCE_S * 2 / (before + self.last)
