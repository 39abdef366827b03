"""Span tracing from outside the program.

``Tracer.wrap`` replaces a function or method with a wrapper that records a
span (name, start, end, parent) around each call. Spans are kept in flat
arrays while a round runs; ``self_times`` turns them into per-name self
time (a span's duration minus the durations of its direct children) and
call counts.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def clear(self) -> None:
        for column in (self.name, self.parent, self.start, self.end):
            del column[:]

    def _open(self, name_id: int) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, owner, attr: str, name: str, hook=None, where=()) -> None:
        """Trace owner.attr, and every module in ``where`` that imported it by name.

        hook(result, args), if given, runs inside the span after each call.
        """
        original = getattr(owner, attr)
        name_id = self._id(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            index = open_(name_id)
            try:
                result = original(*args, **kwargs)
                if hook is not None:
                    hook(result, args)
                return result
            finally:
                close(index)

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        for module in where:
            if getattr(module, attr, None) is original:
                setattr(module, attr, traced)

    def columns(self):
        """The current round's spans as parallel (name, start, end, parent) columns."""
        return [self.names[n] for n in self.name], self.start, self.end, self.parent

    def dump(self, path) -> None:
        """Write the current round's spans, one tab-separated line each."""
        names, start, end, parent = self.columns()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\n")
            fh.writelines(f"{n}\t{s:.9f}\t{e:.9f}\t{p}\n"
                          for n, s, e, p in zip(names, start, end, parent))


def self_times(name, start, end, parent):
    """Self time and call count per span name, and self time per (root, name).

    ``name``, ``start``, ``end`` and ``parent`` are parallel columns; parent
    is the index of the enclosing span or -1, and a span always comes after
    its parent. A span's self time is its duration minus its children's.
    """
    count = len(name)
    child = [0.0] * count
    root = list(range(count))
    for i in range(count):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
            root[i] = root[p]
    own: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    by_root: dict = defaultdict(float)
    for i in range(count):
        self_time = end[i] - start[i] - child[i]
        own[name[i]] += self_time
        calls[name[i]] += 1
        by_root[name[root[i]], name[i]] += self_time
    return dict(own), dict(calls), dict(by_root)
