"""Spans around calls into psl2units, recorded from outside the program.

A ``Tracer`` replaces a function in the namespace its caller looks it up
in (``psl2units.sweep.build_setup``, not ``finite_fields.build_setup``),
or a method on its class, with a wrapper that records a span: name,
start, end and the span that was open when it began.  Spans stay in
memory; ``dump`` writes them out at the end.  A layer's self time is its
spans' durations minus the durations of their child spans.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    # -- wrapping -----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Trace calls of owner.attr; count(counts, args, result) may add
        counters from the arguments and result of each call."""
        orig = owner.__dict__[attr]

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            i = self._open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                self._close(i)
            if count is not None:
                count(self.counts, args, result)
            return result

        self._install(owner, attr, orig, wrapper)

    def wrap_generator(self, owner, attr: str, name: str, count=None) -> None:
        """Trace each step of a generator function; count(counts, item)
        may add counters from each item it yields."""
        orig = owner.__dict__[attr]

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            it = orig(*args, **kwargs)
            while True:
                i = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(i)
                if count is not None:
                    count(self.counts, item)
                yield item

        self._install(owner, attr, orig, wrapper)

    def _install(self, owner, attr, orig, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def restore(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- results ------------------------------------------------------------

    def self_times(self, nested_only: bool = False) -> dict[str, float]:
        """Seconds per span name, each span minus its children; with
        nested_only, spans opened outside any other span are left out."""
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[i] - self.starts[i]
        out: dict[str, float] = defaultdict(float)
        for name, t, parent in zip(self.names, own, self.parents):
            if parent >= 0 or not nested_only:
                out[name] += t
        return out

    def dump(self, path) -> None:
        """One JSON line per span, start and end relative to the first."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as f:
            for i, name in enumerate(self.names):
                f.write(json.dumps({"id": i, "name": name, "parent": self.parents[i],
                                    "start_s": self.starts[i] - t0,
                                    "end_s": self.ends[i] - t0}) + "\n")
