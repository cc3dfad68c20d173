"""In-memory spans and counts around calls into the icnet modules.

Probes are installed from outside the package by replacing module (or
class) attributes with timed wrappers. Calls between modules go through the
module attribute (`T.conv2d_value`, `N.logit_sum_graph`, ...) and calls
inside a module go through its globals, which are the same attribute, so
one patch reaches both. Nothing under `src/` changes.

A span is (name, start, end, parent index); parent -1 marks a top-level
span. Self time is a span's duration minus the durations of its direct
children, which never overlap because the program is single-threaded.
"""

import functools
import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable

# CLOCK_MONOTONIC on Linux: comparable between the parent that spawns a
# worker and the worker itself, so setup and wall times can span both.
clock = time.monotonic


class Tracer:
    """Spans and counts of one worker process, kept in memory."""

    def __init__(self):
        self.spans = []       # (name, start, end, parent)
        self.counts = Counter()
        self.values = defaultdict(list)   # per-call observations
        self._stack = []

    def open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, clock(), None, parent))
        self._stack.append(index)
        return index

    def close(self, index):
        name, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, clock(), parent)
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {name!r} closed out of order")

    def record(self, name, start, end):
        """Add a finished span under the innermost open one."""
        self.spans.append((name, start, end, self._stack[-1] if self._stack else -1))

    def current(self):
        """Name of the innermost open span, or None."""
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap(self, fn, name, on_return=None):
        """`fn` wrapped in a span; `name` may be a callable of the call's
        (args, kwargs). `on_return(tracer, args, kwargs, result)` records
        counts after the span closes."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result
        return traced

    def count_calls(self, fn, key):
        """`fn` wrapped to count calls only (for very hot functions)."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    # -- derived quantities ----------------------------------------------------

    def durations(self, name):
        return [end - start for n, start, end, _ in self.spans if n == name]

    def by_name(self):
        """name -> [calls, total seconds, self seconds], in one pass."""
        inner = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                inner[parent] += end - start
        table = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _) in enumerate(self.spans):
            row = table[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - inner[i]
        return table

    def first_start(self, names):
        starts = [start for n, start, _, _ in self.spans if n in names]
        return min(starts) if starts else None

    def last_end(self, names):
        ends = [end for n, _, end, _ in self.spans if n in names]
        return max(ends) if ends else None

    def top_level_time(self):
        return sum(end - start for _, start, end, parent in self.spans
                   if parent < 0)

    def dump(self, path):
        """Write every span and count as one JSON document."""
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        doc = {"names": names,
               "spans": [[ids[n], round(s, 9), round(e, 9), p]
                         for n, s, e, p in self.spans],
               "counts": dict(self.counts)}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


@dataclass
class Probe:
    """Replace `owner.attr` with a traced wrapper (or a call counter)."""
    owner: object
    attr: str
    name: object = None          # span name or callable(args, kwargs)
    on_return: Callable = None
    count_only: str = None       # count key; no span


def install(tracer, probes):
    """Patch every probe in place; returns a function that undoes it."""
    undo = []
    for p in probes:
        original = getattr(p.owner, p.attr)
        if p.count_only:
            patched = tracer.count_calls(original, p.count_only)
        else:
            patched = tracer.wrap(original, p.name, p.on_return)
        setattr(p.owner, p.attr, patched)
        undo.append((p.owner, p.attr, original))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return uninstall


def quantile(values, q):
    """Linear-interpolation quantile of a non-empty list."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
