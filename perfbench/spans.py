"""Span recorder that reaches the program's layers from outside.

``Tracer.install`` replaces each public function under the name its
caller looks it up by (``kan.bspline_basis``, ``training.extract``,
``cli.save_checkpoint`` ...) with a wrapper that records a span: name,
start, end, parent span and a few counts. ``Tracer.restore`` puts the
originals back. Spans stay in memory until ``write`` is called.

A span's self time is its duration minus the part of that interval its
child spans cover. The program is single-threaded, so the spans nest and
the self times of all spans under a root add up to the root's duration.
The root's own self time is the part no probe below the entry point
covers (``unattributed_s``).
"""

from __future__ import annotations

import functools
import json
import math
import os
import time


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name, start, end, parent, counts=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent  # index into the span list, or None
        self.counts = counts


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name, fn, count=None):
        """Wrap ``fn`` so each call records a span; ``count(args, kwargs, result)`` -> dict."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        return traced

    def install(self, owner, attr, name, count=None):
        """Replace ``owner.attr`` (module or class attribute) with a traced wrapper."""
        raw = owner.__dict__[attr]
        self._saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, count)))
        else:
            setattr(owner, attr, self.wrap(name, raw, count))

    def restore(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def write(self, path):
        names = sorted({s.name for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        payload = {
            "names": names,
            "fields": ["name", "start", "end", "parent", "counts"],
            "spans": [[code[s.name], s.start, s.end, s.parent, s.counts] for s in self.spans],
        }
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)


def self_times(spans) -> list[float]:
    """Per span: duration minus the union of its direct children's intervals."""
    children: dict[int, list] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(i, ()), key=lambda j: spans[j].start):
            lo = max(spans[c].start, reach)
            hi = min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def unattributed_s(spans) -> float:
    """Self time of the root spans: traced time that no probe below them covers."""
    return sum(own for span, own in zip(spans, self_times(spans)) if span.parent is None)


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one span adds to a call: a traced no-op minus a bare one, best of ``repeats``."""

    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap("noop", noop)
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter()
        for _ in range(calls):
            traced()
        best = min(best, ((time.perf_counter() - bare) - (bare - start)) / calls)
        tracer.spans.clear()
    return max(best, 0.0)


def summarize(spans) -> dict:
    """name -> {"self_s", "calls", "durations", summed counts}."""
    table: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span.name, {"self_s": 0.0, "calls": 0, "durations": []})
        row["self_s"] += own
        row["calls"] += 1
        row["durations"].append(span.end - span.start)
        for key, value in (span.counts or {}).items():
            row[key] = row.get(key, 0) + value
    return table
