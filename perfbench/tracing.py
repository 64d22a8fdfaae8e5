"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded *around* calls into the program's public functions
and methods: :meth:`Recorder.patch` swaps an attribute (a bound method on
one object, or a function bound in a module) for a timed wrapper and
:meth:`Recorder.restore` puts every original back.  Nothing inside
``src/`` is edited, and untraced runs never patch anything, so their
timings carry no tracing cost at all.

Each span records its name, start, end, parent span and operation id.
Parents are tracked per thread (the service runs commands on executor
threads), and a span inherits the operation id of its thread's current
operation (:meth:`Recorder.operation`).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[str]
    thread: int


class Recorder:
    """Spans, kept in memory until :meth:`dump`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object, bool]] = []
        self._suspended = False

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def operation(self, op_id: str):
        """Tag every span this thread opens inside the block with ``op_id``."""
        previous = getattr(self._local, "op", None)
        self._local.op = op_id
        try:
            yield
        finally:
            self._local.op = previous

    @contextmanager
    def suspended(self):
        """Record nothing inside the block (probes that are not workload)."""
        self._suspended = True
        try:
            yield
        finally:
            self._suspended = False

    @contextmanager
    def span(self, name: str):
        if self._suspended:
            yield
            return
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            self.spans.append(
                Span(
                    name,
                    time.perf_counter(),
                    0.0,
                    stack[-1] if stack else None,
                    getattr(self._local, "op", None),
                    threading.get_ident(),
                )
            )
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            self.spans[index].end = time.perf_counter()

    def wrap(self, function: Callable, name: str) -> Callable:
        recorder = self

        def timed(*args, **kwargs):
            with recorder.span(name):
                return function(*args, **kwargs)

        return timed

    def _swap(self, owner, attribute: str, make: Callable) -> None:
        own = attribute in vars(owner)
        original = getattr(owner, attribute)
        self._patches.append((owner, attribute, original, own))
        setattr(owner, attribute, make(original))

    def patch(self, owner, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` by a wrapper recording ``name`` spans."""
        self._swap(owner, attribute, lambda original: self.wrap(original, name))

    def tag(self, owner, attributes, prefix: str) -> None:
        """Run each call of ``owner.<attribute>`` as operation ``prefix#n``.

        One counter spans all ``attributes``, so ``n`` numbers the calls
        in the order they were made.
        """
        counter = itertools.count(1)

        def make(original):
            def tagged(*args, **kwargs):
                with self.operation(f"{prefix}#{next(counter)}"):
                    return original(*args, **kwargs)

            return tagged

        for attribute in attributes:
            if hasattr(owner, attribute):
                self._swap(owner, attribute, make)

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patches:
            owner, attribute, original, own = self._patches.pop()
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    @contextmanager
    def patched(self):
        try:
            yield self
        finally:
            self.restore()

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def totals(self, since: int = 0) -> dict[str, float]:
        """Total span duration per name (spans recorded from ``since``)."""
        out: Counter = Counter()
        for span in self.spans[since:]:
            out[span.name] += span.end - span.start
        return dict(out)

    def calls(self, since: int = 0) -> dict[str, int]:
        return dict(Counter(span.name for span in self.spans[since:]))

    def self_times(self, since: int = 0) -> dict[str, float]:
        """Per-name self time: duration minus the time child spans cover."""
        out: Counter = Counter()
        for span in self.spans[since:]:
            out[span.name] += span.end - span.start
            if span.parent is not None and span.parent >= since:
                out[self.spans[span.parent].name] -= span.end - span.start
        return dict(out)

    def covered(self, windows: list[tuple[float, float]], since: int = 0) -> float:
        """Seconds of ``windows`` inside at least one top-level span."""
        intervals = sorted(
            (span.start, span.end)
            for span in self.spans[since:]
            if span.parent is None
        )
        merged: list[list[float]] = []
        for start, end in intervals:
            if merged and start <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], end)
            else:
                merged.append([start, end])
        total = 0.0
        for low, high in windows:
            for start, end in merged:
                total += max(0.0, min(high, end) - max(low, start))
        return total

    def dump(self, path) -> None:
        """Write every span, one JSON object per line."""
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": span.name,
                            "start": span.start - origin,
                            "end": span.end - origin,
                            "parent": span.parent,
                            "op": span.op,
                            "thread": span.thread,
                        }
                    )
                    + "\n"
                )


def self_time_table(recorder: Recorder, title: str) -> str:
    """A plain-text table of calls, total and self seconds per span name."""
    totals = recorder.totals()
    selfs = recorder.self_times()
    calls = recorder.calls()
    lines = [
        title,
        f"{'span':<24} {'calls':>8} {'total_s':>10} {'self_s':>10}",
    ]
    for name in sorted(totals, key=lambda key: -selfs[key]):
        lines.append(
            f"{name:<24} {calls[name]:>8} {totals[name]:>10.4f} {selfs[name]:>10.4f}"
        )
    return "\n".join(lines)
