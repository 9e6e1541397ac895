"""In-memory span tracer for the traced benchmark run.

Spans are placed from outside the program: :meth:`Tracer.span` replaces a
module attribute or class method with a timing wrapper and :meth:`Tracer.restore`
puts every original back.  Each span records (name, start, end, parent);
self time is a span's duration minus the time its child spans cover, so the
self times of all spans in one operation sum to the operation's wall time.

Times and counts are keyed by ``"<scope>.<name>"``, where the benchmark sets
``scope`` before each operation.  Hot tiny calls get :meth:`Tracer.count`
instead: a counter with no clock reads (timing ``predicted_start`` made the
fleet kernel ten times slower).  At most ``MAX_EVENTS`` spans are kept as
Chrome trace events, ``MAX_EVENTS_PER_KEY`` per key, so a run with millions
of calls keeps bounded memory; totals always cover every call.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

MAX_EVENTS = 50_000
MAX_EVENTS_PER_KEY = 2_000


class Tracer:
    def __init__(self) -> None:
        # Count-only wrappers bump a private cell; cells are credited to the
        # scope that was current when the scope changes (see ``scope``).
        self._cells: List[Tuple[str, list]] = []
        self._scope = ""
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.total_ns: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self.events: List[Tuple[str, int, int, str]] = []
        self.dropped = 0
        self._kept: Dict[str, int] = defaultdict(int)
        # Open spans: [key, child_ns] frames, innermost last.
        self._stack: List[list] = []
        self._patches: List[Tuple[object, str, object]] = []

    @property
    def scope(self) -> str:
        return self._scope

    @scope.setter
    def scope(self, value: str) -> None:
        self._flush()
        self._scope = value

    def _flush(self) -> None:
        for name, cell in self._cells:
            if cell[0]:
                self.counts[self.key(name)] += cell[0]
                cell[0] = 0

    def key(self, name: str) -> str:
        return f"{self.scope}.{name}" if self.scope else name

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a span named ``name`` around every call."""

        clock = time.perf_counter_ns
        stack = self._stack

        def traced(*args, **kwargs):
            key = self.key(name)
            frame = [key, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                self.self_ns[key] += duration - frame[1]
                self.total_ns[key] += duration
                parent = ""
                if stack:
                    stack[-1][1] += duration
                    parent = stack[-1][0]
                if len(self.events) < MAX_EVENTS and self._kept[key] < MAX_EVENTS_PER_KEY:
                    self._kept[key] += 1
                    self.events.append((key, start, duration, parent))
                else:
                    self.dropped += 1

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner: object, attr: str, replacement: Callable) -> None:
        # Read the class __dict__ so a patched method is restored as the plain
        # function it was, not as a bound method.
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def span(self, owner: object, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` as span ``name``."""

        self._patch(owner, attr, self.wrap(name, getattr(owner, attr)))

    def count(self, owner: object, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` into counter ``name``, without timing."""

        fn = getattr(owner, attr)
        cell = [0]
        self._cells.append((name, cell))

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        self._patch(owner, attr, counted)

    def hook(self, owner: object, attr: str, before: Callable) -> None:
        """Call ``before(*args)`` ahead of every call of ``owner.attr``."""

        fn = getattr(owner, attr)

        def hooked(*args, **kwargs):
            before(*args)
            return fn(*args, **kwargs)

        self._patch(owner, attr, hooked)

    def restore(self) -> None:
        """Undo every patch, newest first, and credit any pending counts."""

        self._flush()
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def per_round(self, rounds: int) -> None:
        """Turn totals over ``rounds`` identical rounds into per-round values."""

        for table in (self.self_ns, self.total_ns):
            for key in table:
                table[key] /= rounds
        for key in self.counts:
            self.counts[key] //= rounds

    def run(self, scope: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` as the root span ``op`` of ``scope``."""

        self.scope = scope
        return self.wrap("op", fn)(*args, **kwargs)

    def chrome_trace(self, metadata: Optional[Dict[str, object]] = None) -> str:
        """The kept spans as Chrome trace-event JSON (``chrome://tracing``)."""

        origin = min((start for _, start, _, _ in self.events), default=0)
        events = [
            {
                "name": key,
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (start - origin) / 1e3,
                "dur": duration / 1e3,
                "args": {"parent": parent},
            }
            for key, start, duration, parent in sorted(self.events, key=lambda e: e[1])
        ]
        meta = dict(metadata or {})
        meta["spans_dropped"] = self.dropped
        return json.dumps({"traceEvents": events, "otherData": meta})
