"""Span recorder for the traced pass.

The benchmark wraps the program's *public* boundary functions from the
outside (class attributes are replaced while the traced pass runs and
restored afterwards); nothing under ``src/`` is edited.  Each wrapped
call is a span with a name, a start, an end and a parent -- the span
that was open when it started (one process, one thread, so a plain
stack).  A span's self time is its duration minus the time its child
spans cover, so the self times of all spans add up to the duration of
the root span by construction.

Spans are aggregated in memory per ``(parent name, name)`` as
``[calls, total_s, self_s]``.  The full span list is kept only for the
first ``KEEP_EVENTS`` published events, which is enough to read single
dissemination trees without holding millions of tuples.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: full spans are kept for events with an id up to this
KEEP_EVENTS = 200

ROOT = "bench.timed_phase"


class Recorder:
    def __init__(self) -> None:
        self.on = False
        #: open spans, innermost last: [name, child seconds, span id]
        self.stack: List[list] = []
        #: (parent name, name) -> [calls, total_s, self_s]
        self.agg: Dict[Tuple[str, str], List[float]] = {}
        #: event id in scope (None outside event handling)
        self.event: Optional[int] = None
        #: (id, parent id, name, start_s, end_s, event id)
        self.spans: List[tuple] = []
        self._next_span = 0
        #: named tallies taken at the same boundaries as the spans
        self.counts: Dict[str, float] = defaultdict(float)
        self._patches: List[Tuple[type, str, Any, bool]] = []
        self.t_start = 0.0
        self.t_end = 0.0

    # -- the root span ---------------------------------------------------
    def start(self) -> None:
        self.agg.clear()
        self.spans.clear()
        self.counts.clear()
        self.stack[:] = [[ROOT, 0.0, -1]]
        self.on = True
        self.t_start = perf_counter()

    def stop(self) -> None:
        self.t_end = perf_counter()
        self.on = False
        wall = self.t_end - self.t_start
        root = self.stack.pop()
        self.agg[("", ROOT)] = [1, wall, wall - root[1]]

    # -- wrapping ----------------------------------------------------------
    def span(
        self,
        fn: Callable,
        name: str,
        note: Optional[Callable[["Recorder", tuple, Any], None]] = None,
    ) -> Callable:
        """``fn`` recorded as a span called ``name``.

        A call made while a span of the same name is innermost runs
        unrecorded: that is a subclass calling ``super()`` through a
        second wrapper, one logical call.  ``note(recorder, args,
        result)`` runs after the call to take counts.
        """
        agg, stack = self.agg, self.stack

        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            parent = stack[-1]
            if parent[0] is name:
                return fn(*args, **kwargs)
            keep = self.event is not None and self.event <= KEEP_EVENTS
            if keep:
                sid = self._next_span
                self._next_span += 1
            else:
                sid = -1
            frame = [name, 0.0, sid]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dt = t1 - t0
                parent[1] += dt
                slot = agg.get((parent[0], name))
                if slot is None:
                    agg[(parent[0], name)] = [1, dt, dt - frame[1]]
                else:
                    slot[0] += 1
                    slot[1] += dt
                    slot[2] += dt - frame[1]
                if keep:
                    self.spans.append(
                        (sid, parent[2], name, t0 - self.t_start,
                         t1 - self.t_start, self.event)
                    )
            if note is not None:
                note(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, cls: type, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``cls.attr`` by ``make(current)`` until :meth:`unpatch`."""
        own = attr in cls.__dict__
        self._patches.append((cls, attr, cls.__dict__.get(attr), own))
        setattr(cls, attr, make(getattr(cls, attr)))

    def unpatch(self) -> None:
        for cls, attr, original, own in reversed(self._patches):
            if own:
                setattr(cls, attr, original)
            else:
                delattr(cls, attr)
        self._patches.clear()

    # -- reading -----------------------------------------------------------
    def by_name(self) -> Dict[str, List[float]]:
        """``name -> [calls, total_s, self_s]`` summed over parents."""
        out: Dict[str, List[float]] = {}
        for (_parent, name), (calls, total, self_s) in self.agg.items():
            slot = out.setdefault(name, [0, 0.0, 0.0])
            slot[0] += calls
            slot[1] += total
            slot[2] += self_s
        return out

    def dump(self) -> Dict[str, Any]:
        return {
            "root": ROOT,
            "wall_s": self.t_end - self.t_start,
            "aggregate": [
                {"parent": p, "name": n, "calls": int(c), "total_s": t, "self_s": s}
                for (p, n), (c, t, s) in sorted(self.agg.items())
            ],
            "counts": dict(self.counts),
            "span_fields": ["id", "parent", "name", "start_s", "end_s", "event"],
            "spans_kept_for_events_up_to": KEEP_EVENTS,
            "spans": self.spans,
        }
