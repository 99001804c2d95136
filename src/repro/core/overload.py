"""Per-destination circuit breaker (overload-protection extension).

A saturated surrogate keeps shedding event packets (``ps_busy``) or
letting them time out; retransmitting at it -- even with backoff --
wastes the sender's bandwidth and deepens the victim's queue.  The
breaker gives each sender a local, per-destination memory of that
signal with the classic three-state machine:

* **closed** -- traffic flows; consecutive failures are counted, one
  success resets the count.
* **open** -- entered after ``failure_threshold`` consecutive busy /
  timeout signals.  For ``open_ms`` the sender routes event traffic
  around the destination via an alternate routing entry (the hop-
  failover machinery's route diversity) when one exists.
* **half-open** -- after ``open_ms`` one probe is let through; an ack
  closes the breaker, another failure re-opens it for a full window.

Deliberately minimal: no wall clock (simulated ms come from the
caller), no threads, deterministic.  ``CircuitBreaker`` holds the state
for *all* destinations of one node.
"""

from __future__ import annotations

from typing import Dict, Set

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: Consecutive busy / timeout signals per destination that open its
#: breaker (the node's ``CircuitBreaker`` is built with it).
BREAKER_FAILURE_THRESHOLD = 3
#: How long an open breaker blocks a destination before half-opening
#: on a probe (ms).
BREAKER_OPEN_MS = 5_000.0


class _DstState:
    __slots__ = ("state", "failures", "open_until")

    def __init__(self) -> None:
        self.state = CLOSED
        self.failures = 0
        self.open_until = 0.0


class CircuitBreaker:
    """Failure-signal accumulator and gate for one node's destinations."""

    def __init__(self, failure_threshold: int, open_ms: float) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if open_ms <= 0:
            raise ValueError("open_ms must be positive")
        self.failure_threshold = failure_threshold
        self.open_ms = open_ms
        self._by_dst: Dict[int, _DstState] = {}

    def allow(self, dst: int, now: float) -> bool:
        """May event traffic be sent to ``dst`` at ``now``?

        ``False`` only while the breaker is open and the window has not
        elapsed; the first call after ``open_until`` transitions to
        half-open and admits the probe.  The verdict is advisory -- a
        sender with no alternate route still forwards (that forced send
        doubles as an extra probe).
        """
        b = self._by_dst.get(dst)
        if b is None or b.state == CLOSED:
            return True
        if b.state == OPEN:
            if now >= b.open_until:
                b.state = HALF_OPEN
                return True
            return False
        return True  # half-open: probe(s) in flight

    def record_failure(self, dst: int, now: float) -> bool:
        """One busy/timeout signal from ``dst``.

        Returns ``True`` when this signal transitioned the breaker to
        open (callers count/trace the transition, not every signal).
        """
        b = self._by_dst.setdefault(dst, _DstState())
        b.failures += 1
        if b.state == OPEN:
            return False
        if b.state == HALF_OPEN or b.failures >= self.failure_threshold:
            b.state = OPEN
            b.open_until = now + self.open_ms
            return True
        return False

    def record_success(self, dst: int) -> None:
        """An ack from ``dst``: close the breaker, forget the failures."""
        self._by_dst.pop(dst, None)

    def state(self, dst: int) -> str:
        """Current state name for ``dst`` (``closed`` if never failed)."""
        b = self._by_dst.get(dst)
        return b.state if b is not None else CLOSED

    def open_dsts(self, now: float) -> Set[int]:
        """Destinations currently open (probe window not yet reached) --
        the set an alternate-route search must avoid."""
        return {
            dst
            for dst, b in self._by_dst.items()
            if b.state == OPEN and now < b.open_until
        }
