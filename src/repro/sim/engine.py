"""Deterministic discrete-event scheduler.

The simulator keeps a priority queue of ``(time, sequence, callback)``
entries.  Ties on time are broken by insertion order, which makes every
run fully deterministic for a fixed seed and fixed call ordering -- the
property every experiment in this repository relies on.

Time is a ``float`` in **milliseconds**, matching the paper's reporting
units (latencies from the King dataset are millisecond RTTs).
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional


class EventHandle:
    """Cancellation token returned by :meth:`Simulator.schedule`.

    Cancelling does not remove the heap entry (that would be O(n)); the
    entry is skipped when popped.  The owning simulator keeps a live
    count (:attr:`Simulator.live`) in sync: cancelling before the event
    fires decrements it exactly once.
    """

    __slots__ = ("time", "seq", "cancelled", "_done", "_sim")

    def __init__(
        self, time: float, seq: int, sim: Optional["Simulator"] = None
    ) -> None:
        self.time = time
        self.seq = seq
        self.cancelled = False
        self._done = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        if not self._done and self._sim is not None:
            self._sim._live -= 1
            self._done = True


class RepeatingHandle:
    """Cancellation token for :meth:`Simulator.schedule_every`."""

    __slots__ = ("cancelled", "_inner")

    def __init__(self) -> None:
        self.cancelled = False
        self._inner: Optional[EventHandle] = None

    def cancel(self) -> None:
        """Stop future firings.  Idempotent."""
        self.cancelled = True
        if self._inner is not None:
            self._inner.cancel()


class LaneTimer:
    """One timer armed on a :class:`TimeoutLane`.

    The same cancellation contract as :class:`EventHandle` (idempotent,
    :attr:`Simulator.live` drops exactly once, cancelling after the
    timer fired changes nothing), and the same attributes the run loop
    reads -- while the timer is its lane's head it *is* the handle of
    the lane's heap entry, so a cancelled head is skipped at pop like
    any other stub.
    """

    __slots__ = ("time", "seq", "cancelled", "_done", "fn", "args", "_lane")

    def __init__(
        self, time: float, seq: int, fn: Callable[..., Any], args: tuple,
        lane: "TimeoutLane",
    ) -> None:
        self.time = time
        self.seq = seq
        self.cancelled = False
        self._done = False
        self.fn = fn
        self.args = args
        self._lane = lane

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        if not self._done:
            self._done = True
            lane = self._lane
            lane._sim._live -= 1
            if lane._head is self:
                lane._promote()


class TimeoutLane:
    """Timers that all share one constant delay, kept off the heap.

    ``now`` never decreases, so with a constant delay the deadlines of
    successive :meth:`arm` calls never decrease either: arrival order
    *is* ``(time, seq)`` order and a FIFO holds the timers sorted for
    free.  Only the oldest live timer (the head) occupies a heap slot;
    arming behind it is a deque append, cancelling flips a flag, and a
    cancelled timer is dropped when it reaches the front -- it never
    costs a heap push, a pop or a dispatch.

    Every timer keeps the sequence number :meth:`Simulator.schedule`
    would have given it (``arm`` reserves it from the same counter), and
    the head enters the heap under its own ``(time, seq)`` key, so each
    callback fires at the instant and in the order -- same-timestamp
    ties included -- its own ``schedule()`` entry would have had.
    Obtain one from :meth:`Simulator.timeout_lane`.
    """

    __slots__ = ("delay", "_sim", "_waiting", "_head")

    def __init__(self, sim: "Simulator", delay: float) -> None:
        if delay < 0:
            raise ValueError(f"negative delay: {delay!r}")
        self.delay = delay
        self._sim = sim
        #: armed timers behind the head, oldest first (cancelled ones
        #: included until they reach the front)
        self._waiting: deque = deque()
        #: the timer whose heap entry wakes the lane; None when idle
        self._head: Optional[LaneTimer] = None

    def arm(self, fn: Callable[..., Any], *args: Any) -> LaneTimer:
        """Run ``fn(*args)`` after the lane's delay, exactly as
        ``sim.schedule(lane.delay, fn, *args)`` would."""
        sim = self._sim
        seq = sim._seq
        sim._seq = seq + 1
        sim._live += 1
        timer = LaneTimer(sim.now + self.delay, seq, fn, args, self)
        self._waiting.append(timer)
        if self._head is None:
            self._promote()
        return timer

    @property
    def backlog(self) -> int:
        """Live timers waiting behind the head (not in the heap)."""
        return sum(1 for timer in self._waiting if not timer.cancelled)

    def _promote(self) -> None:
        """Give the heap slot to the oldest live timer, if any."""
        waiting = self._waiting
        while waiting:
            timer = waiting.popleft()
            if not timer.cancelled:
                self._head = timer
                heappush(
                    self._sim._queue,
                    (timer.time, timer.seq, timer, self._fire, ()),
                )
                return
        self._head = None

    def _fire(self) -> None:
        # The run loop popped the head's entry (and settled ``live`` and
        # the handle).  The successor is promoted first, so a callback
        # that arms this lane finds it in a consistent state.
        timer = self._head
        self._promote()
        timer.fn(*timer.args)


class Simulator:
    """A discrete-event simulation engine.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(5.0, fired.append, "a")
    >>> _ = sim.schedule(1.0, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    """

    def __init__(self) -> None:
        self._queue: list[tuple[float, int, EventHandle, Callable[..., Any], tuple]] = []
        #: current simulation time in milliseconds.  A plain attribute
        #: (every handler reads it, most more than once): read-only for
        #: everything but the run loop.
        self.now: float = 0.0
        self._seq: int = 0
        self._processed: int = 0
        self._live: int = 0
        #: the timeout lanes created by :meth:`timeout_lane`
        self.lanes: List[TimeoutLane] = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Entries the scheduler holds: the raw heap, *including*
        cancelled stubs (cancellation leaves the entry in place and
        skips it at pop), plus the live timers waiting in timeout lanes
        (a timer cancelled there is never counted).  For "how much work
        is actually left" use :attr:`live`."""
        return len(self._queue) + sum(lane.backlog for lane in self.lanes)

    @property
    def live(self) -> int:
        """Number of events still queued, excluding cancelled stubs.

        ``pending`` overstates remaining work whenever ``schedule()``
        entries were cancelled (each leaves one stub); this is the
        honest count for progress displays and telemetry sampling.
        """
        return self._live

    @property
    def processed(self) -> int:
        """Number of callbacks executed so far."""
        return self._processed

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Run ``fn(*args)`` after ``delay`` milliseconds of simulated time."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay!r}")
        time = self.now + delay
        seq = self._seq
        handle = EventHandle(time, seq, self)
        heappush(self._queue, (time, seq, handle, fn, args))
        self._seq = seq + 1
        self._live += 1
        return handle

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Run ``fn(*args)`` at absolute simulated time ``time``."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        seq = self._seq
        handle = EventHandle(time, seq, self)
        heappush(self._queue, (time, seq, handle, fn, args))
        self._seq = seq + 1
        self._live += 1
        return handle

    def timeout_lane(self, delay: float) -> TimeoutLane:
        """A :class:`TimeoutLane` for timers that all fire ``delay``
        milliseconds after they are armed."""
        lane = TimeoutLane(self, delay)
        self.lanes.append(lane)
        return lane

    def schedule_every(
        self,
        interval_ms: float,
        fn: Callable[..., Any],
        *args: Any,
        until: Optional[float] = None,
    ) -> RepeatingHandle:
        """Run ``fn(*args)`` every ``interval_ms``, first firing one
        interval from now.

        ``until`` bounds the series (no firing strictly after it), which
        keeps ``run_until_idle`` terminating; an unbounded series must be
        cancelled via the returned handle before draining the queue.
        Used by telemetry's periodic metric sampling and handy for any
        maintenance-style loop.
        """
        if interval_ms <= 0:
            raise ValueError(f"non-positive interval: {interval_ms!r}")
        handle = RepeatingHandle()

        def _tick() -> None:
            if handle.cancelled:
                return
            fn(*args)
            nxt = self.now + interval_ms
            if until is None or nxt <= until:
                handle._inner = self.schedule(interval_ms, _tick)

        first = self.now + interval_ms
        if until is None or first <= until:
            handle._inner = self.schedule(interval_ms, _tick)
        return handle

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next pending event.  Returns ``False`` when idle."""
        while self._queue:
            time, _seq, handle, fn, args = heappop(self._queue)
            if handle.cancelled:
                continue
            handle._done = True
            self._live -= 1
            self.now = time
            fn(*args)
            self._processed += 1
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Drain the event queue.

        Parameters
        ----------
        until:
            Stop once the next event would fire strictly after this time.
            The clock is advanced to ``until`` when the queue drains early.
        max_events:
            Safety valve; stop after executing this many callbacks.

        Returns the number of callbacks executed by this call.
        """
        queue = self._queue
        horizon = float("inf") if until is None else until
        budget = float("inf") if max_events is None else max_events
        executed = 0
        while queue and executed < budget:
            if queue[0][0] > horizon:
                break
            time, _seq, handle, fn, args = heappop(queue)
            if handle.cancelled:
                continue
            handle._done = True
            self._live -= 1
            self.now = time
            fn(*args)
            self._processed += 1
            executed += 1
        if until is not None and until > self.now:
            self.now = until
        return executed

    def run_until_idle(self, max_events: int = 100_000_000) -> int:
        """Drain everything.  Raises if ``max_events`` is exceeded."""
        executed = self.run(max_events=max_events)
        if self._queue and executed >= max_events:
            raise RuntimeError(
                f"simulation did not converge within {max_events} events"
            )
        return executed
