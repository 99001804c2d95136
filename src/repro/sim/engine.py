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

#: Slots of a handle record (see :class:`Simulator`).  A timeout-lane
#: timer has a fifth slot, ``LANE``.
TIME, SEQ, FN, ARGS, LANE = range(5)
#: Callback slot of a ``schedule_every`` record while its own callback
#: runs: not in the queue, yet the series can be cancelled (``cancel``
#: clears the slot, and the tick then re-arms nothing).
_IN_FLIGHT = object()


class TimeoutLane:
    """Timers that all share one constant delay, kept off the heap.

    ``now`` never decreases, so with a constant delay the deadlines of
    successive :meth:`arm` calls never decrease either: arrival order
    *is* ``(time, seq)`` order and a FIFO holds the timers sorted for
    free.  Only the oldest live timer (the head) occupies a heap slot;
    arming behind it is a deque append, cancelling clears a slot, and a
    cancelled timer is dropped when it reaches the front -- it never
    costs a heap push, a pop or a dispatch.

    A timer is a handle record like any other (``Simulator.cancel``
    takes it) with the lane in a fifth slot; the head's record is the
    lane's heap entry itself, so a cancelled head is skipped at pop
    like any stub.  Every timer keeps the sequence number
    :meth:`Simulator.schedule` would have given it (``arm`` reserves it
    from the same counter), so each callback fires at the instant and
    in the order -- same-timestamp ties included -- its own
    ``schedule()`` entry would have had.  Obtain one from
    :meth:`Simulator.timeout_lane`.
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
        #: the timer whose record is in the heap; None when idle
        self._head: Optional[list] = None

    def arm(self, fn: Callable[..., Any], *args: Any) -> list:
        """Run ``fn(*args)`` after the lane's delay, exactly as
        ``sim.schedule(lane.delay, fn, *args)`` would."""
        sim = self._sim
        seq = sim._seq
        sim._seq = seq + 1
        timer = [sim.now + self.delay, seq, self._fire, (fn, args), self]
        self._waiting.append(timer)
        if self._head is None:
            self._promote()
        return timer

    @property
    def backlog(self) -> int:
        """Live timers waiting behind the head (not in the heap)."""
        return sum(1 for timer in self._waiting if timer[FN] is not None)

    def _promote(self) -> None:
        """Give the heap slot to the oldest live timer, if any."""
        waiting = self._waiting
        while waiting:
            timer = waiting.popleft()
            if timer[FN] is not None:
                self._head = timer
                heappush(self._sim._queue, timer)
                return
        self._head = None

    def _fire(self, fn: Callable[..., Any], args: tuple) -> None:
        # The run loop popped the head's record.  The successor is
        # promoted first, so a callback that arms this lane finds it in
        # a consistent state.
        self._promote()
        fn(*args)


class Simulator:
    """A discrete-event simulation engine.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(5.0, fired.append, "a")
    >>> _ = sim.schedule(1.0, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']

    **Handles.**  ``schedule`` / ``schedule_at`` push one mutable record
    ``[time, seq, fn, args]`` onto the heap and return that same list:
    the heap entry *is* the handle.  ``seq`` is unique, so two records
    never compare past it.  The callback slot is the record's whole
    state: the run loop clears it as the callback starts, and
    :meth:`cancel` clears it (the stub stays in the heap -- removing it
    would be O(n) -- and is skipped when popped).  Hence cancelling is
    idempotent and changes nothing once the callback has fired.
    ``TimeoutLane.arm`` and ``schedule_every`` return records under the
    same contract.

    **Bookkeeping.**  Nothing is counted per dispatch: :attr:`live` is
    derived from the queue when read, and :attr:`processed` is settled
    once per :meth:`run` call, when it returns or raises.
    """

    def __init__(self) -> None:
        self._queue: List[list] = []
        #: current simulation time in milliseconds.  A plain attribute
        #: (every handler reads it, most more than once): read-only for
        #: everything but the run loop.
        self.now: float = 0.0
        self._seq: int = 0
        #: callbacks executed by the ``run`` calls that have ended
        self._processed: int = 0
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
        Counted when read (O(queue)): a heap record is live while its
        callback slot is set, a lane timer while it waits uncancelled.
        The callback that is running is not queued work.
        """
        live = sum(1 for entry in self._queue if entry[FN] is not None)
        return live + sum(lane.backlog for lane in self.lanes)

    @property
    def processed(self) -> int:
        """Number of callbacks executed by :meth:`run` calls that have
        returned or raised (a callback that raised is not counted).
        Settled when a call ends, so a callback reading it sees the
        count from before the current ``run`` call."""
        return self._processed

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> list:
        """Run ``fn(*args)`` after ``delay`` milliseconds of simulated time."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay!r}")
        seq = self._seq
        entry = [self.now + delay, seq, fn, args]
        heappush(self._queue, entry)
        self._seq = seq + 1
        return entry

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> list:
        """Run ``fn(*args)`` at absolute simulated time ``time``."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        seq = self._seq
        entry = [time, seq, fn, args]
        heappush(self._queue, entry)
        self._seq = seq + 1
        return entry

    def cancel(self, handle: list) -> None:
        """Prevent ``handle``'s callback from firing -- a record from
        :meth:`schedule`, :meth:`schedule_at`, :meth:`schedule_every`
        (stops the series) or :meth:`TimeoutLane.arm`.  Idempotent; a
        no-op once a one-shot callback has fired."""
        if handle[FN] is None:
            return
        handle[FN] = None
        if len(handle) > LANE:
            lane = handle[LANE]
            if lane._head is handle:
                lane._promote()

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
    ) -> list:
        """Run ``fn(*args)`` every ``interval_ms``, first firing one
        interval from now.

        ``until`` bounds the series (no firing strictly after it), which
        keeps ``run_until_idle`` terminating; an unbounded series must be
        cancelled (:meth:`cancel` on the returned handle, from outside
        or from ``fn`` itself) before draining the queue.  The handle is
        one record for the whole series, pushed again for each firing.
        Used by telemetry's periodic metric sampling and handy for any
        maintenance-style loop.
        """
        if interval_ms <= 0:
            raise ValueError(f"non-positive interval: {interval_ms!r}")
        handle: list = [self.now, -1, None, ()]

        def _arm() -> None:
            time = self.now + interval_ms
            if until is not None and time > until:
                handle[FN] = None
                return
            handle[TIME] = time
            handle[SEQ] = self._seq
            handle[FN] = _tick
            heappush(self._queue, handle)
            self._seq += 1

        def _tick() -> None:
            handle[FN] = _IN_FLIGHT
            fn(*args)
            if handle[FN] is not None:  # else: cancelled by ``fn``
                _arm()

        _arm()
        return handle

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
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
        try:
            while queue and executed < budget:
                if queue[0][0] > horizon:
                    break
                entry = heappop(queue)  # slots by number: TIME 0, FN 2, ARGS 3
                fn = entry[2]
                if fn is None:
                    continue
                entry[2] = None
                self.now = entry[0]
                fn(*entry[3])
                executed += 1
        finally:
            self._processed += executed
        if until is not None and until > self.now:
            self.now = until
        return executed

    def run_until_idle(self, max_events: int = 100_000_000) -> int:
        """Drain everything.  Raises if ``max_events`` is exceeded."""
        executed = self.run(max_events=max_events)
        if executed >= max_events and self.live:
            raise RuntimeError(
                f"simulation did not converge within {max_events} events"
            )
        return executed
