"""Unit tests for the discrete-event scheduler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import ARGS, FN, SEQ, TIME, Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, "late")
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(3.0, fired.append, "mid")
    sim.run()
    assert fired == ["early", "mid", "late"]


def test_ties_break_by_insertion_order():
    sim = Simulator()
    fired = []
    for label in "abcde":
        sim.schedule(2.0, fired.append, label)
    sim.run()
    assert fired == list("abcde")


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(7.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [7.5]
    assert sim.now == 7.5


def test_nested_scheduling_relative_to_now():
    sim = Simulator()
    times = []

    def outer():
        times.append(sim.now)
        sim.schedule(2.0, inner)

    def inner():
        times.append(sim.now)

    sim.schedule(3.0, outer)
    sim.run()
    assert times == [3.0, 5.0]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(5.0, lambda: None)


def test_cancellation_skips_callback():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    sim.schedule(2.0, fired.append, "y")
    sim.cancel(handle)
    sim.run()
    assert fired == ["y"]


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    sim.cancel(handle)
    sim.cancel(handle)
    assert sim.run() == 0


def test_the_heap_entry_is_the_handle():
    """``schedule`` returns the very record it pushed: ``[time, seq,
    fn, args]``.  The callback slot is the record's whole state --
    cleared by ``cancel`` and by the run loop as the callback starts."""
    sim = Simulator()
    fired = []
    first = sim.schedule(2.0, fired.append, "a")
    second = sim.schedule_at(3.0, fired.append, "b")
    assert sim._queue[0] is first and sim._queue[1] is second
    assert first == [2.0, 0, fired.append, ("a",)]
    assert (second[TIME], second[SEQ], second[ARGS]) == (3.0, 1, ("b",))
    sim.cancel(second)
    assert second[FN] is None and sim._queue[1] is second  # the stub stays
    sim.run()
    assert first[FN] is None  # fired: a late cancel finds nothing to do
    assert fired == ["a"]


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(10.0, fired.append, "b")
    executed = sim.run(until=5.0)
    assert executed == 1
    assert fired == ["a"]
    assert sim.now == 5.0  # clock advanced to the horizon
    sim.run()
    assert fired == ["a", "b"]


def test_run_until_boundary_is_inclusive():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, "edge")
    sim.run(until=5.0)
    assert fired == ["edge"]


def test_max_events_limits_execution():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(float(i), fired.append, i)
    sim.run(max_events=3)
    assert fired == [0, 1, 2]


def test_one_event_run_returns_zero_when_idle():
    sim = Simulator()
    assert sim.run(max_events=1) == 0
    sim.schedule(1.0, lambda: None)
    assert sim.run(max_events=1) == 1
    assert sim.run(max_events=1) == 0


def test_processed_counter():
    sim = Simulator()
    for i in range(4):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.processed == 4


def test_run_until_idle_raises_on_runaway():
    sim = Simulator()

    def rescheduler():
        sim.schedule(1.0, rescheduler)

    sim.schedule(0.0, rescheduler)
    with pytest.raises(RuntimeError):
        sim.run_until_idle(max_events=50)


def test_run_until_idle_ignores_cancelled_stubs_when_the_budget_is_met():
    """Regression: the budget met exactly with only cancelled stubs left
    in the heap is a drained simulation, not a runaway one."""
    sim = Simulator()
    for i in range(3):
        sim.schedule(float(i), lambda: None)
    late = sim.schedule(10.0, lambda: None)
    sim.cancel(late)
    assert sim.run_until_idle(max_events=3) == 3
    assert sim.live == 0 and sim.pending == 1
    # ... while live work beyond the budget still raises
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    with pytest.raises(RuntimeError):
        sim.run_until_idle(max_events=1)


def test_zero_delay_events_run_after_current_callback():
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.schedule(0.0, order.append, "chained")

    sim.schedule(1.0, first)
    sim.schedule(1.0, order.append, "second")
    sim.run()
    # Chained zero-delay event fires at the same time but later sequence.
    assert order == ["first", "second", "chained"]


def test_live_count_excludes_cancelled_stubs():
    """``pending`` counts raw heap entries (cancelled stubs included);
    ``live`` is the number of events that will actually fire."""
    sim = Simulator()
    handles = [sim.schedule(float(i + 1), lambda: None) for i in range(5)]
    assert sim.pending == 5
    assert sim.live == 5
    sim.cancel(handles[0])
    sim.cancel(handles[3])
    assert sim.pending == 5  # stubs stay in the heap until popped
    assert sim.live == 3


def test_live_count_decrements_as_events_fire():
    sim = Simulator()
    for i in range(3):
        sim.schedule(float(i + 1), lambda: None)
    sim.run(max_events=1)
    assert sim.live == 2
    sim.run()
    assert sim.live == 0
    assert sim.pending == 0


def test_cancel_after_fire_does_not_double_count():
    """Cancelling a handle whose event already executed must not drive
    ``live`` negative (late cancels are common for ack timers)."""
    sim = Simulator()
    h = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.run(max_events=1)  # fires h
    sim.cancel(h)
    sim.cancel(h)
    assert sim.live == 1


def test_live_tracks_nested_scheduling():
    sim = Simulator()
    sim.schedule(1.0, lambda: sim.schedule(1.0, lambda: None))
    assert sim.live == 1
    sim.run(max_events=1)
    assert sim.live == 1  # the nested event replaced the fired one
    sim.run()
    assert sim.live == 0


def test_counters_are_exact_after_a_callback_raises():
    """``processed`` is settled when ``run`` ends, by an exception too:
    the callbacks that returned count, the one that raised does not;
    ``live`` is what is still queued, whatever the raiser left."""
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)

    def raiser():
        sim.schedule(5.0, lambda: None)
        raise RuntimeError("callback failed")

    sim.schedule(3.0, raiser)
    sim.schedule(4.0, lambda: None)
    with pytest.raises(RuntimeError, match="callback failed"):
        sim.run()
    assert (sim.now, sim.processed, sim.live) == (3.0, 2, 2)
    assert sim.run() == 2
    assert (sim.processed, sim.live, sim.pending) == (4, 0, 0)


def test_counters_are_exact_at_a_max_events_stop():
    """One-shots, a cancelled stub, a timeout lane with a cancelled
    head and a periodic series, stopped by the ``max_events`` budget."""
    sim = Simulator()
    handles = [sim.schedule(float(t), lambda: None) for t in range(1, 7)]
    sim.cancel(handles[1])  # t = 2: a stub
    lane = sim.timeout_lane(2.5)
    timers = [lane.arm(lambda: None) for _ in range(3)]  # all at t = 2.5
    sim.cancel(timers[0])  # the head: its successor takes the heap slot
    series = sim.schedule_every(1.5, lambda: None, until=4.0)  # t = 1.5, 3.0
    assert sim.live == 5 + 2 + 1
    # fires t = 1, 1.5 (re-arms for 3.0), 2.5, 2.5
    assert sim.run(max_events=4) == 4
    assert (sim.now, sim.processed, sim.live) == (2.5, 4, 4 + 1)
    sim.cancel(series)
    assert sim.live == 4
    assert sim.run(max_events=10) == 4
    assert (sim.processed, sim.live) == (8, 0)


def test_live_is_exact_when_read_mid_run():
    """The telemetry gauge (``sim.live_events``) reads ``live`` from a
    callback: queued work net of cancelled stubs, lane backlog
    included, the running callback excluded.  ``processed`` is settled
    when the ``run`` call ends, so mid-run it reads the count from
    before the call."""
    sim = Simulator()
    handles = [sim.schedule(float(t), lambda: None) for t in range(1, 9)]
    sim.cancel(handles[6])  # t = 7
    lane = sim.timeout_lane(10.0)
    timers = [lane.arm(lambda: None) for _ in range(3)]  # all at t = 10
    sim.cancel(timers[0])
    seen = []
    sim.schedule_every(
        2.5, lambda: seen.append((sim.now, sim.live, sim.processed)), until=9.0
    )
    sim.run()
    # at 2.5: t = 3, 4, 5, 6, 8 and two lane timers; at 5.0 the t = 5
    # one-shot has fired (it was queued first); at 7.5 only t = 8 is left
    assert seen == [(2.5, 5 + 2, 0), (5.0, 2 + 2, 0), (7.5, 1 + 2, 0)]
    assert (sim.processed, sim.live) == (7 + 2 + 3, 0)


# ----------------------------------------------------------------------
# Handle records: timeout lanes, periodic series, cancellation
# ----------------------------------------------------------------------
LANE_DELAY = 5.0


class _ChainedSeries:
    """``schedule_every`` spelled with ``schedule()``: the reference a
    periodic handle is compared against."""

    def __init__(self, world, interval, until, label, actions):
        self.world, self.interval, self.until = world, interval, until
        self.label, self.actions = label, actions
        self.stopped = False
        self.inner = None
        self._arm()

    def _arm(self):
        sim = self.world.sim
        if self.stopped or sim.now + self.interval > self.until:
            self.inner = None
        else:
            self.inner = sim.schedule(self.interval, self._tick)

    def _tick(self):
        self.world.fire(self.label, self.actions)
        self._arm()

    def cancel(self):
        self.stopped = True
        if self.inner is not None:
            self.world.sim.cancel(self.inner)


class LaneWorld:
    """One simulator driven by a script of nested actions.

    ``use_lane=False`` is the reference: every timer of the script goes
    through ``schedule()``, a periodic series included (one chained
    ``schedule()`` per firing).  ``use_lane=True`` arms the
    constant-delay timers on a :class:`TimeoutLane` and the series
    through ``schedule_every``.  The two must be indistinguishable from
    inside the simulation.
    """

    def __init__(self, use_lane):
        self.sim = Simulator()
        self.lane = self.sim.timeout_lane(LANE_DELAY) if use_lane else None
        self.handles = []   # every handle ever returned, in creation order
        self.timers = []    # the constant-delay ones among them
        self.fired = []     # (time, label)
        self.labels = 0

    def _label(self):
        self.labels += 1
        return self.labels

    def fire(self, label, actions):
        self.fired.append((self.sim.now, label))
        self.apply(actions)

    def cancel(self, handle):
        if isinstance(handle, _ChainedSeries):
            handle.cancel()
        else:
            self.sim.cancel(handle)

    def apply(self, actions):
        sim = self.sim
        for act in actions:
            kind = act[0]
            if kind == "arm":
                if self.lane is not None:
                    handle = self.lane.arm(self.fire, self._label(), act[1])
                else:
                    handle = sim.schedule(
                        LANE_DELAY, self.fire, self._label(), act[1]
                    )
                self.timers.append(handle)
            elif kind == "schedule":
                handle = sim.schedule(act[1], self.fire, self._label(), act[2])
            elif kind == "schedule_at":
                handle = sim.schedule_at(
                    sim.now + act[1], self.fire, self._label(), act[2]
                )
            elif kind == "every":
                # bounded, or the final drain would never end; the
                # nested actions run again at every firing
                interval, until = act[1], sim.now + act[1] * act[2]
                if self.lane is not None:
                    handle = sim.schedule_every(
                        interval, self.fire, self._label(), act[3], until=until
                    )
                else:
                    handle = _ChainedSeries(
                        self, interval, until, self._label(), act[3]
                    )
            elif kind == "cancel":
                if self.handles:
                    self.cancel(self.handles[act[1] % len(self.handles)])
                continue
            else:  # "cancel_oldest": the lane's head, in lane terms
                for handle in self.timers:
                    if handle[FN] is not None:
                        sim.cancel(handle)
                        break
                continue
            self.handles.append(handle)

    def observe(self):
        return (list(self.fired), self.sim.now, self.sim.live, self.sim.processed)


def _lane_actions(depth):
    inner = _lane_actions(depth - 1) if depth else st.just(())
    # 0, the lane delay itself and its multiples are there on purpose:
    # same-timestamp ties between lane timers, series and ordinary entries.
    delays = st.sampled_from([0.0, 1.0, 2.5, LANE_DELAY, 2 * LANE_DELAY])
    action = st.one_of(
        st.tuples(st.just("arm"), inner),
        st.tuples(st.just("arm"), inner),
        st.tuples(st.just("schedule"), delays, inner),
        st.tuples(st.just("schedule_at"), delays, inner),
        st.tuples(
            st.just("every"), st.sampled_from([1.0, 2.5, LANE_DELAY]),
            st.integers(0, 3), inner,
        ),
        st.tuples(st.just("cancel"), st.integers(0, 10_000)),
        st.tuples(st.just("cancel_oldest")),
    )
    return st.lists(action, max_size=4).map(tuple)


def _lane_programs():
    step = st.one_of(
        st.tuples(st.just("apply"), _lane_actions(3)),
        st.tuples(st.just("run_until"), st.sampled_from([0.0, 1.0, 2.5, 5.0, 7.5, 12.0])),
        st.tuples(st.just("run_max"), st.integers(1, 4)),
        st.tuples(st.just("step")),
    )
    return st.lists(step, max_size=12)


def _run_lane_program(program, make_world=LaneWorld):
    ref, lane = make_world(False), make_world(True)
    for step in program + [("drain",)]:
        for world in (ref, lane):
            sim = world.sim
            if step[0] == "apply":
                world.apply(step[1])
            elif step[0] == "run_until":
                sim.run(until=sim.now + step[1])
            elif step[0] == "run_max":
                sim.run(max_events=step[1])
            elif step[0] == "step":
                sim.run(max_events=1)
            else:
                sim.run_until_idle()
        assert lane.observe() == ref.observe(), step
        # the reference holds one heap entry per timer until it is
        # popped, cancelled or not; the lane never holds more
        assert lane.sim.pending <= ref.sim.pending
        assert len(lane.sim._queue) <= len(ref.sim._queue)
    assert lane.sim.pending == lane.sim.live == 0
    return ref, lane


class TestTimeoutLane:
    def test_equals_a_simulator_that_schedules_everything(self):
        """Random interleavings of arm / schedule / schedule_at /
        schedule_every / cancel (before and after the fire, of a lane
        head, of a series from inside its own callback), nested inside
        callbacks, with ties on purpose: the same (time, callback)
        sequence, the same ``live`` and ``processed`` after every step,
        ``run(until=)`` and ``run(max_events=)`` stopping on the same
        entry."""

        @settings(max_examples=300, deadline=None)
        @given(_lane_programs())
        def check(program):
            _run_lane_program(program)

        check()

    def test_a_callback_may_arm_cancel_and_tie_with_the_lane(self):
        """The cases the property test must reach, pinned: re-arming
        from inside a lane callback, cancelling the head, cancelling a
        timer that already fired, an ordinary entry landing on a lane
        deadline from either side of it in sequence order."""
        program = [
            ("apply", (
                ("schedule", LANE_DELAY, ()),              # 1: seq before the timers
                # 2: arms 6 from inside a lane callback, then cancels the
                # oldest live timer -- 4, the head promoted just before
                ("arm", (("arm", (("arm", ()),)), ("cancel_oldest",))),
                ("schedule", LANE_DELAY, (("arm", ()),)),  # 3: seq after 2, arms 7
                ("arm", ()),                               # 4
                ("arm", (("cancel", 1),)),                 # 5: cancels 2, long fired
            )),
            ("run_until", LANE_DELAY),
            # the head again (6, so its nested arm never happens), then 8
            ("apply", (("cancel_oldest",), ("arm", ()))),
        ]
        ref, lane = _run_lane_program(program)
        assert ref.fired == [
            (5.0, 1), (5.0, 2), (5.0, 3), (5.0, 5), (10.0, 7), (10.0, 8),
        ]

    def test_only_the_head_occupies_the_heap(self):
        sim = Simulator()
        lane = sim.timeout_lane(1_000.0)
        fired = []
        timers = []
        for i in range(100):
            sim.now = float(i)  # a send every millisecond
            timers.append(lane.arm(fired.append, i))
        assert len(sim._queue) == 1
        assert sim.pending == sim.live == 100
        assert lane.backlog == 99
        for t in timers[1::2]:  # acks: not one heap operation
            sim.cancel(t)
        assert len(sim._queue) == 1
        assert sim.pending == sim.live == 50
        sim.cancel(timers[0])  # the head: its stub stays, the next live one enters
        assert len(sim._queue) == 2
        assert sim.live == 49 and sim.pending == 50
        executed = sim.run()
        # a cancelled timer never costs a dispatch
        assert executed == sim.processed == 49
        assert fired == list(range(2, 100, 2))
        assert sim.pending == sim.live == 0

    def test_deadlines_are_those_of_schedule(self):
        sim = Simulator()
        lane = sim.timeout_lane(0.1)
        sim.now = 0.7
        timer = lane.arm(lambda: None)
        handle = sim.schedule(0.1, lambda: None)
        assert timer[TIME] == handle[TIME]  # the same float, not a close one
        assert handle[SEQ] == timer[SEQ] + 1  # arm reserved a sequence number

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().timeout_lane(-1.0)
