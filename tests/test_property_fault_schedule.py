"""Property: a rejected fault entry leaves its schedule exactly as it was.

Random builder calls and spec entries, valid and invalid mixed, are
applied to one schedule.  A builder call the schedule rejects must
leave ``to_spec()``, ``describe()`` and ``len()`` unchanged; a spec
entry is offered through ``from_spec`` on the schedule's own spec plus
that entry, and must either build or fail with
:class:`FaultScheduleError` -- never ``KeyError`` or ``TypeError``.
After every step the schedule round-trips through its spec.
"""

import copy
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultSchedule, FaultScheduleError

TIMES = st.sampled_from([-1.0, 0.0, 1_000.0, 2_000.0, 4_000.0, 9_000.0])
ADDR = st.integers(0, 4)
ADDRS = st.lists(ADDR, max_size=3)
NUMS = st.sampled_from([-0.5, 0.0, 0.1, 0.25, 0.999, 1.0, 1.5, 3.0, 2_000.0])
SEEDS = st.sampled_from([0, 4, 9])
GROUPS = st.dictionaries(ADDR, st.integers(0, 1), max_size=3)

#: builder name -> strategy for its positional arguments
BUILDERS = {
    "crash": st.tuples(TIMES, ADDRS),
    "rejoin": st.tuples(TIMES, ADDRS),
    "partition": st.tuples(TIMES, TIMES, GROUPS),
    "loss": st.tuples(TIMES, NUMS, st.none() | TIMES, SEEDS),
    "latency_spike": st.tuples(TIMES, TIMES, NUMS),
    "storm": st.tuples(TIMES, TIMES, ADDR, NUMS),
    "slow": st.tuples(TIMES, TIMES, ADDRS, NUMS),
    "asym_partition": st.tuples(TIMES, TIMES, ADDRS, ADDRS),
    "duplicate": st.tuples(TIMES, TIMES, NUMS, SEEDS),
    "reorder": st.tuples(TIMES, TIMES, NUMS, SEEDS),
    "flap": st.tuples(TIMES, TIMES, ADDR, NUMS),
}

builder_calls = st.one_of(
    [st.tuples(st.just(name), args) for name, args in BUILDERS.items()]
)


@st.composite
def spec_entries(draw):
    """A well-formed entry of a random key, then maybe broken: a key
    dropped, an extra key added, or one value given a wrong type."""
    t0 = draw(st.sampled_from([0.0, 1_000.0, 3_000.0]))
    t1 = t0 + draw(st.sampled_from([1_000.0, 4_000.0]))
    a = draw(ADDR)
    entry = copy.deepcopy(
        draw(
            st.sampled_from(
                [
                    {"at": t0, "crash": [a]},
                    {"at": t1, "rejoin": [a]},
                    {"from": t0, "to": t1, "partition": {a: 1}},
                    {"from": t0, "to": t1, "loss": 0.2, "seed": 9},
                    {"from": t0, "loss": 0.1},
                    {"from": t0, "to": t1, "latency": 3.0},
                    {"from": t0, "to": t1, "storm": {"addr": a, "rate": 5.0}},
                    {"from": t0, "to": t1, "slow": {"addrs": [a], "factor": 0.25}},
                    {
                        "from": t0, "to": t1,
                        "asym_partition": {"src": [a], "dst": [a + 1]},
                    },
                    {"from": t0, "to": t1, "duplicate": 0.3, "seed": 4},
                    {"from": t0, "to": t1, "reorder": 150.0},
                    {"from": t0, "to": t1, "flap": {"addr": a, "period": 500.0}},
                ]
            )
        )
    )
    how = draw(st.sampled_from(["keep", "drop", "extra", "retype"]))
    if how == "drop":
        del entry[draw(st.sampled_from(sorted(entry)))]
    elif how == "extra":
        key = draw(st.sampled_from(["at", "from", "to", "seed"]))
        entry[key] = draw(st.sampled_from([0, 7, 500.0]))
    elif how == "retype":
        key = draw(st.sampled_from(sorted(entry)))
        entry[key] = draw(
            st.sampled_from([5, [1, 2], {"addr": 3}, "x", None, True, -3.0])
        )
    return entry


def _view(sched):
    return sched.to_spec(), sched.describe(), len(sched)


@given(
    ops=st.lists(
        st.one_of(builder_calls, spec_entries().map(lambda e: ("spec", e))),
        max_size=25,
    )
)
@settings(max_examples=300, deadline=None)
def test_a_rejected_entry_leaves_the_schedule_as_it_was(ops):
    sched = FaultSchedule()
    for name, args in ops:
        before = _view(sched)
        if name == "spec":
            try:
                sched = FaultSchedule.from_spec(before[0] + [args])
            except FaultScheduleError as exc:
                assert repr(args) in str(exc)  # the error names the entry
        else:
            try:
                getattr(sched, name)(*args)
            except FaultScheduleError:
                assert _view(sched) == before
        spec, text, n = _view(sched)
        again = FaultSchedule.from_spec(spec)
        assert _view(again) == (spec, text, n)


def test_rejected_loss_leaves_no_phantom_window():
    sched = FaultSchedule()
    with pytest.raises(FaultScheduleError):
        sched.loss(1000, 1.5, until_ms=2000)
    assert sched.to_spec() == []
    sched.loss(1000, 0.1, until_ms=2000)
    assert sched.to_spec() == [{"from": 1000.0, "to": 2000.0, "loss": 0.1}]


@pytest.mark.parametrize(
    "call",
    [
        lambda s: s.slow(1000, 2000, [1], factor=1.5),
        lambda s: s.storm(1000, 2000, 1, rate=0),
        lambda s: s.crash(-1, [1]),
    ],
    ids=["slow-factor", "storm-rate", "crash-time"],
)
def test_rejected_builder_leaves_no_residue(call):
    sched = FaultSchedule().crash(500, [2])
    before = _view(sched)
    with pytest.raises(FaultScheduleError):
        call(sched)
    assert _view(sched) == before


@pytest.mark.parametrize(
    "entry",
    [
        # ill-typed or incomplete values
        {"from": 0.0, "to": 10.0, "storm": {"addr": 3}},
        {"from": 0.0, "to": 10.0, "slow": [1, 2]},
        {"at": 0.0, "crash": 5},
        # keys the parent dropped silently
        {"from": 0.0, "to": 10.0, "partition": {0: 1}, "seed": 3},
        {"at": 5.0, "from": 0.0, "to": 10.0, "latency": 2.0},
        {"at": 0.0, "to": 10.0, "crash": [1]},
    ],
    ids=[
        "storm-no-rate", "slow-list", "crash-int",
        "partition-seed", "window-at", "crash-to",
    ],
)
def test_malformed_entry_fails_by_name(entry):
    with pytest.raises(FaultScheduleError, match=re.escape(repr(entry))):
        FaultSchedule.from_spec([entry])
