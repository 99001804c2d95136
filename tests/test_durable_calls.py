"""The durable path's cost gate in units the host cannot move: Python +
C function calls of the event phase of the fixed durable + FIFO run
under 3 % loss (``tests/fixed_run.py``), counted by ``cProfile``.

The sibling of ``tests/test_calls_per_message.py``, which gates the
best-effort hop: here every ``ps_event`` is a reliable packet with a
retransmission record and custody-tagged entries, so the hop ack, the
custody log and the subscriber acks are what the count measures.  A
call count repeats exactly, so it is gated at zero tolerance upward;
it depends on the interpreter, hence the ceiling is keyed on the Python
minor version and the test is skipped on any other.  The simulated
run itself is pinned by literals: a change that moves a packet fails
here before its call count is looked at.
"""

import cProfile
import sys

import pytest

from repro.core.durability import DurableState
from tests.fixed_run import fixed_durable_system, run_durable
from tests.test_calls_per_message import program_calls
from tests.test_wire_identity import _delivery_digest

#: Python minor -> calls ceiling of :func:`profiled_run`.  After a
#: change that lowers the count, lower the ceiling to what the failure
#: message reports.  Before the slotted retransmission record and the
#: one-pass custody intake the same run made 372 657 calls,
#: 348 861 before the network read liveness as a flag per arrival, and
#: 337 073 before the rendezvous loop skipped repositories whose summary
#: filter excludes the event point.
PINNED = {(3, 11): 336_813}

#: The simulated run, recorded before those changes; none of it may move.
MSGS_BY_KIND = {"ps_dack": 2028, "ps_event": 5124, "ps_event_ack": 4990}
BYTES_BY_KIND = {
    "ps_dack": 40_560.0, "ps_event": 800_030.0, "ps_event_ack": 99_800.0,
}
DIGEST = "160c789a5040b28c47995c95abb48eed8e276c4656b7cd703467b47dc25b007d"
APPENDS = 2007

pytestmark = pytest.mark.skipif(
    sys.version_info[:2] not in PINNED,
    reason=f"call ceiling is pinned for Python {sorted(PINNED)} only",
)


def profiled_run():
    """``(msgs by kind, bytes by kind, delivery digest, custody appends,
    calls)`` of the event phase of the fixed durable system."""
    system = fixed_durable_system()
    prof = cProfile.Profile()
    prof.enable()
    run_durable(system)
    prof.disable()
    stats = system.network.stats
    assert stats.retransmissions > 0 and stats.dropped_by_cause["loss"] > 0
    assert sum(len(n.durable.log) for n in system.nodes) == 0
    return (
        dict(stats.msgs_by_kind), dict(stats.bytes_by_kind),
        _delivery_digest(system), stats.durable_counts["appends"],
        program_calls(prof, __file__),
    )


def test_durable_calls_repeat_and_stay_under_the_ceiling():
    first = profiled_run()
    assert profiled_run() == first, "the count must repeat exactly"
    msgs, sizes, digest, appends, calls = first
    assert msgs == MSGS_BY_KIND, "the simulated traffic itself moved"
    assert sizes == BYTES_BY_KIND
    assert digest == DIGEST, "the deliveries moved"
    assert appends == APPENDS
    ceiling = PINNED[sys.version_info[:2]]
    assert calls <= ceiling, (
        f"{calls} calls for {msgs['ps_event']} ps_event messages "
        f"({calls / msgs['ps_event']:.2f} per message) exceed the pinned "
        f"{ceiling} ({ceiling / msgs['ps_event']:.2f})"
    )


def test_one_extra_call_per_custody_append_breaks_the_ceiling(monkeypatch):
    """The gate has teeth: one Python-level call added to every custody
    append -- a wrapper around ``DurableState.append`` -- shows as
    exactly one call per entry and lands above the ceiling."""
    *run, appends, calls = profiled_run()
    real = DurableState.append

    def append(self, *args):
        return real(self, *args)

    monkeypatch.setattr(DurableState, "append", append)
    *slow_run, slow_appends, slow_calls = profiled_run()
    assert (slow_run, slow_appends) == (run, appends)
    assert slow_calls == calls + appends
    assert slow_calls > PINNED[sys.version_info[:2]]
