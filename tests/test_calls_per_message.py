"""The per-message cost gate in units the host cannot move (ROADMAP
item 6 a): Python + C function calls per ``ps_event`` message of a
fixed best-effort run, counted by ``cProfile``.

Wall-clock floors swing with the machine; a call count repeats exactly,
so it is gated at zero tolerance upward.  The count depends on the
interpreter (3.12 inlines comprehensions, for one), hence the ceiling
is keyed on the Python minor version and the test is skipped on any
other.  NumPy is only ever entered through C methods called directly
from ``core/matching.py``, one profiler event each whatever its version.
"""

import cProfile
import os
import sys

import pytest

import repro
from repro.core import HyperSubSystem
from tests.fixed_run import N_EVENTS, fixed_system

#: Python minor -> (``ps_event`` messages, calls) of :func:`profiled_run`.
#: The messages are simulated and must not move at all; the calls are a
#: ceiling.  After a change that lowers the count, lower the ceiling to
#: what the failure message reports.
#: Before the best-effort handler of its own (the relay that sends
#: the arrived packet on, no per-arrival ``alive()`` call, one metrics
#: call per forwarding hop) the same run made 138 953 calls.
PINNED = {(3, 11): (4152, 120_710)}
#: the package's own source files are the program
_PACKAGE_DIR = os.path.dirname(repro.__file__) + os.sep


def profiled_run():
    """``(ps_event messages, worklist entries, calls)`` of the event
    phase of the fixed best-effort system."""
    system = fixed_system()
    prof = cProfile.Profile()
    prof.enable()
    system.run_until_idle()
    prof.disable()
    rc = system.route_cache_stats()
    msgs = system.network.stats.msgs_by_kind["ps_event"]
    assert msgs == system.network.stats.total_msgs  # nothing else on the wire
    assert sum(r.matched for r in system.metrics.records.values()) > N_EVENTS
    return msgs, int(rc["hits"] + rc["misses"]), program_calls(prof)


def program_calls(prof, here: str = __file__) -> int:
    """Calls of the program's own functions plus the builtins they call.

    Summed over the profiler's entries, one per code object: ``pstats``
    keys by (file, line, name) and lets every generated dataclass
    ``__init__`` ("<string>", 2) overwrite the previous one.  Frames of
    anything else -- a ``gc.callbacks`` hook another test's library
    installed, the profiler's own ``disable``, a helper of the test
    suite, whatever directory the checkout sits in -- are not the
    program's.
    """
    calls = 0
    for entry in prof.getstats():
        code = entry.code
        if isinstance(code, str) or not (
            code.co_filename.startswith(_PACKAGE_DIR)
            or code.co_filename in ("<string>", here)  # what the test file patches in
        ):
            continue
        calls += entry.callcount
        calls += sum(
            sub.callcount for sub in entry.calls or () if isinstance(sub.code, str)
        )
    return calls


pytestmark = pytest.mark.skipif(
    sys.version_info[:2] not in PINNED,
    reason=f"call ceiling is pinned for Python {sorted(PINNED)} only",
)


def test_calls_per_ps_event_repeat_and_stay_under_the_ceiling():
    first = profiled_run()
    assert profiled_run() == first, "the count must repeat exactly"
    msgs, _entries, calls = first
    pinned_msgs, ceiling = PINNED[sys.version_info[:2]]
    assert msgs == pinned_msgs, "the simulated traffic itself moved"
    assert calls <= ceiling, (
        f"{calls} calls for {msgs} ps_event messages "
        f"({calls / msgs:.2f} per message) exceed the pinned {ceiling} "
        f"({ceiling / msgs:.2f})"
    )


def test_one_extra_call_per_worklist_entry_breaks_the_ceiling(monkeypatch):
    """The gate has teeth: one Python-level call added to the loop of
    ``_process_event`` per entry -- here the route cache's ``get`` --
    shows as exactly one call per entry and lands above the ceiling."""
    msgs, entries, calls = profiled_run()

    class PythonGet(dict):
        def get(self, key, default=None):
            return dict.get(self, key, default)

    real_finish = HyperSubSystem.finish_setup

    def finish_setup(self):
        real_finish(self)
        for node in self.nodes:
            node._rc = PythonGet()

    monkeypatch.setattr(HyperSubSystem, "finish_setup", finish_setup)
    slow_msgs, slow_entries, slow_calls = profiled_run()
    assert (slow_msgs, slow_entries) == (msgs, entries)
    assert slow_calls == calls + entries
    assert slow_calls > PINNED[sys.version_info[:2]][1]
