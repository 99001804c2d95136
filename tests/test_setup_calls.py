"""The overlay set-up cost gate in units the host cannot move (ROADMAP
item 6, beside calls per message and the registrar's calls): Python + C
function calls of ``build_chord_overlay`` on a fixed 400-node King-like
network, counted by ``cProfile`` the way
``tests/test_calls_per_message.py`` counts them.

The overlay is a pure function of its inputs and must repeat exactly;
the calls are a ceiling keyed on the Python minor version, and the test
is skipped on any other.  The build made 241 021 calls while it walked
all 64 finger spans of every node (64 291 once it visited only the
occupied ones).
"""

import cProfile
import hashlib
import sys

import pytest

import repro.dht.pns
from repro.dht.chord import build_chord_overlay
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.topology import KingLikeTopology
from tests.test_calls_per_message import program_calls

N_NODES = 400

#: Python minor -> (fingerprint, calls) of :func:`profiled_build`.  The
#: fingerprint (finger spans and a digest of every table) must not move
#: at all; the calls are a ceiling.  After a change that lowers the
#: count, lower the ceiling to what the failure message reports.
PINNED = {(3, 11): ((3574, "0cb9a6145c8fb919"), 64_291)}


def profiled_build():
    """``(fingerprint, calls)`` of building the fixed overlay."""
    net = Network(Simulator(), KingLikeTopology(N_NODES, seed=3))
    prof = cProfile.Profile()
    prof.enable()
    nodes, _ring = build_chord_overlay(net, seed=3)
    prof.disable()
    digest = hashlib.sha256(repr([node.fingers for node in nodes]).encode())
    spans = sum(len(node.fingers) for node in nodes)
    return (spans, digest.hexdigest()[:16]), program_calls(prof, __file__)


pytestmark = pytest.mark.skipif(
    sys.version_info[:2] not in PINNED,
    reason=f"call ceiling is pinned for Python {sorted(PINNED)} only",
)


def test_setup_calls_repeat_and_stay_under_the_ceiling():
    first = profiled_build()
    assert profiled_build() == first, "the count must repeat exactly"
    fingerprint, calls = first
    pinned_fingerprint, ceiling = PINNED[sys.version_info[:2]]
    assert fingerprint == pinned_fingerprint, "the finger tables moved"
    spans = fingerprint[0]
    assert calls <= ceiling, (
        f"{calls} calls for {spans} occupied finger spans "
        f"({calls / spans:.2f} per span) exceed the pinned {ceiling} "
        f"({ceiling / spans:.2f})"
    )


def test_one_extra_call_per_span_breaks_the_ceiling(monkeypatch):
    """The gate has teeth: one Python-level call added per occupied
    span -- a pass-through wrapper around the bisect that finds the
    span's end -- shows as exactly one call per span and lands above
    the ceiling."""
    fingerprint, calls = profiled_build()
    real = repro.dht.pns.bisect_left

    def bisect_left(*args):
        return real(*args)

    monkeypatch.setattr(repro.dht.pns, "bisect_left", bisect_left)
    slow_fingerprint, slow_calls = profiled_build()
    assert slow_fingerprint == fingerprint
    assert slow_calls == calls + fingerprint[0]
    assert slow_calls > PINNED[sys.version_info[:2]][1]
