"""The populate cost gate in units the host cannot move (ROADMAP item 6,
beside calls per message, the registrar's calls and the overlay
build's): Python + C function calls of installing a fixed set of
subscriptions on a fixed system with ``simulate_install=False`` -- the
set-up path every workload pays once per subscription before its first
operation (Algorithm 1, then Algorithms 2-3 with the summary cascade) --
counted by ``cProfile`` the way ``tests/test_calls_per_message.py``
counts them.

The subscriptions are built before the profiler starts, as the e2e
harness builds them before its timed set-up.  The install is a pure
function of its inputs and must repeat exactly; the calls are a ceiling
keyed on the Python minor version, and the test is skipped on any
other.  The install made 159 685 calls while each subscription was
converted to floats five times and every surrogate replacement rescanned
its store (139 914 after).
"""

import cProfile
import hashlib
import sys

import numpy as np
import pytest

from repro.core import Attribute, HyperSubConfig, HyperSubSystem, Scheme, Subscription
from repro.core.node import PubSubNodeMixin
from tests.test_calls_per_message import program_calls

N_NODES = 64
N_SUBS = 1_000
DOMAIN = 10_000.0

#: Python minor -> (state fingerprint, calls) of :func:`profiled_populate`.
#: The fingerprint must not move at all; the calls are a ceiling.  After
#: a change that lowers the count, lower the ceiling to what the failure
#: message reports.
PINNED = {(3, 11): ((2373, "e3e2f63306129b96"), 139_914)}


def populate_plan():
    """The fixed system and the ``(addr, Subscription)`` pairs to install:
    half narrow boxes that hash deep and cascade, half boxes that pin
    one or two of the four attributes and leave the rest to the domain."""
    system = HyperSubSystem(
        num_nodes=N_NODES, config=HyperSubConfig(seed=5, code_bits=12)
    )
    scheme = Scheme("s", [Attribute(x, 0, DOMAIN) for x in "abcd"])
    system.add_scheme(scheme)
    rng = np.random.default_rng(23)
    plan = []
    for k in range(N_SUBS + 1):
        centre = rng.uniform(0, DOMAIN, size=4)
        width = rng.uniform(10, 400, size=4)
        lows = np.maximum(centre - width, 0.0)
        highs = np.minimum(centre + width, DOMAIN)
        if k % 2:
            free = rng.random(4) < 0.6
            lows[free], highs[free] = 0.0, DOMAIN
        sub = Subscription.from_box(scheme, lows.tolist(), highs.tolist())
        plan.append((int(rng.integers(0, N_NODES)), sub))
    return system, plan


def state_fingerprint(system):
    """``(registrations, digest)``: the digest covers every repository's
    key, summary filter (as ``repr``, so the sign of zero counts),
    children and stored entries in slot order, the rendezvous index,
    the iid counters and ``install_traffic``."""
    h = hashlib.sha256()
    for node in system.nodes:
        for key, repo in sorted(node.zone_repos.items()):
            store = repo.store
            slots = [None if s is None else store.get_box(s) for s in store._subids]
            h.update(repr((key, repr(repo.sf), sorted(repo.children.items()), slots)).encode())
        h.update(repr(sorted(node.rendezvous_index.items())).encode())
        h.update(repr((node._iid_counter, node._marker_iid_counter)).encode())
    install = sorted(system.install_traffic.items())
    h.update(repr(install).encode())
    registrations = sum(count for kind, (count, _bytes) in install if kind != "unregister")
    return registrations, h.hexdigest()[:16]


def profiled_populate():
    """``(fingerprint, calls)`` of installing the fixed plan.  One
    subscription goes in before the profiler starts: the first store of
    a width in a process also makes the query column every store of
    that width shares."""
    system, plan = populate_plan()
    subscribe = system.subscribe
    subscribe(*plan.pop())
    prof = cProfile.Profile()
    prof.enable()
    for addr, sub in plan:
        subscribe(addr, sub)
    prof.disable()
    return state_fingerprint(system), program_calls(prof, __file__)


pytestmark = pytest.mark.skipif(
    sys.version_info[:2] not in PINNED,
    reason=f"call ceiling is pinned for Python {sorted(PINNED)} only",
)


def test_populate_calls_repeat_and_stay_under_the_ceiling():
    first = profiled_populate()
    assert profiled_populate() == first, "the count must repeat exactly"
    fingerprint, calls = first
    pinned_fingerprint, ceiling = PINNED[sys.version_info[:2]]
    assert fingerprint == pinned_fingerprint, "the installed state moved"
    assert calls <= ceiling, (
        f"{calls} calls for {N_SUBS} subscriptions "
        f"({calls / N_SUBS:.2f} per subscription) exceed the pinned {ceiling} "
        f"({ceiling / N_SUBS:.2f})"
    )


def test_one_extra_call_per_subscription_breaks_the_ceiling(monkeypatch):
    """The gate has teeth: one Python-level call added to every
    ``subscribe`` -- a pass-through wrapper -- shows as exactly one call
    per subscription and lands above the ceiling."""
    fingerprint, calls = profiled_populate()
    real = PubSubNodeMixin.subscribe

    def subscribe(self, sub):
        return real(self, sub)

    monkeypatch.setattr(PubSubNodeMixin, "subscribe", subscribe)
    slow_fingerprint, slow_calls = profiled_populate()
    assert slow_fingerprint == fingerprint
    assert slow_calls == calls + N_SUBS
    assert slow_calls > PINNED[sys.version_info[:2]][1]
