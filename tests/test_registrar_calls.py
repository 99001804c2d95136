"""The registrar's cost gate in units the host cannot move (ROADMAP
item 6, the third exact gate after calls per message and memory):
Python + C function calls of a fixed churn run -- subscribes and
unsubscribes installed through simulated lookups (Algorithms 2-3,
``simulate_install=True``) -- counted by ``cProfile`` the way
``tests/test_calls_per_message.py`` counts them.

The run is simulated and must repeat exactly; the calls are a ceiling
keyed on the Python minor version, and the test is skipped on any
other.  The run made 87 949 calls before the registrar worked on float
tuples, lookups shared the route-decision cache and the latency memo
kept one entry per link (79 369 after), and 75 300 once each
subscription was converted to floats once and a surrogate
replacement that only grew was merged into the filter.
"""

import cProfile
import sys

import numpy as np
import pytest

from repro.core import Attribute, HyperSubConfig, HyperSubSystem, Scheme, Subscription
from repro.core.node import PubSubNodeMixin
from tests.test_calls_per_message import program_calls

N_NODES = 100
N_INITIAL = 200
N_OPS = 400

#: Python minor -> (simulated fingerprint, calls) of :func:`profiled_churn`.
#: The fingerprint must not move at all; the calls are a ceiling.  After
#: a change that lowers the count, lower the ceiling to what the failure
#: message reports.  (75 300 before liveness became a flag the network
#: reads per arrival and the scheduler stopped counting per dispatch.)
PINNED = {
    (3, 11): (
        {"dht_lookup_reply": 1343, "dht_lookup_step": 1343, "ps_register": 211,
         "ps_unregister": 187},
        72_216,
    ),
}


def churn_system():
    """100 nodes, 200 subscriptions installed, then 400 subscribe /
    unsubscribe operations scheduled 20 ms apart and not yet run:
    ``run_until_idle()`` is the churn phase."""
    system = HyperSubSystem(
        num_nodes=N_NODES,
        config=HyperSubConfig(seed=5, code_bits=12, simulate_install=True),
    )
    scheme = Scheme("s", [Attribute(x, 0, 10_000) for x in "abcd"])
    system.add_scheme(scheme)
    rng = np.random.default_rng(17)

    def subscription():
        centre = rng.uniform(0, 10_000, size=4)
        width = rng.uniform(100, 2_500, size=4)
        return Subscription.from_box(
            scheme,
            np.maximum(centre - width, 0.0).tolist(),
            np.minimum(centre + width, 10_000.0).tolist(),
        )

    live = []
    for _ in range(N_INITIAL):
        addr = int(rng.integers(0, N_NODES))
        live.append((addr, system.subscribe(addr, subscription())))
    system.finish_setup()
    for k in range(N_OPS):
        at = system.sim.now + 20.0 * (k + 1)
        if rng.random() < 0.55 or not live:
            addr = int(rng.integers(0, N_NODES))
            system.sim.schedule_at(at, system.subscribe, addr, subscription())
        else:
            addr, subid = live.pop(int(rng.integers(0, len(live))))
            system.sim.schedule_at(at, system.unsubscribe, addr, subid)
    return system


def profiled_churn(wrap=None):
    """``(fingerprint, _register_local calls, calls)`` of the churn phase:
    the fingerprint is the messages of every install kind and the
    ``install_traffic`` ledger."""
    system = churn_system()
    prof = cProfile.Profile()
    prof.enable()
    system.run_until_idle()
    prof.disable()
    by_kind = system.network.stats.msgs_by_kind
    fingerprint = {
        kind: by_kind[kind]
        for kind in ("dht_lookup_reply", "dht_lookup_step", "ps_register", "ps_unregister")
    }
    registrations = sum(
        entry.callcount
        for entry in prof.getstats()
        if getattr(entry.code, "co_name", None) == "_register_local"
        and "/repro/" in entry.code.co_filename
    )
    install = {k: tuple(v) for k, v in sorted(system.install_traffic.items())}
    return (fingerprint, install), registrations, program_calls(prof, __file__)


pytestmark = pytest.mark.skipif(
    sys.version_info[:2] not in PINNED,
    reason=f"call ceiling is pinned for Python {sorted(PINNED)} only",
)


def test_registrar_calls_repeat_and_stay_under_the_ceiling():
    first = profiled_churn()
    assert profiled_churn() == first, "the count must repeat exactly"
    (messages, _install), registrations, calls = first
    pinned_messages, ceiling = PINNED[sys.version_info[:2]]
    assert messages == pinned_messages, "the simulated traffic itself moved"
    assert calls <= ceiling, (
        f"{calls} calls for {registrations} registrations "
        f"({calls / registrations:.2f} per registration) exceed the pinned "
        f"{ceiling} ({ceiling / registrations:.2f})"
    )


def test_one_extra_call_per_registration_breaks_the_ceiling(monkeypatch):
    """The gate has teeth: one Python-level call added to every
    ``_register_local`` -- a pass-through wrapper -- shows as exactly
    one call per registration and lands above the ceiling."""
    fingerprint, registrations, calls = profiled_churn()
    real = PubSubNodeMixin._register_local

    def register_local(self, *args):
        return real(self, *args)

    monkeypatch.setattr(PubSubNodeMixin, "_register_local", register_local)
    slow_fingerprint, _, slow_calls = profiled_churn()
    assert slow_fingerprint == fingerprint
    assert slow_calls == calls + registrations
    assert slow_calls > PINNED[sys.version_info[:2]][1]
