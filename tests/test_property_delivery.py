"""Property-based end-to-end test: for ANY subscription/event set the
system delivers exactly the brute-force match set, exactly once.

This is the repository's strongest invariant; hypothesis explores
corner geometries (degenerate boxes, domain-boundary points, identical
subscriptions) that the random workloads of the integration tests never
hit.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    Attribute,
    Event,
    HyperSubConfig,
    HyperSubSystem,
    Scheme,
    Subscription,
)

DOMAIN = 1000.0
N_NODES = 25

coord = st.floats(
    min_value=0.0, max_value=DOMAIN, allow_nan=False, width=32
).map(float)

box2 = st.tuples(coord, coord, coord, coord).map(
    lambda t: (
        (min(t[0], t[1]), min(t[2], t[3])),
        (max(t[0], t[1]), max(t[2], t[3])),
    )
)

subs_strategy = st.lists(
    st.tuples(st.integers(0, N_NODES - 1), box2), min_size=0, max_size=15
)
events_strategy = st.lists(
    st.tuples(st.integers(0, N_NODES - 1), coord, coord), min_size=1, max_size=5
)


def brute_force(installed, ev):
    """This file's own reference (tests/test_oracle.py checks
    ``repro.oracle.judge`` against it): the sorted ``(nid, iid)`` of
    every installed subscription whose box holds the event's point."""
    return sorted(
        (sid.nid, sid.iid) for sub, sid in installed if sub.matches(ev)
    )


def build_system(base=2, direct=4):
    cfg = HyperSubConfig(
        seed=3, base=base, code_bits=12, direct_rendezvous_levels=direct,
    )
    system = HyperSubSystem(num_nodes=N_NODES, config=cfg)
    scheme = Scheme("p", [Attribute("x", 0, DOMAIN), Attribute("y", 0, DOMAIN)])
    system.add_scheme(scheme)
    return system, scheme


@given(subs=subs_strategy, events=events_strategy)
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_exact_delivery_property(subs, events):
    system, scheme = build_system()
    installed = []
    for addr, (lows, highs) in subs:
        sub = Subscription.from_box(scheme, list(lows), list(highs))
        installed.append((sub, system.subscribe(addr, sub)))
    system.finish_setup()
    for addr, x, y in events:
        ev = Event(scheme, {"x": x, "y": y})
        eid = system.publish(addr, ev)
        system.run_until_idle()
        rec = system.metrics.records[eid]
        got = sorted((d[0].nid, d[0].iid) for d in rec.deliveries)
        assert got == brute_force(installed, ev)


@given(subs=subs_strategy, events=events_strategy)
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_exact_delivery_property_base4(subs, events):
    """Same invariant at base 4."""
    system, scheme = build_system(base=4)
    installed = []
    for addr, (lows, highs) in subs:
        sub = Subscription.from_box(scheme, list(lows), list(highs))
        installed.append((sub, system.subscribe(addr, sub)))
    system.finish_setup()
    for addr, x, y in events:
        ev = Event(scheme, {"x": x, "y": y})
        eid = system.publish(addr, ev)
        system.run_until_idle()
        rec = system.metrics.records[eid]
        got = sorted((d[0].nid, d[0].iid) for d in rec.deliveries)
        assert got == brute_force(installed, ev)


@given(
    point=st.tuples(coord, coord),
    boxes=st.lists(box2, min_size=1, max_size=8),
)
@settings(max_examples=30, deadline=None)
def test_duplicate_subscriptions_each_delivered(point, boxes):
    """Identical subscriptions from different subscribers are distinct
    deliveries (per-SubID semantics, no accidental dedup)."""
    system, scheme = build_system()
    x, y = point
    installed = []
    for i, (lows, highs) in enumerate(boxes):
        # Force every box to contain the point so all must fire.
        lo = (min(lows[0], x), min(lows[1], y))
        hi = (max(highs[0], x), max(highs[1], y))
        sub = Subscription.from_box(scheme, list(lo), list(hi))
        installed.append(system.subscribe(i % N_NODES, sub))
    system.finish_setup()
    eid = system.publish(0, Event(scheme, {"x": x, "y": y}))
    system.run_until_idle()
    rec = system.metrics.records[eid]
    assert rec.matched == len(installed)
    delivered = [(d[0].nid, d[0].iid) for d in rec.deliveries]
    assert len(set(delivered)) == len(delivered), "duplicate delivery"
