"""Tests for graceful departure with surrogate-state transfer."""

import numpy as np
import pytest

from repro.core import (
    Attribute,
    Event,
    HyperSubConfig,
    HyperSubSystem,
    Scheme,
    Subscription,
)


def build(n=40, subs=250, seed=3, **cfg_kwargs):
    cfg_kwargs.setdefault("code_bits", 12)
    cfg = HyperSubConfig(seed=seed, **cfg_kwargs)
    system = HyperSubSystem(num_nodes=n, config=cfg)
    scheme = Scheme("s", [Attribute(x, 0, 10000) for x in "abcd"])
    system.add_scheme(scheme)
    rng = np.random.default_rng(1)
    installed, addr_of = [], {}
    for _ in range(subs):
        lows, highs = [], []
        for _ in range(4):
            c = float(rng.normal(3000, 300) % 10000)
            w = float(rng.uniform(100, 700))
            lows.append(max(0.0, c - w))
            highs.append(min(10000.0, c + w))
        sub = Subscription.from_box(scheme, lows, highs)
        addr = int(rng.integers(0, n))
        sid = system.subscribe(addr, sub)
        installed.append((sub, sid))
        addr_of[sid] = addr
    system.finish_setup()
    for node in system.nodes:
        node.stabilize_interval_ms = 200.0
        node.rpc_timeout_ms = 800.0
        node.start_maintenance()
    return system, scheme, installed, addr_of, rng


def check_delivery(system, scheme, installed, addr_of, rng, excluded, events=30):
    """Publish and verify with maintenance stopped (the ring has already
    settled; keeping maintenance on just multiplies simulated traffic)."""
    for node in system.nodes:
        node.stop_maintenance()
    system.run_until_idle()
    n = len(system.nodes)
    delivered = expected = unexpected = 0
    for _ in range(events):
        pt = rng.normal(3000, 400, 4) % 10000
        ev = Event(scheme, list(pt))
        pub = int(rng.integers(0, n))
        while pub in excluded:
            pub = int(rng.integers(0, n))
        eid = system.publish(pub, ev)
        system.run_until_idle()
        rec = system.metrics.records[eid]
        got = {(d[0].nid, d[0].iid) for d in rec.deliveries}
        want = {
            (sid.nid, sid.iid)
            for s, sid in installed
            if s.matches(ev) and addr_of[sid] not in excluded
        }
        delivered += len(got & want)
        expected += len(want)
        unexpected += len(got - want)
    return delivered, expected, unexpected


class TestGracefulLeave:
    def test_hottest_node_leaves_no_loss(self):
        system, scheme, installed, addr_of, rng = build()
        leaver = int(np.argmax(system.node_loads()))
        system.nodes[leaver].leave_gracefully()
        system.run(until=system.sim.now + 20_000.0)
        d, e, u = check_delivery(system, scheme, installed, addr_of, rng, {leaver})
        assert e > 100
        assert u == 0
        assert d == e, f"graceful leave lost {e - d} of {e} deliveries"

    def test_successive_graceful_leaves(self):
        system, scheme, installed, addr_of, rng = build()
        leavers = set()
        order = np.argsort(system.node_loads())[::-1][:3]
        for leaver in order:
            system.nodes[int(leaver)].leave_gracefully()
            leavers.add(int(leaver))
            system.run(until=system.sim.now + 15_000.0)
        d, e, u = check_delivery(
            system, scheme, installed, addr_of, rng, leavers, events=20
        )
        assert u == 0
        # The successor of a leaver may itself leave; its *inherited*
        # standby state is not re-transferred (a second-order handoff a
        # production system would add), so allow a small loss here.
        assert d >= 0.9 * e

    def test_leaver_is_dead_after_leaving(self):
        system, scheme, installed, addr_of, rng = build(subs=20)
        system.nodes[5].leave_gracefully()
        assert not system.nodes[5].alive()

    def test_migrated_stores_inherited(self):
        system, scheme, installed, addr_of, rng = build(subs=400)
        # run_migration_rounds drains the simulator, so periodic chord
        # maintenance must be paused around it (it reschedules forever).
        for node in system.nodes:
            node.stop_maintenance()
        system.run_migration_rounds(2)
        for node in system.nodes:
            node.start_maintenance()
        # Find a node holding migrated stores; make it leave gracefully.
        holder = next(
            (n for n in system.nodes if n.migrated), None
        )
        if holder is None:
            pytest.skip("no migrations occurred at this scale")
        succ = system.nodes[holder.successors[0][1]]
        holder.leave_gracefully()
        assert succ.standby_migrated, "migrated stores must be inherited"
        system.run(until=system.sim.now + 20_000.0)
        d, e, u = check_delivery(
            system, scheme, installed, addr_of, rng, {holder.addr}, events=15
        )
        assert u == 0
        assert d == e
