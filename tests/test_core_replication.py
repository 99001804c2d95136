"""Tests for the zone-repository replication extension."""

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


def make_scheme():
    return Scheme("s", [Attribute(n, 0, 10000) for n in "abcd"])


def build(replication=3, n=40, subs=200, seed=3, **kw):
    cfg = HyperSubConfig(
        seed=seed, code_bits=12, replication_factor=replication, **kw
    )
    system = HyperSubSystem(num_nodes=n, config=cfg)
    scheme = make_scheme()
    system.add_scheme(scheme)
    rng = np.random.default_rng(1)
    installed = []
    addr_of = {}
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
    return system, scheme, installed, addr_of, rng


def enable_maintenance(system, interval=200.0, timeout=800.0):
    for node in system.nodes:
        node.stabilize_interval_ms = interval
        node.rpc_timeout_ms = timeout
        node.start_maintenance()


def drain(system, ms=20_000.0):
    system.run(until=system.sim.now + ms)


class TestReplicaPlacement:
    def test_standby_copies_on_successors(self):
        system, scheme, installed, addr_of, rng = build()
        total_standby = sum(
            sum(len(r.store) for r in node.standby_repos.values())
            for node in system.nodes
        )
        total_primary = sum(
            sum(len(r.store) for r in node.zone_repos.values())
            for node in system.nodes
        )
        # k = 3: two standby copies per primary entry.
        assert total_standby == 2 * total_primary

    def test_no_replication_means_no_standby_state(self):
        system, *_ = build(replication=1)
        assert all(not node.standby_repos for node in system.nodes)

    def test_standby_never_matches_while_primary_alive(self):
        system, scheme, installed, addr_of, rng = build()
        for _ in range(20):
            pt = rng.normal(3000, 400, 4) % 10000
            ev = Event(scheme, list(pt))
            eid = system.publish(int(rng.integers(0, 40)), ev)
            system.run_until_idle()
            rec = system.metrics.records[eid]
            got = sorted((d[0].nid, d[0].iid) for d in rec.deliveries)
            expect = sorted(
                (sid.nid, sid.iid) for s, sid in installed if s.matches(ev)
            )
            assert got == expect  # exactly once, no replica duplicates

    def test_replication_factor_validation(self):
        with pytest.raises(ValueError):
            HyperSubConfig(replication_factor=0)


class TestTakeover:
    def kill_hottest_and_settle(self, system):
        loads = system.node_loads()
        victim = int(np.argmax(loads))
        enable_maintenance(system)
        system.nodes[victim].fail()
        drain(system, 20_000.0)
        return victim

    def oracle(self, system, installed, addr_of, ev, dead):
        return {
            (sid.nid, sid.iid)
            for s, sid in installed
            if s.matches(ev) and addr_of[sid] not in dead
        }

    def test_replica_serves_failed_primaries_matches(self):
        system, scheme, installed, addr_of, rng = build(replication=3)
        victim = self.kill_hottest_and_settle(system)
        delivered = expected = 0
        for _ in range(30):
            pt = rng.normal(3000, 400, 4) % 10000
            ev = Event(scheme, list(pt))
            pub = int(rng.integers(0, 40))
            while pub == victim:
                pub = int(rng.integers(0, 40))
            eid = system.publish(pub, ev)
            drain(system, 20_000.0)
            rec = system.metrics.records[eid]
            got = {(d[0].nid, d[0].iid) for d in rec.deliveries}
            want = self.oracle(system, installed, addr_of, ev, {victim})
            assert got <= want, "misdelivery after takeover"
            delivered += len(got & want)
            expected += len(want)
        assert expected > 50, "scenario produced too few expected deliveries"
        assert delivered == expected, "replication must recover all matches"

    def test_without_replication_failures_lose_deliveries(self):
        system, scheme, installed, addr_of, rng = build(replication=1)
        victim = self.kill_hottest_and_settle(system)
        delivered = expected = 0
        for _ in range(30):
            pt = rng.normal(3000, 400, 4) % 10000
            ev = Event(scheme, list(pt))
            pub = int(rng.integers(0, 40))
            while pub == victim:
                pub = int(rng.integers(0, 40))
            eid = system.publish(pub, ev)
            drain(system, 20_000.0)
            rec = system.metrics.records[eid]
            got = {(d[0].nid, d[0].iid) for d in rec.deliveries}
            want = self.oracle(system, installed, addr_of, ev, {victim})
            delivered += len(got & want)
            expected += len(want)
        assert delivered < expected, (
            "killing the hottest surrogate without replication should "
            "lose at least one delivery"
        )

    def test_no_misdelivery_of_dead_nodes_iids(self):
        """The takeover node must not confuse a dead node's SubIDs with
        its own iid-space (regression: the nid guard in
        _handle_local_entry)."""
        system, scheme, installed, addr_of, rng = build(replication=1)
        victim = self.kill_hottest_and_settle(system)
        for _ in range(30):
            pt = rng.normal(3000, 400, 4) % 10000
            ev = Event(scheme, list(pt))
            pub = int(rng.integers(0, 40))
            while pub == victim:
                pub = int(rng.integers(0, 40))
            eid = system.publish(pub, ev)
            drain(system, 20_000.0)
            rec = system.metrics.records[eid]
            for subid, _addr, _hops, _lat in rec.deliveries:
                sub = next(
                    s for s, sid in installed
                    if (sid.nid, sid.iid) == (subid.nid, subid.iid)
                )
                assert sub.matches(ev), "delivered a non-matching subscription"
