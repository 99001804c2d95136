"""Tests for the self-healing extensions: hop-failover delivery,
anti-entropy re-replication, and crash-rejoin state resync."""

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
from repro.faults import FaultSchedule
from tests.route_reference import route_once


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
    return system, scheme, installed, addr_of, rng


@pytest.fixture(autouse=True)
def fast_anti_entropy(monkeypatch):
    """Anti-entropy rounds at a test-friendly 1 s period."""
    monkeypatch.setattr("repro.core.replication.ANTI_ENTROPY_INTERVAL_MS", 1_000.0)


def healing_config():
    """The full self-healing stack at test-friendly timer settings."""
    return dict(
        replication_factor=3,
        reliable_delivery=True,
        retransmit_timeout_ms=500.0,
        max_retries=2,
        hop_failover=True,
        failover_backoff_ms=500.0,
    )


def publish_and_score(system, scheme, installed, addr_of, rng, excluded,
                      events=25):
    """Publish from survivors; return (delivered, expected, unexpected)
    counted against the surviving-subscriber oracle."""
    n = len(system.nodes)
    delivered = expected = unexpected = 0
    for _ in range(events):
        pt = rng.normal(3000, 400, 4) % 10000
        ev = Event(scheme, list(pt))
        pub = int(rng.integers(0, n))
        while pub in excluded:
            pub = int(rng.integers(0, n))
        eid = system.publish(pub, ev)
        system.run(until=system.sim.now + 10_000.0)
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


class TestHopFailover:
    def test_dead_next_hop_rerouted_without_waiting_for_ring_repair(self):
        """Regression: an event published *immediately* after a crash --
        before stabilize can purge the corpse from anyone's routing
        state -- must still reach every surviving matched subscriber via
        hop-failover plus standby-replica takeover."""
        system, scheme, installed, addr_of, rng = build(**healing_config())
        system.start_maintenance(stabilize_interval_ms=250.0,
                                 rpc_timeout_ms=1_000.0)
        system.start_anti_entropy()
        loads = [
            sum(len(r.store) for r in node.zone_repos.values())
            for node in system.nodes
        ]
        victim = int(np.argmax(loads))
        system.nodes[victim].fail()
        # No grace period: publish into the freshly broken overlay.
        d, e, u = publish_and_score(
            system, scheme, installed, addr_of, rng, {victim}
        )
        system.stop_maintenance()
        system.stop_anti_entropy()
        system.run_until_idle()
        assert e > 100
        assert u == 0
        assert d == e, f"failover lost {e - d} of {e} deliveries"
        assert system.network.stats.gave_up == 0

    def test_transport_counters_track_loss(self):
        system, scheme, installed, addr_of, rng = build(
            subs=100,
            reliable_delivery=True,
            retransmit_timeout_ms=500.0,
            max_retries=0,
        )
        FaultSchedule().loss(0.0, 0.2, seed=11).install(system)
        for _ in range(15):
            pt = rng.normal(3000, 400, 4) % 10000
            system.publish(int(rng.integers(0, 40)), Event(scheme, list(pt)))
            system.run_until_idle()
        stats = system.network.stats
        # With zero retries every first-transmission drop is abandoned;
        # retransmissions stay at zero by construction.
        assert stats.gave_up > 0
        assert stats.retransmissions == 0


class TestRouteCacheInvalidation:
    """The epoch-keyed next-hop cache (perf extension) must never serve
    a stale answer across routing-state changes -- the exact scenarios
    self-healing creates: finger fix-ups, successor changes and hop-
    failover evictions."""

    def test_cache_recomputes_after_each_epoch_bump(self):
        system, *_ = build(subs=10)
        node = system.nodes[0]
        # Pick a key this node routes (not one it owns).
        key = next(
            k for k in range(0, 2**64, 2**59)
            if not node.is_responsible(k)
        )
        first = route_once(node, key)
        assert first == node.next_hop_addr(key) == node._rc[key]
        misses = node.rc_misses
        assert route_once(node, key) == first
        assert node.rc_hits >= 1 and node.rc_misses == misses

        # Finger fix-up: overwrite whichever finger carries the key.
        donor = system.nodes[1]
        for i in list(node.fingers):
            node.fingers[i] = (donor.node_id, donor.addr)
        after_fix = route_once(node, key)
        assert node.rc_misses == misses + 1, "fix-up did not flush cache"
        assert after_fix == node.next_hop_addr(key)

        # Successor change (wholesale reassignment, stabilize-style).
        # Two entries, so the eviction below still has an alternate --
        # the last successor is never evicted (that would be permanent
        # self-isolation; see ChordNode.evict_neighbor).
        other = system.nodes[2]
        node.successors = [
            (donor.node_id, donor.addr),
            (other.node_id, other.addr),
        ]
        assert route_once(node, key) == node.next_hop_addr(key)
        assert node.rc_misses == misses + 2

        # Hop-failover eviction of the cached answer's address.
        target = route_once(node, key)  # warm (no mutation since)
        assert node.rc_misses == misses + 2
        if target is not None:
            node.evict_neighbor(target)
            fresh = route_once(node, key)
            assert fresh == node.next_hop_addr(key)
            assert fresh != target

    def test_failover_full_delivery_with_caching_on(self):
        """The headline self-healing property, route cache in the
        loop: crash the most loaded node, publish through
        the broken overlay, and require ratio 1.0 -- while the cache is
        demonstrably in use (hits > 0) and epoch bumps from eviction/
        maintenance keep it honest."""
        system, scheme, installed, addr_of, rng = build(**healing_config())
        system.start_maintenance(stabilize_interval_ms=250.0,
                                 rpc_timeout_ms=1_000.0)
        system.start_anti_entropy()
        loads = [
            sum(len(r.store) for r in node.zone_repos.values())
            for node in system.nodes
        ]
        victim = int(np.argmax(loads))
        system.nodes[victim].fail()
        d, e, u = publish_and_score(
            system, scheme, installed, addr_of, rng, {victim}
        )
        system.stop_maintenance()
        system.stop_anti_entropy()
        system.run_until_idle()
        assert u == 0
        assert d == e, f"failover with caching lost {e - d} of {e}"
        stats = system.route_cache_stats()
        assert stats["hits"] > 0 and stats["hit_rate"] > 0.0


class TestAntiEntropy:
    def test_replica_floor_restored_after_crash(self):
        """After a crash destroys one copy of every entry the victim
        held, periodic anti-entropy must re-replicate until each entry
        is again on ``replication_factor`` alive nodes."""
        system, scheme, installed, addr_of, rng = build(**healing_config())
        system.start_maintenance(stabilize_interval_ms=250.0,
                                 rpc_timeout_ms=1_000.0)
        system.start_anti_entropy()
        loads = [
            sum(len(r.store) for r in node.zone_repos.values())
            for node in system.nodes
        ]
        victim = int(np.argmax(loads))
        system.nodes[victim].fail()
        system.run(until=system.sim.now + 20_000.0)
        system.stop_maintenance()
        system.stop_anti_entropy()
        system.run_until_idle()
        report = system.check_invariants(check_replicas=True)
        assert report.ok, report.render()

    def test_rejoin_after_stop_does_not_restart_repair(self):
        """Regression: anti-entropy is on exactly while the fleet runs
        it.  A node rejoining while it runs joins in; one rejoining
        after ``stop_anti_entropy()`` must not start its own repair
        loop, whose tick would reschedule itself for as long as the
        node lives."""
        system, *_ = build(n=24, subs=40, **healing_config())
        system.start_anti_entropy()
        system.nodes[5].fail()
        system.rejoin_node(5)
        assert system.nodes[5]._ae_running
        system.run(until=system.sim.now + 5_000.0)
        system.nodes[5].fail()
        system.stop_anti_entropy()
        system.rejoin_node(5)
        assert not system.nodes[5]._ae_running
        system.run(until=system.sim.now + 5_000.0)
        system.stop_maintenance()
        system.run_until_idle()  # drains: no repair tick is left armed

    def test_requires_replicas(self):
        system, *_ = build(n=24, subs=10, replication_factor=1)
        with pytest.raises(ValueError, match="replication_factor"):
            system.start_anti_entropy()
        assert not any(node._ae_running for node in system.nodes)


class TestStandbyMarkers:
    def test_register_standby_marker_unit(self):
        system, *_ = build(subs=10, replication_factor=2)
        node = system.nodes[0]
        node.register_standby_marker(1234, 7, ("e", 5, 2))
        assert node.standby_markers[(1234, 7)] == ("e", 5, 2)

    def test_marker_origins_mirrored_on_successor(self):
        """With k > 1 every surrogate-subscription marker a node owns
        must be registered as a standby marker on its first successor,
        so a takeover can keep serving marker lookups."""
        system, *_ = build(**healing_config())
        checked = 0
        for node in system.nodes:
            if not node.marker_origin:
                continue
            succ = system.nodes[node.successors[0][1]]
            for iid, repo_key in node.marker_origin.items():
                assert succ.standby_markers.get(
                    (node.node_id, iid)
                ) == repo_key, (
                    f"marker ({node.addr}, {iid}) missing on successor"
                )
                checked += 1
        assert checked > 0, "workload installed no surrogate markers"


class TestRejoinResync:
    def test_crash_heal_rejoin_full_delivery(self):
        """End-to-end recovery timeline: crash a loaded node, deliver
        through the healed overlay, rejoin it, and verify the rejoined
        node resyncs its arcs (including marker-served internal zones)
        so delivery is again exact and all invariants hold."""
        system, scheme, installed, addr_of, rng = build(**healing_config())
        system.start_maintenance(stabilize_interval_ms=250.0,
                                 rpc_timeout_ms=1_000.0)
        system.start_anti_entropy()
        loads = [
            sum(len(r.store) for r in node.zone_repos.values())
            for node in system.nodes
        ]
        victim = int(np.argmax(loads))
        system.nodes[victim].fail()
        system.run(until=system.sim.now + 15_000.0)

        d, e, _u = publish_and_score(
            system, scheme, installed, addr_of, rng, {victim}, events=10
        )
        assert d == e, f"healed overlay lost {e - d} of {e}"

        system.rejoin_node(victim)
        system.run(until=system.sim.now + 20_000.0)

        d, e, u = publish_and_score(
            system, scheme, installed, addr_of, rng, set(), events=10
        )
        system.stop_maintenance()
        system.stop_anti_entropy()
        system.run_until_idle()
        assert u == 0
        assert d == e, f"post-rejoin lost {e - d} of {e} deliveries"
        report = system.check_invariants(check_replicas=True)
        assert report.ok, report.render()

    def test_rejoin_bumps_transport_epoch(self):
        """Regression: the rejoined incarnation restarts its reliable-
        transport sequence numbers at zero, so without an incarnation
        epoch peers would ack-and-discard its first packets as
        duplicates of the dead incarnation's.  The epoch must increment
        across every rejoin."""
        system, *_ = build(subs=20, **healing_config())
        assert system.nodes[7]._rel_epoch == 0
        system.start_maintenance(stabilize_interval_ms=250.0,
                                 rpc_timeout_ms=1_000.0)
        system.nodes[7].fail()
        system.run(until=system.sim.now + 5_000.0)
        system.rejoin_node(7)
        assert system.nodes[7]._rel_epoch == 1
        system.run(until=system.sim.now + 5_000.0)
        system.nodes[7].fail()
        system.run(until=system.sim.now + 5_000.0)
        system.rejoin_node(7)
        assert system.nodes[7]._rel_epoch == 2
        # Let the asynchronous join finish before stopping: its callback
        # (re)starts maintenance on the rejoined node, which would
        # otherwise keep the simulator alive forever.
        system.run(until=system.sim.now + 5_000.0)
        system.stop_maintenance()
        system.run_until_idle()
