"""Integration tests: the full pub/sub pipeline against a brute-force oracle."""

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
from repro.core.subscription import Predicate


def make_scheme(name="s"):
    return Scheme(name, [Attribute(n, 0, 10000) for n in "abcd"])


def random_sub(scheme, rng, spread=300.0, wmax=800.0):
    lows, highs = [], []
    for _ in range(scheme.dimensions):
        c = float(rng.normal(3000, spread) % 10000)
        w = float(rng.uniform(50, wmax))
        lows.append(max(0.0, c - w))
        highs.append(min(10000.0, c + w))
    return Subscription.from_box(scheme, lows, highs)


def random_event(scheme, rng, spread=400.0):
    pt = rng.normal(3000, spread, scheme.dimensions) % 10000
    return Event(scheme, list(pt))


def build_system(n=40, subs=200, seed=5, **cfg_kwargs):
    cfg_kwargs.setdefault("code_bits", 12)
    cfg = HyperSubConfig(seed=3, **cfg_kwargs)
    system = HyperSubSystem(num_nodes=n, config=cfg)
    scheme = make_scheme()
    system.add_scheme(scheme)
    rng = np.random.default_rng(seed)
    installed = []
    for _ in range(subs):
        sub = random_sub(scheme, rng)
        sid = system.subscribe(int(rng.integers(0, n)), sub)
        installed.append((sub, sid))
    system.finish_setup()
    return system, scheme, installed, rng


def assert_exact_delivery(system, scheme, installed, rng, events=40):
    n = len(system.nodes)
    matched_any = 0
    for _ in range(events):
        ev = random_event(scheme, rng)
        eid = system.publish(int(rng.integers(0, n)), ev)
        system.run_until_idle()
        rec = system.metrics.records[eid]
        got = sorted((d[0].nid, d[0].iid) for d in rec.deliveries)
        expect = sorted(
            (sid.nid, sid.iid) for sub, sid in installed if sub.matches(ev)
        )
        assert got == expect
        matched_any += bool(expect)
    assert matched_any > events // 4, "workload produced almost no matches"


class TestEndToEnd:
    def test_exact_delivery_base2(self):
        system, scheme, installed, rng = build_system(base=2)
        assert_exact_delivery(system, scheme, installed, rng)

    def test_exact_delivery_base4(self):
        system, scheme, installed, rng = build_system(base=4)
        assert_exact_delivery(system, scheme, installed, rng)

    def test_exact_delivery_without_rotation(self):
        system, scheme, installed, rng = build_system(rotation=False)
        assert_exact_delivery(system, scheme, installed, rng)

    def test_exact_delivery_with_subschemes(self):
        cfg = HyperSubConfig(seed=3, code_bits=12)
        system = HyperSubSystem(num_nodes=40, config=cfg)
        scheme = make_scheme()
        system.add_scheme(scheme, subschemes=[["a", "b"], ["c", "d"]])
        rng = np.random.default_rng(5)
        installed = []
        for _ in range(200):
            sub = random_sub(scheme, rng)
            installed.append((sub, system.subscribe(int(rng.integers(0, 40)), sub)))
        system.finish_setup()
        assert_exact_delivery(system, scheme, installed, rng)

    def test_simulated_install_equivalent_to_fast(self):
        """Both install paths must place subscriptions identically."""
        results = []
        for simulate in (False, True):
            system, scheme, installed, rng = build_system(
                n=25, subs=80, simulate_install=simulate
            )
            loads = tuple(system.node_loads())
            results.append(loads)
        assert results[0] == results[1]

    def test_no_matches_no_deliveries(self):
        system, scheme, installed, rng = build_system(subs=5)
        ev = Event(scheme, [9999.0, 9999.0, 9999.0, 9999.0])
        eid = system.publish(0, ev)
        system.run_until_idle()
        assert system.metrics.records[eid].matched == 0

    def test_event_for_unknown_scheme_rejected(self):
        system, scheme, _, _ = build_system(subs=1)
        other = make_scheme("other")
        with pytest.raises(KeyError):
            system.publish(0, Event(other, [1, 1, 1, 1]))
        with pytest.raises(KeyError):
            system.subscribe(0, Subscription(other, []))

    def test_duplicate_scheme_rejected(self):
        system, scheme, _, _ = build_system(subs=1)
        with pytest.raises(ValueError):
            system.add_scheme(make_scheme())


class TestMultipleSchemes:
    def test_isolated_delivery_across_schemes(self):
        """Events of one scheme never reach subscriptions of another,
        even with identical attribute geometry (rotation separates
        zones; scheme checks separate matching)."""
        cfg = HyperSubConfig(seed=3, code_bits=12)
        system = HyperSubSystem(num_nodes=30, config=cfg)
        s1, s2 = make_scheme("one"), make_scheme("two")
        system.add_scheme(s1)
        system.add_scheme(s2)
        rng = np.random.default_rng(7)
        subs1 = [
            (sub, system.subscribe(int(rng.integers(0, 30)), sub))
            for sub in (random_sub(s1, rng) for _ in range(80))
        ]
        subs2 = [
            (sub, system.subscribe(int(rng.integers(0, 30)), sub))
            for sub in (random_sub(s2, rng) for _ in range(80))
        ]
        system.finish_setup()
        for _ in range(25):
            ev = random_event(s1, rng)
            eid = system.publish(int(rng.integers(0, 30)), ev)
            system.run_until_idle()
            rec = system.metrics.records[eid]
            got = sorted((d[0].nid, d[0].iid) for d in rec.deliveries)
            expect = sorted(
                (sid.nid, sid.iid) for sub, sid in subs1 if sub.matches(ev)
            )
            assert got == expect


class TestUnsubscribe:
    def test_unsubscribed_subscription_stops_matching(self):
        system, scheme, installed, rng = build_system(subs=60)
        # Unsubscribe half of them.
        removed = set()
        for sub, sid in installed[::2]:
            addr = next(
                a for a, node in enumerate(system.nodes) if node.node_id == sid.nid
            )
            system.unsubscribe(addr, sid)
            removed.add((sid.nid, sid.iid))
        system.run_until_idle()
        for _ in range(25):
            ev = random_event(scheme, rng)
            eid = system.publish(int(rng.integers(0, 40)), ev)
            system.run_until_idle()
            rec = system.metrics.records[eid]
            got = {(d[0].nid, d[0].iid) for d in rec.deliveries}
            assert not (got & removed)
            expect = {
                (sid.nid, sid.iid)
                for sub, sid in installed
                if sub.matches(ev) and (sid.nid, sid.iid) not in removed
            }
            assert got == expect

    def test_unsubscribe_foreign_subid_rejected(self):
        system, scheme, installed, _ = build_system(subs=3)
        sub, sid = installed[0]
        wrong_addr = next(
            a for a, node in enumerate(system.nodes) if node.node_id != sid.nid
        )
        with pytest.raises(KeyError):
            system.unsubscribe(wrong_addr, sid)


class TestMetrics:
    def test_event_record_fields(self):
        system, scheme, installed, rng = build_system()
        ev = random_event(scheme, rng)
        eid = system.publish(3, ev)
        system.run_until_idle()
        rec = system.metrics.records[eid]
        assert rec.publisher_addr == 3
        assert rec.scheme == "s"
        if rec.matched:
            assert rec.max_hops >= 1
            assert rec.max_latency_ms > 0
            assert rec.bytes > 0
            assert rec.messages >= rec.max_hops

    def test_matched_percentage_distribution(self):
        system, scheme, installed, rng = build_system()
        for _ in range(20):
            system.publish(int(rng.integers(0, 40)), random_event(scheme, rng))
        system.run_until_idle()
        dist = system.metrics.matched_percentages()
        assert dist.n == 20
        assert 0 <= dist.mean <= 100

    def test_total_subscriptions_counted(self):
        system, scheme, installed, rng = build_system(subs=123)
        assert system.metrics.total_subscriptions == 123
        # the matched-percentage denominator counts live subscriptions
        for _sub, sid in installed[:20]:
            system.unsubscribe(system.ring.addr(sid.nid), sid)
        assert system.metrics.total_subscriptions == 103
        assert system.metrics.subscriptions_by_scheme == {"s": 103}

    def test_bandwidth_counters_track_event_traffic(self):
        system, scheme, installed, rng = build_system()
        ev = random_event(scheme, rng)
        eid = system.publish(0, ev)
        system.run_until_idle()
        rec = system.metrics.records[eid]
        total_net = system.network.stats.total_bytes
        # All post-setup traffic is event delivery here.
        assert total_net == pytest.approx(rec.bytes)

    def test_application_callback_invoked(self):
        system, scheme, installed, rng = build_system()
        hits = []
        system.on_deliver = lambda addr, eid, subid: hits.append((addr, eid, subid))
        matched = 0
        for _ in range(10):
            ev = random_event(scheme, rng)
            eid = system.publish(int(rng.integers(0, 40)), ev)
            system.run_until_idle()
            matched += system.metrics.records[eid].matched
        assert len(hits) == matched


class TestScheduledPublication:
    def test_schedule_publish_runs_at_time(self):
        system, scheme, installed, rng = build_system(subs=20)
        ev = random_event(scheme, rng)
        system.schedule_publish(500.0, 1, ev)
        system.run_until_idle()
        (rec,) = system.metrics.records.values()
        assert rec.publish_time == 500.0


class TestMaintenanceTimeout:
    def _ring(self):
        return HyperSubSystem(
            num_nodes=16, config=HyperSubConfig(seed=4, code_bits=12, base=2)
        )

    def test_timeout_below_the_largest_rtt_is_refused(self):
        """A 200 ms RPC timeout on this ring (largest RTT 393.3 ms) once
        turned 796 ps_event packets into 3 611 and let 45 die at the
        TTL: every long link's reply arrives after its timeout."""
        system = self._ring()
        assert system.topology.max_rtt_ms() == pytest.approx(393.3, abs=0.05)
        with pytest.raises(ValueError, match=r"rpc_timeout_ms=200.0 .* 393\.3 ms"):
            system.start_maintenance(
                stabilize_interval_ms=300.0, rpc_timeout_ms=200.0
            )
        assert all(n.rpc_timeout_ms == 2000.0 for n in system.nodes)
        with pytest.raises(ValueError):
            system.start_maintenance(rpc_timeout_ms=system.topology.max_rtt_ms())

    def test_timeout_above_the_largest_rtt_runs(self):
        system = self._ring()
        system.start_maintenance(stabilize_interval_ms=300.0, rpc_timeout_ms=1_500.0)
        assert all(n.rpc_timeout_ms == 1_500.0 for n in system.nodes)
        system.run(until=system.sim.now + 2_000.0)
        system.stop_maintenance()
        system.run_until_idle()
