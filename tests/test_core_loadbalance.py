"""Tests for load-balancing: zone-mapping rotation and dynamic migration."""

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


def make_scheme(name="s"):
    return Scheme(name, [Attribute(n, 0, 10000) for n in "abcd"])


def skewed_workload(system, scheme, n_subs, rng, spread=150.0):
    """Heavily clustered subscriptions: the load-balancing stressor."""
    installed = []
    n = len(system.nodes)
    for _ in range(n_subs):
        lows, highs = [], []
        for _ in range(4):
            c = float(rng.normal(3000, spread) % 10000)
            w = float(rng.uniform(50, 600))
            lows.append(max(0.0, c - w))
            highs.append(min(10000.0, c + w))
        sub = Subscription.from_box(scheme, lows, highs)
        installed.append((sub, system.subscribe(int(rng.integers(0, n)), sub)))
    return installed


def build(n=40, subs=400, seed=3, **kw):
    cfg = HyperSubConfig(seed=seed, code_bits=12, **kw)
    system = HyperSubSystem(num_nodes=n, config=cfg)
    scheme = make_scheme()
    system.add_scheme(scheme)
    rng = np.random.default_rng(11)
    installed = skewed_workload(system, scheme, subs, rng)
    system.finish_setup()
    return system, scheme, installed, rng


class TestMigration:
    def test_migration_reduces_max_load(self):
        system, scheme, installed, rng = build()
        before = system.node_loads()
        system.run_migration_rounds(2)
        after = system.node_loads()
        assert after.max() < before.max()
        assert after.max() / after.mean() < before.max() / before.mean()

    def test_migration_preserves_exact_delivery(self):
        system, scheme, installed, rng = build()
        system.run_migration_rounds(2)
        system.network.stats.reset()
        system.metrics.clear_events()
        for _ in range(30):
            pt = rng.normal(3000, 300, 4) % 10000
            ev = Event(scheme, list(pt))
            eid = system.publish(int(rng.integers(0, 40)), ev)
            system.run_until_idle()
            rec = system.metrics.records[eid]
            got = sorted((d[0].nid, d[0].iid) for d in rec.deliveries)
            expect = sorted(
                (sid.nid, sid.iid) for sub, sid in installed if sub.matches(ev)
            )
            assert got == expect

    def test_no_node_unduly_loaded_after_migration(self):
        """Paper's guarantee: 'no node in the system is unduly used'.
        Figure 4 shows migration cutting the max load several-fold; we
        require a clear reduction versus the unbalanced twin system
        (migration "does not guarantee an absolute uniform
        distribution", so no uniformity assertion)."""
        balanced, *_ = build(subs=600)
        balanced.run_migration_rounds(3)
        unbalanced, *_ = build(subs=600)  # same twin, no rounds run
        assert balanced.node_loads().max() < 0.7 * unbalanced.node_loads().max()

    def test_migration_conserves_real_subscriptions(self):
        system, scheme, installed, rng = build()
        def count_real():
            total = 0
            for node in system.nodes:
                total += node.stored_subscription_count("sub")
            return total
        before = count_real()
        system.run_migration_rounds(2)
        assert count_real() == before

    def test_probe_level_two_also_works(self):
        system, scheme, installed, rng = build(migration_probe_level=2)
        before = system.node_loads().max()
        system.run_migration_rounds(1)
        assert system.node_loads().max() <= before

    def test_underloaded_network_does_not_thrash(self):
        """Uniform load: no migrations should fire."""
        cfg = HyperSubConfig(seed=3, code_bits=12)
        system = HyperSubSystem(num_nodes=30, config=cfg)
        scheme = make_scheme()
        system.add_scheme(scheme)
        rng = np.random.default_rng(4)
        # One tiny unique-zone subscription per node: near-uniform load.
        for addr in range(30):
            c = 100.0 + addr * 300.0
            sub = Subscription.from_box(
                scheme, [c, c, c, c], [c + 1, c + 1, c + 1, c + 1]
            )
            system.subscribe(addr, sub)
        system.finish_setup()
        def real_subs():
            return sum(n.stored_subscription_count("sub") for n in system.nodes)

        before_max = system.node_loads().max()
        before_real = real_subs()
        system.run_migration_rounds(1)
        # Real subscriptions are conserved and the peak cannot rise by
        # more than the summarising markers a migration inserts.
        assert real_subs() == before_real
        assert system.node_loads().max() <= before_max + 2

    def test_periodic_migration_runs(self):
        system, scheme, installed, rng = build()
        before = system.node_loads().max()
        system.start_periodic_migration()
        system.run(until=system.sim.now + 3 * system.config.migration_interval_ms)
        # Drain outstanding probe/migrate traffic deterministically.
        assert system.node_loads().max() <= before

    def test_static_rounds_validation(self):
        system, scheme, installed, rng = build(subs=10)
        with pytest.raises(ValueError):
            system.run_migration_rounds(0)


class TestRotation:
    def test_rotation_spreads_multi_scheme_hotspots(self):
        """Zones with identical codes across schemes must land on
        different nodes when rotation is on.  Measured on *real stored
        subscriptions* only -- surrogate-marker load is spread across
        many nodes regardless of rotation and would mask the effect."""
        def hot_loads(rotation):
            cfg = HyperSubConfig(seed=3, code_bits=12, rotation=rotation)
            system = HyperSubSystem(num_nodes=40, config=cfg)
            schemes = [make_scheme(f"s{i}") for i in range(6)]
            rng = np.random.default_rng(9)
            for sc in schemes:
                system.add_scheme(sc)
                # Identical straddling subscriptions in every scheme:
                # all map to the same (root-ish) zone code.
                for _ in range(20):
                    sub = Subscription.from_box(
                        sc, [4000, 4000, 4000, 4000], [6000, 6000, 6000, 6000]
                    )
                    system.subscribe(int(rng.integers(0, 40)), sub)
            system.finish_setup()
            return np.array(
                [n.stored_subscription_count("sub") for n in system.nodes]
            )

        with_rot = hot_loads(True)
        without = hot_loads(False)
        # Without rotation one node eats every scheme's root zone (all
        # 120 straddling subscriptions); rotation spreads the schemes.
        assert without.max() == 120
        assert with_rot.max() < without.max()
