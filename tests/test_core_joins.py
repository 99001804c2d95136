"""Tests for live joins with rendezvous-state handoff."""

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
from repro.dht.idspace import ID_SPACE, id_in_interval


def build(active=32, total=40, seed=3):
    cfg = HyperSubConfig(seed=seed, code_bits=12)
    system = HyperSubSystem(num_nodes=total, active_nodes=active, config=cfg)
    scheme = Scheme("s", [Attribute(n, 0, 10000) for n in "abcd"])
    system.add_scheme(scheme)
    rng = np.random.default_rng(1)
    installed = []
    for _ in range(250):
        lows, highs = [], []
        for _ in range(4):
            c = float(rng.normal(3000, 300) % 10000)
            w = float(rng.uniform(100, 700))
            lows.append(max(0.0, c - w))
            highs.append(min(10000.0, c + w))
        sub = Subscription.from_box(scheme, lows, highs)
        installed.append((sub, system.subscribe(int(rng.integers(0, active)), sub)))
    system.finish_setup()
    for node in system.nodes:
        node.stabilize_interval_ms = 200.0
        node.rpc_timeout_ms = 800.0
        node.start_maintenance()
    return system, scheme, installed, rng


def plant_joiner_in_hot_arc(system):
    """Aim the next joiner's id at the busiest node's rendezvous keys,
    so the join *must* split a populated arc."""
    hot = max(
        (n for n in system.nodes), key=lambda n: len(n.rendezvous_index)
    )
    keys = sorted(hot.rendezvous_index)
    assert keys, "workload produced no rendezvous repos?!"
    split_key = keys[len(keys) // 2]
    addr = len(system.nodes)
    system._all_ids[addr] = split_key  # joiner owns keys <= split_key
    return hot, split_key


def drain(system, ms):
    system.run(until=system.sim.now + ms)


def stop(system):
    for node in system.nodes:
        node.stop_maintenance()


class TestJoinHandoff:
    def test_handoff_moves_rendezvous_repos(self):
        system, scheme, installed, rng = build()
        hot, split_key = plant_joiner_in_hot_arc(system)
        before = set(hot.rendezvous_index)
        addr = system.join_node(bootstrap_addr=0)
        drain(system, 20_000.0)
        joiner = system.nodes[addr]
        moved = {k for k in before if k not in hot.rendezvous_index}
        assert moved, "no keys moved off the old owner"
        assert set(joiner.rendezvous_index) >= moved
        # Every moved repo's contents arrived intact.
        for key in moved:
            for repo_key in joiner.rendezvous_index[key]:
                assert len(joiner.zone_repos[repo_key].store) > 0
        stop(system)

    def test_exact_delivery_after_join_into_hot_arc(self):
        system, scheme, installed, rng = build()
        plant_joiner_in_hot_arc(system)
        addr = system.join_node(bootstrap_addr=0)
        drain(system, 25_000.0)
        delivered = expected = unexpected = 0
        for _ in range(40):
            pt = rng.normal(3000, 400, 4) % 10000
            ev = Event(scheme, list(pt))
            eid = system.publish(int(rng.integers(0, len(system.nodes))), ev)
            drain(system, 20_000.0)
            rec = system.metrics.records[eid]
            got = {(d[0].nid, d[0].iid) for d in rec.deliveries}
            want = {
                (sid.nid, sid.iid) for sub, sid in installed if sub.matches(ev)
            }
            delivered += len(got & want)
            expected += len(want)
            unexpected += len(got - want)
        stop(system)
        assert unexpected == 0
        assert expected > 100, "scenario must exercise real deliveries"
        assert delivered == expected, (
            f"lost {expected - delivered} of {expected} deliveries after join"
        )

    def test_multiple_joins_preserve_delivery(self):
        system, scheme, installed, rng = build(active=30, total=38)
        for _ in range(6):
            system.join_node(bootstrap_addr=0)
            drain(system, 4_000.0)
        drain(system, 25_000.0)
        delivered = expected = 0
        for _ in range(30):
            pt = rng.normal(3000, 400, 4) % 10000
            ev = Event(scheme, list(pt))
            eid = system.publish(int(rng.integers(0, len(system.nodes))), ev)
            drain(system, 20_000.0)
            rec = system.metrics.records[eid]
            got = {(d[0].nid, d[0].iid) for d in rec.deliveries}
            want = {
                (sid.nid, sid.iid) for sub, sid in installed if sub.matches(ev)
            }
            delivered += len(got & want)
            expected += len(want)
        stop(system)
        assert delivered == expected

    def test_join_exhausts_reserved_addresses(self):
        system, scheme, installed, rng = build(active=38, total=40)
        system.join_node()
        system.join_node()
        with pytest.raises(ValueError):
            system.join_node()
        stop(system)
