"""Tests for the Pastry overlay."""

import random

from repro.dht.idspace import cw_distance
from repro.dht.pastry import (
    build_pastry_overlay,
    digit_at,
    shared_prefix_digits,
    NUM_DIGITS,
)
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.topology import ConstantTopology, KingLikeTopology


def build(n=100, seed=1, topo=None):
    sim = Simulator()
    topo = topo or ConstantTopology(n, rtt=100.0)
    net = Network(sim, topo)
    nodes, ring = build_pastry_overlay(net, seed=seed)
    return sim, net, nodes, ring


def numerically_closest(ring, key):
    """The node id at the least circular distance from ``key`` -- the
    Pastry responsibility rule, by brute force; of two ids at equal
    distance the clockwise one."""
    def distance(x):
        return (min(cw_distance(key, x), cw_distance(x, key)), cw_distance(key, x))

    return min(ring, key=distance)


def route(nodes, start, key, limit=200):
    cur = start
    hops = 0
    while True:
        nxt = cur.next_hop_addr(key)
        if nxt is None:
            return cur, hops
        cur = nodes[nxt]
        hops += 1
        assert hops < limit, "routing loop"


class TestDigits:
    def test_digit_extraction(self):
        x = 0xABCDEF0123456789
        assert digit_at(x, 0) == 0xA
        assert digit_at(x, 1) == 0xB
        assert digit_at(x, 15) == 0x9

    def test_shared_prefix(self):
        assert shared_prefix_digits(0xAB00000000000000, 0xAB00000000000001) == 15
        assert shared_prefix_digits(0xAB00000000000000, 0xAC00000000000000) == 1
        assert shared_prefix_digits(5, 5) == NUM_DIGITS
        assert shared_prefix_digits(0, 1 << 63) == 0


class TestConstruction:
    def test_leaf_sets_are_ring_neighbors(self):
        _, _, nodes, ring = build(60)
        for node in nodes[:10]:
            cw_ids = [lid for lid, _ in node.leaves_cw]
            assert cw_ids == ring.successor_list(node.node_id, len(cw_ids))

    def test_table_entries_share_prefix(self):
        _, _, nodes, _ = build(80)
        for node in nodes[:10]:
            for row, entries in enumerate(node.table):
                for d, (ent_id, _addr) in entries.items():
                    assert shared_prefix_digits(ent_id, node.node_id) == row
                    assert digit_at(ent_id, row) == d


class TestRouting:
    def test_routes_reach_numerically_closest(self):
        _, _, nodes, ring = build(150, seed=2)
        rng = random.Random(0)
        for _ in range(300):
            key = rng.getrandbits(64)
            home, _ = route(nodes, nodes[rng.randrange(len(nodes))], key)
            assert home.node_id == numerically_closest(ring, key)

    def test_exactly_one_responsible_node_per_key(self):
        _, _, nodes, _ = build(40, seed=7)
        rng = random.Random(2)
        for _ in range(100):
            key = rng.getrandbits(64)
            owners = [n for n in nodes if n.is_responsible(key)]
            assert len(owners) == 1, key

    def test_hop_count_logarithmic(self):
        _, _, nodes, _ = build(256, seed=3)
        rng = random.Random(1)
        hops = []
        for _ in range(200):
            key = rng.getrandbits(64)
            _, h = route(nodes, nodes[rng.randrange(256)], key)
            hops.append(h)
        # Pastry: O(log_16 N) ~ 2 for 256 nodes; bound generously.
        assert sum(hops) / len(hops) < 6

    def test_own_id_is_own_responsibility(self):
        _, _, nodes, _ = build(50)
        for node in nodes:
            assert node.is_responsible(node.node_id)

    def test_single_node_overlay(self):
        sim = Simulator()
        net = Network(sim, ConstantTopology(1))
        nodes, _ = build_pastry_overlay(net, seed=1)
        assert nodes[0].next_hop_addr(999) is None

    def test_two_node_overlay(self):
        sim = Simulator()
        net = Network(sim, ConstantTopology(2))
        nodes, ring = build_pastry_overlay(net, seed=1)
        rng = random.Random(4)
        for _ in range(50):
            key = rng.getrandbits(64)
            home, _ = route(nodes, nodes[rng.randrange(2)], key)
            assert home.node_id == numerically_closest(ring, key)

    def test_lookup_simulation(self):
        sim, _, nodes, ring = build(100, seed=5)
        results = []
        rng = random.Random(3)
        keys = [rng.getrandbits(64) for _ in range(20)]
        for key in keys:
            nodes[rng.randrange(100)].lookup(key, results.append)
        sim.run_until_idle()
        assert len(results) == len(keys)
        for res in results:
            assert res.home_id == numerically_closest(ring, res.key)


class TestProximity:
    def test_proximity_tables_prefer_close_nodes(self):
        topo = KingLikeTopology(300, seed=8)
        _, _, nodes, ring = build(300, seed=8, topo=topo)

        def mean_entry_rtt(sample):
            total, count = 0.0, 0
            for node in sample:
                for row in node.table:
                    for _d, (_id, addr) in row.items():
                        total += topo.rtt_ms(node.addr, addr)
                        count += 1
            return total / count

        # Mean entry RTT should be clearly below the global mean RTT.
        assert mean_entry_rtt(nodes[:50]) < 0.8 * topo.mean_rtt(10_000)
