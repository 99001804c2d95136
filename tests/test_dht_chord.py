"""Tests for static Chord construction, routing and simulated lookups."""

import random

import pytest

from repro.dht.chord import ChordNode, build_chord_overlay
from repro.dht.idspace import ID_SPACE, id_add
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.topology import ConstantTopology, KingLikeTopology


def build(n=100, seed=1, pns=True, topo=None):
    sim = Simulator()
    topo = topo or ConstantTopology(n, rtt=100.0)
    net = Network(sim, topo)
    nodes, ring = build_chord_overlay(net, seed=seed, pns=pns)
    return sim, net, nodes, ring


def route(nodes, start, key, limit=200):
    """Follow next_hop_addr chains; return (home_node, hops)."""
    cur = start
    hops = 0
    while True:
        nxt = cur.next_hop_addr(key)
        if nxt is None:
            return cur, hops
        cur = nodes[nxt]
        hops += 1
        assert hops < limit, "routing loop"


class TestStaticConstruction:
    def test_predecessor_successor_consistency(self):
        _, _, nodes, ring = build(60)
        for node in nodes:
            assert node.predecessor[0] == ring.predecessor(node.node_id)
            assert node.successors[0][0] == ring.successor(
                id_add(node.node_id, 1)
            )

    def test_successor_list_length(self):
        _, _, nodes, _ = build(60)
        for node in nodes:
            assert len(node.successors) == 8

    def test_fingers_point_into_their_spans(self):
        _, _, nodes, ring = build(60)
        for node in nodes[:10]:
            for i, (fid, faddr) in node.fingers.items():
                start = id_add(node.node_id, 1 << i)
                end = id_add(node.node_id, 1 << (i + 1))
                # fid in [start, end) on the circle
                span = (end - start) % ID_SPACE
                off = (fid - start) % ID_SPACE
                assert off < span
                assert ring.addr(fid) == faddr

    def test_ids_deterministic(self):
        _, _, a, _ = build(30, seed=5)
        _, _, b, _ = build(30, seed=5)
        assert [n.node_id for n in a] == [n.node_id for n in b]


class TestRouting:
    def test_routes_reach_successor_of_key(self):
        _, _, nodes, ring = build(150, seed=2)
        rng = random.Random(0)
        for _ in range(300):
            key = rng.getrandbits(64)
            start = nodes[rng.randrange(len(nodes))]
            home, _ = route(nodes, start, key)
            assert home.node_id == ring.successor(key)

    def test_hop_count_logarithmic(self):
        _, _, nodes, ring = build(256, seed=3)
        rng = random.Random(1)
        hops = []
        for _ in range(200):
            key = rng.getrandbits(64)
            _, h = route(nodes, nodes[rng.randrange(256)], key)
            hops.append(h)
        # O(log N): for 256 nodes expect ~4 average, bound generously.
        assert sum(hops) / len(hops) < 10
        assert max(hops) <= 16

    def test_own_id_is_own_responsibility(self):
        _, _, nodes, _ = build(50)
        for node in nodes:
            assert node.is_responsible(node.node_id)
            assert node.next_hop_addr(node.node_id) is None

    def test_exactly_one_responsible_node_per_key(self):
        _, _, nodes, _ = build(40, seed=7)
        rng = random.Random(2)
        for _ in range(100):
            key = rng.getrandbits(64)
            owners = [n for n in nodes if n.is_responsible(key)]
            assert len(owners) == 1

    def test_routing_without_pns_also_correct(self):
        _, _, nodes, ring = build(100, seed=4, pns=False)
        rng = random.Random(3)
        for _ in range(200):
            key = rng.getrandbits(64)
            home, _ = route(nodes, nodes[rng.randrange(100)], key)
            assert home.node_id == ring.successor(key)

    def test_single_node_overlay(self):
        sim = Simulator()
        net = Network(sim, ConstantTopology(1))
        nodes, ring = build_chord_overlay(net, seed=1)
        assert nodes[0].next_hop_addr(12345) is None
        assert nodes[0].is_responsible(0)

    def test_two_node_overlay(self):
        sim = Simulator()
        net = Network(sim, ConstantTopology(2))
        nodes, ring = build_chord_overlay(net, seed=1)
        rng = random.Random(5)
        for _ in range(50):
            key = rng.getrandbits(64)
            home, _ = route(nodes, nodes[rng.randrange(2)], key)
            assert home.node_id == ring.successor(key)


class TestPNS:
    def test_pns_prefers_closer_fingers(self):
        """With clustered latencies, PNS fingers must have lower mean RTT
        than plain-Chord fingers."""
        topo = KingLikeTopology(400, seed=8)
        _, _, pns_nodes, _ = build(400, seed=8, pns=True, topo=topo)
        sim = Simulator()
        net = Network(sim, topo)
        plain_nodes, _ = build_chord_overlay(net, seed=8, pns=False)

        def mean_finger_rtt(nodes):
            total, count = 0.0, 0
            for node in nodes:
                for _i, (_fid, faddr) in node.fingers.items():
                    total += topo.rtt_ms(node.addr, faddr)
                    count += 1
            return total / count

        assert mean_finger_rtt(pns_nodes) < 0.8 * mean_finger_rtt(plain_nodes)

    def test_pns_does_not_change_correctness(self):
        topo = KingLikeTopology(150, seed=9)
        _, _, nodes, ring = build(150, seed=9, pns=True, topo=topo)
        rng = random.Random(6)
        for _ in range(150):
            key = rng.getrandbits(64)
            home, _ = route(nodes, nodes[rng.randrange(150)], key)
            assert home.node_id == ring.successor(key)


class TestSimulatedLookup:
    def test_lookup_finds_home_and_reports_hops(self):
        sim, _, nodes, ring = build(120, seed=10)
        results = []
        rng = random.Random(7)
        keys = [rng.getrandbits(64) for _ in range(30)]
        for key in keys:
            nodes[rng.randrange(120)].lookup(key, results.append)
        sim.run_until_idle()
        assert len(results) == len(keys)
        for res in results:
            assert res.home_id == ring.successor(res.key)
            assert res.hops >= 1
            assert res.latency_ms > 0

    def test_lookup_latency_counts_round_trips(self):
        sim, _, nodes, _ = build(64, seed=11)
        results = []
        nodes[0].lookup(nodes[0].successors[0][0], results.append)
        sim.run_until_idle()
        (res,) = results
        # Iterative lookup: the first step interrogates the origin itself
        # (local, free); every later step is one RTT (100 ms here).
        assert res.latency_ms == pytest.approx(100.0 * (res.hops - 1))

    def test_join_whose_bootstrap_is_the_home_completes_asynchronously(self):
        """The joiner's id falls in the bootstrap's own arc, so the
        bootstrap answers the join lookup without asking anyone -- and
        still not inside ``join()``: ``_attempt`` arms its retry timer
        after the call and must find the join not yet done."""
        sim = Simulator()
        net = Network(sim, ConstantTopology(3, rtt=100.0))
        nodes, _ = build_chord_overlay(net, node_ids=[1000, 5000])
        bootstrap = nodes[1]  # owns (1000, 5000]
        joiner = ChordNode(2, 3000, net, stabilize_interval_ms=50.0)
        joined = []
        joiner.join(bootstrap, done=lambda: joined.append(sim.now))
        assert joined == [] and not joiner.successors
        sim.run(until=0.0)
        assert joined == [0.0]
        assert joiner.successors[0] == (5000, bootstrap.addr)
        assert net.stats.total_msgs == 0  # nobody was asked

    def test_fix_fingers_applies_answers_after_the_round(self):
        """One round over fingers 60-63 of node 1000 on the ring {1000,
        2^63}: three targets are the other node's (one hop away), the
        last wraps into this node's own arc and resolves without a
        packet.  Either way the table must not change while
        ``fix_fingers`` is still walking it."""
        sim = Simulator()
        net = Network(sim, ConstantTopology(2, rtt=100.0))
        nodes, _ = build_chord_overlay(net, node_ids=[1000, 1 << 63])
        node, other = nodes
        node.fingers = {i: (42, 1) for i in range(60, 64)}  # stale entries
        node._next_fix_finger = 60
        before = dict(node.fingers)
        node.fix_fingers()
        assert node.fingers == before
        sim.run_until_idle()
        for i in (60, 61, 62):
            assert node.fingers[i] == (other.node_id, other.addr)
        # its own answer is never installed as a finger
        assert node.fingers[63] == (42, 1)
        assert net.stats.msgs_by_kind["dht_lookup_step"] == 3

    def test_neighbor_addrs_distinct_and_exclude_self(self):
        _, _, nodes, _ = build(80, seed=12)
        for node in nodes[:10]:
            neigh = node.neighbor_addrs()
            assert node.addr not in neigh
            assert len(neigh) == len(set(neigh))
            assert len(neigh) >= 2
