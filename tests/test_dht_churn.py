"""Tests for dynamic Chord membership: join, stabilize, failure."""

import random

from repro.dht.chord import ChordNode, build_chord_overlay
from repro.dht.idspace import id_in_interval
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.topology import ConstantTopology


def build(n, seed=1):
    sim = Simulator()
    net = Network(sim, ConstantTopology(n, rtt=20.0))
    nodes, ring = build_chord_overlay(net, seed=seed)
    return sim, net, nodes, ring


def ring_is_consistent(nodes):
    """Every live node's first successor is the next live id clockwise."""
    live = sorted((n.node_id, n) for n in nodes if n.alive())
    ids = [nid for nid, _ in live]
    for idx, (nid, node) in enumerate(live):
        expected = ids[(idx + 1) % len(ids)]
        if not node.successors or node.successors[0][0] != expected:
            return False
    return True


def test_join_integrates_new_node():
    n = 30
    sim = Simulator()
    net = Network(sim, ConstantTopology(n + 1, rtt=20.0))
    # Build a static overlay over addresses [0, n); address n joins live.
    from repro.dht.idspace import random_ids

    ids = random_ids(n + 1, seed=3)
    from repro.dht.ring import SortedRing

    base_ids = ids[:n]
    nodes, ring = build_chord_overlay(
        net, seed=3, node_ids=base_ids + [], succ_list_len=8
    )
    # Hand-build the joiner.
    joiner = ChordNode(n, ids[n], net, stabilize_interval_ms=50.0)
    joined = []
    joiner.join(nodes[0], done=lambda: joined.append(True))
    # Existing nodes also run maintenance so they learn about the joiner.
    for node in nodes:
        node.stabilize_interval_ms = 50.0
        node.start_maintenance()
    sim.run(until=5_000.0)
    assert joined
    all_nodes = nodes + [joiner]
    assert ring_is_consistent(all_nodes)
    # The joiner's predecessor arc must be correct.
    assert joiner.predecessor is not None


def test_stabilization_preserves_correct_ring():
    sim, net, nodes, ring = build(25)
    for node in nodes:
        node.stabilize_interval_ms = 50.0
        node.start_maintenance()
    sim.run(until=2_000.0)
    assert ring_is_consistent(nodes)


def test_crash_failure_recovered_by_successor_lists():
    sim, net, nodes, ring = build(20)
    for node in nodes:
        node.stabilize_interval_ms = 50.0
        node.rpc_timeout_ms = 200.0
        node.start_maintenance()
    victim = nodes[3]
    sim.schedule(100.0, victim.fail)
    sim.run(until=10_000.0)
    assert ring_is_consistent(nodes)
    # No live node should still list the victim as first successor.
    for node in nodes:
        if node.alive() and node.successors:
            assert node.successors[0][0] != victim.node_id


def test_multiple_failures_recovered():
    sim, net, nodes, ring = build(30, seed=5)
    rng = random.Random(0)
    for node in nodes:
        node.stabilize_interval_ms = 50.0
        node.rpc_timeout_ms = 200.0
        node.start_maintenance()
    victims = rng.sample(nodes, 5)
    for i, v in enumerate(victims):
        sim.schedule(100.0 + 40.0 * i, v.fail)
    sim.run(until=20_000.0)
    assert ring_is_consistent(nodes)


def test_predecessor_change_callback_fires_on_join():
    sim, net, nodes, ring = build(10)
    changes = []
    target = nodes[4]
    target.on_predecessor_change = lambda old, new: changes.append(new)
    target.predecessor = None  # force re-learning via notify
    for node in nodes:
        node.stabilize_interval_ms = 50.0
        node.start_maintenance()
    sim.run(until=1_000.0)
    assert changes, "notify must re-establish the predecessor"
    assert changes[-1] == ring.predecessor(target.node_id)


def test_routing_still_correct_after_churn():
    sim, net, nodes, ring = build(40, seed=9)
    for node in nodes:
        node.stabilize_interval_ms = 50.0
        node.rpc_timeout_ms = 200.0
        node.start_maintenance()
    victim = nodes[11]
    sim.schedule(100.0, victim.fail)
    sim.run(until=15_000.0)

    live = [n for n in nodes if n.alive()]
    live_ids = sorted(n.node_id for n in live)

    def live_successor(key):
        import bisect

        i = bisect.bisect_left(live_ids, key)
        return live_ids[i % len(live_ids)]

    rng = random.Random(1)
    for _ in range(100):
        key = rng.getrandbits(64)
        cur = live[rng.randrange(len(live))]
        hops = 0
        while True:
            nxt = cur.next_hop_addr(key)
            if nxt is None:
                break
            nxt_node = nodes[nxt]
            assert nxt_node.alive(), "routing through a dead node"
            cur = nxt_node
            hops += 1
            assert hops < 100
        assert cur.node_id == live_successor(key)
