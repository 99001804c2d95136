"""Property tests for the sorted routing snapshot and the route cache.

The bisect router (``ChordNode._closest_preceding``) must answer
*byte-identically* to the linear reference scan it replaced, for any
routing state hypothesis can dream up -- wraparound keys, stale fingers
pointing at departed ids, empty successor lists, and state mutated
mid-stream by join/leave/eviction interleavings.  And the per-node
route cache must never change what the system delivers: same
dissemination trees, same message and byte counts, on fixed seeds.
"""

import hashlib
import random

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
from repro.dht.base import _RC_HERE, OverlayNode
from repro.dht.chord import ChordNode, build_chord_overlay
from repro.dht.idspace import ID_SPACE, id_in_interval
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.topology import ConstantTopology
from tests.route_reference import closest_preceding_linear, forget_routes, route_once

ids64 = st.integers(0, ID_SPACE - 1)


def bare_node(node_id: int) -> ChordNode:
    sim = Simulator()
    net = Network(sim, ConstantTopology(4, rtt=10.0))
    return ChordNode(0, node_id, net)


def assert_router_agreement(node: ChordNode, keys) -> None:
    # Always probe the structural corner cases alongside random keys:
    # the node's own id (whole-ring arc), both ring neighbours of it,
    # and every routing-entry id (boundary of the strict interval).
    probes = list(keys) + [
        node.node_id,
        (node.node_id + 1) % ID_SPACE,
        (node.node_id - 1) % ID_SPACE,
    ]
    probes += [ent_id for ent_id, _ in node.routing_entries()]
    for key in probes:
        assert node._closest_preceding(key) == closest_preceding_linear(
            node, key
        ), (node.node_id, key)


@given(
    node_id=ids64,
    finger_ids=st.lists(ids64, max_size=24),
    succ_ids=st.lists(ids64, max_size=8),
    keys=st.lists(ids64, min_size=1, max_size=24),
)
@settings(max_examples=120, deadline=None)
def test_bisect_agrees_with_linear_on_arbitrary_state(
    node_id, finger_ids, succ_ids, keys
):
    """Any routing state, any key -- including stale fingers (ids that
    never were on a ring), duplicate ids under different addresses
    (finger-first precedence must hold), and empty successor lists."""
    node = bare_node(node_id)
    node.fingers = {
        i: (fid, 1_000 + i) for i, fid in enumerate(finger_ids)
    }
    node.successors = [(sid, 2_000 + i) for i, sid in enumerate(succ_ids)]
    assert_router_agreement(node, keys)


@given(
    node_id=ids64,
    shared=st.lists(ids64, min_size=1, max_size=8),
    keys=st.lists(ids64, min_size=1, max_size=8),
)
@settings(max_examples=60, deadline=None)
def test_finger_addr_precedence_over_successor(node_id, shared, keys):
    """The same id reachable as both finger and successor must resolve
    to the finger's address (the historical dedup order)."""
    node = bare_node(node_id)
    node.fingers = {i: (sid, 10_000 + i) for i, sid in enumerate(shared)}
    node.successors = [(sid, 20_000 + i) for i, sid in enumerate(shared)]
    assert_router_agreement(node, keys)
    for ent_id, ent_addr in node.routing_entries():
        assert ent_addr >= 10_000 and ent_addr < 20_000


@given(
    node_id=ids64,
    keys=st.lists(ids64, min_size=1, max_size=8),
)
@settings(max_examples=30, deadline=None)
def test_empty_routing_state(node_id, keys):
    node = bare_node(node_id)
    for key in keys:
        assert node._closest_preceding(key) is None
        assert closest_preceding_linear(node, key) is None
    assert node.routing_entries() == []
    assert node.neighbor_addrs() == []


@given(seed=st.integers(0, 2**32 - 1))
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_agreement_under_mutation_interleavings(seed):
    """A real ring mutated like churn does: wholesale reassignment,
    in-place inserts/filters (stabilize), finger overwrites (fix-up),
    evictions (hop failover) and predecessor moves.  After *every*
    mutation the snapshot must already be invalid (epoch moved) and
    agree with the linear scan once refreshed."""
    rng = random.Random(seed)
    sim = Simulator()
    net = Network(sim, ConstantTopology(48, rtt=10.0))
    nodes, ring = build_chord_overlay(net, seed=seed % 1_000 + 1)
    keys = [rng.getrandbits(64) for _ in range(8)]

    for _ in range(25):
        node = rng.choice(nodes)
        node.routing_snapshot()  # warm, so staleness is observable
        epoch = node.routing_epoch
        op = rng.randrange(6)
        if op == 0 and node.successors:  # stabilize-style insert
            donor = rng.choice(nodes)
            node.successors.insert(
                0, (donor.node_id, donor.addr)
            )
        elif op == 1 and node.successors:  # eviction filter (reassign)
            victim = rng.choice(node.successors)
            node.successors = [s for s in node.successors if s != victim]
        elif op == 2 and node.fingers:  # finger fix-up overwrite
            i = rng.choice(list(node.fingers))
            donor = rng.choice(nodes)
            node.fingers[i] = (donor.node_id, donor.addr)
        elif op == 3 and node.fingers:  # stale-finger purge
            del node.fingers[rng.choice(list(node.fingers))]
        elif op == 4:  # predecessor move (responsibility change)
            donor = rng.choice(nodes)
            node.predecessor = (donor.node_id, donor.addr)
        else:  # hop-failover eviction of a whole address
            node.evict_neighbor(rng.choice(nodes).addr)
        assert node.routing_epoch > epoch, "mutation did not bump epoch"
        assert_router_agreement(node, keys)


# ----------------------------------------------------------------------
# is_responsible: inline ring arithmetic == the interval reference
# ----------------------------------------------------------------------
def responsibility_probes(node_id, pred_id, keys):
    """Random keys plus every boundary of the arc ``(pred, self]``."""
    probes = list(keys)
    for anchor in (node_id, pred_id, 0, ID_SPACE - 1):
        if anchor is not None:
            probes += [anchor, (anchor + 1) % ID_SPACE, (anchor - 1) % ID_SPACE]
    return probes


@given(
    node_id=ids64,
    pred_id=st.one_of(st.none(), ids64),
    pred_is_self=st.booleans(),
    has_successors=st.booleans(),
    keys=st.lists(ids64, min_size=1, max_size=16),
)
@settings(max_examples=200, deadline=None)
def test_is_responsible_matches_interval_reference(
    node_id, pred_id, pred_is_self, has_successors, keys
):
    """``ChordNode.is_responsible(key)`` is ``key in (pred, self]`` for
    arbitrary ids: wrapped arcs, ``pred == self`` (a lone node owns the
    whole ring) and the bootstrapping ``predecessor is None`` case."""
    node = bare_node(node_id)
    if pred_is_self:
        pred_id = node_id
    if has_successors:
        node.successors = [((node_id + 12345) % ID_SPACE, 1)]
    node.predecessor = None if pred_id is None else (pred_id, 2)
    for key in responsibility_probes(node_id, pred_id, keys):
        if pred_id is None:
            expected = not has_successors or key == node_id
        else:
            expected = id_in_interval(key, pred_id, node_id, incl_right=True)
        assert node.is_responsible(key) is expected, (node_id, pred_id, key)


# ----------------------------------------------------------------------
# Route cache: caching must never change delivery results
# ----------------------------------------------------------------------
DOMAIN = 1000.0
N_NODES = 25


def run_fixed_workload(route_cache: bool, seed: int):
    cfg = HyperSubConfig(seed=3, base=2, code_bits=12, direct_rendezvous_levels=4)
    system = HyperSubSystem(num_nodes=N_NODES, config=cfg)
    if not route_cache:
        forget_routes(system)
    scheme = Scheme(
        "p", [Attribute("x", 0, DOMAIN), Attribute("y", 0, DOMAIN)]
    )
    system.add_scheme(scheme)
    system.tracing = True  # record dissemination edges per event
    rng = random.Random(seed)
    for i in range(40):
        lo = [rng.uniform(0, DOMAIN - 1) for _ in range(2)]
        hi = [min(DOMAIN, v + rng.uniform(1, 400)) for v in lo]
        sub = Subscription.from_box(scheme, lo, hi)
        system.subscribe(i % N_NODES, sub)
    system.finish_setup()
    out = []
    for i in range(12):
        ev = Event(
            scheme,
            {"x": rng.uniform(0, DOMAIN), "y": rng.uniform(0, DOMAIN)},
        )
        eid = system.publish(i % N_NODES, ev)
        system.run_until_idle()
        rec = system.metrics.records[eid]
        out.append(
            {
                "deliveries": sorted(
                    (d[0].nid, d[0].iid, d[1], d[2]) for d in rec.deliveries
                ),
                "edges": sorted(rec.edges),
                "messages": rec.messages,
                "bytes": rec.bytes,
            }
        )
    return out, system


def test_route_cache_preserves_dissemination_trees():
    """Cached vs recomputed per entry (the test's own reference run):
    identical deliveries, identical per-event forwarding edges,
    identical message and byte counts -- and the cached run actually
    exercises the cache."""
    for seed in (7, 23, 99):
        cached, cached_sys = run_fixed_workload(True, seed)
        uncached, uncached_sys = run_fixed_workload(False, seed)
        assert cached == uncached
        # ... and in aggregate: same delivery digest, bytes, messages,
        # and nothing dropped for want of a route on a healthy ring.
        assert delivery_digest(cached) == delivery_digest(uncached)
        on_stats, off_stats = cached_sys.network.stats, uncached_sys.network.stats
        assert on_stats.total_bytes == off_stats.total_bytes
        assert on_stats.total_msgs == off_stats.total_msgs
        assert on_stats.unroutable == 0 and off_stats.unroutable == 0
        stats = cached_sys.route_cache_stats()
        assert stats["hits"] > 0
        assert stats["hit_rate"] > 0.0
        off = uncached_sys.route_cache_stats()
        assert off["hits"] == 0 and off["misses"] > stats["misses"]
        # every worklist entry routed is one lookup, hit or miss (the
        # uncached run takes the miss path for each of them)
        assert stats["hits"] + stats["misses"] == off["misses"]


def run_install_churn(route_cache: bool, monkeypatch):
    """Subscribes and unsubscribes installed through simulated lookups
    (``simulate_install=True``) on a maintained ring while one node
    crashes and rejoins; then events.  Returns every ``LookupResult``
    (by origin, in completion order), ``install_traffic`` and the
    delivery digest."""
    results = []
    real_lookup = OverlayNode.lookup

    def lookup(node, key, callback):
        def record(res):
            results.append((node.addr, res.key, res.home_addr, res.home_id,
                            res.hops, res.latency_ms))
            callback(res)

        real_lookup(node, key, record)

    monkeypatch.setattr(OverlayNode, "lookup", lookup)
    cfg = HyperSubConfig(
        seed=3, base=2, code_bits=12, simulate_install=True, replication_factor=2
    )
    system = HyperSubSystem(num_nodes=N_NODES, config=cfg)
    if not route_cache:
        forget_routes(system)
    scheme = Scheme("p", [Attribute("x", 0, DOMAIN), Attribute("y", 0, DOMAIN)])
    system.add_scheme(scheme)
    rng = random.Random(11)

    def subscription():
        lo = [rng.uniform(0, DOMAIN - 1) for _ in range(2)]
        hi = [min(DOMAIN, v + rng.uniform(1, 400)) for v in lo]
        return Subscription.from_box(scheme, lo, hi)

    live = [(i % N_NODES, system.subscribe(i % N_NODES, subscription())) for i in range(40)]
    system.finish_setup()
    system.start_maintenance(stabilize_interval_ms=250.0, rpc_timeout_ms=1_000.0)
    victim = 7
    for k in range(60):
        if k == 20:
            system.nodes[victim].fail()
        if k == 40:
            system.rejoin_node(victim)
            if not route_cache:
                forget_routes(system)  # the rejoined node is a new object
        addr = (3 * k) % N_NODES
        if addr != victim:
            if k % 3 == 2 and live:
                owner, subid = live.pop(rng.randrange(len(live)))
                if owner != victim:
                    system.unsubscribe(owner, subid)
            else:
                live.append((addr, system.subscribe(addr, subscription())))
        system.run(until=system.sim.now + 300.0)
    system.run(until=system.sim.now + 10_000.0)
    system.stop_maintenance()
    system.run_until_idle()
    per_event = []
    for i in range(12):
        ev = Event(scheme, {"x": rng.uniform(0, DOMAIN), "y": rng.uniform(0, DOMAIN)})
        eid = system.publish(i % N_NODES, ev)
        system.run_until_idle()
        per_event.append({"deliveries": sorted(
            (d[0].nid, d[0].iid, d[1], d[2]) for d in system.metrics.records[eid].deliveries
        )})
    install = {k: tuple(v) for k, v in sorted(system.install_traffic.items())}
    return results, install, delivery_digest(per_event), system


def test_lookups_through_the_cache_survive_crash_and_rejoin(monkeypatch):
    """Lookups take their decisions from the route-decision cache; on a
    ring that loses a node and gets it back mid-churn, the cached run
    sees the same ``LookupResult``s, installs the same traffic and
    delivers the same as the run whose nodes never remember a route."""
    with monkeypatch.context() as patch:
        cached, install, digest, system = run_install_churn(True, patch)
    with monkeypatch.context() as patch:
        uncached, ref_install, ref_digest, ref_system = run_install_churn(False, patch)
    assert cached == uncached
    assert install == ref_install and digest == ref_digest
    assert len(cached) > 200
    assert len({r[1] for r in cached}) < len(cached)  # keys asked again
    hits = system.route_cache_stats()["hits"]
    assert hits > 0 and ref_system.route_cache_stats()["hits"] == 0


def delivery_digest(per_event) -> str:
    blob = repr([rec["deliveries"] for rec in per_event]).encode()
    return hashlib.sha256(blob).hexdigest()


def uncached_decision(node, nid):
    return _RC_HERE if node.is_responsible(nid) else node.next_hop_addr(nid)


def test_fused_decision_cache_dies_with_every_routing_mutation():
    """The cache holds "responsible here" *and* next hops, so it must be
    flushed by predecessor moves (responsibility) as well as successor
    and finger changes (next hop): after each mutation every cached key
    answers like the uncached decision again."""
    _out, system = run_fixed_workload(True, seed=7)
    node = system.nodes[0]
    donor, other = system.nodes[1], system.nodes[2]
    keys = [k for k in range(0, ID_SPACE, ID_SPACE // 64)] + [
        node.node_id, donor.node_id, other.node_id,
    ]
    owned = [k for k in keys if k != node.node_id and node.is_responsible(k)]
    assert owned, "need a key the node owns besides its own id"

    def check_all():
        for key in keys:
            decision = uncached_decision(node, key)
            hop = route_once(node, key)  # fills the cache
            # forwarded to the decision unless served here or unroutable
            if decision is _RC_HERE or decision == node.addr:
                assert hop is None
            else:
                assert hop == decision
            assert node._rc[key] == decision

    check_all()
    mutations = (
        # the arc shrinks to (self - 1, self]: owned keys stop being ours
        lambda: setattr(
            node, "predecessor", ((node.node_id - 1) % ID_SPACE, donor.addr)
        ),
        lambda: setattr(node, "successors", [(other.node_id, other.addr)]),
        lambda: node.successors.insert(0, (donor.node_id, donor.addr)),
        lambda: node.fingers.update(
            {i: (donor.node_id, donor.addr) for i in list(node.fingers)}
        ),
        lambda: setattr(node, "predecessor", None),
    )
    for step, mutate in enumerate(mutations):
        misses = node.rc_misses
        mutate()
        check_all()
        assert node.rc_misses >= misses + len(set(keys)), "stale cache served"
        if step == 0:
            assert all(node._rc[k] is not _RC_HERE for k in owned)
