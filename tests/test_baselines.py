"""Tests for the CAN substrate and the Meghdoot / central baselines."""

import numpy as np
import pytest

from repro.baselines import (
    CentralRendezvousSystem,
    MeghdootSystem,
    build_can_overlay,
)
from repro.baselines.can import CANZone
from repro.core.event import Event
from repro.core.scheme import Attribute, Scheme
from repro.core.subscription import Subscription
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.topology import ConstantTopology


# ----------------------------------------------------------------------
# CAN substrate
# ----------------------------------------------------------------------
class TestCANZone:
    def test_split_halves_longest_side(self):
        z = CANZone(np.array([0.0, 0.0]), np.array([1.0, 0.5]))
        a, b = z.split()
        assert a.highs[0] == 0.5 and b.lows[0] == 0.5
        assert a.volume() == pytest.approx(z.volume() / 2)

    def test_contains_half_open(self):
        z = CANZone(np.array([0.0]), np.array([0.5]))
        assert z.contains(np.array([0.0]))
        assert z.contains(np.array([0.49]))
        assert not z.contains(np.array([0.5]))

    def test_contains_closed_at_space_top(self):
        z = CANZone(np.array([0.5]), np.array([1.0]))
        assert z.contains(np.array([1.0]))

    def test_distance(self):
        z = CANZone(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        assert z.distance_to(np.array([0.5, 0.5])) == 0.0
        assert z.distance_to(np.array([2.0, 1.0])) == pytest.approx(1.0)

    def test_faces_touch(self):
        a = CANZone(np.array([0.0, 0.0]), np.array([0.5, 1.0]))
        b = CANZone(np.array([0.5, 0.0]), np.array([1.0, 1.0]))
        c = CANZone(np.array([0.5, 2.0]), np.array([1.0, 3.0]))
        assert a.faces_touch(b)
        assert not a.faces_touch(c)
        assert not a.faces_touch(a)


class TestCANOverlay:
    def build(self, n, dims=2):
        sim = Simulator()
        net = Network(sim, ConstantTopology(n, rtt=50.0))
        nodes = build_can_overlay(net, dims=dims)
        return sim, net, nodes

    def test_zones_partition_space(self):
        _, _, nodes = self.build(37)
        total = sum(n.zone.volume() for n in nodes)
        assert total == pytest.approx(1.0)

    def test_every_point_owned_by_exactly_one(self):
        _, _, nodes = self.build(25)
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = rng.random(2)
            owners = [n.addr for n in nodes if n.owns(p)]
            assert len(owners) == 1

    def test_boundary_points_owned_once(self):
        _, _, nodes = self.build(16)
        for p in ([0.5, 0.5], [0.0, 0.5], [1.0, 1.0], [0.25, 0.75]):
            owners = [n.addr for n in nodes if n.owns(np.array(p))]
            assert len(owners) == 1, p

    def test_greedy_routing_reaches_owner(self):
        _, _, nodes = self.build(60, dims=3)
        rng = np.random.default_rng(1)
        for _ in range(200):
            p = rng.random(3)
            cur = nodes[int(rng.integers(0, 60))]
            hops = 0
            while True:
                nh = cur.next_hop_addr(p)
                if nh is None:
                    break
                cur = nodes[nh]
                hops += 1
                assert hops < 100, "CAN routing loop"
            assert cur.owns(p)

    def test_neighbors_symmetric(self):
        _, _, nodes = self.build(30)
        for node in nodes:
            for addr, _z in node.neighbors:
                back = [a for a, _ in nodes[addr].neighbors]
                assert node.addr in back

    def test_single_node(self):
        _, _, nodes = self.build(1)
        assert nodes[0].owns(np.array([0.3, 0.7]))
        assert nodes[0].neighbors == []


# ----------------------------------------------------------------------
# End-to-end baselines vs brute force
# ----------------------------------------------------------------------
@pytest.fixture
def scheme():
    return Scheme("s", [Attribute(n, 0, 10000) for n in "abcd"])


def run_oracle_check(system, scheme, rng, n_subs=150, n_events=30):
    n = len(system.nodes)
    subs = []
    for _ in range(n_subs):
        lows, highs = [], []
        for _ in range(4):
            c = float(rng.normal(3000, 300) % 10000)
            w = float(rng.uniform(100, 700))
            lows.append(max(0.0, c - w))
            highs.append(min(10000.0, c + w))
        sub = Subscription.from_box(scheme, lows, highs)
        subs.append((sub, system.subscribe(int(rng.integers(0, n)), sub)))
    system.finish_setup()
    matched_events = 0
    for _ in range(n_events):
        pt = rng.normal(3000, 400, 4) % 10000
        ev = Event(scheme, list(pt))
        eid = system.publish(int(rng.integers(0, n)), ev)
        system.run_until_idle()
        rec = system.metrics.records[eid]
        got = sorted((d[0].nid, d[0].iid) for d in rec.deliveries)
        expect = sorted((sid.nid, sid.iid) for sub, sid in subs if sub.matches(ev))
        assert got == expect
        matched_events += bool(expect)
    assert matched_events > n_events // 4


class TestMeghdoot:
    def test_exact_delivery(self, scheme):
        rng = np.random.default_rng(3)
        system = MeghdootSystem(scheme, num_nodes=50, seed=2)
        run_oracle_check(system, scheme, rng)

    def test_can_dimensionality_is_twice_attributes(self, scheme):
        system = MeghdootSystem(scheme, num_nodes=10, seed=2)
        assert system.nodes[0].zone.dims == 8

    def test_subscription_stored_at_its_point(self, scheme):
        system = MeghdootSystem(scheme, num_nodes=20, seed=2)
        sub = Subscription.from_box(
            scheme, [1000, 2000, 3000, 4000], [1500, 2500, 3500, 4500]
        )
        system.subscribe(0, sub)
        system.run_until_idle()
        point = system.sub_point(sub)
        owner = next(n for n in system.nodes if n.owns(point))
        assert len(owner.store) == 1

    def test_event_record_metrics(self, scheme):
        rng = np.random.default_rng(4)
        system = MeghdootSystem(scheme, num_nodes=30, seed=2)
        sub = Subscription.from_box(
            scheme, [2900, 2900, 2900, 2900], [3100, 3100, 3100, 3100]
        )
        system.subscribe(5, sub)
        system.finish_setup()
        eid = system.publish(7, Event(scheme, [3000, 3000, 3000, 3000]))
        system.run_until_idle()
        rec = system.metrics.records[eid]
        assert rec.matched == 1
        assert rec.bytes > 0


class TestCentralRendezvous:
    def test_exact_delivery(self, scheme):
        rng = np.random.default_rng(5)
        system = CentralRendezvousSystem(scheme, num_nodes=50, seed=2)
        run_oracle_check(system, scheme, rng)

    def test_all_subscriptions_on_home_node(self, scheme):
        rng = np.random.default_rng(6)
        system = CentralRendezvousSystem(scheme, num_nodes=40, seed=2)
        for i in range(100):
            c = float(rng.uniform(0, 9000))
            sub = Subscription.from_box(scheme, [c] * 4, [c + 500] * 4)
            system.subscribe(int(rng.integers(0, 40)), sub)
        system.run_until_idle()
        loads = system.node_loads()
        assert loads.max() == 100
        assert (loads > 0).sum() == 1  # the "serious scalability concern"

    def test_home_is_hash_successor(self, scheme):
        system = CentralRendezvousSystem(scheme, num_nodes=25, seed=2)
        assert system.home_addr == system.ring.addr(
            system.ring.successor(system.home_key)
        )


class TestScribe:
    def make_system(self, n=50, buckets=16):
        from repro.baselines import ScribeContentSystem

        scheme = Scheme("s", [Attribute(x, 0, 10000) for x in "abcd"])
        return ScribeContentSystem(scheme, num_nodes=n, seed=2, buckets=buckets), scheme

    def test_exact_delivery(self):
        system, scheme = self.make_system()
        rng = np.random.default_rng(7)
        run_oracle_check(system, scheme, rng)

    def test_tree_structure_is_acyclic_and_rooted(self):
        system, scheme = self.make_system(n=40)
        rng = np.random.default_rng(8)
        for _ in range(100):
            c = float(rng.uniform(0, 9000))
            sub = Subscription.from_box(scheme, [c] * 4, [c + 500] * 4)
            system.subscribe(int(rng.integers(0, 40)), sub)
        system.finish_setup()
        # Every joined/forwarding node's parent chain ends at the root.
        for node in system.nodes:
            for topic in set(node.parent) | node.joined:
                cur, hops = node, 0
                while True:
                    parent = cur.parent.get(topic)
                    if parent is None:
                        break
                    cur = system.nodes[parent]
                    hops += 1
                    assert hops < 100, "cycle in multicast tree"
                assert cur.is_responsible(topic), "chain must end at the root"

    def test_subscription_topic_selection_prefers_selective_attr(self):
        system, scheme = self.make_system(buckets=16)
        # Narrow on 'c' (dim 2), wide elsewhere: topics must be on dim 2.
        from repro.core.subscription import Predicate

        sub = Subscription(scheme, [Predicate("c", 5000, 5100)])
        topics = system.topics_for_subscription(sub)
        assert len(topics) <= 2  # ~one bucket wide
        expected = {system._topic_ids[(2, b)] for b in range(16)}
        assert set(topics) <= expected

    def test_event_publishes_one_topic_per_attribute(self):
        system, scheme = self.make_system()
        ev = Event(scheme, [100, 200, 300, 400])
        assert len(system.topics_for_event(ev)) == 4

    def test_false_positive_transport_measured(self):
        """A subscriber whose chosen-attribute bucket matches but whose
        full predicate does not must receive transport traffic yet no
        delivery."""
        system, scheme = self.make_system(n=30)
        from repro.core.subscription import Predicate

        # Subscriber: a in [0, 600] AND b in [9000, 9600] (selective on
        # both; picks one attribute's topics).
        sub = Subscription(
            scheme, [Predicate("a", 0, 600), Predicate("b", 9000, 9600)]
        )
        system.subscribe(5, sub)
        system.finish_setup()
        # Event matching on 'a' only: same bucket on a, wrong b.
        eid = system.publish(9, Event(scheme, [100, 100, 100, 100]))
        system.run_until_idle()
        rec = system.metrics.records[eid]
        assert rec.matched == 0
        assert rec.bytes > 0  # the event still travelled

    def test_bucket_validation(self):
        from repro.baselines import ScribeContentSystem

        scheme = Scheme("s", [Attribute("x", 0, 1)])
        with pytest.raises(ValueError):
            ScribeContentSystem(scheme, num_nodes=5, buckets=0)
