"""Tests for the packet-level network fabric."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.messages import (
    EVENT_BYTES,
    HEADER_BYTES,
    SUBID_BYTES,
    Message,
    event_message_bytes,
)
from repro.sim.network import Network, SimNode
from repro.sim.topology import ConstantTopology


class Recorder(SimNode):
    """Test node that logs everything it receives."""

    def __init__(self, addr, network):
        super().__init__(addr, network)
        self.received = []

    def handle_message(self, msg):
        self.received.append((self.sim.now, msg))


def make_net(n=4, rtt=100.0):
    sim = Simulator()
    net = Network(sim, ConstantTopology(n, rtt=rtt))
    nodes = [Recorder(i, net) for i in range(n)]
    return sim, net, nodes


def test_child_inherits_path_metadata_but_not_the_span():
    parent = Message(
        src=0, dst=1, kind="t", payload={"a": 1}, size_bytes=30,
        hops=3, root_time=99.0, span_id=41,
    )
    child = parent.child(1, 2, "u", {"b": 2}, 77)
    assert (child.src, child.dst, child.kind) == (1, 2, "u")
    assert child.payload == {"b": 2} and child.size_bytes == 77
    assert (child.hops, child.root_time) == (3, 99.0)
    assert child.span_id is None  # every forwarded packet gets its own span
    with pytest.raises(AttributeError):
        child.not_a_field = 1  # slotted: no per-packet __dict__


def test_fault_machinery_is_armed_only_while_a_fault_is_installed():
    sim, net, nodes = make_net()
    assert not net._faults_armed
    arm_and_heal = (
        (lambda: net.set_loss_rate(0.1, seed=1), net.clear_loss),
        (lambda: net.set_duplicate(0.1, seed=1), net.clear_duplicate),
        (lambda: net.set_reorder(5.0, seed=1), net.clear_reorder),
        (lambda: net.set_partition({1: 1}), net.clear_partition),
        (lambda: net.add_asym_cut(9, [0], [1]), lambda: net.remove_asym_cut(9)),
    )
    for arm, heal in arm_and_heal:
        arm()
        assert net._faults_armed
        heal()
        assert not net._faults_armed
    # two faults at once: healing one leaves the guard up
    net.set_loss_rate(0.1, seed=1)
    net.set_partition({1: 1})
    net.clear_loss()
    assert net._faults_armed
    net.send(Message(src=0, dst=1, kind="t", payload=None, size_bytes=30))
    sim.run()
    assert nodes[1].received == [] and net.stats.dropped_by_cause["partition"] == 1
    net.clear_partition()
    # a latency spike is not a packet fault: it rides the flat path
    net.set_latency_factor(3.0)
    assert not net._faults_armed
    net.send(Message(src=0, dst=1, kind="t", payload=None, size_bytes=30))
    sim.run()
    (t, _msg), = nodes[1].received
    assert t == 150.0


def test_message_arrives_after_one_way_latency():
    sim, net, nodes = make_net(rtt=100.0)
    net.send(Message(src=0, dst=1, kind="t", payload=None, size_bytes=30))
    sim.run()
    (t, msg), = nodes[1].received
    assert t == 50.0  # one-way = RTT / 2
    assert msg.hops == 1


def test_bandwidth_accounting():
    sim, net, nodes = make_net()
    net.send(Message(src=0, dst=1, kind="a", payload=None, size_bytes=30))
    net.send(Message(src=0, dst=2, kind="b", payload=None, size_bytes=70))
    sim.run()
    assert net.stats.out_bytes[0] == 100
    assert net.stats.in_bytes[1] == 30
    assert net.stats.in_bytes[2] == 70
    assert net.stats.bytes_by_kind == {"a": 30, "b": 70}
    assert net.stats.total_bytes == 100
    assert net.stats.total_msgs == 2


def test_local_messages_are_free_and_instant():
    sim, net, nodes = make_net()
    net.send(Message(src=2, dst=2, kind="l", payload=None, size_bytes=999))
    sim.run()
    (t, msg), = nodes[2].received
    assert t == 0.0
    assert msg.hops == 0  # local delivery adds no hop
    assert net.stats.total_bytes == 0


def test_delivery_to_dead_node_is_dropped():
    sim, net, nodes = make_net()
    assert nodes[1].alive()
    net.send(Message(src=0, dst=1, kind="t", payload=None, size_bytes=10))
    nodes[1].fail()  # crashes while the packet is in flight
    assert not nodes[1].alive()
    sim.run()
    assert nodes[1].received == []
    assert net.stats.dropped == 1
    assert net.stats.dropped_by_cause["dead_dst"] == 1


def test_send_to_unregistered_addr_is_dropped():
    sim = Simulator()
    net = Network(sim, ConstantTopology(4))
    Recorder(0, net)
    net.send(Message(src=0, dst=3, kind="t", payload=None, size_bytes=10))
    sim.run()
    assert net.stats.dropped == 1


def test_duplicate_registration_rejected():
    sim, net, nodes = make_net()
    with pytest.raises(ValueError):
        Recorder(0, net)


def test_addr_outside_topology_rejected():
    sim = Simulator()
    net = Network(sim, ConstantTopology(2))
    with pytest.raises(ValueError):
        Recorder(5, net)


def test_node_send_checks_src():
    sim, net, nodes = make_net()
    with pytest.raises(ValueError):
        nodes[0].send(Message(src=1, dst=2, kind="t", payload=None, size_bytes=1))


def test_child_message_inherits_path_metadata():
    sim, net, nodes = make_net(rtt=100.0)

    class Forwarder(SimNode):
        def handle_message(self, msg):
            self.send(msg.child(self.addr, 3, "fwd", None, 10))

    sim2 = Simulator()
    net2 = Network(sim2, ConstantTopology(4, rtt=100.0))
    Recorder(0, net2)
    fwd = Forwarder(1, net2)
    Recorder(2, net2)
    sink = Recorder(3, net2)
    net2.send(Message(src=0, dst=1, kind="t", payload=None, size_bytes=10))
    sim2.run()
    (t, msg), = sink.received
    assert msg.hops == 2
    assert t == 100.0  # two one-way latencies from the root send


def test_event_message_bytes_model():
    assert event_message_bytes(0) == HEADER_BYTES + EVENT_BYTES
    assert event_message_bytes(5) == HEADER_BYTES + EVENT_BYTES + 5 * SUBID_BYTES
    with pytest.raises(ValueError):
        event_message_bytes(-1)


# ----------------------------------------------------------------------
# Gray failures (chaos extension)
# ----------------------------------------------------------------------
def test_set_slow_validates_and_applies():
    sim, net, nodes = make_net()
    with pytest.raises(ValueError):
        net.set_slow([1], 0.0)
    with pytest.raises(ValueError):
        net.set_slow([1], 1.0)
    net.set_slow([1, 2], 0.25)
    assert nodes[1].slow_factor == 0.25
    assert nodes[2].slow_factor == 0.25
    assert nodes[0].slow_factor == 1.0
    net.clear_slow([1, 2])
    assert nodes[1].slow_factor == 1.0
    net.set_slow([99], 0.5)  # unknown addr is ignored, not an error


def test_asym_cut_drops_one_direction_only():
    sim, net, nodes = make_net()
    net.add_asym_cut(0, src_addrs=[0], dst_addrs=[1])
    net.send(Message(src=0, dst=1, kind="cut", payload=None, size_bytes=10))
    net.send(Message(src=1, dst=0, kind="ok", payload=None, size_bytes=10))
    net.send(Message(src=0, dst=2, kind="ok", payload=None, size_bytes=10))
    sim.run()
    assert nodes[1].received == []  # forward direction is cut...
    assert len(nodes[0].received) == 1  # ...reverse still flows
    assert len(nodes[2].received) == 1  # ...and other dsts are untouched
    assert net.stats.dropped_by_cause.get("partition") == 1


def test_asym_cut_heals_and_tokens_compose():
    sim, net, nodes = make_net()
    net.add_asym_cut(0, [0], [1])
    net.add_asym_cut(1, [2], [1])  # concurrent cut, own token
    with pytest.raises(ValueError):
        net.add_asym_cut(0, [3], [1])  # token already active
    net.remove_asym_cut(0)
    net.remove_asym_cut(0)  # idempotent
    net.send(Message(src=0, dst=1, kind="a", payload=None, size_bytes=10))
    net.send(Message(src=2, dst=1, kind="b", payload=None, size_bytes=10))
    sim.run()
    kinds = [m.kind for _t, m in nodes[1].received]
    assert kinds == ["a"]  # cut 0 healed, cut 1 still active


def test_duplicate_rate_one_delivers_twice():
    sim, net, nodes = make_net()
    with pytest.raises(ValueError):
        net.set_duplicate(1.5)
    net.set_duplicate(1.0, seed=3)
    net.send(Message(src=0, dst=1, kind="d", payload=None, size_bytes=10))
    sim.run()
    assert len(nodes[1].received) == 2
    assert net.stats.duplicated == 1
    # the ghost is a distinct Message object (hop counters must not
    # compound across the two deliveries) sharing the same payload bits
    (_, a), (_, b) = nodes[1].received
    assert a is not b
    assert a.hops == b.hops == 1
    net.clear_duplicate()
    net.send(Message(src=0, dst=1, kind="d2", payload=None, size_bytes=10))
    sim.run()
    assert sum(1 for _t, m in nodes[1].received if m.kind == "d2") == 1


def test_reorder_adds_adversarial_delay():
    sim, net, nodes = make_net(rtt=100.0)
    with pytest.raises(ValueError):
        net.set_reorder(-1.0)
    net.set_reorder(500.0, seed=11)
    for i in range(10):
        net.send(
            Message(src=0, dst=1, kind=f"m{i}", payload=None, size_bytes=10)
        )
    sim.run()
    assert net.stats.reordered == 10
    times = [t for t, _m in nodes[1].received]
    # every packet is late vs the nominal one-way 50ms, and the jitter
    # actually reordered the otherwise-FIFO stream for this seed
    assert all(t >= 50.0 for t in times)
    kinds = [m.kind for _t, m in nodes[1].received]
    assert kinds != [f"m{i}" for i in range(10)]
    net.clear_reorder()
    nodes[1].received.clear()
    t0 = sim.now
    net.send(Message(src=0, dst=1, kind="x", payload=None, size_bytes=10))
    sim.run()
    (t, _m), = nodes[1].received
    assert t == t0 + 50.0  # back to nominal latency, no jitter


def test_stats_reset():
    sim, net, nodes = make_net()
    net.send(Message(src=0, dst=1, kind="t", payload=None, size_bytes=30))
    sim.run()
    net.stats.reset()
    assert net.stats.total_bytes == 0
    assert net.stats.bytes_by_kind == {}
