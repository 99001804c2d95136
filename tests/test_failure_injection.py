"""Failure-injection tests: message loss and network partitions."""

import hashlib

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
from repro.sim.engine import Simulator
from repro.sim.messages import Message
from repro.sim.network import Network, SimNode
from repro.sim.topology import ConstantTopology, KingLikeTopology


class Recorder(SimNode):
    def __init__(self, addr, network):
        super().__init__(addr, network)
        self.received = []

    def handle_message(self, msg):
        self.received.append(msg)


class TestArmedFaultReplay:
    def test_fixed_seed_fault_mix_replays_bit_identically(self):
        """Loss, duplication, reordering and cuts armed together: each
        fault draws from its own generator once per packet, in send
        order.  The digest was recorded before ``Network.send`` grew its
        flat no-fault path (and re-recorded, from the same arrivals, when
        the per-packet path latency it logged was deleted); the armed
        path must keep producing it."""

        class Logger(SimNode):
            def handle_message(self, msg):
                log.append(
                    (repr(self.sim.now), msg.src, msg.dst, msg.payload, msg.hops)
                )

        log = []
        sim = Simulator()
        net = Network(sim, KingLikeTopology(8, seed=3))
        for addr in range(8):
            Logger(addr, net)
        net.set_loss_rate(0.2, seed=5)
        net.set_duplicate(0.3, seed=6)
        net.set_reorder(25.0, seed=7)
        net.add_asym_cut(1, [0], [7])
        for i in range(400):
            if i == 200:
                net.remove_asym_cut(1)
                net.set_partition({3: 1})
            net.send(
                Message(src=i % 8, dst=(i * 5 + 1) % 8, kind="t", payload=i,
                        size_bytes=10 + i % 7)
            )
            if i % 40 == 39:
                sim.run()
        sim.run()
        s = net.stats
        assert (len(log), s.duplicated, s.reordered) == (360, 80, 280)
        assert s.dropped_by_cause == {
            "dead_dst": 0, "loss": 70, "partition": 50, "overflow": 0,
        }
        summary = (log, s.dropped_by_cause, s.duplicated, s.reordered,
                   s.total_bytes, s.total_msgs)
        assert hashlib.sha256(repr(summary).encode()).hexdigest() == (
            "219c7d7fcb3e66c28f84000e63b596b7fdb16f6909750960782692fb0b8355c1"
        )


class TestLossInjection:
    def test_loss_rate_drops_expected_fraction(self):
        sim = Simulator()
        net = Network(sim, ConstantTopology(2, rtt=10.0))
        a, b = Recorder(0, net), Recorder(1, net)
        net.set_loss_rate(0.3, seed=1)
        for _ in range(1000):
            net.send(Message(src=0, dst=1, kind="t", payload=None, size_bytes=10))
        sim.run()
        assert 0.6 < len(b.received) / 1000 < 0.8

    def test_drop_pattern_is_one_scalar_draw_per_packet(self):
        """The armed path reads its generator a block at a time; the
        drop pattern must be that of one ``rng.random()`` per packet in
        send order -- across block boundaries, a reseed in the middle of
        a block, and a heal followed by a re-arm."""
        from repro.sim.network import LOSS_BLOCK

        sim = Simulator()
        net = Network(sim, ConstantTopology(2, rtt=10.0))
        Recorder(0, net), Recorder(1, net)

        def send_all(n):
            pattern = []
            for _ in range(n):
                before = net.stats.dropped_by_cause["loss"]
                net.send(Message(src=0, dst=1, kind="t", payload=None, size_bytes=10))
                pattern.append(net.stats.dropped_by_cause["loss"] > before)
            return pattern

        def scalar(n, rate, seed):
            rng = np.random.default_rng(seed)
            return [bool(rng.random() < rate) for _ in range(n)]

        assert LOSS_BLOCK < 1_500 < 2 * LOSS_BLOCK  # the reseed lands mid-block
        net.set_loss_rate(0.03, seed=11)
        got = send_all(1_500)
        net.set_loss_rate(0.2, seed=12)  # reseed: the draws taken ahead die
        got += send_all(1_500)
        net.clear_loss()
        healed = send_all(100)
        net.set_loss_rate(0.03, seed=11)  # re-arm: the stream starts over
        got += send_all(2_000)
        assert got == scalar(1_500, 0.03, 11) + scalar(1_500, 0.2, 12) + scalar(2_000, 0.03, 11)
        assert not any(healed)
        assert 0 < sum(got) == net.stats.dropped_by_cause["loss"]

    def test_a_partitioned_packet_consumes_no_loss_draw(self):
        """Cuts are tested before the loss draw, so a packet a partition
        eats leaves the loss stream where it was."""
        sim = Simulator()
        net = Network(sim, ConstantTopology(3, rtt=10.0))
        nodes = [Recorder(a, net) for a in range(3)]
        net.set_loss_rate(0.5, seed=4)
        net.set_partition({2: 1})
        net.add_asym_cut(1, [1], [0])
        for i in range(300):
            for dst in (1, 2):  # 0 -> 2 crosses the partition
                net.send(Message(src=0, dst=dst, kind="t", payload=i, size_bytes=10))
            net.send(Message(src=1, dst=0, kind="t", payload=i, size_bytes=10))
        sim.run()
        rng = np.random.default_rng(4)
        survivors = [i for i in range(300) if not rng.random() < 0.5]
        assert [m.payload for m in nodes[1].received] == survivors
        assert nodes[0].received == [] and nodes[2].received == []
        assert net.stats.dropped_by_cause["partition"] == 600

    def test_loss_still_charges_sender_bytes(self):
        sim = Simulator()
        net = Network(sim, ConstantTopology(2, rtt=10.0))
        Recorder(0, net), Recorder(1, net)
        net.set_loss_rate(0.99, seed=1)
        for _ in range(100):
            net.send(Message(src=0, dst=1, kind="t", payload=None, size_bytes=10))
        sim.run()
        assert net.stats.out_bytes[0] == 1000

    def test_zero_rate_disables(self):
        sim = Simulator()
        net = Network(sim, ConstantTopology(2, rtt=10.0))
        a, b = Recorder(0, net), Recorder(1, net)
        net.set_loss_rate(0.5, seed=1)
        net.set_loss_rate(0.0)
        for _ in range(50):
            net.send(Message(src=0, dst=1, kind="t", payload=None, size_bytes=10))
        sim.run()
        assert len(b.received) == 50

    def test_invalid_rate(self):
        net = Network(Simulator(), ConstantTopology(2))
        with pytest.raises(ValueError):
            net.set_loss_rate(1.0)

    def test_local_messages_never_lost(self):
        sim = Simulator()
        net = Network(sim, ConstantTopology(2, rtt=10.0))
        a, _b = Recorder(0, net), Recorder(1, net)
        net.set_loss_rate(0.99, seed=2)
        for _ in range(50):
            net.send(Message(src=0, dst=0, kind="t", payload=None, size_bytes=10))
        sim.run()
        assert len(a.received) == 50


class TestPartition:
    def test_cross_group_blocked_within_group_fine(self):
        sim = Simulator()
        net = Network(sim, ConstantTopology(4, rtt=10.0))
        nodes = [Recorder(i, net) for i in range(4)]
        net.set_partition({0: 0, 1: 0, 2: 1, 3: 1})
        net.send(Message(src=0, dst=1, kind="t", payload=None, size_bytes=10))
        net.send(Message(src=0, dst=2, kind="t", payload=None, size_bytes=10))
        net.send(Message(src=2, dst=3, kind="t", payload=None, size_bytes=10))
        sim.run()
        assert len(nodes[1].received) == 1
        assert len(nodes[2].received) == 0
        assert len(nodes[3].received) == 1

    def test_heal_restores_connectivity(self):
        sim = Simulator()
        net = Network(sim, ConstantTopology(2, rtt=10.0))
        _a, b = Recorder(0, net), Recorder(1, net)
        net.set_partition({0: 0, 1: 1})
        net.send(Message(src=0, dst=1, kind="t", payload=None, size_bytes=10))
        sim.run()
        assert len(b.received) == 0
        net.set_partition(None)
        net.send(Message(src=0, dst=1, kind="t", payload=None, size_bytes=10))
        sim.run()
        assert len(b.received) == 1


class TestPubSubUnderLoss:
    def build(self):
        cfg = HyperSubConfig(seed=3, code_bits=12)
        system = HyperSubSystem(num_nodes=40, config=cfg)
        scheme = Scheme("s", [Attribute(x, 0, 10000) for x in "abcd"])
        system.add_scheme(scheme)
        rng = np.random.default_rng(1)
        installed = []
        for _ in range(200):
            c = rng.normal(3000, 300, 4) % 10000
            w = rng.uniform(100, 700, 4)
            sub = Subscription.from_box(
                scheme,
                list(np.clip(c - w, 0, 10000)),
                list(np.clip(c + w, 0, 10000)),
            )
            installed.append(
                (sub, system.subscribe(int(rng.integers(0, 40)), sub))
            )
        system.finish_setup()
        return system, scheme, installed, rng

    def run_events(self, system, scheme, installed, rng, events=40):
        delivered = expected = 0
        for _ in range(events):
            pt = rng.normal(3000, 400, 4) % 10000
            ev = Event(scheme, list(pt))
            eid = system.publish(int(rng.integers(0, 40)), ev)
            system.run_until_idle()
            rec = system.metrics.records[eid]
            got = {(d[0].nid, d[0].iid) for d in rec.deliveries}
            want = {
                (sid.nid, sid.iid) for s, sid in installed if s.matches(ev)
            }
            assert got <= want
            delivered += len(got & want)
            expected += len(want)
        return delivered, expected

    def test_delivery_degrades_smoothly_with_loss(self):
        """Fire-and-forget delivery: loss rate p should cost roughly the
        per-path compounded fraction -- never amplify, never corrupt."""
        system, scheme, installed, rng = self.build()
        d0, e0 = self.run_events(system, scheme, installed, rng)
        assert d0 == e0  # no loss: exact

        system.network.set_loss_rate(0.02, seed=9)
        d1, e1 = self.run_events(system, scheme, installed, rng)
        ratio = d1 / max(e1, 1)
        # ~7 hops/path at 2% loss => expect ratio around 0.87; bound loosely.
        assert 0.6 < ratio < 1.0

    def test_partition_splits_delivery(self):
        system, scheme, installed, rng = self.build()
        groups = {a: (0 if a < 20 else 1) for a in range(40)}
        system.network.set_partition(groups)
        d, e = self.run_events(system, scheme, installed, rng, events=20)
        assert d < e  # cross-partition subscribers unreachable
        system.network.set_partition(None)
        d2, e2 = self.run_events(system, scheme, installed, rng, events=20)
        assert d2 == e2  # healed


class TestReliableDelivery:
    def build(self, **cfg_kwargs):
        cfg = HyperSubConfig(
            seed=3, code_bits=12, reliable_delivery=True,
            retransmit_timeout_ms=1500.0, **cfg_kwargs,
        )
        system = HyperSubSystem(num_nodes=40, config=cfg)
        scheme = Scheme("s", [Attribute(x, 0, 10000) for x in "abcd"])
        system.add_scheme(scheme)
        rng = np.random.default_rng(1)
        installed = []
        for _ in range(200):
            c = rng.normal(3000, 300, 4) % 10000
            w = rng.uniform(100, 700, 4)
            sub = Subscription.from_box(
                scheme,
                list(np.clip(c - w, 0, 10000)),
                list(np.clip(c + w, 0, 10000)),
            )
            installed.append(
                (sub, system.subscribe(int(rng.integers(0, 40)), sub))
            )
        system.finish_setup()
        return system, scheme, installed, rng

    def run_events(self, system, scheme, installed, rng, events=30):
        delivered = expected = dups = 0
        for _ in range(events):
            pt = rng.normal(3000, 400, 4) % 10000
            ev = Event(scheme, list(pt))
            eid = system.publish(int(rng.integers(0, 40)), ev)
            system.run_until_idle()
            rec = system.metrics.records[eid]
            got_list = [(d[0].nid, d[0].iid) for d in rec.deliveries]
            got = set(got_list)
            dups += len(got_list) - len(got)
            want = {
                (sid.nid, sid.iid) for s, sid in installed if s.matches(ev)
            }
            assert got <= want
            delivered += len(got & want)
            expected += len(want)
        return delivered, expected, dups

    def test_full_recovery_under_10pct_loss(self):
        system, scheme, installed, rng = self.build()
        system.network.set_loss_rate(0.10, seed=9)
        d, e, dups = self.run_events(system, scheme, installed, rng)
        assert e > 100
        assert d == e, "reliable transport must recover every delivery"
        assert dups == 0, "receiver-side dedup must keep exactly-once"

    def test_no_loss_no_retransmissions(self):
        system, scheme, installed, rng = self.build()
        d, e, dups = self.run_events(system, scheme, installed, rng, events=10)
        assert d == e and dups == 0
        # Every ps_event got exactly one ack; no duplicate sends.
        kinds = system.network.stats.msgs_by_kind
        assert kinds.get("ps_event_ack", 0) == kinds.get("ps_event", 0)

    def test_retransmissions_charged_as_bytes(self):
        system, scheme, installed, rng = self.build()
        system.network.set_loss_rate(0.15, seed=4)
        self.run_events(system, scheme, installed, rng, events=15)
        kinds = system.network.stats.msgs_by_kind
        # Lossy link: strictly more event packets sent than acked pairs.
        assert kinds["ps_event"] > kinds["ps_event_ack"] * 0.5
        # Metrics counted the retries: recorded messages >= delivered msgs.
        total_recorded = sum(
            r.messages for r in system.metrics.records.values()
        )
        assert total_recorded >= kinds["ps_event"] * 0.9

    def test_a_crashed_node_sends_nothing_after_fail(self):
        """``_rel_retry`` had no ``_alive`` guard (its siblings
        ``_rel_busy_resend`` and ``_failover_resend`` do): a node that
        crashed with packets pending kept retransmitting them until
        ``max_retries``.  A dead incarnation drops the pending entry,
        counts the give-up under ``retries`` and transmits nothing."""
        system, scheme, _installed, _rng = self.build(max_retries=3)
        publisher = system.nodes[5]
        stats = system.network.stats
        system.publish(5, Event(scheme, [3000.0, 3000.0, 3000.0, 3000.0]))
        assert publisher._rel_pending, "the publisher forwarded nothing reliably"
        publisher.fail()  # the acks on their way back find nobody
        sent = float(stats.out_bytes[5])
        gave_up = stats.gave_up
        system.run_until_idle()
        assert float(stats.out_bytes[5]) == sent
        assert not publisher._rel_pending
        assert stats.gave_up > gave_up
        assert stats.gave_up_by_cause["retries"] == stats.gave_up

    def test_gives_up_after_max_retries(self):
        system, scheme, installed, rng = self.build(max_retries=1)
        system.network.set_loss_rate(0.9, seed=5)  # nearly dead network
        d, e, dups = self.run_events(system, scheme, installed, rng, events=5)
        system.run_until_idle()
        # No unbounded retransmission state left behind.
        for node in system.nodes:
            assert not node._rel_pending
