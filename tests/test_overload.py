"""Tests for the overload-protection stack: finite service model,
bounded ingress queues, admission control / shedding, ``ps_busy``
backpressure and storm injection."""

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
from repro.core.transport import RelPending
from repro.faults import FaultSchedule, FaultScheduleError
from repro.sim.engine import Simulator
from repro.sim.messages import CONTROL_BYTES, Message
from repro.sim.network import Network, SimNode
from repro.sim.topology import ConstantTopology


class Recorder(SimNode):
    def __init__(self, addr, network):
        super().__init__(addr, network)
        self.received = []
        self.sheds = []

    def handle_message(self, msg):
        self.received.append((self.sim.now, msg))

    def on_ingress_shed(self, msg):
        self.sheds.append(msg)


class PriorityRecorder(Recorder):
    """Control messages (kind starting with "ctl") outrank the rest."""

    def ingress_priority(self, msg):
        return 0 if msg.kind.startswith("ctl") else 1


def make_net(n=4, rtt=100.0):
    sim = Simulator()
    net = Network(sim, ConstantTopology(n, rtt=rtt))
    nodes = [Recorder(i, net) for i in range(n)]
    return sim, net, nodes


def msg(src, dst, kind="t", size=30):
    return Message(src=src, dst=dst, kind=kind, payload=None, size_bytes=size)


# ---------------------------------------------------------------------------
# Finite service model
# ---------------------------------------------------------------------------
class TestServiceModel:
    def test_infinite_capacity_is_the_default(self):
        sim, net, nodes = make_net(rtt=100.0)
        net.send(msg(0, 1))
        sim.run()
        (t, _m), = nodes[1].received
        assert t == 50.0  # pure link latency, no service delay
        assert nodes[1].ingress_depth == 0

    def test_messages_are_served_at_the_service_rate(self):
        sim, net, nodes = make_net(rtt=100.0)
        nodes[1].service_rate = 0.5  # 2 ms per message
        for _ in range(3):
            net.send(msg(0, 1))
        sim.run()
        assert [t for t, _m in nodes[1].received] == [52.0, 54.0, 56.0]

    def test_capacity_scales_the_service_rate(self):
        sim, net, nodes = make_net(rtt=100.0)
        nodes[1].service_rate = 0.5
        nodes[1].capacity = 2.0  # 1 ms per message
        for _ in range(2):
            net.send(msg(0, 1))
        sim.run()
        assert [t for t, _m in nodes[1].received] == [51.0, 52.0]

    def test_overflow_sheds_the_arriving_bulk_message(self):
        sim, net, nodes = make_net()
        nodes[1].service_rate = 0.01  # effectively frozen
        nodes[1].queue_capacity = 2
        for _ in range(5):
            net.send(msg(0, 1))
        sim.run(until=60.0)
        assert len(nodes[1].sheds) == 3
        assert net.stats.dropped_by_cause["overflow"] == 3
        assert net.stats.dropped == 3
        assert nodes[1].ingress_peak == 2

    def test_control_evicts_newest_bulk_on_overflow(self):
        sim = Simulator()
        net = Network(sim, ConstantTopology(2, rtt=100.0))
        nodes = [PriorityRecorder(i, net) for i in range(2)]
        nodes[1].service_rate = 0.01
        nodes[1].queue_capacity = 2
        net.send(msg(0, 1, kind="bulk_a"))
        net.send(msg(0, 1, kind="bulk_b"))
        net.send(msg(0, 1, kind="ctl_x"))
        sim.run(until=60.0)
        # The control message is admitted; the newest bulk one is shed.
        assert [m.kind for m in nodes[1].sheds] == ["bulk_b"]
        assert len(nodes[1]._ingress_hi) == 1
        assert [m.kind for m in nodes[1]._ingress_lo] == ["bulk_a"]

    def test_queue_peak_gauge_tracks_the_deepest_backlog(self):
        sim, net, nodes = make_net()
        nodes[1].service_rate = 0.01  # effectively frozen
        nodes[2].service_rate = 0.01
        for _ in range(5):
            net.send(msg(0, 1))
        net.send(msg(0, 2))
        sim.run(until=60.0)
        # The run-wide high-water mark is the *deepest single node*.
        assert net.stats.queue_peak == 5

    def test_queue_peak_is_zero_under_infinite_capacity(self):
        sim, net, nodes = make_net()
        for _ in range(10):
            net.send(msg(0, 1))
        sim.run()
        assert net.stats.queue_peak == 0

    def test_control_band_is_served_first(self):
        sim = Simulator()
        net = Network(sim, ConstantTopology(2, rtt=100.0))
        nodes = [PriorityRecorder(i, net) for i in range(2)]
        nodes[1].service_rate = 1.0
        net.send(msg(0, 1, kind="bulk_a"))
        net.send(msg(0, 1, kind="ctl_x"))
        sim.run()
        assert [m.kind for _t, m in nodes[1].received] == ["ctl_x", "bulk_a"]

    def test_crash_drains_backlog_as_dead_dst(self):
        sim, net, nodes = make_net()
        nodes[1].service_rate = 0.5
        for _ in range(4):
            net.send(msg(0, 1))
        sim.schedule_at(51.0, nodes[1].fail)
        sim.run()
        # One served at 52 would be dead; the service tick finds the node
        # dead and drains everything still queued.
        assert net.stats.dropped_by_cause["dead_dst"] == 4
        assert nodes[1].ingress_depth == 0


# ---------------------------------------------------------------------------
# Per-cause drop accounting (satellite: net.dropped split)
# ---------------------------------------------------------------------------
class TestDropCauses:
    def test_unregistered_destination_counts_dead_dst(self):
        sim, net, nodes = make_net()
        net.unregister(3)
        net.send(msg(0, 3))
        sim.run()
        assert net.stats.dropped_by_cause["dead_dst"] == 1
        assert net.stats.dropped == 1

    def test_loss_and_partition_counted_by_cause(self):
        sim, net, nodes = make_net()
        net.set_loss_rate(1.0 - 1e-12, seed=5)
        net.send(msg(0, 1))
        sim.run()
        net.clear_loss()
        net.set_partition({0: 0, 1: 1})
        net.send(msg(0, 1))
        sim.run()
        by_cause = net.stats.dropped_by_cause
        assert by_cause["loss"] == 1
        assert by_cause["partition"] == 1
        assert net.stats.dropped == 2

    def test_reset_zeroes_every_cause(self):
        sim, net, nodes = make_net()
        net.unregister(3)
        net.send(msg(0, 3))
        sim.run()
        net.stats.reset()
        assert net.stats.dropped == 0
        assert all(v == 0 for v in net.stats.dropped_by_cause.values())


# ---------------------------------------------------------------------------
# Storm injection
# ---------------------------------------------------------------------------
class TestStorm:
    def test_storm_floods_the_target(self):
        sim, net, nodes = make_net()
        net.start_storm(2, rate_msgs_per_ms=1.0, until_ms=5.0)
        sim.run()
        assert len(nodes[2].received) == 5
        assert all(m.kind == "ps_storm" for _t, m in nodes[2].received)
        assert net.stats.msgs_by_kind["ps_storm"] == 5

    def test_storm_rate_validated(self):
        sim, net, nodes = make_net()
        with pytest.raises(ValueError):
            net.start_storm(0, rate_msgs_per_ms=0.0, until_ms=5.0)

    def test_storm_skips_dead_target(self):
        sim, net, nodes = make_net()
        nodes[2].fail()
        net.start_storm(2, rate_msgs_per_ms=1.0, until_ms=3.0)
        sim.run()
        assert nodes[2].received == []

    def test_storm_saturates_bounded_queue(self):
        sim, net, nodes = make_net()
        nodes[2].service_rate = 0.1  # 10 ms per message
        nodes[2].queue_capacity = 4
        net.start_storm(2, rate_msgs_per_ms=1.0, until_ms=50.0)
        sim.run()
        assert nodes[2].ingress_peak == 4
        assert net.stats.dropped_by_cause["overflow"] > 0

    def test_schedule_storm_via_dsl(self):
        sched = FaultSchedule.from_spec(
            [{"from": 10.0, "to": 20.0, "storm": {"addr": 1, "rate": 2.0}}]
        )
        assert len(sched) == 1
        assert sched.to_spec() == [
            {"from": 10.0, "to": 20.0, "storm": {"addr": 1, "rate": 2.0}}
        ]
        assert sched.describe() == "t=10ms storm addr=1 rate=2/ms until=20ms"

    def test_storm_builder_validation(self):
        with pytest.raises(ValueError):
            FaultSchedule().storm(10.0, 5.0, 1, 2.0)  # empty window
        with pytest.raises(ValueError):
            FaultSchedule().storm(10.0, 20.0, 1, 0.0)  # zero rate


# ---------------------------------------------------------------------------
# Spec-entry build-time validation (satellite: loss-rate bounds)
# ---------------------------------------------------------------------------
class TestFaultEntryValidation:
    def test_loss_rate_one_rejected_at_build_time(self):
        with pytest.raises(ValueError):
            FaultSchedule().loss(0.0, 1.0)
        with pytest.raises(ValueError):
            FaultSchedule().loss(0.0, 1.5)
        with pytest.raises(FaultScheduleError):
            FaultSchedule.from_spec([{"from": 0.0, "loss": 1.0}])

    def test_spec_entries_validated(self):
        for entry in (
            {"at": 0.0, "not_a_kind": [1]},
            {"at": -1.0, "crash": []},
            {"from": 0.0, "to": 5.0, "latency": 0.0},
            {"from": 0.0, "to": 5.0, "storm": {"addr": [1, 2], "rate": 1.0}},
            {"from": 0.0, "storm": {"addr": 1, "rate": 1.0}},  # no window end
        ):
            with pytest.raises(FaultScheduleError):
                FaultSchedule.from_spec([entry])

    def test_valid_entries_still_build(self):
        FaultSchedule.from_spec([{"from": 0.0, "loss": 0.999}])
        FaultSchedule.from_spec(
            [{"from": 0.0, "to": 5.0, "storm": {"addr": 1, "rate": 1.0}}]
        )


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------
class TestConfigValidation:
    def test_protection_requires_service_model_and_reliability(self):
        with pytest.raises(ValueError):
            HyperSubConfig(overload_protection=True, reliable_delivery=True)
        with pytest.raises(ValueError):
            HyperSubConfig(overload_protection=True, service_model=True)
        HyperSubConfig(
            overload_protection=True,
            service_model=True,
            reliable_delivery=True,
        )

    def test_service_knobs_validated(self):
        with pytest.raises(ValueError):
            HyperSubConfig(service_rate_msgs_per_ms=0.0)
        with pytest.raises(ValueError):
            HyperSubConfig(ingress_queue_capacity=0)


# ---------------------------------------------------------------------------
# End-to-end: a storm at a loaded surrogate
# ---------------------------------------------------------------------------
def build_system(protection, n=30, subs=120, seed=3):
    cfg = HyperSubConfig(
        seed=seed,
        code_bits=12,
        reliable_delivery=True,
        retransmit_timeout_ms=500.0,
        max_retries=2,
        hop_failover=True,
        failover_backoff_ms=500.0,
        service_model=True,
        service_rate_msgs_per_ms=0.5,
        ingress_queue_capacity=32,
        overload_protection=protection,
    )
    system = HyperSubSystem(num_nodes=n, config=cfg)
    scheme = Scheme("s", [Attribute(x, 0, 10000) for x in "abcd"])
    system.add_scheme(scheme)
    rng = np.random.default_rng(1)
    installed = []
    for _ in range(subs):
        lows, highs = [], []
        for _ in range(4):
            c = float(rng.normal(3000, 300) % 10000)
            w = float(rng.uniform(100, 700))
            lows.append(max(0.0, c - w))
            highs.append(min(10000.0, c + w))
        sub = Subscription.from_box(scheme, lows, highs)
        sid = system.subscribe(int(rng.integers(0, n)), sub)
        installed.append((sub, sid))
    system.finish_setup()
    return system, scheme, installed, rng


def storm_and_publish(system, scheme, rng, events=15):
    hot = int(np.argmax(system.node_loads()))
    FaultSchedule().storm(500.0, 8_000.0, hot, 5.0).install(system)
    published = []
    t = 600.0
    for _ in range(events):
        t += 300.0
        ev = Event(scheme, list(rng.normal(3000, 400, 4) % 10000))
        published.append(ev)
        system.sim.schedule_at(t, system.publish, int(rng.integers(0, 30)), ev)
    system.run_until_idle()
    return hot, published


class TestEndToEnd:
    @pytest.fixture(autouse=True)
    def storm_knobs(self, monkeypatch):
        """Back-off ceiling at the storm's scale."""
        monkeypatch.setattr("repro.core.transport.BUSY_BACKOFF_MAX_MS", 10_000.0)

    def test_nodes_get_service_parameters_from_config(self):
        system, *_ = build_system(protection=True, subs=10)
        cfg = system.config
        for node in system.nodes:
            assert node.service_rate == cfg.service_rate_msgs_per_ms
            assert node.queue_capacity == cfg.ingress_queue_capacity

    def test_protection_off_storm_destroys_deliveries(self):
        system, scheme, installed, rng = build_system(protection=False)
        hot, published = storm_and_publish(system, scheme, rng)
        stats = system.network.stats
        assert stats.dropped_by_cause["overflow"] > 0
        assert system.nodes[hot].ingress_peak <= 32
        # Unprotected senders retransmit into the full queue and give up.
        assert stats.gave_up_subids > 0
        assert stats.busy_backoffs == 0
        assert stats.shed == 0  # shed accounting is part of protection

    def test_protection_on_storm_delivers_everything(self):
        system, scheme, installed, rng = build_system(protection=True)
        hot, published = storm_and_publish(system, scheme, rng)
        stats = system.network.stats
        assert stats.shed > 0
        assert stats.busy_backoffs > 0
        assert stats.gave_up_subids == 0
        assert system.nodes[hot].ingress_peak <= 32
        delivered = expected = 0
        for rec, ev in zip(
            sorted(
                system.metrics.records.values(), key=lambda r: r.publish_time
            ),
            published,
        ):
            got = {(d[0].nid, d[0].iid) for d in rec.deliveries}
            want = {
                (sid.nid, sid.iid)
                for s, sid in installed
                if s.matches(ev)
            }
            assert got == want  # exactly-once, nothing lost
            delivered += len(got)
            expected += len(want)
        assert expected > 50  # the workload actually exercised delivery

    def test_rejoined_node_inherits_service_model(self):
        system, scheme, installed, rng = build_system(
            protection=True, subs=20
        )
        system.start_maintenance(
            stabilize_interval_ms=250.0, rpc_timeout_ms=1_000.0
        )
        system.nodes[5].fail()
        system.run(until=system.sim.now + 5_000.0)
        system.rejoin_node(5)
        node = system.nodes[5]
        assert node.service_rate == system.config.service_rate_msgs_per_ms
        assert node.queue_capacity == system.config.ingress_queue_capacity
        system.run(until=system.sim.now + 5_000.0)
        system.stop_maintenance()
        system.run_until_idle()


# ---------------------------------------------------------------------------
# Only a shed ps_event is NACKed
# ---------------------------------------------------------------------------
class TestShedNack:
    """An ack or a NACK carries ``rseq`` too, but it names a packet of
    the *other* node: NACKing it would back off an unrelated packet of
    the sender's that happens to have the same number."""

    SEQ = 1

    def _pair(self):
        """Node 0 with a full, control-only ingress queue; node 1 with
        a pending reliable packet of sequence number ``SEQ``."""
        cfg = HyperSubConfig(
            seed=3, code_bits=12, reliable_delivery=True,
            retransmit_timeout_ms=5_000.0, service_model=True,
            service_rate_msgs_per_ms=0.5, ingress_queue_capacity=2,
            overload_protection=True,
        )
        system = HyperSubSystem(num_nodes=4, config=cfg)
        a, b = system.nodes[0], system.nodes[1]
        state = RelPending(2, {"event_id": 9}, 100, 0, 0.0, None)
        state.timer = system.sim.schedule(20_000.0, lambda: None)
        b._rel_pending[self.SEQ] = state
        for rseq in (70, 71):  # acks for packets node 0 never sent
            a.enqueue(Message(3, 0, "ps_event_ack", {"rseq": rseq}, CONTROL_BYTES))
        assert a.ingress_depth == 2
        return system, a, b, state

    @pytest.mark.parametrize("kind", ["ps_event_ack", "ps_busy"])
    def test_shed_control_packet_is_not_nacked(self, kind):
        system, a, b, state = self._pair()
        timer = state.timer
        a.enqueue(Message(1, 0, kind, {"rseq": self.SEQ}, CONTROL_BYTES))
        stats = system.network.stats
        assert stats.shed == 1 and stats.dropped_by_cause["overflow"] == 1
        system.run(until=system.sim.now + 5_000.0)
        assert stats.msgs_by_kind.get("ps_busy", 0) == 0
        assert stats.busy_backoffs == 0
        assert state.busy == 0 and state.timer is timer
        assert b._rel_pending[self.SEQ] is state

    def test_shed_event_packet_is_nacked(self):
        """The contrast: the same shed as a reliable ps_event backs the
        sender's packet off."""
        system, a, b, state = self._pair()
        timer = state.timer
        a.enqueue(
            Message(1, 0, "ps_event", {"rseq": self.SEQ, "event_id": 9}, 100)
        )
        stats = system.network.stats
        assert stats.shed == 1
        system.run(until=system.sim.now + 5_000.0)
        assert stats.msgs_by_kind["ps_busy"] == 1
        assert stats.busy_backoffs == 1
        assert state.busy == 1 and state.timer is not timer
