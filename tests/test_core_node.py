"""Unit tests for node-level internals not covered by integration tests."""

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
from repro.core.matching import BoxStore
from repro.core.node import MARKER_IID_BASE, ZoneRepo, subscription_wire_bytes
from repro.core.subscription import SubID
from repro.core.zones import ContentZone, ZoneGeometry
from repro.sim.messages import Message
from tests.route_reference import forget_routes


def tiny_system(**cfg_kwargs):
    cfg_kwargs.setdefault("code_bits", 8)
    cfg_kwargs.setdefault("seed", 3)
    system = HyperSubSystem(num_nodes=12, config=HyperSubConfig(**cfg_kwargs))
    scheme = Scheme("s", [Attribute("x", 0, 100), Attribute("y", 0, 100)])
    system.add_scheme(scheme)
    return system, scheme


class TestWireSizes:
    def test_subscription_wire_bytes(self):
        assert subscription_wire_bytes(4) == 9 + 64
        assert subscription_wire_bytes(1) == 9 + 16


class TestZoneRepo:
    def test_key(self):
        g = ZoneGeometry(base=2, code_bits=8)
        repo = ZoneRepo("ent", ContentZone(5, 4, g), BoxStore(2))
        assert repo.key == ("ent", 5, 4)
        assert repo.sf is None
        assert len(repo.store) == 0


class TestIidAllocation:
    def test_monotone_unique(self):
        system, scheme = tiny_system()
        node = system.nodes[0]
        ids = [node._next_iid() for _ in range(100)]
        assert ids == sorted(set(ids))

    def test_absorbed_marker_ids_are_never_minted_again(self):
        system, scheme = tiny_system()
        node = system.nodes[0]
        first = node._next_marker_iid()
        assert first == MARKER_IID_BASE + 1
        node._absorb_markers(
            [(node.node_id, first + 40, ["e", 0, 0]), (node.node_id + 1, first + 90, ["e", 1, 1])]
        )
        assert node._next_marker_iid() == first + 41  # somebody else's id does not count


class TestRegistration:
    def test_subscribe_installs_at_surrogate(self):
        system, scheme = tiny_system()
        sub = Subscription.from_box(scheme, [10, 10], [12, 12])
        sid = system.subscribe(0, sub)
        entity = system.entity_for_subscription(sub)
        zone = entity.zone_of_subscription(sub)
        home = system.node_at_home(entity.rotated_key(zone))
        repo = home.zone_repos[(entity.key, zone.code, zone.level)]
        assert sid in repo.store
        assert repo.kind_of(sid) == "sub"

    def test_summary_filter_covers_registrations(self):
        system, scheme = tiny_system()
        subs = [
            Subscription.from_box(scheme, [10, 10], [12, 12]),
            Subscription.from_box(scheme, [11, 11], [14, 13]),
        ]
        for s in subs:
            system.subscribe(0, s)
        entity = system.entity_for_subscription(subs[0])
        for node in system.nodes:
            for repo in node.zone_repos.values():
                if repo.sf is None:
                    continue
                lo, hi = repo.sf
                bb = repo.store.bounding_box()
                assert np.all(lo <= bb[0]) and np.all(hi >= bb[1])

    def test_markers_only_below_direct_levels(self):
        system, scheme = tiny_system(direct_rendezvous_levels=5)
        # A straddling subscription: maps to the root zone (level 0 < 5)
        # => no cascade at all from there.
        sub = Subscription.from_box(scheme, [49, 49], [51, 51])
        system.subscribe(0, sub)
        total_markers = sum(
            n.stored_subscription_count("marker") for n in system.nodes
        )
        assert total_markers == 0

    def test_cascade_from_deep_zone(self):
        system, scheme = tiny_system(direct_rendezvous_levels=0)
        sub = Subscription.from_box(scheme, [49, 49], [51, 51])
        system.subscribe(0, sub)
        total_markers = sum(
            n.stored_subscription_count("marker") for n in system.nodes
        )
        assert total_markers > 0

    def test_shallow_occupancy_tracked(self):
        system, scheme = tiny_system(direct_rendezvous_levels=5)
        sub = Subscription.from_box(scheme, [49, 49], [51, 51])
        system.subscribe(0, sub)
        entity = system.entity_for_subscription(sub)
        zone = entity.zone_of_subscription(sub)
        assert zone.level == 0
        assert system.shallow_occupied((entity.key, zone.code, zone.level))
        assert not system.shallow_occupied((entity.key, 1, 1))


class TestEventReceivePath:
    """The ``ps_event`` handler is picked once, from the config; the
    best-effort packet runs the straight line of ``_process_event`` and
    anything a feature put on a packet takes the general emit loop."""

    @pytest.mark.parametrize(
        "cfg, wrapped",
        [
            ({}, False),
            ({"service_model": True}, False),
            ({"reliable_delivery": True}, True),
            ({"piggyback_maintenance": True}, True),
            ({"reliable_delivery": True, "piggyback_maintenance": True}, True),
        ],
    )
    def test_handler_is_chosen_at_construction(self, cfg, wrapped):
        system, _scheme = tiny_system(**cfg)
        cls = type(system.nodes[0])
        expected = cls._on_ps_event if wrapped else cls._process_event
        for node in system.nodes:
            assert node._handlers["ps_event"] is expected

    def test_nodes_share_one_handler_table(self):
        """Nodes that registered the same handlers dispatch through one
        table; a handler added to one node afterwards is that node's
        alone."""
        system, _scheme = tiny_system()
        first, second, third = system.nodes[:3]
        assert first._handlers is second._handlers is third._handlers
        shared = dict(first._handlers)
        seen = []
        second.register_handler("extra", seen.append)
        assert second._handlers is not first._handlers
        assert first._handlers is third._handlers
        assert first._handlers == shared
        msg = Message(src=0, dst=second.addr, kind="extra", payload=None, size_bytes=0)
        second.handle_message(msg)
        assert seen == [msg]
        with pytest.raises(KeyError, match="extra"):
            first.handle_message(msg)
        with pytest.raises(ValueError, match="duplicate"):
            second.register_handler("extra", seen.append)
        # a method of the node itself is shared again by whoever follows
        first.register_handler("storm2", first._on_ps_storm)
        third.register_handler("storm2", third._on_ps_storm)
        assert first._handlers is third._handlers
        assert "storm2" not in second._handlers

    @staticmethod
    def _forwarded(monkeypatch, system, payload_extra=None, meta=None):
        """Offer node 0 a packet with one entry it must forward; returns
        ``(packet sent, calls of Message.child)`` -- only the general
        emit loop derives packets through ``child``."""
        from repro.sim.messages import Message

        node = system.nodes[0]
        foreign = next(
            n.node_id for n in system.nodes if not node.is_responsible(n.node_id)
        )
        children = []
        real_child = Message.child

        def child(self, *args):
            children.append(args)
            return real_child(self, *args)

        monkeypatch.setattr(Message, "child", child)
        sent = []
        monkeypatch.setattr(system.network, "send", sent.append)
        entry = (foreign, 7) if meta is None else (foreign, 7, meta)
        payload = {
            "event_id": 999, "scheme": "s", "point": np.array([1.0, 1.0]),
            "entries": [entry],
        }
        payload.update(payload_extra or {})
        node._process_event(Message(5, 0, "ps_event", payload, 0, 3, 12.5, 4.0))
        (packet,) = sent
        return packet, len(children)

    def test_best_effort_packet_runs_the_straight_line(self, monkeypatch):
        system, _scheme = tiny_system()
        packet, children = self._forwarded(monkeypatch, system)
        assert children == 0
        assert list(packet.payload) == ["event_id", "scheme", "point", "entries"]
        assert packet.size_bytes == 20 + 100 + 9
        # ... continuing the path of the packet it was derived from
        assert (packet.src, packet.kind) == (0, "ps_event")
        assert (packet.hops, packet.path_latency, packet.root_time) == (3, 12.5, 4.0)
        assert packet.span_id is None

    def test_inherited_fields_take_the_general_loop(self, monkeypatch):
        system, _scheme = tiny_system()
        packet, children = self._forwarded(
            monkeypatch, system, {"fo": 2, "pub": 1, "pseq": 4, "deps": [[2, 1]]}
        )
        assert children == 1
        assert packet.payload["fo"] == 2 and packet.payload["deps"] == [[2, 1]]
        assert packet.size_bytes == 20 + 100 + 9 + 12

    def test_custody_metadata_takes_the_general_loop(self, monkeypatch):
        system, _scheme = tiny_system()
        packet, children = self._forwarded(
            monkeypatch, system, meta={"t": [3, 1]}
        )
        assert children == 1
        assert packet.payload["entries"][0][2] == {"t": [3, 1]}
        assert packet.size_bytes == 20 + 100 + 9 + 16

    def test_edge_tracing_takes_the_general_loop(self, monkeypatch):
        system, _scheme = tiny_system()
        system.tracing = True  # flipped after construction: read per packet
        _packet, children = self._forwarded(monkeypatch, system)
        assert children == 1

    def test_piggyback_takes_the_general_loop(self, monkeypatch):
        system, _scheme = tiny_system(piggyback_maintenance=True)
        # only links to the ring neighbours carry state; the general
        # loop is what asks
        asked = []
        node_cls = type(system.nodes[0])
        monkeypatch.setattr(
            node_cls, "_pb_due", lambda self, dst: asked.append(dst) or True
        )
        packet, children = self._forwarded(monkeypatch, system)
        assert children == 1 and asked == [packet.dst]
        assert packet.payload["pb"]["addr"] == 0
        assert packet.size_bytes == 20 + 100 + 9 + 24


class TestEventEdgeCases:
    def test_stale_subid_dropped_silently(self):
        system, scheme = tiny_system()
        node = system.nodes[0]
        from repro.sim.messages import Message

        msg = Message(
            src=0, dst=0, kind="ps_event",
            payload={
                "event_id": 999,
                "scheme": "s",
                "point": np.array([1.0, 1.0]),
                "entries": [(node.node_id, 424242)],  # unknown iid
            },
            size_bytes=0,
        )
        node._process_event(msg)  # must not raise
        system.run_until_idle()
        assert system.network.stats.stale_subid == 1  # ... but not uncounted

    def test_unsubscribe_racing_an_inflight_event_counts_a_stale_subid(self):
        """The subscriber forgets the subscription at once; the
        ``ps_unregister`` still has a lookup to ride.  An event matched
        at the surrogate in between carries a SubID nobody holds: it is
        dropped at the subscriber under ``delivery.stale_subid``."""
        from repro.analysis.trace import render_transport_summary, transport_summary

        system, scheme = tiny_system(
            simulate_install=True, direct_rendezvous_levels=9  # no cascade
        )
        sub = Subscription.from_box(scheme, [10, 10], [12, 12])
        entity = system.entity_for_subscription(sub)
        zone = entity.zone_of_subscription(sub)
        home = system.node_at_home(entity.rotated_key(zone))
        subscriber = next(n for n in system.nodes if n is not home)
        sid = subscriber.subscribe(sub)
        system.finish_setup()
        stats = system.network.stats

        subscriber.unsubscribe(sid)
        # Published at the surrogate itself: matched inside publish(),
        # before the unregistration's lookup has taken a single step.
        eid = home.publish(Event(scheme, {"x": 11, "y": 11}))
        assert sid in home.zone_repos[(entity.key, zone.code, zone.level)].store
        system.run_until_idle()
        assert system.metrics.records[eid].matched == 0
        assert stats.stale_subid == 1
        assert stats.registry.value("delivery.stale_subid") == 1.0
        assert transport_summary(stats)["stale_subid"] == 1
        assert "stale: 1 entries" in render_transport_summary(stats)
        # the unregistration has landed by now: nothing left to go stale
        home.publish(Event(scheme, {"x": 11, "y": 11}))
        system.run_until_idle()
        assert stats.stale_subid == 1
        stats.reset()
        assert stats.stale_subid == 0

    def test_ghost_duplicate_packet_is_counted(self):
        """The network ghosts a second copy of every packet: the
        receiver acks the copy again and processes it no second time --
        under ``delivery.duplicate_packet``, once per ghosted event
        packet."""
        from repro.analysis.trace import render_transport_summary, transport_summary

        system, scheme = tiny_system(reliable_delivery=True)
        system.subscribe(3, Subscription.from_box(scheme, [10, 10], [12, 12]))
        system.finish_setup()
        stats = system.network.stats
        system.network.set_duplicate(1.0, seed=1)
        eid = system.publish(0, Event(scheme, {"x": 11, "y": 11}))
        system.run_until_idle()
        assert system.metrics.records[eid].matched == 1  # exactly once
        sent = stats.msgs_by_kind["ps_event"]
        assert sent > 0 and stats.retransmissions == 0
        assert stats.duplicate_packet == sent
        assert stats.registry.value("delivery.duplicate_packet") == float(sent)
        assert transport_summary(stats)["duplicate_packet"] == sent
        assert f"{sent} duplicate packets" in render_transport_summary(stats)
        stats.reset()
        assert stats.duplicate_packet == 0

    def test_failover_redelivery_is_counted(self):
        """Hop failover re-groups a packet's SubIDs onto a fresh packet,
        which no packet-level dedup can recognise; the subscriber's
        ``(event, iid)`` guard drops the second hand-over under
        ``delivery.duplicate_entry``."""
        system, scheme = tiny_system()
        node = system.nodes[3]
        sid = node.subscribe(Subscription.from_box(scheme, [10, 10], [12, 12]))
        system.finish_setup()
        event = Event(scheme, {"x": 11, "y": 11})
        eid = system.publish(0, event)
        system.run_until_idle()
        assert system.metrics.records[eid].matched == 1
        stats = system.network.stats
        assert stats.duplicate_entry == 0
        # what _hop_failover keeps of a packet whose ack never came
        state = {
            "payload": {
                "event_id": eid, "scheme": "s", "point": event.point,
                "entries": [(sid.nid, sid.iid)],
            },
            "hops": 2, "path_latency": 1.0, "root_time": 0.0, "span": None,
        }
        node._failover_resend(state, 1)
        system.run_until_idle()
        assert system.metrics.records[eid].matched == 1  # still exactly once
        assert stats.duplicate_entry == 1
        assert stats.registry.value("delivery.duplicate_entry") == 1.0
        assert stats.stale_subid == 0

    def test_wrong_scheme_entries_are_counted(self):
        """A SubID that names something of another scheme than the
        event's -- an own subscription, a migrated store, a migrated
        store inherited from a departed node -- is dropped under
        ``delivery.scheme_mismatch``, not in silence (and not as a
        stale SubID: the holder exists)."""
        from repro.sim.messages import Message

        system, scheme = tiny_system()
        node = system.nodes[0]
        sid = node.subscribe(Subscription.from_box(scheme, [10, 10], [12, 12]))
        system.finish_setup()
        stats = system.network.stats
        point = np.array([11.0, 11.0])

        def offer(scheme_name, nid, iid):
            payload = {
                "event_id": 999, "scheme": scheme_name, "point": point,
                "entries": [(nid, iid)],
            }
            msg = Message(0, 0, "ps_event", payload, 0)
            return node._handle_local_entry(999, scheme_name, point, nid, iid, msg)

        assert offer("other", sid.nid, sid.iid) == []
        assert stats.scheme_mismatch == 1
        store = BoxStore(2)
        store.put(SubID(7, 1), np.array([0.0, 0.0]), np.array([50.0, 50.0]))
        node.migrated[77] = ("other", store)
        assert offer("s", node.node_id, 77) == []
        assert stats.scheme_mismatch == 2
        foreign = next(n.node_id for n in system.nodes if n is not node)
        node.standby_migrated[(foreign, 5)] = ("other", store)
        assert offer("s", foreign, 5) == []
        assert stats.scheme_mismatch == 3
        assert stats.registry.value("delivery.scheme_mismatch") == 3.0
        assert stats.stale_subid == 0 and 999 not in system.metrics.records
        # the same three under the right scheme name are served
        node.migrated[77] = ("s", store)
        node.standby_migrated[(foreign, 5)] = ("s", store)
        assert offer("s", node.node_id, 77) == [(7, 1)]
        assert offer("s", foreign, 5) == [(7, 1)]
        assert stats.scheme_mismatch == 3

    @pytest.mark.parametrize("route_cache", [True, False])
    def test_unroutable_entry_is_counted_not_silent(self, route_cache):
        """A healing ring can leave a node with no hop toward a key it
        does not own (or only a self-hop).  The entry is dropped -- but
        under ``transport.unroutable``, not without a trace."""
        from repro.sim.messages import Message

        system, scheme = tiny_system()
        if not route_cache:
            forget_routes(system)
        node = system.nodes[0]
        foreign = next(
            n.node_id for n in system.nodes if not node.is_responsible(n.node_id)
        )

        def offer():
            node._process_event(
                Message(
                    src=0, dst=0, kind="ps_event",
                    payload={
                        "event_id": 999,
                        "scheme": "s",
                        "point": np.array([1.0, 1.0]),
                        "entries": [(foreign, None), (node.node_id, 424242)],
                    },
                    size_bytes=0,
                )
            )
            system.run_until_idle()

        stats = system.network.stats
        offer()  # healthy ring: forwarded
        assert stats.unroutable == 0 and stats.total_msgs > 0
        sent = stats.total_msgs
        node.successors = []  # no next hop at all
        offer()
        assert stats.unroutable == 1 and stats.total_msgs == sent
        node.successors = [(node.node_id, node.addr)]  # degenerate self-hop
        node.fingers = {}
        offer()
        assert stats.unroutable == 2 and stats.total_msgs == sent
        stats.reset()
        assert stats.unroutable == 0

    def test_event_to_empty_leaf_dies_quietly(self):
        system, scheme = tiny_system()
        system.finish_setup()
        eid = system.publish(0, Event(scheme, {"x": 99, "y": 99}))
        system.run_until_idle()
        assert system.metrics.records[eid].matched == 0

    def test_wrong_scheme_marker_ignored(self):
        """A rendezvous key collision across schemes must not match."""
        system, scheme = tiny_system(rotation=False)
        other = Scheme("t", [Attribute("x", 0, 100), Attribute("y", 0, 100)])
        system.add_scheme(other)
        sub = Subscription.from_box(scheme, [10, 10], [11, 11])
        system.subscribe(0, sub)
        system.finish_setup()
        # Event in the *other* scheme at the same point: no rotation, so
        # the rendezvous keys collide -- scheme check must filter.
        eid = system.publish(0, Event(other, {"x": 10.5, "y": 10.5}))
        system.run_until_idle()
        assert system.metrics.records[eid].matched == 0


class TestPiggybackThrottle:
    def test_only_pred_succ_links(self):
        system, scheme = tiny_system(piggyback_maintenance=True)
        node = system.nodes[0]
        succ_addr = node.successors[0][1]
        pred_addr = node.predecessor[1]
        other = next(
            a for a in range(12)
            if a not in (succ_addr, pred_addr, node.addr)
        )
        assert node._pb_due(succ_addr)
        assert node._pb_due(pred_addr)
        assert not node._pb_due(other)

    def test_throttled_within_interval(self):
        system, scheme = tiny_system(piggyback_maintenance=True)
        node = system.nodes[0]
        succ_addr = node.successors[0][1]
        assert node._pb_due(succ_addr)
        assert not node._pb_due(succ_addr)  # immediately again: throttled

    def test_absorb_piggyback_sets_predecessor(self):
        system, scheme = tiny_system()
        node = system.nodes[0]
        true_pred = node.predecessor
        node.predecessor = None
        node.absorb_piggyback(true_pred[0], true_pred[1], None, None)
        assert node.predecessor == true_pred

    def test_absorb_does_not_regress_predecessor(self):
        system, scheme = tiny_system()
        node = system.nodes[0]
        true_pred = node.predecessor
        # Some node *before* the true predecessor must not displace it.
        far = system.ring.predecessor(true_pred[0])
        node.absorb_piggyback(far, system.ring.addr(far), None, None)
        assert node.predecessor == true_pred


class TestUnsubscribeSimulated:
    def test_unsubscribe_via_messages(self):
        system, scheme = tiny_system(simulate_install=True)
        sub = Subscription.from_box(scheme, [10, 10], [12, 12])
        sid = system.subscribe(0, sub)
        system.finish_setup()
        assert system.metrics.total_subscriptions == 1
        system.unsubscribe(0, sid)
        system.run_until_idle()
        eid = system.publish(1, Event(scheme, {"x": 11, "y": 11}))
        system.run_until_idle()
        assert system.metrics.records[eid].matched == 0


class TestMigrationInternals:
    def test_markers_never_migrate(self):
        system, scheme = tiny_system(direct_rendezvous_levels=0)
        rng = np.random.default_rng(0)
        for _ in range(150):
            c = rng.uniform(10, 80, 2)
            sub = Subscription.from_box(
                scheme, list(c), list(np.minimum(c + rng.uniform(1, 20), 100))
            )
            system.subscribe(int(rng.integers(0, 12)), sub)
        system.finish_setup()
        markers_before = sum(
            n.stored_subscription_count("marker") for n in system.nodes
        )
        system.run_migration_rounds(2)
        markers_after = sum(
            n.stored_subscription_count("marker") for n in system.nodes
        )
        assert markers_after == markers_before


class TestInstallPaths:
    """``simulate_install`` changes how a registration travels (lookup +
    packet, or a direct call on the surrogate), never where it lands."""

    @staticmethod
    def churned(simulate):
        """40 subscribes, then 120 Poisson-spaced subscribe/unsubscribe
        operations, then 60 events; returns what was delivered and
        where everything is stored."""
        system, scheme = tiny_system(
            simulate_install=simulate, direct_rendezvous_levels=2
        )
        rng = np.random.default_rng(11)

        def draw_sub():
            c = rng.uniform(0, 95, 2)
            return Subscription.from_box(
                scheme, list(c), list(np.minimum(c + rng.uniform(0.5, 30, 2), 100))
            )

        live = {}  # row -> (addr, sub, SubID)
        for row in range(40):
            addr, sub = int(rng.integers(0, 12)), draw_sub()
            live[row] = (addr, sub, system.subscribe(addr, sub))
        system.finish_setup()

        def subscribe_row(row, addr, sub):
            live[row] = (addr, sub, system.subscribe(addr, sub))

        def unsubscribe_row(row):
            addr, _sub, sid = live.pop(row)
            system.unsubscribe(addr, sid)

        t = system.sim.now
        known = set(live)
        next_row = 40
        for _ in range(120):
            t += float(rng.exponential(15.0))
            if rng.random() < 0.5 or not known:
                system.sim.schedule_at(
                    t, subscribe_row, next_row, int(rng.integers(0, 12)), draw_sub()
                )
                known.add(next_row)
                next_row += 1
            else:
                row = sorted(known)[int(rng.integers(0, len(known)))]
                known.discard(row)
                system.sim.schedule_at(t, unsubscribe_row, row)
        system.run_until_idle()
        assert set(live) == known

        delivered = []
        for _ in range(60):
            ev = Event(scheme, list(rng.uniform(0, 100, 2)))
            eid = system.publish(int(rng.integers(0, 12)), ev)
            system.run_until_idle()
            got = sorted(
                (d[0].nid, d[0].iid) for d in system.metrics.records[eid].deliveries
            )
            want = sorted(
                (sid.nid, sid.iid) for _a, sub, sid in live.values() if sub.matches(ev)
            )
            assert got == want
            delivered.append(got)
        assert sum(map(len, delivered)) > 20
        stats = system.network.stats
        assert stats.stale_unregister == 0 and stats.lookup_abandoned == 0
        return delivered, system.node_loads().tolist()

    def test_same_deliveries_and_placement_after_churn(self):
        fast, simulated = self.churned(False), self.churned(True)
        assert fast == simulated

    def test_registration_homed_on_the_subscriber_costs_one_dispatch(self):
        """The lookup answers itself and the ``ps_register`` it then
        owes itself is handed over by function call: one scheduler
        dispatch (the lookup staying asynchronous), no packet."""
        system, scheme = tiny_system(
            simulate_install=True, direct_rendezvous_levels=9  # no cascade
        )
        sub = Subscription.from_box(scheme, [10, 10], [12, 12])
        entity = system.entity_for_subscription(sub)
        zone = entity.zone_of_subscription(sub)
        home = system.node_at_home(entity.rotated_key(zone))
        dispatched = system.sim.processed
        sid = home.subscribe(sub)
        repo_key = (entity.key, zone.code, zone.level)
        assert repo_key not in home.zone_repos  # not inside subscribe()
        system.run_until_idle()
        assert sid in home.zone_repos[repo_key].store
        assert system.sim.processed - dispatched == 1
        assert system.network.stats.total_msgs == 0
        assert system.install_traffic["sub"][0] == 1

        home.unsubscribe(sid)
        assert sid in home.zone_repos[repo_key].store
        system.run_until_idle()
        assert sid not in home.zone_repos[repo_key].store
        assert system.sim.processed - dispatched == 2
        assert system.network.stats.total_msgs == 0

    @pytest.mark.parametrize("simulate", [False, True])
    def test_install_traffic_counts_every_unregistration(self, simulate, monkeypatch):
        """``install_traffic["unregister"]`` = user unsubscriptions +
        surrogate-subscription withdrawals, on both install paths (user
        unsubscriptions used to bypass the counter)."""
        from repro.core.node import PubSubNodeMixin
        from repro.sim.messages import CONTROL_BYTES, SUBID_BYTES

        withdrawn = []
        real = PubSubNodeMixin._dispatch_unregister

        def spy(self, entity, zone, subid):
            if subid.iid > 1 << 48:  # the marker iid namespace
                withdrawn.append(subid)
            return real(self, entity, zone, subid)

        monkeypatch.setattr(PubSubNodeMixin, "_dispatch_unregister", spy)
        system, scheme = tiny_system(
            simulate_install=simulate, direct_rendezvous_levels=0
        )
        rng = np.random.default_rng(4)
        installed = []
        for addr in range(12):
            lo = rng.uniform(0, 90, 2)
            sub = Subscription.from_box(scheme, lo, lo + rng.uniform(1, 10, 2))
            installed.append((addr, system.subscribe(addr, sub)))
        system.run_until_idle()
        assert "unregister" not in system.install_traffic
        for addr, sid in installed[:9]:
            system.unsubscribe(addr, sid)
            system.run_until_idle()
        assert withdrawn, "shrinking filters withdrew no surrogate subscription"
        count, nbytes = system.install_traffic["unregister"]
        assert count == 9 + len(withdrawn)
        assert nbytes == count * (CONTROL_BYTES + SUBID_BYTES)
        assert system.network.stats.stale_unregister == 0

    @pytest.mark.parametrize("simulate", [False, True])
    def test_stale_unregister_is_counted_not_silent(self, simulate):
        """Withdrawing what the surrogate no longer holds (the copy
        migrated, or was already removed) is a counted no-op."""
        from repro.analysis.trace import render_transport_summary, transport_summary

        system, scheme = tiny_system(simulate_install=simulate)
        sub = Subscription.from_box(scheme, [10, 10], [12, 12])
        sid = system.subscribe(0, sub)
        system.finish_setup()
        entity = system.entity_for_subscription(sub)
        zone = entity.zone_of_subscription(sub)
        stats = system.network.stats
        node = system.nodes[0]
        node._dispatch_unregister(entity, zone, sid)
        system.run_until_idle()
        assert stats.stale_unregister == 0
        node._dispatch_unregister(entity, zone, sid)  # subid absent
        empty = ContentZone(zone.code ^ 1, zone.level, zone.geometry)
        node._dispatch_unregister(entity, empty, sid)  # no such repo
        system.run_until_idle()
        assert stats.stale_unregister == 2
        assert stats.registry.value("install.stale_unregister") == 2.0
        assert transport_summary(stats)["stale_unregister"] == 2
        assert "2 stale unregistrations" in render_transport_summary(stats)
        stats.reset()
        assert stats.stale_unregister == 0
