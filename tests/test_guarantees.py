"""Tests for the delivery-guarantees tier (docs/GUARANTEES.md).

Three layers, cheapest first (the ordering checks themselves, with
their negative cases, are tested with the judge in tests/test_oracle.py):

* :class:`TestDurableState` -- unit tests of the custody log itself
  (append/evict/ack/due, sequence assignment, arc-migration export);
* :class:`TestBestEffortUnchanged` -- the digest-equality contract:
  ``delivery_mode="best_effort"`` runs are byte-identical no matter how
  the durable knobs are set (the tier is pay-for-what-you-use);
* :class:`TestDurableEndToEnd` -- a small full-stack run per guarantee:
  events published while a subscriber's node is crashed are recovered
  after rejoin, exactly once, with the custody log fully drained.
"""

import numpy as np

from repro.core import (
    Attribute,
    Event,
    HyperSubConfig,
    HyperSubSystem,
    Scheme,
    Subscription,
)
from repro.core.durability import DurableState
from repro.faults import FaultSchedule
from repro.oracle import RunLog, judge
from repro.sim.engine import FN, TIME


# ----------------------------------------------------------------------
# Custody-log unit tests
# ----------------------------------------------------------------------
class TestDurableState:
    def _entry(self, d, tok_hint=0, now=0.0):
        return d.append("key", {"event_id": tok_hint}, 5, None, {}, now)

    def test_append_assigns_monotonic_tokens(self):
        d = DurableState(max_entries=16)
        e1, ev1 = self._entry(d, 1)
        e2, ev2 = self._entry(d, 2)
        assert e2.tok > e1.tok
        assert not ev1 and not ev2
        assert list(d.log) == [e1.tok, e2.tok]
        assert d.high_water == 2

    def test_ack_is_idempotent(self):
        d = DurableState(max_entries=16)
        e, _ = self._entry(d)
        assert d.ack(e.tok) is e
        assert d.ack(e.tok) is None
        assert not d.log

    def test_truncation_evicts_oldest_and_counts(self):
        d = DurableState(max_entries=2)
        e1, _ = self._entry(d, 1)
        e2, _ = self._entry(d, 2)
        e3, evicted = self._entry(d, 3)
        assert [e.tok for e in evicted] == [e1.tok]
        assert d.truncated == 1
        assert list(d.log) == [e2.tok, e3.tok]
        assert d.high_water == 3  # the peak, not the post-evict size

    def test_due_respects_last_sent(self):
        d = DurableState(max_entries=16)
        e1, _ = d.append("key", {}, 1, None, {}, 0.0)
        e2, _ = d.append("key", {}, 2, None, {}, 900.0)
        due = d.due(now=1_000.0, interval_ms=500.0)
        assert due == [e1]
        e1.last_sent = 1_000.0
        assert d.due(now=1_000.0, interval_ms=500.0) == []

    def test_sequence_assignment_is_per_stream_contiguous(self):
        d = DurableState(max_entries=16)
        assert [d.next_kseq(("S", 7), 3) for _ in range(3)] == [1, 2, 3]
        assert d.next_kseq(("S", 7), 4) == 1  # independent per key
        assert d.next_mseq(("S", 7), 3, (9, 1)) == 1
        assert d.next_mseq(("S", 7), 3, (9, 2)) == 1
        assert d.next_mseq(("S", 7), 3, (9, 1)) == 2

    def test_export_absorb_site_state_max_merges(self):
        src = DurableState(max_entries=16)
        src.site_w[(("S", 1), 40)] = 5
        src.site_w[(("S", 1), 41)] = 7  # stays: not moved
        src.mseq[(("S", 1), 40, (8, 2))] = 3
        exported = src.export_site_state({40})
        assert (("S", 1), 40) not in src.site_w
        assert (("S", 1), 41) in src.site_w
        assert (("S", 1), 40, (8, 2)) not in src.mseq

        dst = DurableState(max_entries=16)
        dst.site_w[(("S", 1), 40)] = 9  # already ahead: must not regress
        dst.absorb_site_state(exported)
        assert dst.site_w[(("S", 1), 40)] == 9
        assert dst.mseq[(("S", 1), 40, (8, 2))] == 3
        # A duplicate handoff packet is a no-op.
        dst.absorb_site_state(exported)
        assert dst.site_w[(("S", 1), 40)] == 9


# ----------------------------------------------------------------------
# Full-stack runs
# ----------------------------------------------------------------------
def _box_scheme():
    return Scheme("s", [Attribute(x, 0, 1000) for x in "ab"])


def _small_system(cfg, num_nodes=24, subs=None):
    system = HyperSubSystem(num_nodes=num_nodes, config=cfg)
    scheme = _box_scheme()
    system.add_scheme(scheme)
    installed = []
    for addr, lows, highs in subs or ():
        sub = Subscription.from_box(scheme, lows, highs)
        installed.append((sub, system.subscribe(addr, sub)))
    system.finish_setup()
    return system, scheme, installed


class TestBestEffortUnchanged:
    def test_durable_knobs_do_not_leak_into_best_effort(self, monkeypatch):
        """Same workload, same best-effort config, wildly different
        durable knobs: delivery sets, message counts and byte counts
        must be byte-identical (the digest-equality contract)."""
        fingerprints = []
        for knobs, bounds in (
            ({}, {}),
            (
                {"durable_redelivery_ms": 123.0, "durable_rejoin_grace_ms": 0.0},
                {
                    "repro.core.durability.DURABLE_LOG_MAX_ENTRIES": 7,
                    "repro.core.node.REORDER_BUFFER_MAX": 3,
                },
            ),
        ):
            for target, value in bounds.items():
                monkeypatch.setattr(target, value)
            cfg = HyperSubConfig(
                seed=5, code_bits=12, reliable_delivery=True,
                retransmit_timeout_ms=500.0, max_retries=2, **knobs
            )
            subs = [
                (a, [100.0 * a % 800, 100.0], [100.0 * a % 800 + 150, 900.0])
                for a in range(12)
            ]
            system, scheme, installed = _small_system(cfg, subs=subs)
            for i in range(10):
                system.publish(i % 24, Event(scheme, [80.0 * i % 900, 500.0]))
            system.run_until_idle()
            stats = system.network.stats
            fingerprints.append(
                (
                    sorted(
                        (eid, tuple(sorted((d[0].nid, d[0].iid, d[1])
                                           for d in rec.deliveries)))
                        for eid, rec in system.metrics.records.items()
                    ),
                    dict(sorted(stats.msgs_by_kind.items())),
                    stats.total_bytes,
                )
            )
        assert fingerprints[0] == fingerprints[1]

    def test_best_effort_has_no_durable_state(self):
        cfg = HyperSubConfig(seed=5, code_bits=12)
        system, scheme, _ = _small_system(cfg)
        assert all(n.durable is None for n in system.nodes)


class TestDurableEndToEnd:
    def test_events_published_while_subscriber_down_are_recovered(self):
        """The tentpole claim at its smallest: a subscriber's node
        crashes, matching events are published while it is down, and
        after rejoin every one arrives exactly once -- with the custody
        log fully drained (every append eventually acked)."""
        cfg = HyperSubConfig(
            seed=3,
            code_bits=12,
            reliable_delivery=True,
            retransmit_timeout_ms=500.0,
            max_retries=2,
            hop_failover=True,
            failover_backoff_ms=1_000.0,
            delivery_mode="durable",
            durable_redelivery_ms=1_000.0,
            durable_rejoin_grace_ms=2_000.0,
        )
        victim = 7
        subs = [(victim, [200.0, 200.0], [600.0, 600.0])]
        system, scheme, installed = _small_system(cfg, subs=subs)
        subid = installed[0][1]

        sched = FaultSchedule()
        sched.crash(1_000.0, [victim])
        sched.rejoin(6_000.0, [victim])
        sched.install(system)
        system.start_maintenance(stabilize_interval_ms=500.0,
                                 rpc_timeout_ms=1_500.0)
        system.start_durable_redelivery()

        events = [Event(scheme, [300.0 + 10 * i, 400.0]) for i in range(4)]
        eids = []
        for i, ev in enumerate(events):
            # All published while the victim is down (t in [2s, 5s)).
            system.sim.schedule_at(
                2_000.0 + 1_000.0 * i,
                lambda ev=ev: eids.append(system.publish(3, ev)),
            )
        system.run(until=60_000.0)
        system.stop_maintenance()
        system.stop_durable_redelivery()
        system.run_until_idle()

        for eid in eids:
            got = [d[0] for d in system.metrics.records[eid].deliveries]
            assert got.count(subid) == 1, (
                f"event {eid}: delivered {got.count(subid)} times"
            )
        counts = system.network.stats.durable_counts
        left = sum(len(n.durable.log) for n in system.nodes
                   if n.durable is not None)
        assert counts.get("truncated", 0) == 0
        assert left == 0, f"{left} custody entries never retired"
        assert counts.get("appends", 0) == counts.get("acked", 0)

    def test_fifo_run_passes_the_ordering_oracle(self):
        """A healthy durable+fifo run: the judge finds every expected
        delivery, exactly once, in publish order."""
        cfg = HyperSubConfig(
            seed=11,
            code_bits=12,
            reliable_delivery=True,
            retransmit_timeout_ms=500.0,
            max_retries=2,
            delivery_mode="durable",
            ordering="fifo",
            direct_rendezvous_levels=21,
            durable_redelivery_ms=1_000.0,
        )
        subs = [(a, [100.0, 100.0], [900.0, 900.0]) for a in range(6)]
        system, scheme, installed = _small_system(cfg, subs=subs)
        system.start_durable_redelivery()
        log = RunLog(system)
        for i in range(8):
            log.publish(2, Event(scheme, [200.0 + 50 * i, 500.0]))
        system.run(until=20_000.0)
        system.stop_durable_redelivery()
        system.run_until_idle()
        verdict = judge(log, installed)
        assert verdict.expected == 8 * len(installed)
        assert (verdict.missing, verdict.duplicate, verdict.spurious) == (0, 0, 0)
        assert (verdict.fifo_violations, verdict.causal_violations) == (0, 0)

    def test_rejoined_node_never_reissues_a_marker_id(self):
        """Durable mode remounts ``marker_origin`` and the repositories
        at a rejoin, and the child zones still hold the surrogate
        subscriptions minted before the crash: the marker-id counter
        has to come back too, or the next cascade mints an id that
        already names another repository (and replaces that one's box
        in the child zone)."""
        cfg = _durable_cfg()
        rng = np.random.default_rng(4)
        subs = []
        for _ in range(150):
            lows = rng.uniform(0.0, 950.0, size=2)
            subs.append(
                (int(rng.integers(0, 40)), lows.tolist(), (lows + 40.0).tolist())
            )
        system, scheme, _ = _small_system(cfg, num_nodes=40, subs=subs)
        old = max(system.nodes, key=lambda n: len(n.marker_origin))
        minted = dict(old.marker_origin)
        assert len(minted) > 10
        system.start_maintenance(stabilize_interval_ms=500.0, rpc_timeout_ms=1_500.0)
        old.fail()
        system.run(until=system.sim.now + 3_000.0)
        system.rejoin_node(old.addr)
        system.run(until=system.sim.now + 8_000.0)
        system.stop_maintenance()
        system.run_until_idle()
        node = system.nodes[old.addr]
        assert node is not old and node.marker_origin == minted

        def opens_a_cascade(sub):
            entity = system.entity_for_subscription(sub)
            zone = entity.zone_of_subscription(sub)
            return (
                not zone.is_leaf
                and zone.level >= cfg.direct_rendezvous_levels
                and system.home_addr(entity.rotated_key(zone)) == node.addr
                and (entity.key, zone.code, zone.level) not in node.zone_repos
            )

        sub = next(
            sub
            for x in range(0, 960, 8)
            for y in range(0, 960, 8)
            for sub in [Subscription.from_box(scheme, [x, y], [x + 30.0, y + 30.0])]
            if opens_a_cascade(sub)
        )
        system.subscribe(0, sub)
        system.run_until_idle()
        for iid, repo_key in minted.items():
            assert node.marker_origin[iid] == repo_key, "a marker id was reissued"
        fresh = set(node.marker_origin) - set(minted)
        assert fresh, "the new repository did not cascade"
        assert min(fresh) > max(minted)


# ----------------------------------------------------------------------
# The custody tick: one per start cohort (docs/SIMULATOR.md)
# ----------------------------------------------------------------------
def _durable_cfg(**over):
    kw = dict(
        seed=3, code_bits=12, reliable_delivery=True,
        retransmit_timeout_ms=500.0, max_retries=2,
        delivery_mode="durable", durable_redelivery_ms=1_000.0,
        durable_rejoin_grace_ms=2_000.0,
    )
    kw.update(over)
    return HyperSubConfig(**kw)


def _cohort_tick_times(system, cohort):
    """Deadlines of ``cohort``'s scheduler entries (white box)."""
    return [
        entry[TIME] for entry in system.sim._queue
        if getattr(entry[FN], "__self__", None) is cohort  # None once cancelled
    ]


class TestCustodyCohort:
    def test_idle_nodes_cost_no_dispatch(self):
        """50 nodes with empty custody logs: the only callbacks of a
        60 s drain are the cohort's ticks, one per period."""
        system, _scheme, _ = _small_system(_durable_cfg(), num_nodes=50)
        system.start_durable_redelivery()
        cohort = system.nodes[0]._dur_cohort
        assert all(n._dur_cohort is cohort for n in system.nodes)
        assert cohort.members == system.nodes  # address order
        before = system.sim.processed
        system.run(until=60_000.0)
        assert system.sim.processed - before == 60
        system.stop_durable_redelivery()
        system.run_until_idle()
        assert system.sim.processed - before == 61  # the last tick finds nobody
        assert system.sim.live == 0

    def test_restart_redelivers_at_the_configured_period(self, monkeypatch):
        """stop + start before the old tick fires used to leave two
        live tick chains on the node (the stale callback saw the
        running flag up again).  Membership is by identity now: the
        stale cohort's tick is a no-op and the obligation is re-sent on
        the new phase only, once per period."""
        from repro.core.node import PubSubNodeMixin

        victim = 7
        system, scheme, _ = _small_system(
            _durable_cfg(), subs=[(victim, [200.0, 200.0], [600.0, 600.0])]
        )
        times = []
        redeliver = PubSubNodeMixin._dur_redeliver

        def recording(self, entry):
            times.append(self.sim.now)
            redeliver(self, entry)

        monkeypatch.setattr(PubSubNodeMixin, "_dur_redeliver", recording)
        system.start_durable_redelivery()       # phase 0: ticks at 1000, 2000, ...
        system.run(until=300.0)
        system.stop_durable_redelivery()
        system.start_durable_redelivery()       # phase 300: 1300, 2300, ...
        system.nodes[victim].fail()             # nobody will ever ack the delivery
        system.run(until=1_900.0)
        system.publish(3, Event(scheme, [300.0, 400.0]))
        system.run(until=9_000.0)
        assert times, "the match site never re-sent its custody entry"
        # due at the first tick >= 1000 ms after it was logged: a stale
        # phase-0 chain would take it at 3000, the live one at 3300
        assert [t % 1_000.0 for t in times] == [300.0] * len(times)
        assert [b - a for a, b in zip(times, times[1:])] == [1_000.0] * (len(times) - 1)
        system.stop_durable_redelivery()
        system.run_until_idle()

    def test_rejoined_node_keeps_its_own_phase(self):
        victim = 7
        system, _scheme, _ = _small_system(_durable_cfg())
        system.start_maintenance(stabilize_interval_ms=500.0, rpc_timeout_ms=1_500.0)
        system.start_durable_redelivery()
        fleet = system.nodes[0]._dur_cohort
        old = system.nodes[victim]
        system.run(until=1_000.0)
        old.fail()
        system.run(until=6_400.0)
        assert old not in fleet.members  # dropped at the first tick after the crash
        assert len(fleet.members) == len(system.nodes) - 1
        system.rejoin_node(victim)
        node = system.nodes[victim]
        own = node._dur_cohort
        assert own is not fleet and own.members == [node]
        assert _cohort_tick_times(system, own) == [7_400.0]
        assert _cohort_tick_times(system, fleet) == [7_000.0]
        system.run(until=8_100.0)
        assert _cohort_tick_times(system, own) == [8_400.0]
        assert _cohort_tick_times(system, fleet) == [9_000.0]
        system.stop_maintenance()
        system.stop_durable_redelivery()
        system.run_until_idle()

    def test_a_fleet_of_crashed_members_drains_unstopped(self):
        """A dead incarnation's share of the tick dies with it: once
        every member has crashed, nothing re-arms and the simulation
        drains without anyone calling stop."""
        system, _scheme, _ = _small_system(_durable_cfg(), num_nodes=12)
        system.start_durable_redelivery()
        cohort = system.nodes[0]._dur_cohort
        system.run(until=2_500.0)
        for node in system.nodes[:5]:
            node.fail()
        system.run(until=3_500.0)
        assert cohort.members == system.nodes[5:]
        for node in system.nodes[5:]:
            node.fail()
        system.sim.run_until_idle(max_events=1_000)
        assert cohort.members == [] and system.sim.live == 0

    def test_dispatch_count_gate(self, monkeypatch):
        """Fixed seed, 60 nodes, durable + fifo under 3 % loss: every
        scheduler dispatch is a packet arrival, a scheduled publish, a
        retransmission timer that really expired or a cohort tick.  A
        cancelled timer or an idle node never costs a dispatch."""
        from repro.core.node import CustodyCohort
        from repro.core.transport import TransportMixin

        counts = {"retry": 0, "tick": 0, "publish": 0}
        retry, tick = TransportMixin._rel_retry, CustodyCohort.tick

        def counted_retry(self, seq):
            counts["retry"] += 1
            retry(self, seq)

        def counted_tick(self):
            counts["tick"] += 1
            tick(self)

        monkeypatch.setattr(TransportMixin, "_rel_retry", counted_retry)
        monkeypatch.setattr(CustodyCohort, "tick", counted_tick)
        cfg = _durable_cfg(
            seed=16, ordering="fifo", direct_rendezvous_levels=21,
            retransmit_timeout_ms=1_000.0, durable_redelivery_ms=2_000.0,
        )
        subs = [
            (a, [13.0 * a % 700, 50.0], [13.0 * a % 700 + 250.0, 950.0])
            for a in range(60)
        ]
        system, scheme, _ = _small_system(cfg, num_nodes=60, subs=subs)
        system.network.set_loss_rate(0.03, seed=16)
        system.start_durable_redelivery()

        def publish(i):
            counts["publish"] += 1
            system.publish(i % 60, Event(scheme, [37.0 * i % 1000, 500.0]))

        before = system.sim.processed
        for i in range(120):
            system.sim.schedule_at(25.0 * i, publish, i)
        system.run(until=40_000.0)
        system.stop_durable_redelivery()
        system.run_until_idle()

        stats = system.network.stats
        arrivals = stats.total_msgs - stats.dropped_by_cause["loss"]
        assert stats.retransmissions > 0 and stats.dropped_by_cause["loss"] > 0
        assert counts["retry"] < stats.msgs_by_kind["ps_event"] // 5
        assert system.sim.processed - before == (
            arrivals + counts["publish"] + counts["retry"] + counts["tick"]
        )
        assert counts["tick"] == 21  # 40 s / 2 s, plus the one that finds nobody
        assert sum(len(n.durable.log) for n in system.nodes) == 0
