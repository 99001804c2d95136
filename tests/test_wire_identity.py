"""Fixed-seed wire-identity scenarios for the node's modules.

Four small deterministic runs that between them drive every path that
writes or reads one of the node's wire formats: per-registration replica
copies, the anti-entropy digest / state / fill exchange, arc handoff
(groups *and* marker-served snapshots), restart resync,
one dynamic-migration round, the durable + causal event path under loss
(hop failover, a parked out-of-order entry, custody redelivery), and the
``ps_busy`` backoff resend under a storm.

The expected values are literals recorded on the commit *before* the
formats were given one writer and one reader each; any refactor of those
paths must reproduce every packet -- same kinds, same counts, same byte
totals, same deliveries at the same simulated times.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench import delivery_digest
from repro.core import (
    Attribute,
    Event,
    HyperSubConfig,
    HyperSubSystem,
    Scheme,
    Subscription,
)
from repro.core.node import MARKER_IID_BASE, HyperSubChordNode, ZoneRepo
from repro.core.subscription import SubID
from repro.faults import FaultSchedule
from repro.sim.messages import subscription_wire_bytes

#: the kinds whose writers/readers the scenarios pin
PINNED_PREFIXES = (
    "ps_replica", "ps_ae_", "ps_handoff", "ps_resync", "ps_migrate",
    "ps_event", "ps_dack", "ps_busy",
)


def _fingerprint(system) -> dict:
    stats = system.network.stats
    return {
        "msgs": {
            k: v for k, v in sorted(stats.msgs_by_kind.items())
            if k.startswith(PINNED_PREFIXES)
        },
        "bytes": {
            k: v for k, v in sorted(stats.bytes_by_kind.items())
            if k.startswith(PINNED_PREFIXES)
        },
        "deliveries": sum(
            len(r.deliveries) for r in system.metrics.records.values()
        ),
        "digest": delivery_digest(system),
    }


def _count_calls(monkeypatch, name: str) -> list:
    """Spy on one node method, patched on the class of the node's MRO
    that defines it; returns the list its calls append to."""
    calls: list = []
    owner = next(c for c in HyperSubChordNode.__mro__ if name in vars(c))
    real = vars(owner)[name]

    def spy(self, *args, **kwargs):
        calls.append(self.addr)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


def _clustered_system(n, subs, **cfg_kwargs):
    cfg = HyperSubConfig(seed=3, code_bits=12, **cfg_kwargs)
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
        addr = int(rng.integers(0, n))
        sub = Subscription.from_box(scheme, lows, highs)
        installed.append((addr, system.subscribe(addr, sub)))
    return system, scheme, rng, installed


def _publish_round(system, scheme, rng, excluded, events):
    n = len(system.nodes)
    for _ in range(events):
        pt = rng.normal(3000, 400, 4) % 10000
        pub = int(rng.integers(0, n))
        while pub in excluded:
            pub = int(rng.integers(0, n))
        system.publish(pub, Event(scheme, list(pt)))
        system.run(until=system.sim.now + 10_000.0)


def scenario_replication(monkeypatch) -> dict:
    """k = 2 + anti-entropy through crash -> rejoin.

    Installation rides simulated packets so ``ps_replica`` is on the
    wire; the cascade topology (R = 2) gives the victim marker-served
    internal repositories, which only the snapshot half of the handoff
    and the ``verbatim`` half of the resync can restore.
    """
    absorbed = _count_calls(monkeypatch, "_on_ps_resync_state")
    handoffs = _count_calls(monkeypatch, "_on_ps_handoff")
    monkeypatch.setattr("repro.core.replication.ANTI_ENTROPY_INTERVAL_MS", 1_000.0)
    system, scheme, rng, installed = _clustered_system(
        30, 160,
        replication_factor=2,
        reliable_delivery=True,
        retransmit_timeout_ms=500.0,
        max_retries=2,
        hop_failover=True,
        failover_backoff_ms=500.0,
        simulate_install=True,
        direct_rendezvous_levels=2,
    )
    # no finish_setup(): it would zero the install-phase counters
    system.run_until_idle()
    # Unsubscribing leaves stale ids on the standbys (removals are not
    # mirrored), so anti-entropy has ``drop`` lists to ship as well.
    for addr, subid in installed[::12]:
        system.unsubscribe(addr, subid)
    system.run_until_idle()
    system.start_maintenance(stabilize_interval_ms=250.0, rpc_timeout_ms=1_000.0)
    system.start_anti_entropy()
    victim = max(
        (n for n in system.nodes if n.marker_origin),
        key=lambda n: sum(len(r.store) for r in n.zone_repos.values()),
    ).addr
    system.run(until=system.sim.now + 3_000.0)  # healthy rounds ship the drops
    system.nodes[victim].fail()
    system.run(until=system.sim.now + 12_000.0)
    _publish_round(system, scheme, rng, {victim}, 5)
    system.rejoin_node(victim)
    system.run(until=system.sim.now + 15_000.0)
    _publish_round(system, scheme, rng, set(), 5)
    system.stop_maintenance()
    system.stop_anti_entropy()
    system.run_until_idle()
    fp = _fingerprint(system)
    fp["resync_states"] = len(absorbed)
    fp["handoffs"] = len(handoffs)
    return fp


def scenario_migration() -> dict:
    """One probe-and-migrate round on a hot-spotted population."""
    system, scheme, rng, _installed = _clustered_system(
        25, 200, migration_delta=0.1,
        direct_rendezvous_levels=2,
    )
    system.finish_setup()
    system.run_migration_rounds(1)
    system.run_until_idle()
    _publish_round(system, scheme, rng, set(), 8)
    system.run_until_idle()
    fp = _fingerprint(system)
    fp["migrated_stores"] = sum(len(n.migrated) for n in system.nodes)
    return fp


def scenario_durable_causal(monkeypatch) -> dict:
    """Durable + causal under loss, with a crash to force hop failover."""
    failovers = _count_calls(monkeypatch, "_failover_resend")
    parks = _count_calls(monkeypatch, "_dur_park")
    redeliveries = _count_calls(monkeypatch, "_dur_redeliver")
    emits = _count_calls(monkeypatch, "_seq_emit")
    cfg = HyperSubConfig(
        seed=5,
        code_bits=12,
        reliable_delivery=True,
        retransmit_timeout_ms=500.0,
        max_retries=1,
        hop_failover=True,
        failover_backoff_ms=500.0,
        delivery_mode="durable",
        ordering="causal",
        direct_rendezvous_levels=21,
        durable_redelivery_ms=1_000.0,
        durable_rejoin_grace_ms=2_000.0,
    )
    n = 20
    system = HyperSubSystem(num_nodes=n, config=cfg)
    scheme = Scheme("s", [Attribute(x, 0, 1000) for x in "ab"])
    system.add_scheme(scheme)
    for a in range(0, n, 2):
        system.subscribe(
            a, Subscription.from_box(scheme, [100.0, 100.0], [900.0, 900.0])
        )
    system.finish_setup()
    publishers = (2, 3)
    seq_addr = system.sequencer_addr("s")
    victims = [a for a in (7, 8, 11) if a not in publishers and a != seq_addr]
    sched = FaultSchedule()
    sched.loss(1_000.0, 0.2, until_ms=14_000.0, seed=9)
    sched.crash(2_500.0, victims)
    sched.rejoin(9_000.0, victims)
    sched.install(system)
    system.start_maintenance(stabilize_interval_ms=500.0, rpc_timeout_ms=1_500.0)
    system.start_durable_redelivery()
    for i in range(12):
        system.sim.schedule_at(
            2_000.0 + 700.0 * i,
            system.publish,
            publishers[i % 2],
            Event(scheme, [300.0 + 13 * i, 500.0]),
        )
    system.run(until=40_000.0)
    deadline = system.sim.now + 300_000.0
    while system.sim.now < deadline and any(
        node.durable is not None and node.durable.log for node in system.nodes
    ):
        system.run(until=system.sim.now + 5_000.0)
    system.stop_maintenance()
    system.stop_durable_redelivery()
    system.run_until_idle()
    fp = _fingerprint(system)
    fp["failovers"] = len(failovers)
    fp["parked"] = len(parks)
    fp["redelivered"] = len(redeliveries)
    fp["sequenced"] = len(emits)
    fp["retransmissions"] = system.network.stats.retransmissions
    return fp


def scenario_overload(monkeypatch) -> dict:
    """A storm at the hottest surrogate: shed packets are NACKed with
    ``ps_busy`` and come back through the backoff resend."""
    resends = _count_calls(monkeypatch, "_rel_busy_resend")
    monkeypatch.setattr("repro.core.transport.BUSY_BACKOFF_MAX_MS", 10_000.0)
    system, scheme, rng, _installed = _clustered_system(
        30, 120,
        reliable_delivery=True,
        retransmit_timeout_ms=500.0,
        max_retries=2,
        hop_failover=True,
        failover_backoff_ms=500.0,
        service_model=True,
        service_rate_msgs_per_ms=0.5,
        ingress_queue_capacity=32,
        overload_protection=True,
    )
    system.finish_setup()
    hot = int(np.argmax(system.node_loads()))
    FaultSchedule().storm(500.0, 8_000.0, hot, 5.0).install(system)
    t = 600.0
    for _ in range(15):
        t += 300.0
        ev = Event(scheme, list(rng.normal(3000, 400, 4) % 10000))
        system.sim.schedule_at(t, system.publish, int(rng.integers(0, 30)), ev)
    system.run_until_idle()
    fp = _fingerprint(system)
    fp["msgs"].pop("ps_storm", None)
    fp["bytes"].pop("ps_storm", None)
    fp["busy_resends"] = len(resends)
    fp["retransmissions"] = system.network.stats.retransmissions
    return fp


# ----------------------------------------------------------------------
# Literals recorded on the parent commit (1398c1a), before any edit
# ----------------------------------------------------------------------
def test_replication_crash_rejoin_is_wire_identical(monkeypatch):
    # Recorded on 6d27aa1, the commit before graceful leave was retired,
    # with the scenario already cut short of its leave step.
    assert scenario_replication(monkeypatch) == {
        "msgs": {
            "ps_ae_digest": 259,
            "ps_ae_fill": 3,
            "ps_ae_state": 3,
            "ps_event": 212,
            "ps_event_ack": 212,
            "ps_handoff": 2,
            "ps_replica": 2846,
            "ps_resync": 1,
            "ps_resync_state": 1,
        },
        "bytes": {
            "ps_ae_digest": 690824.0,
            "ps_ae_fill": 8800.0,
            "ps_ae_state": 3981.0,
            "ps_event": 29094.0,
            "ps_event_ack": 4240.0,
            "ps_handoff": 29148.0,
            "ps_replica": 264678.0,
            "ps_resync": 20.0,
            "ps_resync_state": 23288.0,
        },
        "deliveries": 140,
        "digest": "e613ccf39491e7e1157770fef67ffc31d818825f13f4269df05223541bc9c9af",
        "resync_states": 1,
        "handoffs": 2,
    }


def test_migration_round_is_wire_identical():
    assert scenario_migration() == {
        "msgs": {"ps_event": 154, "ps_migrate": 4, "ps_migrate_ack": 4},
        "bytes": {
            "ps_event": 20892.0, "ps_migrate": 13585.0, "ps_migrate_ack": 2270.0,
        },
        "deliveries": 60,
        "digest": "781ad4d86b222d95df3ba82144a9a3abde0cf0c92313e67bb74b4f3dbad2c018",
        "migrated_stores": 30,
    }


def test_durable_causal_under_loss_is_wire_identical(monkeypatch):
    fp = scenario_durable_causal(monkeypatch)
    # every rewritten event path ran at least once
    assert fp["failovers"] and fp["parked"] and fp["redelivered"] and fp["sequenced"]
    # Re-recorded in PR 16 with ``_rel_retry``'s ``_alive`` guard: the
    # three crashed nodes stop retransmitting, which shifts every later
    # loss draw of this (failover-storm, chaotic) run.  Parent values:
    # ps_event 2249 / ack 1734 / dack 353, failovers 226, parked 40,
    # redelivered 144, retransmissions 572, digest fa91f6a468e9...; all
    # 120 deliveries arrive on both sides.
    assert fp == {
        "msgs": {"ps_dack": 595, "ps_event": 7683, "ps_event_ack": 6428},
        "bytes": {
            "ps_dack": 11900.0, "ps_event": 1122853.0, "ps_event_ack": 128560.0,
        },
        "deliveries": 120,
        "digest": "511fd2d666f0eb0dd380e3eb376a91cfdf9273058b017f12459d12ef6f78ab4e",
        "failovers": 507,
        "parked": 39,
        "redelivered": 181,
        "sequenced": 12,
        "retransmissions": 1617,
    }


def test_busy_backoff_resend_is_wire_identical(monkeypatch):
    assert scenario_overload(monkeypatch) == {
        "msgs": {"ps_busy": 35, "ps_event": 267, "ps_event_ack": 232},
        "bytes": {"ps_busy": 700.0, "ps_event": 36090.0, "ps_event_ack": 4640.0},
        "deliveries": 114,
        "digest": "6993603374493fd50b5ce6e2c52c08de81178041025f95c46fd7f190b6fa93ff",
        "busy_resends": 35,
        "retransmissions": 35,
    }


# ----------------------------------------------------------------------
# Repository-transfer codec: ZoneRepo.export -> _absorb_repo round trip
# ----------------------------------------------------------------------
_bound = st.floats(allow_nan=False, allow_infinity=True, width=64)
_box = st.lists(st.tuples(_bound, _bound).map(sorted), min_size=2, max_size=2)
_nid = st.integers(0, 2**64 - 1)
# A marker is an iid from the marker namespace and nothing else is.
_entry = st.one_of(
    st.tuples(
        st.tuples(_nid, st.integers(1, MARKER_IID_BASE - 1)),
        _box,
        st.sampled_from(["sub", "migr"]),
    ),
    st.tuples(
        st.tuples(_nid, st.integers(MARKER_IID_BASE, MARKER_IID_BASE + 100)),
        _box,
        st.just("marker"),
    ),
)


@given(
    entries=st.lists(_entry, max_size=8, unique_by=lambda e: e[0]),
    subset=st.one_of(st.none(), st.sets(st.integers(0, 7))),
    mode=st.sampled_from(["cascade", "standby", "verbatim"]),
)
@example(entries=[], subset=None, mode="verbatim")
@example(
    entries=[
        ((7, 1), [[float("-inf"), float("inf")], [-0.0, 0.0]], "sub"),
        ((7, (1 << 48) + 1), [[0.0, -0.0], [5.0, 5.0]], "marker"),
        ((2**64 - 1, 3), [[float("inf"), float("inf")], [1.0, 2.0]], "migr"),
    ],
    subset={0, 2},
    mode="verbatim",
)
@settings(max_examples=60, deadline=None)
def test_repo_transfer_round_trips_in_every_mode(entries, subset, mode):
    system = HyperSubSystem(
        num_nodes=4,
        config=HyperSubConfig(seed=3, code_bits=8, direct_rendezvous_levels=9),
    )
    scheme = Scheme("s", [Attribute("x", 0, 100), Attribute("y", 0, 100)])
    system.add_scheme(scheme)
    entity = system.entities_of("s")[0]
    zone = entity.zone_of_point(np.array([10.0, 10.0]))
    source = ZoneRepo(entity.key, zone, system.make_store(entity))
    for (nid, iid), dims, kind in entries:
        sid = SubID(nid, iid)
        lows = np.array([d[0] for d in dims])
        highs = np.array([d[1] for d in dims])
        source.put(sid, lows, highs, kind)
    kinds = {SubID(*ident): kind for ident, _dims, kind in entries}
    stored = list(source.store.subids())
    picked = (
        None if subset is None else [stored[i] for i in sorted(subset) if i < len(stored)]
    )
    group, wire_bytes = source.export(picked)
    shipped = stored if picked is None else picked
    assert group["repo"] == [entity.key, zone.code, zone.level]
    assert wire_bytes == len(shipped) * subscription_wire_bytes(2)

    node = system.nodes[0]
    node._absorb_repo(group, mode)
    repos = node.standby_repos if mode == "standby" else node.zone_repos
    if not shipped and mode != "verbatim":
        assert source.key not in repos  # nothing arrived, nothing opened
        return
    got = repos[source.key]
    assert set(got.store.subids()) == set(shipped)
    for sid in shipped:
        for mine, theirs in zip(got.store.get_box(sid), source.store.get_box(sid)):
            assert np.array_equal(mine, theirs)
            assert np.array_equal(np.signbit(mine), np.signbit(theirs))  # +-0.0
        assert got.kind_of(sid) == source.kind_of(sid) == kinds[sid]
    if mode == "standby":
        assert source.key not in node.zone_repos and got.sf is None
    elif not shipped:
        assert got.sf is None
    else:
        boxes = [source.store.get_box(sid) for sid in shipped]
        assert np.array_equal(got.sf[0], np.min([b[0] for b in boxes], axis=0))
        assert np.array_equal(got.sf[1], np.max([b[1] for b in boxes], axis=0))
