"""``repro.oracle``: the judge has teeth, and two feature combinations
(ROADMAP item 4) that no experiment runs are judged by it.

A clean seeded 60-node run is tampered with one fault at a time -- the
log is plain data -- and each fault must read as exactly the verdict
field that names it.
"""

import copy
from dataclasses import replace

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
from repro.faults import FaultSchedule
from repro.oracle import RunLog, custody_left, drain_custody, judge
from tests.test_property_delivery import brute_force

N_NODES = 60
DOMAIN = 1000.0
PUBLISHERS = (0, 1, 2)


class Boxes:
    """Seeded 2-d workload, broad enough (a box holds ~1 point in 6)
    that subscriptions see several events of one publisher."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.scheme = Scheme(
            "p", [Attribute("x", 0, DOMAIN), Attribute("y", 0, DOMAIN)]
        )

    def subscription(self):
        low = self.rng.uniform(0.0, DOMAIN - 200.0, size=2)
        side = self.rng.uniform(200.0, 600.0, size=2)
        return Subscription.from_box(
            self.scheme, list(low), list(np.minimum(low + side, DOMAIN))
        )

    def event(self):
        x, y = self.rng.uniform(0.0, DOMAIN, size=2)
        return Event(self.scheme, {"x": float(x), "y": float(y)})


def build(subs_per_node=2, **config):
    gen = Boxes(seed=11)
    system = HyperSubSystem(
        num_nodes=N_NODES,
        config=HyperSubConfig(seed=3, code_bits=12, **config),
    )
    system.add_scheme(gen.scheme)
    installed = []
    for addr in range(N_NODES):
        for _ in range(subs_per_node):
            sub = gen.subscription()
            installed.append((sub, system.subscribe(addr, sub)))
    system.finish_setup()
    return system, gen, installed


@pytest.fixture(scope="module")
def clean():
    """40 events from three publishers, each fully delivered before the
    next is published: a run with nothing wrong with it."""
    system, gen, installed = build()
    log = RunLog(system)
    rng = np.random.default_rng(5)
    for _ in range(40):
        log.publish(int(rng.choice(PUBLISHERS)), gen.event())
        system.run_until_idle()
    return log, installed, judge(log, installed)


def tampered(log, deliveries):
    out = copy.copy(log)
    out.deliveries = deliveries
    return out


def per_sub(log):
    """{subid: [(index into log.deliveries, eid), ...]} in order."""
    out = {}
    for i, (eid, sid) in enumerate(log.deliveries):
        out.setdefault(sid, []).append((i, eid))
    return out


def swapped(log, i, j):
    deliveries = list(log.deliveries)
    deliveries[i], deliveries[j] = deliveries[j], deliveries[i]
    return tampered(log, deliveries)


class TestTeeth:
    def test_a_clean_run_reads_clean(self, clean):
        log, _installed, verdict = clean
        assert verdict.expected > 200
        assert verdict == replace(
            verdict, delivered=verdict.expected, missing=0, duplicate=0,
            spurious=0, fifo_violations=0, causal_violations=0,
        )
        assert verdict.ratio == 1.0 and verdict.exactly_once
        assert len(log.deliveries) == verdict.expected

    def test_a_dropped_delivery_is_missing(self, clean):
        log, installed, verdict = clean
        dropped = log.deliveries[:7] + log.deliveries[8:]
        got = judge(tampered(log, dropped), installed)
        assert got == replace(
            verdict, delivered=verdict.expected - 1, missing=1
        )

    def test_a_replayed_delivery_is_a_duplicate(self, clean):
        log, installed, verdict = clean
        replayed = log.deliveries[:8] + log.deliveries[7:]
        got = judge(tampered(log, replayed), installed)
        assert got == replace(verdict, duplicate=1)
        assert not got.exactly_once

    def test_a_delivery_to_a_non_matching_subscription_is_spurious(self, clean):
        log, installed, verdict = clean
        eid, pub = list(log.published.items())[-1]
        stranger = next(sid for sub, sid in installed if not sub.matches(pub.event))
        got = judge(tampered(log, log.deliveries + [(eid, stranger)]), installed)
        assert got == replace(verdict, spurious=1)
        assert not got.exactly_once

    def test_two_swapped_events_of_one_publisher_break_fifo(self, clean):
        log, installed, verdict = clean
        i, j = next(
            (i, j)
            for seq in per_sub(log).values()
            for (i, a), (j, b) in zip(seq, seq[1:])
            if log.published[a].publisher == log.published[b].publisher
        )
        got = judge(swapped(log, i, j), installed)
        assert got.fifo_violations == 1
        assert (got.missing, got.duplicate, got.spurious) == (0, 0, 0)

    def test_an_event_ahead_of_what_its_publisher_had_seen_breaks_causality(
        self, clean
    ):
        log, installed, verdict = clean
        i, j = next(
            (i, j)
            for seq in per_sub(log).values()
            for (i, a), (j, b) in zip(seq, seq[1:])
            if a in log.published[b].deps
        )
        got = judge(swapped(log, i, j), installed)
        assert got.causal_violations == 1
        assert (got.missing, got.duplicate, got.spurious) == (0, 0, 0)

    def test_alive_removes_a_crashed_subscribers_expectations(self, clean):
        log, installed, verdict = clean
        victim = 17
        nid = log.system.nodes[victim].node_id
        owed = sum(1 for _eid, sid in log.deliveries if sid.nid == nid)
        assert owed > 0
        crashed = tampered(log, [d for d in log.deliveries if d[1].nid != nid])
        assert judge(crashed, installed).missing == owed
        up = lambda addr: addr != victim  # noqa: E731
        assert judge(crashed, installed, alive=up) == replace(
            verdict,
            expected=verdict.expected - owed,
            delivered=verdict.expected - owed,
        )
        # what did reach an address nobody expected is not spurious
        assert judge(log, installed, alive=up).spurious == 0

    def test_events_restricts_the_verdict_to_a_phase(self, clean):
        log, installed, verdict = clean
        eids = list(log.published)
        first, second = eids[:15], eids[15:]
        a = judge(log, installed, events=first)
        b = judge(log, installed, events=second)
        assert a.expected + b.expected == verdict.expected
        assert a.expected == sum(1 for eid, _sid in log.deliveries if eid in first)
        late = next(k for k, d in enumerate(log.deliveries) if d[0] in second)
        dropped = tampered(log, log.deliveries[:late] + log.deliveries[late + 1:])
        assert judge(dropped, installed, events=first) == a
        assert judge(dropped, installed, events=second).missing == 1


def test_the_verdict_equals_the_property_tests_brute_force():
    """Same run, two references: ``(expected, missing)`` of the judge
    against the brute force tests/test_property_delivery.py keeps, on a
    lossy fire-and-forget run so that ``missing`` is not trivially 0."""
    system, gen, installed = build()
    FaultSchedule().loss(0.0, 0.05, seed=9).install(system)
    log = RunLog(system)
    for k in range(30):
        log.publish(k % N_NODES, gen.event())
        system.run_until_idle()
    expected = missing = 0
    for eid, pub in log.published.items():
        want = brute_force(installed, pub.event)
        got = {(d[0].nid, d[0].iid) for d in system.metrics.records[eid].deliveries}
        expected += len(want)
        missing += len(set(want) - got)
    verdict = judge(log, installed)
    assert missing > 0
    assert (verdict.expected, verdict.missing) == (expected, missing)
    assert verdict.exactly_once


def test_schedule_poisson_draws_gap_then_publisher_then_event():
    system, gen, _installed = build(subs_per_node=0)
    log = RunLog(system)
    eids, t_end = log.schedule_poisson(
        gen, np.random.default_rng(1), 100.0, 6, PUBLISHERS, 50.0
    )
    assert eids == []  # filled as the publishes fire
    system.run_until_idle()
    rng, t, count = np.random.default_rng(1), 100.0, {}
    for eid in eids:
        t += float(rng.exponential(50.0))
        addr = PUBLISHERS[rng.integers(0, len(PUBLISHERS))]
        count[addr] = count.get(addr, 0) + 1
        rec = system.metrics.records[eid]
        assert (rec.publish_time, rec.publisher_addr) == (t, addr)
        assert (log.published[eid].publisher, log.published[eid].k) == (
            addr, count[addr],
        )
    assert len(eids) == 6 and t == t_end


DURABLE = dict(
    reliable_delivery=True,
    retransmit_timeout_ms=1_000.0,
    max_retries=2,
    delivery_mode="durable",
    durable_redelivery_ms=2_000.0,
)


def lossy_durable_run(**config):
    """30 events under 1 % loss with durable custody, stopped at the
    last publish: custody still holds what the loss took."""
    system, gen, installed = build(**DURABLE, **config)
    FaultSchedule().loss(0.0, 0.01, seed=9).install(system)
    system.start_durable_redelivery()
    log = RunLog(system)
    _eids, t_end = log.schedule_poisson(
        gen, np.random.default_rng(2), 100.0, 30, PUBLISHERS, 100.0
    )
    system.run(until=t_end)
    return system, log, installed


class TestDrainCustody:
    def test_returns_as_soon_as_every_log_is_empty(self):
        system, _log, _installed = lossy_durable_run()
        assert custody_left(system) > 0
        start = system.sim.now
        run, left_before_slice = system.run, []

        def spy(until=None):
            left_before_slice.append(custody_left(system))
            return run(until=until)

        system.run = spy
        assert drain_custody(system, slice_ms=500.0, cap_ms=120_000.0) == 0
        assert custody_left(system) == 0
        assert left_before_slice and all(left_before_slice)
        assert system.sim.now == start + 500.0 * len(left_before_slice)
        assert system.sim.now < start + 120_000.0
        # nothing left: returns at once, the clock does not move
        now = system.sim.now
        assert drain_custody(system) == 0 and system.sim.now == now

    def test_gives_up_at_the_cap_and_reports_what_is_left(self):
        """A subscriber that never comes back is owed its events for
        good: custody cannot drain, so the cap ends the tail."""
        system, gen, installed = build(**DURABLE)
        system.start_durable_redelivery()
        victim = installed[0][1]
        FaultSchedule().crash(0.0, [system.ring.addr(victim.nid)]).install(system)
        system.run(until=10.0)
        mid = (installed[0][0].lows + installed[0][0].highs) / 2.0
        log = RunLog(system)
        log.publish(5, Event(gen.scheme, {"x": float(mid[0]), "y": float(mid[1])}))
        start = system.sim.now
        left = drain_custody(system, slice_ms=1_000.0, cap_ms=3_500.0)
        assert left == custody_left(system) > 0
        assert system.sim.now == start + 3_500.0
        assert judge(log, installed).missing >= 1
        system.stop_durable_redelivery()


class TestCombinations:
    """Cells of ROADMAP item 4's config x config list that no
    experiment runs, each judged by the one judge."""

    def test_covering_with_durable_delivery_under_loss(self):
        system, log, installed = lossy_durable_run(covering=True)
        assert system.covering_stats()["boxes"] < system.covering_stats()["entries"]
        assert drain_custody(system) == 0
        system.stop_durable_redelivery()
        system.run_until_idle()
        verdict = judge(log, installed)
        assert verdict.expected > 100
        assert (verdict.missing, verdict.duplicate, verdict.spurious) == (0, 0, 0)
        assert system.network.stats.retransmissions > 0

    def test_covering_with_simulated_install_and_resubscription(self):
        """Every third subscription is unsubscribed and half of those
        come back with new boxes, all over simulated install packets
        with covering merging and splitting aggregates underneath."""
        system, gen, installed = build(covering=True, simulate_install=True)
        addr_of = system.ring.addr
        live = []
        for i, (sub, sid) in enumerate(installed):
            if i % 3:
                live.append((sub, sid))
                continue
            system.unsubscribe(addr_of(sid.nid), sid)
            if i % 6 == 0:
                again = gen.subscription()
                live.append((again, system.subscribe(addr_of(sid.nid), again)))
        system.run_until_idle()
        log = RunLog(system)
        for k in range(30):
            log.publish(k % N_NODES, gen.event())
        system.run_until_idle()
        verdict = judge(log, live)
        assert verdict.expected > 100
        assert (verdict.missing, verdict.duplicate, verdict.spurious) == (0, 0, 0)
        # the same deliveries judged against the stale list: what went
        # to nobody's subscription any more would be spurious, and the
        # unsubscribed ones are missing -- the judge sees the difference
        stale = judge(log, installed)
        assert stale.missing > 0 and stale.spurious > 0
