"""Tests for the fault-schedule subsystem and the invariant checker."""

import numpy as np
import pytest

from repro.core import (
    Attribute,
    HyperSubConfig,
    HyperSubSystem,
    Scheme,
    Subscription,
)
from repro.faults import (
    FaultSchedule,
    FaultScheduleError,
    InvariantChecker,
    chain_safe_churn,
)
from repro.faults.schedule import SPEC_KEYS
from repro.sim.engine import Simulator
from repro.sim.network import Network, SimNode
from repro.sim.topology import ConstantTopology


class StubSystem:
    """Just enough of HyperSubSystem for network-level fault windows."""

    telemetry = None

    def __init__(self, n=4):
        self.sim = Simulator()
        self.network = Network(self.sim, ConstantTopology(n, rtt=10.0))
        self.nodes = []


def build_system(n=20, subs=60, seed=3, **cfg_kwargs):
    cfg_kwargs.setdefault("code_bits", 12)
    cfg = HyperSubConfig(seed=seed, **cfg_kwargs)
    system = HyperSubSystem(num_nodes=n, config=cfg)
    scheme = Scheme("s", [Attribute(x, 0, 10000) for x in "abcd"])
    system.add_scheme(scheme)
    rng = np.random.default_rng(1)
    for _ in range(subs):
        lows, highs = [], []
        for _ in range(4):
            c = float(rng.normal(3000, 300) % 10000)
            w = float(rng.uniform(100, 700))
            lows.append(max(0.0, c - w))
            highs.append(min(10000.0, c + w))
        sub = Subscription.from_box(scheme, lows, highs)
        system.subscribe(int(rng.integers(0, n)), sub)
    system.finish_setup()
    return system


class TestBuilderValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            FaultSchedule().crash(-1.0, [0])

    def test_loss_rate_bounds(self):
        with pytest.raises(ValueError):
            FaultSchedule().loss(0.0, 1.0)
        with pytest.raises(ValueError):
            FaultSchedule().loss(0.0, -0.1)

    def test_empty_windows_rejected(self):
        with pytest.raises(ValueError):
            FaultSchedule().partition(5.0, 5.0, {0: 0, 1: 1})
        with pytest.raises(ValueError):
            FaultSchedule().loss(5.0, 0.1, until_ms=4.0)
        with pytest.raises(ValueError):
            FaultSchedule().latency_spike(5.0, 4.0, 2.0)

    def test_latency_factor_positive(self):
        with pytest.raises(ValueError):
            FaultSchedule().latency_spike(0.0, 10.0, 0.0)

    def test_builders_chain_and_count(self):
        sched = (
            FaultSchedule()
            .crash(1_000, [3])
            .rejoin(9_000, [3])
            .loss(0.0, 0.1, until_ms=5_000)
            .latency_spike(2_000, 4_000, 3.0)
        )
        # crash + rejoin + (loss, clear) + (latency, clear)
        assert len(sched) == 6
        assert "crash" in sched.describe()
        assert FaultSchedule().describe() == "(empty schedule)"


class TestRandomChurn:
    def test_same_seed_same_schedule(self):
        a, va = FaultSchedule.random_churn(
            100, 0.2, crash_window=(0.0, 5_000), rejoin_window=(10_000, 20_000),
            seed=42,
        )
        b, vb = FaultSchedule.random_churn(
            100, 0.2, crash_window=(0.0, 5_000), rejoin_window=(10_000, 20_000),
            seed=42,
        )
        assert va == vb
        assert a.describe() == b.describe()

    def test_different_seed_different_draw(self):
        a, va = FaultSchedule.random_churn(100, 0.2, (0.0, 5_000), seed=1)
        b, vb = FaultSchedule.random_churn(100, 0.2, (0.0, 5_000), seed=2)
        assert va != vb or a.describe() != b.describe()

    def test_protect_excludes_addrs(self):
        _, victims = FaultSchedule.random_churn(
            10, 0.5, (0.0, 1_000), seed=7, protect=range(5)
        )
        assert len(victims) == 5
        assert all(v >= 5 for v in victims)

    def test_too_many_failures_rejected(self):
        with pytest.raises(ValueError):
            FaultSchedule.random_churn(
                10, 1.0, (0.0, 1_000), protect=[0]
            )


def _holds_chain(victims, ring, k) -> bool:
    """Does ``victims`` contain ``k`` ring-consecutive members of
    ``ring`` (addresses in ring order, wrapping)?"""
    vs = set(victims)
    n = len(ring)
    return any(all(ring[(i + j) % n] in vs for j in range(k)) for i in range(n))


class TestChainSafeChurn:
    #: address order stands in for the ring
    RING = list(range(60))

    def test_safe_draw_is_the_plain_draw(self):
        plain = FaultSchedule.random_churn(60, 0.2, (0.0, 5_000), seed=7)
        assert not _holds_chain(plain[1], self.RING, 3)
        sched, victims = chain_safe_churn(self.RING, 0.2, 3, (0.0, 5_000), seed=7)
        assert victims == plain[1]
        assert sched.describe() == plain[0].describe()

    def test_redraws_until_no_chain(self):
        seed = next(
            s for s in range(100)
            if _holds_chain(
                FaultSchedule.random_churn(60, 0.2, (0.0, 5_000), seed=s)[1],
                self.RING, 3,
            )
        )
        _, victims = chain_safe_churn(self.RING, 0.2, 3, (0.0, 5_000), seed=seed)
        assert len(victims) == 12
        assert not _holds_chain(victims, self.RING, 3)

    def test_k1_takes_the_first_draw(self):
        plain = FaultSchedule.random_churn(60, 0.2, (0.0, 5_000), seed=3)
        _, victims = chain_safe_churn(self.RING, 0.2, 1, (0.0, 5_000), seed=3)
        assert victims == plain[1]

    def test_impossible_budget_fails_by_name(self):
        with pytest.raises(ValueError, match="replica chain"):
            chain_safe_churn(list(range(10)), 0.9, 2, (0.0, 1_000), seed=0)

    @pytest.mark.parametrize("replication", [1, 3])
    @pytest.mark.parametrize("num_nodes, seed", [(60, 1), (60, 4), (300, 1)])
    def test_c1_draws_spare_every_replica_chain(
        self, monkeypatch, num_nodes, seed, replication
    ):
        """C1 (``experiments.churn``) never crashes a whole k = 3 chain,
        in either arm: the plain draws for these seeds each did."""
        from repro.experiments import churn

        class Drawn(Exception):
            pass

        def install(sched, system):
            ring = sorted(
                range(len(system.nodes)), key=lambda a: system.nodes[a].node_id
            )
            victims = [a for e in sched.to_spec() for a in e.get("crash", ())]
            raise Drawn(ring, victims)

        monkeypatch.setattr(FaultSchedule, "install", install)
        with pytest.raises(Drawn) as drawn:
            churn._one_run(
                0.2, num_nodes, 1, seed=seed, replication=replication
            )
        ring, victims = drawn.value.args
        assert len(victims) == int(0.2 * num_nodes)
        assert not _holds_chain(victims, ring, 3)


class TestFromSpec:
    def test_full_dsl_round_trip(self):
        sched = FaultSchedule.from_spec(
            [
                {"at": 5_000, "crash": [3, 7]},
                {"at": 30_000, "rejoin": [3, 7]},
                {"from": 1_000, "to": 4_000, "loss": 0.1, "seed": 9},
                {"from": 2_000, "to": 6_000, "partition": {0: 0, 1: 1}},
                {"from": 8_000, "to": 9_000, "latency": 3.0},
            ]
        )
        assert sched.to_spec() == [
            {"at": 5_000.0, "crash": [3, 7]},
            {"at": 30_000.0, "rejoin": [3, 7]},
            {"from": 1_000.0, "to": 4_000.0, "loss": 0.1, "seed": 9},
            {"from": 2_000.0, "to": 6_000.0, "partition": {0: 0, 1: 1}},
            {"from": 8_000.0, "to": 9_000.0, "latency": 3.0},
        ]
        # crash + rejoin + (apply, heal) per window
        assert len(sched) == 8

    def test_spec_errors(self):
        with pytest.raises(ValueError):
            FaultSchedule.from_spec([{"crash": [1]}])  # missing 'at'
        with pytest.raises(ValueError):
            FaultSchedule.from_spec([{"from": 0, "loss": 0.1, "crash": [1]}])
        with pytest.raises(ValueError):
            FaultSchedule.from_spec([{"from": 0, "partition": {0: 0}}])
        with pytest.raises(ValueError):
            FaultSchedule.from_spec([{"at": 0, "meteor": [1]}])


#: One canonical spec entry per declarative DSL key.  The completeness
#: test below fails if a new builder lands without a round-trip case.
_CANONICAL_ENTRIES = {
    "crash": {"at": 1_000.0, "crash": [3, 7]},
    "rejoin": [
        {"at": 1_000.0, "crash": [3, 7]},
        {"at": 9_000.0, "rejoin": [3, 7]},
    ],
    "partition": {"from": 1_000.0, "to": 4_000.0, "partition": {0: 0, 1: 1}},
    "loss": {"from": 1_000.0, "to": 4_000.0, "loss": 0.2, "seed": 9},
    "latency": {"from": 1_000.0, "to": 4_000.0, "latency": 3.0},
    "storm": {
        "from": 1_000.0, "to": 4_000.0, "storm": {"addr": 2, "rate": 5.0},
    },
    "slow": {
        "from": 1_000.0, "to": 4_000.0,
        "slow": {"addrs": [1, 2], "factor": 0.25},
    },
    "asym_partition": {
        "from": 1_000.0, "to": 4_000.0,
        "asym_partition": {"src": [0, 1], "dst": [2, 3]},
    },
    "duplicate": {"from": 1_000.0, "to": 4_000.0, "duplicate": 0.3, "seed": 4},
    "reorder": {"from": 1_000.0, "to": 4_000.0, "reorder": 150.0, "seed": 4},
    "flap": {
        "from": 1_000.0, "to": 9_000.0, "flap": {"addr": 5, "period": 2_000.0},
    },
}


class TestSpecRoundTrip:
    def test_canonical_cases_cover_every_spec_key(self):
        # A new SPEC_KEYS member must come with a round-trip case here.
        assert sorted(_CANONICAL_ENTRIES) == sorted(SPEC_KEYS)

    @pytest.mark.parametrize("key", sorted(SPEC_KEYS))
    def test_round_trip_identity(self, key):
        entry = _CANONICAL_ENTRIES[key]
        spec = entry if isinstance(entry, list) else [entry]
        assert FaultSchedule.from_spec(spec).to_spec() == spec

    def test_combined_round_trip(self):
        spec = []
        for key in sorted(SPEC_KEYS):
            entry = _CANONICAL_ENTRIES[key]
            add = entry if isinstance(entry, list) else [entry]
            for e in add:
                if e not in spec:
                    spec.append(e)
        sched = FaultSchedule.from_spec(spec)
        assert sched.to_spec() == spec
        # and the round-trip survives a second trip
        assert FaultSchedule.from_spec(sched.to_spec()).to_spec() == spec

    def test_to_spec_is_a_copy(self):
        sched = FaultSchedule().loss(0.0, 0.1, until_ms=1_000.0)
        spec = sched.to_spec()
        spec[0]["loss"] = 0.9
        assert sched.to_spec()[0]["loss"] == 0.1


class TestLifeValidation:
    def test_rejoin_without_crash_rejected(self):
        with pytest.raises(FaultScheduleError):
            FaultSchedule().rejoin(5_000, [3])

    def test_rejoin_before_crash_rejected(self):
        with pytest.raises(FaultScheduleError):
            FaultSchedule().crash(5_000, [3]).rejoin(1_000, [3])

    def test_crash_a_corpse_rejected(self):
        sched = FaultSchedule().crash(1_000, [3])
        with pytest.raises(FaultScheduleError):
            sched.crash(2_000, [3])  # no intervening rejoin

    def test_crash_rejoin_crash_again_ok(self):
        sched = (
            FaultSchedule()
            .crash(1_000, [3]).rejoin(2_000, [3]).crash(3_000, [3])
        )
        assert len(sched) == 3

    def test_crash_inside_flap_window_rejected(self):
        sched = FaultSchedule().flap(1_000, 9_000, addr=3, period_ms=2_000)
        with pytest.raises(FaultScheduleError):
            sched.crash(4_000, [3])

    def test_rejoin_inside_flap_window_rejected(self):
        # The flap owns the node's life in its window: an explicit
        # rejoin in there would race the unrolled toggles.
        sched = FaultSchedule().flap(1_000, 9_000, addr=4, period_ms=2_000)
        with pytest.raises(FaultScheduleError):
            sched.rejoin(4_000, [4])

    def test_flap_over_scheduled_crash_rejected(self):
        sched = FaultSchedule().crash(4_000, [3]).rejoin(6_000, [3])
        with pytest.raises(FaultScheduleError):
            sched.flap(1_000, 9_000, addr=3, period_ms=2_000)

    def test_flap_of_crashed_node_rejected(self):
        sched = FaultSchedule().crash(1_000, [3])
        with pytest.raises(FaultScheduleError):
            sched.flap(2_000, 8_000, addr=3, period_ms=2_000)

    def test_overlapping_flaps_rejected(self):
        sched = FaultSchedule().flap(1_000, 9_000, addr=3, period_ms=2_000)
        with pytest.raises(FaultScheduleError):
            sched.flap(5_000, 15_000, addr=3, period_ms=2_000)
        # a different node may flap concurrently
        sched.flap(5_000, 15_000, addr=4, period_ms=2_000)

    def test_flap_window_must_fit_one_cycle(self):
        with pytest.raises(FaultScheduleError):
            FaultSchedule().flap(1_000, 2_000, addr=3, period_ms=5_000)


class TestWindowOverlapValidation:
    @pytest.mark.parametrize(
        "make",
        [
            lambda s, t0, t1: s.loss(t0, 0.1, until_ms=t1),
            lambda s, t0, t1: s.partition(t0, t1, {0: 0, 1: 1}),
            lambda s, t0, t1: s.latency_spike(t0, t1, 2.0),
            lambda s, t0, t1: s.duplicate(t0, t1, 0.2),
            lambda s, t0, t1: s.reorder(t0, t1, 100.0),
        ],
        ids=["loss", "partition", "latency", "duplicate", "reorder"],
    )
    def test_single_active_kinds_reject_overlap(self, make):
        sched = FaultSchedule()
        make(sched, 1_000.0, 5_000.0)
        with pytest.raises(FaultScheduleError):
            make(sched, 4_000.0, 8_000.0)
        # touching windows (end == start) are fine
        make(sched, 5_000.0, 8_000.0)

    def test_open_loss_window_blocks_everything_after(self):
        sched = FaultSchedule().loss(1_000.0, 0.1)  # no until: open
        with pytest.raises(FaultScheduleError):
            sched.loss(50_000.0, 0.2, until_ms=60_000.0)

    def test_slow_overlap_is_per_address(self):
        sched = FaultSchedule().slow(1_000, 5_000, [1, 2], 0.25)
        with pytest.raises(FaultScheduleError):
            sched.slow(4_000, 8_000, [2, 3], 0.25)  # addr 2 overlaps
        sched.slow(4_000, 8_000, [3, 4], 0.25)  # disjoint addrs are fine

    def test_asym_cuts_may_overlap(self):
        # Concurrent one-way cuts are legal: each window owns a token.
        sched = FaultSchedule().asym_partition(1_000, 5_000, [0], [1])
        sched.asym_partition(2_000, 6_000, [2], [3])
        assert [e["asym_partition"]["src"] for e in sched.to_spec()] == [[0], [2]]
        steps = sched.describe().splitlines()
        assert sum("asym_partition [" in line for line in steps) == 2
        assert sum("heal_asym_partition" in line for line in steps) == 2

    def test_gray_builder_parameter_validation(self):
        with pytest.raises(FaultScheduleError):
            FaultSchedule().slow(0, 1_000, [1], 1.5)  # factor not in (0,1)
        with pytest.raises(FaultScheduleError):
            FaultSchedule().slow(0, 1_000, [], 0.5)  # no addrs
        with pytest.raises(FaultScheduleError):
            FaultSchedule().asym_partition(0, 1_000, [1], [1])  # overlap
        with pytest.raises(FaultScheduleError):
            FaultSchedule().asym_partition(0, 1_000, [], [1])
        with pytest.raises(FaultScheduleError):
            FaultSchedule().duplicate(0, 1_000, 0.0)  # rate not in (0,1]
        with pytest.raises(FaultScheduleError):
            FaultSchedule().duplicate(0, 1_000, 1.5)
        with pytest.raises(FaultScheduleError):
            FaultSchedule().reorder(0, 1_000, 0.0)  # window not positive


class TestInstall:
    def test_install_twice_rejected(self):
        sched = FaultSchedule().loss(0.0, 0.1)
        system = StubSystem()
        sched.install(system)
        with pytest.raises(RuntimeError):
            sched.install(system)

    def test_loss_window_applies_and_heals(self):
        system = StubSystem()
        net = system.network
        FaultSchedule().loss(1_000, 0.25, until_ms=3_000, seed=5).install(system)
        probes = []
        for t in (500, 2_000, 4_000):
            system.sim.schedule_at(t, lambda: probes.append(net._loss_rate))
        system.sim.run()
        assert probes == [0.0, 0.25, 0.0]

    def test_partition_window_applies_and_heals(self):
        system = StubSystem()
        net = system.network
        groups = {0: 0, 1: 0, 2: 1, 3: 1}
        FaultSchedule().partition(1_000, 3_000, groups).install(system)
        probes = []
        for t in (500, 2_000, 4_000):
            system.sim.schedule_at(t, lambda: probes.append(net._partition))
        system.sim.run()
        assert probes[0] is None
        assert probes[1] == groups
        assert probes[2] is None

    def test_latency_window_applies_and_heals(self):
        system = StubSystem()
        net = system.network
        FaultSchedule().latency_spike(1_000, 3_000, 4.0).install(system)
        probes = []
        for t in (500, 2_000, 4_000):
            system.sim.schedule_at(t, lambda: probes.append(net._latency_factor))
        system.sim.run()
        assert probes == [1.0, 4.0, 1.0]

    def test_crash_and_rejoin_fire_on_clock(self):
        system = build_system()
        FaultSchedule().crash(1_000, [5]).rejoin(5_000, [5]).install(system)
        system.run(until=2_000)
        assert not system.nodes[5].alive()
        system.run(until=6_000)
        assert system.nodes[5].alive()

    def test_gray_windows_apply_and_heal(self):
        system = StubSystem()
        net = system.network

        class Dummy(SimNode):
            def handle_message(self, msg):  # pragma: no cover - unused
                pass

        dummy = Dummy(0, net)
        (
            FaultSchedule()
            .duplicate(1_000, 3_000, 0.5, seed=2)
            .reorder(1_000, 3_000, 120.0, seed=2)
            .asym_partition(1_000, 3_000, [0], [1])
            .slow(1_000, 3_000, [0], 0.25)
            .install(system)
        )
        probes = []

        def probe():
            probes.append(
                (
                    net._dup_rate,
                    net._reorder_window,
                    len(net._asym_cuts),
                    dummy.slow_factor,
                )
            )

        for t in (500, 2_000, 4_000):
            system.sim.schedule_at(t, probe)
        system.sim.run()
        assert probes[0] == (0.0, 0.0, 0, 1.0)
        assert probes[1] == (0.5, 120.0, 1, 0.25)
        assert probes[2] == (0.0, 0.0, 0, 1.0)

    def test_flap_unrolls_crash_rejoin_cycles(self):
        system = build_system()
        FaultSchedule().flap(1_000, 9_000, addr=5, period_ms=2_000).install(
            system
        )
        probes = {}
        for t in (500, 1_500, 3_500, 5_500, 7_500, 9_500):
            system.sim.schedule_at(
                t, lambda t=t: probes.__setitem__(t, system.nodes[5].alive())
            )
        system.run(until=12_000)
        # crash at 1000, toggle every 2000ms, guaranteed alive by 9000
        assert probes[500] is True
        assert probes[1_500] is False
        assert probes[3_500] is True
        assert probes[5_500] is False
        assert probes[7_500] is True
        assert probes[9_500] is True


class TestInvariantChecker:
    def test_healthy_system_passes(self):
        system = build_system(replication_factor=3)
        report = InvariantChecker(check_replicas=True).check(system)
        assert report.ok, report.render()
        assert report.checked == ["ring", "coverage", "replicas"]
        assert "OK" in report.render()

    def test_unreplicated_crash_detected_as_coverage_loss(self):
        system = build_system()
        loads = [
            sum(len(r.store) for r in node.zone_repos.values())
            for node in system.nodes
        ]
        victim = int(np.argmax(loads))
        system.nodes[victim].fail()
        for node in system.nodes:
            node.stabilize_interval_ms = 200.0
            node.rpc_timeout_ms = 800.0
            node.start_maintenance()
        system.run(until=system.sim.now + 15_000.0)
        for node in system.nodes:
            node.stop_maintenance()
        system.run_until_idle()
        report = system.check_invariants()
        # Ring repairs itself; the victim's surrogate state is gone for
        # good without replication, so coverage must flag it.
        assert not report.ok
        assert any("coverage" in v or "zone" in v for v in report.violations)

    def test_dead_ring_pointers_detected(self):
        system = build_system()
        system.nodes[5].fail()
        # No maintenance: survivors still point at the corpse.
        report = system.check_invariants(check_coverage=False)
        assert not report.ok

    def test_no_alive_nodes(self):
        system = build_system(n=5, subs=5)
        for node in system.nodes:
            node.fail()
        report = system.check_invariants()
        assert not report.ok
        assert report.violations == ["no alive nodes"]
