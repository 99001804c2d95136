"""Experiment R2 (extension): self-healing recovery timeline.

The paper leaves fault tolerance to the underlying DHT ("HyperSub
leverages the underlying DHT to deal with nodes join/departure/
failure") and to future work.  This experiment runs the full
self-healing stack through one deterministic crash -> heal -> rejoin
timeline and measures what each mechanism buys:

* **Phase A (healthy)** -- baseline delivery with maintenance and
  anti-entropy running; the ratio must be complete.
* **Phase B (degraded)** -- a :class:`~repro.faults.FaultSchedule`
  crash-stops ``fail_fraction`` of the nodes in a burst, and events
  flow *immediately*, with no grace period: packets in flight hit dead
  hops and survive only through hop-failover rerouting, while matching
  against the lost surrogates is served by standby replicas (successor
  takeover, promoted by anti-entropy).
* **Phase C (healed)** -- every victim has rejoined through Chord's
  join protocol and resynced its arc from the surviving replicas; the
  delivery ratio against the *full* subscription oracle (victims'
  subscribers included) must recover to >= 0.99.

Repair traffic (anti-entropy digests/fills plus arc handoffs) is
byte-accounted separately from event traffic, and a global-knowledge
:class:`~repro.faults.InvariantChecker` (ring consistency, zone
coverage, replica floors) must pass at the end of the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

import numpy as np

from repro.analysis.compare import ShapeReport
from repro.core.config import HyperSubConfig
from repro.core.system import HyperSubSystem
from repro.experiments.common import scale_from_env
from repro.faults import FaultSchedule
from repro.oracle import RunLog, judge
from repro.workloads import WorkloadGenerator, default_paper_spec

#: Phase shares of the event budget (healthy, degraded, healed).
_PHASE_SPLIT = (0.25, 0.35, 0.40)


@dataclass
class PhaseResult:
    name: str
    events: int
    delivered: int
    expected: int

    @property
    def ratio(self) -> float:
        return self.delivered / self.expected if self.expected else 1.0


@dataclass
class RecoveryResult:
    fail_fraction: float
    phases: List[PhaseResult]
    #: simulated-time fault timeline, for the record
    schedule: str
    event_kb: float
    repair_kb: float
    maintenance_kb: float
    retransmissions: int
    gave_up: int
    invariants_ok: bool
    invariants: str
    report: ShapeReport

    def render(self) -> str:
        lines = [
            "R2 -- self-healing recovery timeline "
            f"({self.fail_fraction:.0%} crash-stop, k=3, anti-entropy + "
            "hop-failover on)",
            "",
            f"{'phase':32s} {'events':>7s} {'delivered':>10s} "
            f"{'expected':>9s} {'ratio':>7s}",
        ]
        for ph in self.phases:
            lines.append(
                f"{ph.name:32s} {ph.events:7d} {ph.delivered:10d} "
                f"{ph.expected:9d} {ph.ratio:7.4f}"
            )
        lines += [
            "",
            f"traffic: {self.event_kb:.1f} KB events, "
            f"{self.repair_kb:.1f} KB repair (anti-entropy + handoff), "
            f"{self.maintenance_kb:.1f} KB other control",
            f"transport: {self.retransmissions} retransmissions, "
            f"{self.gave_up} packets abandoned",
            self.invariants,
            "",
            "fault schedule:",
            self.schedule,
            "",
            self.report.render(),
        ]
        return "\n".join(lines)


def run(
    num_nodes: Optional[int] = None,
    num_events: Optional[int] = None,
    fail_fraction: float = 0.2,
    seed: int = 1,
) -> RecoveryResult:
    n_default, e_default = scale_from_env()
    num_nodes = num_nodes or n_default
    num_events = num_events or e_default

    spec = default_paper_spec(subs_per_node=5)
    gen = WorkloadGenerator(spec, seed=7)
    cfg = HyperSubConfig(
        seed=seed,
        direct_rendezvous_levels=8,
        replication_factor=3,
        reliable_delivery=True,
        retransmit_timeout_ms=1_000.0,
        max_retries=2,
        hop_failover=True,
        failover_backoff_ms=2_000.0,
    )
    system = HyperSubSystem(num_nodes=num_nodes, config=cfg)
    system.add_scheme(gen.scheme)
    installed = gen.populate(system)
    system.finish_setup()

    system.start_maintenance(stabilize_interval_ms=500.0, rpc_timeout_ms=1_500.0)
    system.start_anti_entropy()

    log = RunLog(system)
    rng = np.random.default_rng(seed + 100)
    n_a, n_b = (int(num_events * f) for f in _PHASE_SPLIT[:2])
    n_c = num_events - n_a - n_b
    mean_ia = spec.mean_interarrival_ms

    # -- phase A: healthy baseline -------------------------------------
    warmup = 3_000.0
    phase_a, a_end = log.schedule_poisson(
        gen, rng, warmup, n_a, range(num_nodes), mean_ia
    )

    # -- burst crash, then phase B with NO grace period ----------------
    crash_window = (a_end + 2_000.0, a_end + 5_000.0)
    sched, victims = FaultSchedule.random_churn(
        num_nodes,
        fail_fraction,
        crash_window=crash_window,
        seed=seed + 200,
    )
    victim_set: Set[int] = set(victims)
    survivors = [a for a in range(num_nodes) if a not in victim_set]
    phase_b, b_end = log.schedule_poisson(
        gen, rng, crash_window[1], n_b, survivors, mean_ia
    )

    # -- rejoin burst, resync grace, then phase C ----------------------
    rejoin_window = (b_end + 2_000.0, b_end + 6_000.0)
    for v in victims:
        sched.rejoin(float(rng.uniform(*rejoin_window)), [v])
    # The grace period covers what "healed" must wait for: dead pointers
    # evicted (rpc timeouts), the rejoined nodes stitched back into the
    # ring (a few stabilize rounds) and their arcs resynced from the
    # surviving replicas (handoff + a few anti-entropy rounds).
    heal_grace = 30_000.0
    phase_c, c_end = log.schedule_poisson(
        gen, rng, rejoin_window[1] + heal_grace, n_c, range(num_nodes), mean_ia
    )
    sched.install(system)

    # Time-series sampling across the crash -> heal timeline: with an
    # ambient telemetry session the occupancy / imbalance / chain-depth
    # gauges get one point per second of simulated time, bounded so the
    # final run_until_idle still drains.
    run_end = c_end + 60_000.0
    if system.telemetry is not None:
        system.sim.schedule_every(
            1_000.0, system.sample_telemetry, until=run_end
        )

    system.run(until=run_end)
    system.stop_maintenance()
    system.stop_anti_entropy()
    system.run_until_idle()

    # -- per-phase verdicts: who owed a delivery differs by phase ------
    plan = (
        # A: everyone subscribed is up
        ("A: healthy baseline", phase_a, None),
        # B: victims' clients are down
        (
            "B: degraded (20% just crashed)" if fail_fraction == 0.2
            else f"B: degraded ({fail_fraction:.0%} just crashed)",
            phase_b,
            lambda addr: addr not in victim_set,
        ),
        # C: victims rejoined
        ("C: healed (rejoined + resynced)", phase_c, None),
    )
    verdicts = [
        judge(log, installed, alive=alive, events=eids)
        for _name, eids, alive in plan
    ]
    phases = [
        PhaseResult(name, len(eids), v.delivered, v.expected)
        for (name, eids, _alive), v in zip(plan, verdicts)
    ]

    stats = system.network.stats
    event_kb = stats.bytes_for(("ps_event",)) / 1024.0
    repair_kb = stats.bytes_for(("ps_ae_", "ps_handoff")) / 1024.0
    maintenance_kb = (
        sum(stats.bytes_by_kind.values()) / 1024.0 - event_kb - repair_kb
    )
    inv = system.check_invariants(check_replicas=True)

    report = ShapeReport("R2 recovery")
    report.expect_within(
        phases[0].ratio, 0.999, 1.0, "healthy phase delivers completely"
    )
    report.expect_greater(
        phases[1].ratio, 0.95,
        "hop-failover + standby takeover carry the crash phase",
    )
    report.expect_greater(
        phases[2].ratio, 0.99,
        "delivery recovers after heal/rejoin (acceptance threshold)",
    )
    report.expect_greater(
        repair_kb, 0.0, "repair traffic is accounted (and separable)"
    )
    report.expect_true(
        inv.ok, "invariants hold at end of run", detail=inv.render()
    )
    report.expect_true(
        all(v.exactly_once for v in verdicts), "exactly-once, nothing spurious"
    )
    if system.telemetry is not None:
        system.telemetry.record_result(
            "recovery",
            {
                "fail_fraction": fail_fraction,
                "phase_ratios": {ph.name: ph.ratio for ph in phases},
                "repair_kb": float(repair_kb),
                "retransmissions": stats.retransmissions,
                "gave_up": stats.gave_up,
                "invariants_ok": inv.ok,
            },
        )
        system.telemetry.annotate(fault_schedule=sched.describe())
    return RecoveryResult(
        fail_fraction=fail_fraction,
        phases=phases,
        schedule=sched.describe(),
        event_kb=float(event_kb),
        repair_kb=float(repair_kb),
        maintenance_kb=float(maintenance_kb),
        retransmissions=stats.retransmissions,
        gave_up=stats.gave_up,
        invariants_ok=inv.ok,
        invariants=inv.render().splitlines()[0],
        report=report,
    )


def main() -> None:  # pragma: no cover - CLI entry
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
