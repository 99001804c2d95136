"""Experiment R3 (extension): overload protection under event storms.

The paper's simulator gives every node infinite processing capacity, so
a "hot" rendezvous zone is only visible as a load-balance statistic --
a storm of traffic at one surrogate can never delay or destroy a
delivery.  With the finite service model
(``HyperSubConfig.service_model``) each node serves its bounded ingress
queue at ``service_rate_msgs_per_ms * capacity``, and overload becomes
a real failure mode: this experiment floods the most-loaded surrogate
with a 10x storm (``FaultSchedule.storm``) while a Poisson event
workload runs through it, and measures what the protection stack buys.

Two runs, identical except for ``overload_protection``:

* **OFF** -- shed event packets are ordinary losses; the reliable
  transport retransmits into the full queue on its fixed timer, burns
  its retry budget, fails over to alternates that route straight back
  to the same responsible surrogate, and finally gives up: deliveries
  are destroyed and the storm is amplified by blind retransmissions.
* **ON** -- control traffic outranks events in the ingress queue, and
  shed event packets are NACKed with ``ps_busy`` so senders back off
  exponentially without spending retries.  Every delivery survives
  (ratio >= 0.99); the storm costs p99 latency instead of data.

Queue depth stays bounded by construction in both runs; the point of
the comparison is where the overflow pressure goes: into counted
losses (OFF) or into backpressure and latency (ON).  See
docs/FAULTS.md for the full service model and policy spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.analysis.compare import ShapeReport
from repro.core.config import HyperSubConfig
from repro.core.system import HyperSubSystem
from repro.experiments.common import scale_from_env
from repro.faults import FaultSchedule
from repro.oracle import RunLog, judge
from repro.workloads import WorkloadGenerator, default_paper_spec

#: Finite-service parameters: 0.5 msgs/ms (2 ms per message) against a
#: 64-message ingress bound.
SERVICE_RATE = 0.5
QUEUE_CAPACITY = 64
#: The storm floods at 10x the victim's service rate.
STORM_RATE = 10.0 * SERVICE_RATE
#: Storm window (simulated ms).
STORM_T0, STORM_T1 = 2_000.0, 12_000.0
#: Poisson event stream: starts before the storm and outlives it.
EVENT_START_MS = 1_000.0
MEAN_INTERARRIVAL_MS = 100.0


@dataclass
class OverloadRun:
    """One side of the protection-on/off comparison."""

    protection: bool
    hot_addr: int
    events: int
    delivered: int
    expected: int
    exactly_once: bool
    p50_latency_ms: float
    p99_latency_ms: float
    shed: int
    busy_backoffs: int
    overflow_drops: int
    retransmissions: int
    gave_up_subids: int
    hot_peak_depth: int

    @property
    def ratio(self) -> float:
        return self.delivered / self.expected if self.expected else 1.0


@dataclass
class OverloadResult:
    """R3 outcome: the two runs plus the shape verdict."""

    off: OverloadRun
    on: OverloadRun
    schedule: str
    report: ShapeReport

    def render(self) -> str:
        lines = [
            "R3 -- overload protection under an event storm "
            f"({STORM_RATE:g} msgs/ms for "
            f"{(STORM_T1 - STORM_T0) / 1000:.0f}s at the hottest "
            f"surrogate, service {SERVICE_RATE:g} msgs/ms, "
            f"queue bound {QUEUE_CAPACITY})",
            "",
            f"{'protection':12s} {'ratio':>7s} {'p50 ms':>8s} "
            f"{'p99 ms':>9s} {'shed':>6s} {'busy':>6s} "
            f"{'overflow':>9s} {'retrans':>8s} {'lost':>5s} {'peakq':>6s}",
        ]
        for run in (self.off, self.on):
            lines.append(
                f"{'on' if run.protection else 'off':12s} "
                f"{run.ratio:7.4f} {run.p50_latency_ms:8.1f} "
                f"{run.p99_latency_ms:9.1f} {run.shed:6d} "
                f"{run.busy_backoffs:6d} "
                f"{run.overflow_drops:9d} {run.retransmissions:8d} "
                f"{run.gave_up_subids:5d} {run.hot_peak_depth:6d}"
            )
        lines += [
            "",
            "fault schedule:",
            self.schedule,
            "",
            self.report.render(),
        ]
        return "\n".join(lines)


def _run_once(
    protection: bool,
    num_nodes: int,
    num_events: int,
    seed: int,
) -> Tuple[OverloadRun, str]:
    """One storm run; everything except ``protection`` is identical."""
    spec = default_paper_spec(subs_per_node=5)
    gen = WorkloadGenerator(spec, seed=7)
    cfg = HyperSubConfig(
        seed=seed,
        direct_rendezvous_levels=8,
        reliable_delivery=True,
        retransmit_timeout_ms=1_000.0,
        max_retries=2,
        hop_failover=True,
        failover_backoff_ms=1_000.0,
        failover_max_attempts=2,
        service_model=True,
        service_rate_msgs_per_ms=SERVICE_RATE,
        ingress_queue_capacity=QUEUE_CAPACITY,
        overload_protection=protection,
    )
    system = HyperSubSystem(num_nodes=num_nodes, config=cfg)
    system.add_scheme(gen.scheme)
    installed = gen.populate(system)
    system.finish_setup()

    # The storm target: the surrogate carrying the most subscription
    # state, i.e. the node the event stream leans on hardest.
    hot = int(np.argmax(system.node_loads()))
    sched = FaultSchedule().storm(STORM_T0, STORM_T1, hot, STORM_RATE)
    sched.install(system)

    log = RunLog(system)
    log.schedule_poisson(
        gen,
        np.random.default_rng(seed + 300),
        EVENT_START_MS,
        num_events,
        range(num_nodes),
        MEAN_INTERARRIVAL_MS,
    )

    if system.telemetry is not None:
        # Dense queue-depth samples across the storm window.
        system.sim.schedule_every(
            500.0, system.sample_telemetry, until=STORM_T1 + 2_000.0
        )
    system.run_until_idle()

    verdict = judge(log, installed)
    latencies = [
        d[3] for rec in system.metrics.records.values() for d in rec.deliveries
    ]
    lat = np.asarray(latencies) if latencies else np.zeros(1)

    stats = system.network.stats
    run = OverloadRun(
        protection=protection,
        hot_addr=hot,
        events=num_events,
        delivered=verdict.delivered,
        expected=verdict.expected,
        exactly_once=verdict.exactly_once,
        p50_latency_ms=float(np.percentile(lat, 50)),
        p99_latency_ms=float(np.percentile(lat, 99)),
        shed=stats.shed,
        busy_backoffs=stats.busy_backoffs,
        overflow_drops=stats.dropped_by_cause["overflow"],
        retransmissions=stats.retransmissions,
        gave_up_subids=stats.gave_up_subids,
        hot_peak_depth=system.nodes[hot].ingress_peak,
    )
    return run, sched.describe()


def run(
    num_nodes: Optional[int] = None,
    num_events: Optional[int] = None,
    seed: int = 1,
) -> OverloadResult:
    n_default, e_default = scale_from_env()
    num_nodes = num_nodes or n_default
    num_events = num_events or e_default

    off, schedule = _run_once(False, num_nodes, num_events, seed)
    on, _ = _run_once(True, num_nodes, num_events, seed)

    report = ShapeReport("R3 overload")
    report.expect_greater(
        on.ratio, 0.99,
        "protection ON carries the storm (acceptance threshold)",
    )
    report.expect_greater(
        float(off.overflow_drops), 0.0,
        "protection OFF overflows the bounded queue (counted drops)",
    )
    report.expect_greater(
        on.ratio, off.ratio,
        "backpressure beats blind retransmission",
    )
    report.expect_true(
        on.hot_peak_depth <= QUEUE_CAPACITY,
        "hot node's ingress backlog stays bounded",
        detail=f"peak {on.hot_peak_depth} vs bound {QUEUE_CAPACITY}",
    )
    report.expect_greater(
        float(on.shed), 0.0,
        "admission control sheds (and accounts) storm load",
    )
    report.expect_greater(
        float(on.busy_backoffs), 0.0,
        "senders honour ps_busy backpressure",
    )
    report.expect_true(
        off.exactly_once and on.exactly_once, "exactly-once, nothing spurious"
    )

    from repro.telemetry import current_session

    tel = current_session()
    if tel is not None:
        tel.record_result(
            "overload",
            {
                "hot_addr": on.hot_addr,
                "storm_rate_msgs_per_ms": STORM_RATE,
                "ratio_on": on.ratio,
                "ratio_off": off.ratio,
                "p99_ms_on": on.p99_latency_ms,
                "p99_ms_off": off.p99_latency_ms,
                "shed_on": on.shed,
                "busy_backoffs_on": on.busy_backoffs,
                "overflow_drops_off": off.overflow_drops,
                "overflow_drops_on": on.overflow_drops,
                "hot_peak_depth_on": on.hot_peak_depth,
                "all_passed": report.all_passed,
            },
        )
        tel.annotate(fault_schedule=schedule)
    return OverloadResult(off=off, on=on, schedule=schedule, report=report)


def main() -> None:  # pragma: no cover - CLI entry
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
