"""Experiment G1 (extension): delivery guarantees under churn and storms.

The delivery-guarantees tier (docs/GUARANTEES.md) claims that durable
custody logging turns HyperSub's best-effort dissemination into
subscriber-acked at-least-once delivery (exactly-once after the
``_delivered`` dedup filter), and that the FIFO / causal ordering
layers keep their promises *through* redelivery, hop-failover and
crash-rejoin.  Claims of that shape die in the gap between "the unit
tests pass" and "the full stack under faults agrees", so this
experiment runs the full grid:

* **modes** -- ``best_effort`` (the unchanged baseline), ``durable``
  (custody, no ordering), ``durable+fifo``, ``durable+causal``;
* **fault schedules** -- a 20% burst crash-and-rejoin churn
  (:meth:`FaultSchedule.random_churn`), and a 10x hotspot storm at the
  most-loaded surrogate under the finite service model with overload
  protection *off*, so shed packets actually destroy deliveries.

Every cell is judged by :func:`repro.oracle.judge` (all matching
subscriptions, crashed subscribers included -- they rejoin, so durable
modes owe them the events; duplicate and spurious deliveries; FIFO and
causal order).  The ordering check is protocol-independent: publisher
order is the order ``publish()`` was called, and causal order is the
happened-before relation the run log's per-node vector clocks record
from deliveries -- nothing the implementation stamps on its packets.

The headline: durable modes heal to ratio 1.0 with zero violations and
zero duplicates where best-effort visibly loses events, at a measured
overhead (bytes/event, delivery latency, custody-log occupancy).

One caveat is deliberate: durable delivery is conditional on the
subscription state itself surviving -- if *all* ``k`` replicas of an
arc crash simultaneously, a match site can vacuously ack an event the
lost repository would have matched.  The churn sampler therefore
re-seeds until no replica chain is wholly inside the victim set (the
standard "at most k-1 simultaneous failures" assumption of any
k-replicated store); ordered cells do not need it because the
owner-only rule parks custody until the exact owner returns.

Cells are independent and CPU-bound, so they run through the parallel
runner (:func:`repro.runner.map_tasks`).
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.compare import ShapeReport
from repro.core.config import HyperSubConfig
from repro.core.system import HyperSubSystem
from repro.experiments.common import scale_from_env
from repro.faults import FaultSchedule
from repro.oracle import RunLog, custody_left, drain_custody, judge
from repro.runner import map_tasks
from repro.telemetry.session import current_session, telemetry_session
from repro.workloads import WorkloadGenerator, default_paper_spec

#: The four delivery modes of the grid: (label, delivery_mode, ordering).
MODES = (
    ("best-effort", "best_effort", "none"),
    ("durable", "durable", "none"),
    ("durable+fifo", "durable", "fifo"),
    ("durable+causal", "durable", "causal"),
)
FAULTS = ("churn", "storm")

#: Event stream starts after setup has settled.
_WARMUP_MS = 3_000.0
#: Churn timeline: burst crash, then a rejoin window well inside the
#: publishing phase so durable custody must bridge a real blackout.
_CRASH_WINDOW = (5_000.0, 8_000.0)
_REJOIN_WINDOW = (12_000.0, 16_000.0)
_FAIL_FRACTION = 0.2
#: Storm: 10x the service rate at the hottest surrogate (finite service
#: model, protection off -- the R3 "destroyed deliveries" regime).
_STORM_WINDOW = (5_000.0, 12_000.0)
_SERVICE_RATE = 0.5
_QUEUE_CAPACITY = 64
_STORM_RATE = 10.0 * _SERVICE_RATE
#: Custody redelivery period: several rounds fit inside the drain tail.
_REDELIVERY_MS = 2_000.0
#: Ordered cells publish from a few fixed nodes so per-publisher
#: streams are long enough for ordering to be falsifiable.
_ORDERED_PUBLISHERS = 5
#: Simulated drain tail after the last scheduled disturbance.
_DRAIN_MS = 45_000.0


@dataclass
class CellResult:
    """One (mode, fault) cell of the guarantee grid."""

    label: str
    mode: str
    ordering: str
    fault: str
    events: int
    delivered: int
    expected: int
    dup: int
    spurious: int
    #: ordering violations (repro.oracle.judge)
    fifo_violations: int
    causal_violations: int
    kb_per_event: float
    lat_mean_ms: float
    lat_p99_ms: float
    #: peak custody-log occupancy across nodes, and what was left
    log_high_water: int
    log_left: int
    durable: Dict[str, int] = field(default_factory=dict)
    gave_up: Dict[str, int] = field(default_factory=dict)
    wall_seconds: float = 0.0

    @property
    def ratio(self) -> float:
        return self.delivered / self.expected if self.expected else 1.0

    @property
    def out_of_order(self) -> int:
        return self.fifo_violations + self.causal_violations


@dataclass
class GuaranteesResult:
    cells: List[CellResult]
    report: ShapeReport

    def cell(self, label: str, fault: str) -> CellResult:
        for c in self.cells:
            if c.label == label and c.fault == fault:
                return c
        raise KeyError((label, fault))

    def render(self) -> str:
        lines = [
            "G1 -- delivery guarantees under churn and storms "
            f"({_FAIL_FRACTION:.0%} crash-rejoin churn; "
            f"{_STORM_RATE / _SERVICE_RATE:.0f}x hotspot storm, "
            "protection off)",
            "",
            f"{'cell':16s} {'fault':6s} {'ratio':>7s} {'dup':>4s} "
            f"{'viol':>5s} {'KB/ev':>7s} {'p99 ms':>8s} {'redeliv':>8s} "
            f"{'log hw':>7s}",
        ]
        for c in self.cells:
            viol = "-" if c.ordering == "none" else str(c.out_of_order)
            lines.append(
                f"{c.label:16s} {c.fault:6s} {c.ratio:7.4f} {c.dup:4d} "
                f"{viol:>5s} {c.kb_per_event:7.2f} {c.lat_p99_ms:8.0f} "
                f"{c.durable.get('redelivered', 0):8d} {c.log_high_water:7d}"
            )
        lines.append("")
        for fault in FAULTS:
            be = self.cell("best-effort", fault)
            du = self.cell("durable", fault)
            lines.append(
                f"{fault}: durable overhead "
                f"{du.kb_per_event / max(be.kb_per_event, 1e-9):.2f}x "
                f"bytes/event over best-effort "
                f"({be.kb_per_event:.2f} -> {du.kb_per_event:.2f} KB)"
            )
        lines += ["", self.report.render()]
        return "\n".join(lines)


def _chain_safe_churn(
    system: HyperSubSystem,
    num_nodes: int,
    k: int,
    seed: int,
) -> Tuple[FaultSchedule, List[int]]:
    """Sample a churn schedule whose victim set never swallows a whole
    replica chain (``k`` ring-consecutive nodes): durable delivery is
    conditional on at most ``k-1`` simultaneous replica failures, like
    any k-replicated store.  Deterministic: seeds are probed in order."""
    ring = sorted(range(num_nodes), key=lambda a: system.nodes[a].node_id)
    n = len(ring)
    last = None
    for attempt in range(64):
        sched, victims = FaultSchedule.random_churn(
            num_nodes,
            _FAIL_FRACTION,
            crash_window=_CRASH_WINDOW,
            rejoin_window=_REJOIN_WINDOW,
            seed=seed + attempt,
        )
        last = (sched, victims)
        vs = set(victims)
        if k <= 1 or not any(
            all(ring[(i + j) % n] in vs for j in range(k)) for i in range(n)
        ):
            return sched, victims
    return last  # pragma: no cover - 64 straight collisions


def _run_cell(task: dict) -> CellResult:
    """One grid cell, self-contained and picklable for map_tasks.

    Runs under a scoped throwaway telemetry session so worker processes
    never write into the parent's artifacts.
    """
    t0 = time.time()
    with tempfile.TemporaryDirectory() as tmp:
        with telemetry_session(tmp, tracing=False):
            cell = _run_cell_inner(task)
    cell.wall_seconds = time.time() - t0
    return cell


def _run_cell_inner(task: dict) -> CellResult:
    label, mode, ordering = task["label"], task["mode"], task["ordering"]
    fault: str = task["fault"]
    num_nodes: int = task["num_nodes"]
    num_events: int = task["num_events"]
    seed: int = task["seed"]
    ordered = ordering != "none"
    durable = mode == "durable"

    spec = default_paper_spec(subs_per_node=4)
    gen = WorkloadGenerator(spec, seed=7)

    kw = dict(
        seed=seed,
        reliable_delivery=True,
        retransmit_timeout_ms=1_000.0,
        max_retries=2,
        hop_failover=True,
        failover_backoff_ms=2_000.0,
        delivery_mode=mode,
        ordering=ordering,
    )
    if durable:
        kw.update(durable_redelivery_ms=_REDELIVERY_MS)
    if ordered:
        # Ordering needs the fully-direct topology (occupancy-complete
        # directory + owner-only custody); see docs/GUARANTEES.md.
        kw.update(
            direct_rendezvous_levels=21,
            replication_factor=1,
        )
    else:
        kw.update(direct_rendezvous_levels=8, replication_factor=3)
    anti_entropy = not ordered and fault == "churn"
    if fault == "storm":
        kw.update(
            service_model=True,
            service_rate_msgs_per_ms=_SERVICE_RATE,
            ingress_queue_capacity=_QUEUE_CAPACITY,
            overload_protection=False,
        )
    cfg = HyperSubConfig(**kw)

    system = HyperSubSystem(num_nodes=num_nodes, config=cfg)
    system.add_scheme(gen.scheme)
    installed = gen.populate(system)
    system.finish_setup()

    # -- fault schedule ------------------------------------------------
    victims: List[int] = []
    if fault == "churn":
        k = cfg.replication_factor if not ordered else 1
        sched, victims = _chain_safe_churn(system, num_nodes, k, seed + 200)
        last_disturbance = _REJOIN_WINDOW[1]
    else:
        # The storm saturates the hottest surrogate AND its standby
        # replicas (the successors holding its markers): with the whole
        # replica group drowning, hop-failover has no alternate match
        # site to reroute to, so best-effort transport exhausts its
        # retries and sheds -- the loss durable custody exists to
        # repair.  A single-node storm is survivable without custody
        # (failover matches at a standby), which measures routing
        # resilience, not delivery semantics.
        hot = int(np.argmax(system.node_loads()))
        group = [hot] + [
            addr
            for _nid, addr in system.nodes[hot].successors[
                : cfg.replication_factor - 1
            ]
        ]
        sched = FaultSchedule()
        for victim_addr in group:
            sched.storm(
                _STORM_WINDOW[0], _STORM_WINDOW[1], victim_addr, _STORM_RATE
            )
        last_disturbance = _STORM_WINDOW[1]
    sched.install(system)

    # -- services ------------------------------------------------------
    # Ring maintenance runs in EVERY cell, not just churn: give-up
    # driven neighbor eviction is part of the reliable transport, and a
    # ring that can evict must also be able to re-learn.  A storm
    # victim sheds the acks for its own sends and (wrongly) evicts
    # live neighbors -- damage only stabilization repairs once the
    # storm subsides.
    system.start_maintenance(
        stabilize_interval_ms=500.0, rpc_timeout_ms=1_500.0
    )
    if anti_entropy:
        system.start_anti_entropy()
    if durable:
        system.start_durable_redelivery()

    # -- the run log: publish order, causal snapshots, deliveries ------
    log = RunLog(system)
    survivors = [a for a in range(num_nodes) if a not in set(victims)]
    _eids, t = log.schedule_poisson(
        gen,
        np.random.default_rng(seed + 300),
        _WARMUP_MS,
        num_events,
        survivors[:_ORDERED_PUBLISHERS] if ordered else survivors,
        spec.mean_interarrival_ms,
    )

    run_end = max(t, last_disturbance) + _DRAIN_MS
    if system.telemetry is not None:
        system.sim.schedule_every(
            1_000.0, system.sample_telemetry, until=run_end
        )
    system.run(until=run_end)
    if durable:
        drain_custody(system)
    system.stop_maintenance()
    if anti_entropy:
        system.stop_anti_entropy()
    if durable:
        system.stop_durable_redelivery()
    system.run_until_idle()

    # -- the verdict: crashed subscribers stay expected (they rejoin,
    # so durable modes owe them the events) ----------------------------
    assert len(log.published) == num_events
    verdict = judge(log, installed)
    latencies = [
        d[3] for rec in system.metrics.records.values() for d in rec.deliveries
    ]

    stats = system.network.stats
    lat = np.asarray(latencies) if latencies else np.zeros(1)
    high_water = max(
        (n.durable.high_water for n in system.nodes if n.durable is not None),
        default=0,
    )
    return CellResult(
        label=label,
        mode=mode,
        ordering=ordering,
        fault=fault,
        events=num_events,
        delivered=verdict.delivered,
        expected=verdict.expected,
        dup=verdict.duplicate,
        spurious=verdict.spurious,
        fifo_violations=verdict.fifo_violations if ordered else 0,
        causal_violations=(
            verdict.causal_violations if ordering == "causal" else 0
        ),
        kb_per_event=float(
            stats.bytes_for(("ps_event", "ps_dack")) / 1024.0 / num_events
        ),
        lat_mean_ms=float(lat.mean()),
        lat_p99_ms=float(np.percentile(lat, 99)),
        log_high_water=int(high_water),
        log_left=custody_left(system),
        durable=dict(stats.durable_counts),
        gave_up=dict(stats.gave_up_by_cause),
    )


def run(
    num_nodes: Optional[int] = None,
    num_events: Optional[int] = None,
    seed: int = 1,
    jobs: Optional[int] = None,
) -> GuaranteesResult:
    n_default, e_default = scale_from_env()
    num_nodes = num_nodes or n_default
    num_events = num_events or e_default

    tasks = [
        {
            "label": label,
            "mode": mode,
            "ordering": ordering,
            "fault": fault,
            "num_nodes": num_nodes,
            "num_events": num_events,
            "seed": seed + 10 * i,
        }
        for i, (label, mode, ordering) in enumerate(MODES)
        for fault in FAULTS
    ]
    cells: List[CellResult] = map_tasks(
        _run_cell, tasks, jobs=jobs, label="guarantees"
    )

    report = ShapeReport("G1 delivery guarantees")
    durable_cells = [c for c in cells if c.mode == "durable"]
    for c in durable_cells:
        report.expect_within(
            c.ratio, 0.999, 1.0,
            f"{c.label}/{c.fault} heals to complete delivery",
        )
    for fault in FAULTS:
        be = next(c for c in cells if c.mode == "best_effort" and c.fault == fault)
        report.expect_true(
            be.ratio < 0.999,
            f"best-effort visibly loses events under {fault}",
            detail=f"ratio {be.ratio:.4f}",
        )
    report.expect_true(
        sum(c.dup + c.spurious for c in durable_cells) == 0,
        "durable delivery is exactly-once (no duplicate deliveries)",
    )
    report.expect_true(
        sum(c.out_of_order for c in cells if c.ordering != "none") == 0,
        "zero ordering violations (FIFO + happened-before causal)",
    )
    report.expect_true(
        all(
            c.durable.get("appends", 0)
            == c.durable.get("acked", 0) + c.durable.get("truncated", 0)
            and c.durable.get("truncated", 0) == 0
            and c.log_left == 0
            for c in durable_cells
        ),
        "custody logs drain fully (every append acked, none truncated)",
    )
    for fault in FAULTS:
        be = next(c for c in cells if c.mode == "best_effort" and c.fault == fault)
        du = next(
            c
            for c in cells
            if c.mode == "durable" and c.ordering == "none" and c.fault == fault
        )
        report.expect_greater(
            du.kb_per_event, be.kb_per_event,
            f"custody overhead is measurable under {fault}",
            slack=1.0,
        )

    sess = current_session()
    if sess is not None:
        sess.record_result(
            "guarantees",
            {
                "ratio_durable": min(c.ratio for c in durable_cells),
                "ratio_best_effort": {
                    c.fault: c.ratio for c in cells if c.mode == "best_effort"
                },
                "ordering_violations": sum(
                    c.out_of_order for c in cells if c.ordering != "none"
                ),
                "dup_deliveries": sum(c.dup for c in durable_cells),
                "kb_per_event": {
                    f"{c.label}/{c.fault}": c.kb_per_event for c in cells
                },
                "log_high_water": max(c.log_high_water for c in cells),
                "redelivered": sum(
                    c.durable.get("redelivered", 0) for c in cells
                ),
                "shape_ok": report.all_passed,
            },
        )
        sess.annotate(
            guarantees_grid={
                "modes": [m[0] for m in MODES],
                "faults": list(FAULTS),
                "fail_fraction": _FAIL_FRACTION,
                "storm_rate_x": _STORM_RATE / _SERVICE_RATE,
            }
        )
    return GuaranteesResult(cells=cells, report=report)


def main() -> None:  # pragma: no cover - CLI entry
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
