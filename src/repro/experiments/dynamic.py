"""Experiment D1 (extension): dynamically changing data distribution.

Paper Section 6: "One is to enable the execution of real-world
workloads and make the data distribution dynamically changed."  Here
the subscription hotspot *drifts* across the content space while
subscriptions keep arriving: whatever nodes host today's hot zones are
not the ones hosting tomorrow's.  A one-shot balancing pass (what the
static figures use) goes stale; the paper's periodic migration
("at run time, each node periodically samples the load on its
neighbors") keeps the peak bounded as the distribution moves.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List

import numpy as np

from repro.analysis.compare import ShapeReport
from repro.analysis.tables import format_series
from repro.core.config import HyperSubConfig
from repro.core.system import HyperSubSystem
from repro.oracle import RunLog, judge
from repro.workloads import WorkloadGenerator, default_paper_spec


@dataclass
class DynamicResult:
    times_s: List[float]
    max_load_static: List[float]
    max_load_periodic: List[float]
    report: ShapeReport

    def render(self) -> str:
        return "\n\n".join(
            [
                format_series(
                    "time (s)",
                    self.times_s,
                    {
                        "max load, one-shot LB": self.max_load_static,
                        "max load, periodic LB": self.max_load_periodic,
                    },
                    title="D1 -- max node load under a drifting hotspot",
                ),
                self.report.render(),
            ]
        )


def _phase_specs(phases: int):
    """Workload specs whose joint hotspot drifts corner to corner."""
    base = default_paper_spec(subs_per_node=0)
    out = []
    for i in range(phases):
        drift = 0.15 + 0.6 * i / max(phases - 1, 1)
        attrs = tuple(
            replace(a, data_hotspot=(a.data_hotspot * 0.2 + drift) % 1.0)
            for a in base.attributes
        )
        out.append(replace(base, attributes=attrs))
    return out


def _one_system(
    periodic: bool,
    num_nodes: int,
    subs_per_phase: int,
    phases: int,
    phase_ms: float,
    samples: List[float],
):
    cfg = HyperSubConfig(seed=1, migration_interval_ms=phase_ms / 2.0)
    system = HyperSubSystem(num_nodes=num_nodes, config=cfg)
    specs = _phase_specs(phases)
    scheme = specs[0].build_scheme()
    system.add_scheme(scheme)
    rng = np.random.default_rng(4)
    installed = []

    def install_phase(phase: int) -> None:
        gen = WorkloadGenerator(specs[phase], seed=100 + phase)
        for _ in range(subs_per_phase):
            sub = gen.subscription()
            installed.append(
                (sub, system.subscribe(int(rng.integers(0, num_nodes)), sub))
            )

    loads: List[float] = []
    for phase in range(phases):
        system.sim.schedule_at(phase * phase_ms, install_phase, phase)
    for t in samples:
        system.sim.schedule_at(t, lambda: loads.append(float(system.node_loads().max())))
    if periodic:
        system.start_periodic_migration()
    else:
        # One-shot balancing after the first phase only.  (Scheduled as
        # plain per-node rounds -- run_migration_rounds() drains the
        # simulator and must not be called from inside a callback.)
        for i, node in enumerate(system.nodes):
            system.sim.schedule_at(phase_ms + i * 1.0, node.lb_start_round)
    system.run(until=phases * phase_ms + 1.0)
    return system, scheme, installed, loads


def run(
    num_nodes: int = 200,
    subs_per_phase: int = 300,
    phases: int = 6,
    phase_ms: float = 20_000.0,
) -> DynamicResult:
    samples = [
        (p + 1) * phase_ms - 1.0 for p in range(phases)
    ]
    sys_static, scheme, installed_s, loads_static = _one_system(
        False, num_nodes, subs_per_phase, phases, phase_ms, samples
    )
    sys_periodic, _, installed_p, loads_periodic = _one_system(
        True, num_nodes, subs_per_phase, phases, phase_ms, samples
    )

    report = ShapeReport("D1 dynamic distribution")
    report.expect_less(
        loads_periodic[-1], loads_static[-1],
        "periodic migration bounds the final peak under drift",
    )
    report.expect_less(
        float(np.mean(loads_periodic[1:])),
        float(np.mean(loads_static[1:])),
        "periodic migration keeps the mean peak lower over time",
    )
    # Exact delivery after all that churn of subscriptions + migration,
    # on events sampled from the *last* phase's distribution.
    log = RunLog(sys_periodic)
    rng = np.random.default_rng(9)
    gen = WorkloadGenerator(_phase_specs(phases)[-1], seed=500)
    for _ in range(15):
        log.publish(int(rng.integers(0, num_nodes)), gen.event())
        sys_periodic.run(until=sys_periodic.sim.now + 30_000.0)
    verdict = judge(log, installed_p)
    report.expect_true(
        verdict.missing == 0 and verdict.exactly_once,
        "deliveries exactly correct after drift + migration",
    )

    return DynamicResult(
        times_s=[t / 1000.0 for t in samples],
        max_load_static=loads_static,
        max_load_periodic=loads_periodic,
        report=report,
    )


def main() -> None:  # pragma: no cover - CLI entry
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
