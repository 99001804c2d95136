"""Experiment C1 (extension): delivery under node churn.

The paper defers churn ("the performance of proposed architecture under
high node churn rate has not been explored.  This will be one of our
future work") -- HyperSub "leverages the underlying DHT to deal with
nodes join/departure/failure".  This experiment quantifies that: nodes
crash-stop during the event phase while Chord's maintenance
(stabilize / fix-fingers / check-predecessor, successor-list failover)
repairs routing.  Without subscription replication, state stored on a
failed surrogate is lost, so the delivery ratio should degrade
gracefully and roughly in proportion to the failed fraction -- not
collapse.  A second arm runs the replication extension
(``replication_factor = 3``: standby copies on the successor list,
activated by successor takeover), which should recover nearly all of
the lost deliveries.

Both arms share one crash draw, and that draw never takes down a whole
replica chain (three ring-consecutive nodes,
:func:`repro.faults.chain_safe_churn`): k = 3 replication survives at
most two simultaneous replica failures, like any 3-replicated store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.analysis.compare import ShapeReport
from repro.analysis.tables import format_series
from repro.core.config import HyperSubConfig
from repro.core.system import HyperSubSystem
from repro.faults import chain_safe_churn, ring_order
from repro.oracle import RunLog, Verdict, judge
from repro.workloads import WorkloadGenerator, default_paper_spec

#: Replication factor of the replicated arm; both arms' crash draws
#: spare every replica chain of this length.
REPLICAS = 3


@dataclass
class ChurnResult:
    fail_fractions: List[float]
    delivery_ratios: List[float]
    replicated_ratios: List[float]
    report: ShapeReport

    def render(self) -> str:
        return "\n\n".join(
            [
                format_series(
                    "failed fraction",
                    self.fail_fractions,
                    {
                        "no replication": self.delivery_ratios,
                        f"replication k={REPLICAS}": self.replicated_ratios,
                    },
                    title="C1 -- delivery ratio under crash-stop churn "
                    "(Chord maintenance on)",
                ),
                self.report.render(),
            ]
        )


def _one_run(
    fail_fraction: float,
    num_nodes: int,
    num_events: int,
    seed: int = 1,
    replication: int = 1,
) -> Tuple[Verdict, bool]:
    spec = default_paper_spec(subs_per_node=5)
    gen = WorkloadGenerator(spec, seed=7)
    cfg = HyperSubConfig(
        seed=seed, direct_rendezvous_levels=8, replication_factor=replication
    )
    system = HyperSubSystem(num_nodes=num_nodes, config=cfg)
    system.add_scheme(gen.scheme)
    installed = gen.populate(system)
    system.finish_setup()

    system.start_maintenance(500.0, 1500.0)

    # Failures land in a burst window, then the ring gets a grace period
    # to stabilize before events flow: the experiment isolates
    # *permanent state loss* (what replication addresses) from transient
    # packet loss while fingers still point at fresh corpses.  The
    # schedule is drawn deterministically from the seed so both arms
    # (and any replay) see the identical fault timeline.
    churn_window = 5_000.0
    grace = 15_000.0
    sched, victims = chain_safe_churn(
        ring_order(system),
        fail_fraction,
        REPLICAS,
        crash_window=(0.0, churn_window),
        seed=seed + 100,
    )
    sched.install(system)

    victim_set = set(victims)
    log = RunLog(system)
    _eids, t = log.schedule_poisson(
        gen,
        np.random.default_rng(seed + 101),
        system.sim.now + churn_window + grace,
        num_events,
        [a for a in range(num_nodes) if a not in victim_set],
        spec.mean_interarrival_ms,
    )
    # Run the event phase, then let maintenance settle and drain.
    system.run(until=t + 60_000.0)
    system.stop_maintenance()
    system.run_until_idle()

    # Expected deliveries are matches whose subscriber survived.
    verdict = judge(log, installed, alive=lambda addr: addr not in victim_set)
    # With standby replicas the survivors' subscription state must still
    # be covered after the crashes (ring consistency always must); the
    # unreplicated arm loses state by design, so only the ring is
    # checked there.
    invariants_ok = system.check_invariants(
        check_coverage=replication > 1
    ).ok
    return verdict, invariants_ok


def run(
    num_nodes: int = 300,
    num_events: int = 300,
    fail_fractions: Sequence[float] = (0.0, 0.05, 0.1, 0.2),
    seeds: Sequence[int] = (1, 2, 3, 4, 5),
) -> ChurnResult:
    """Averaging over seeds matters: the workload is hotspot-skewed, so
    whether a *hot surrogate* is among the victims dominates a single
    run's ratio (itself an instructive observation -- state loss is as
    skewed as the load)."""
    invariant_results: List[bool] = []
    exactly_once: List[bool] = []

    def sweep(replication: int) -> List[float]:
        out = []
        for f in fail_fractions:
            runs = [
                _one_run(
                    f,
                    num_nodes=num_nodes,
                    num_events=num_events,
                    seed=s,
                    replication=replication,
                )
                for s in seeds
            ]
            invariant_results.extend(ok for _v, ok in runs)
            exactly_once.extend(v.exactly_once for v, _ok in runs)
            out.append(float(np.mean([v.ratio for v, _ok in runs])))
        return out

    ratios = sweep(1)
    replicated = sweep(REPLICAS)
    report = ShapeReport("C1 churn")
    report.expect_true(
        all(invariant_results),
        "ring (and replicated-arm coverage) invariants hold after churn",
    )
    report.expect_true(all(exactly_once), "exactly-once, nothing spurious")
    report.expect_within(
        ratios[0], 0.999, 1.0, "no churn => complete delivery"
    )
    for f, r in zip(fail_fractions[1:], ratios[1:]):
        report.expect_greater(
            r, max(0.0, 1.0 - 5.0 * f),
            f"graceful degradation at {f:.0%} failures",
        )
    # Loss is bimodal per run (did a hot surrogate die?), so strict
    # monotonicity over a few seeds is noise; the trend must be downward.
    xs = np.asarray(fail_fractions)
    ys = np.asarray(ratios)
    slope = float(np.polyfit(xs, ys, 1)[0])
    report.expect_less(
        slope, 0.0,
        "delivery ratio trends downward with failure fraction",
    )
    for f, plain, repl in zip(fail_fractions[1:], ratios[1:], replicated[1:]):
        report.expect_greater(
            repl, min(0.97, plain + 0.01),
            f"replication (k={REPLICAS}) recovers lost deliveries at "
            f"{f:.0%} failures",
        )
    return ChurnResult(
        fail_fractions=list(fail_fractions),
        delivery_ratios=ratios,
        replicated_ratios=replicated,
        report=report,
    )


def main() -> None:  # pragma: no cover - CLI entry
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
