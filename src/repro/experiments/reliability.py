"""Experiment R1 (extension): delivery under message loss.

The paper's simulator never drops packets, so Algorithm 5 is
fire-and-forget.  Real wide-area links lose packets; this experiment
injects an i.i.d. loss window through a :class:`~repro.faults.
FaultSchedule` and sweeps it against two transports:

* **fire-and-forget** (the paper's): delivery ratio decays roughly as
  ``(1-p)^h`` per h-hop path;
* **reliable** (extension): per-hop ack + retransmission with
  receiver-side de-duplication recovers every delivery, paying for it
  in retransmitted bytes -- now visible in the
  ``NetworkStats.retransmissions`` / ``gave_up`` counters.

A global-knowledge invariant check (ring consistency + zone coverage)
runs at the end of every arm: message loss must never corrupt state,
only delay or drop deliveries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.analysis.compare import ShapeReport
from repro.analysis.tables import format_series
from repro.core.config import HyperSubConfig
from repro.core.system import HyperSubSystem
from repro.faults import FaultSchedule
from repro.oracle import RunLog, judge
from repro.workloads import WorkloadGenerator, default_paper_spec


@dataclass
class ReliabilityResult:
    loss_rates: List[float]
    plain_ratio: List[float]
    reliable_ratio: List[float]
    reliable_byte_overhead: List[float]
    retransmissions: List[int]
    gave_up: List[int]
    report: ShapeReport

    def render(self) -> str:
        return "\n\n".join(
            [
                format_series(
                    "loss rate",
                    self.loss_rates,
                    {
                        "fire-and-forget ratio": self.plain_ratio,
                        "reliable ratio": self.reliable_ratio,
                        "reliable byte overhead x": self.reliable_byte_overhead,
                        "retransmissions": self.retransmissions,
                        "packets abandoned": self.gave_up,
                    },
                    title="R1 -- delivery under injected message loss",
                ),
                self.report.render(),
            ]
        )


def _one_run(loss: float, reliable: bool, num_nodes: int, num_events: int):
    spec = default_paper_spec(subs_per_node=5)
    gen = WorkloadGenerator(spec, seed=7)
    cfg = HyperSubConfig(
        seed=1,
        reliable_delivery=reliable,
        retransmit_timeout_ms=1_500.0,
        # Bounded retries give at-least-once w.h.p.; at 10% loss,
        # P(give-up) = p^(1+retries), so 5 retries push the expected
        # number of lost packets per run well below one.
        max_retries=5,
    )
    system = HyperSubSystem(num_nodes=num_nodes, config=cfg)
    system.add_scheme(gen.scheme)
    installed = gen.populate(system)
    system.finish_setup()
    FaultSchedule().loss(0.0, loss, seed=9).install(system)

    log = RunLog(system)
    rng = np.random.default_rng(3)
    for _ in range(num_events):
        log.publish(int(rng.integers(0, num_nodes)), gen.event())
        system.run_until_idle()
    verdict = judge(log, installed)
    stats = system.network.stats
    bytes_total = float(stats.bytes_by_kind.get("ps_event", 0.0))
    invariants_ok = system.check_invariants().ok
    return (
        verdict,
        bytes_total,
        stats.retransmissions,
        stats.gave_up,
        invariants_ok,
    )


def run(
    num_nodes: int = 150,
    num_events: int = 150,
    loss_rates: Sequence[float] = (0.0, 0.02, 0.05, 0.10),
) -> ReliabilityResult:
    plain, reliable, overhead = [], [], []
    retrans, gave_up = [], []
    invariants_ok = exactly_once = True
    for p in loss_rates:
        v_plain, b_plain, _, _, inv_p = _one_run(p, False, num_nodes, num_events)
        v_rel, b_rel, n_retrans, n_gave, inv_r = _one_run(
            p, True, num_nodes, num_events
        )
        plain.append(v_plain.ratio)
        reliable.append(v_rel.ratio)
        exactly_once = (
            exactly_once and v_plain.exactly_once and v_rel.exactly_once
        )
        overhead.append(b_rel / max(b_plain, 1e-9))
        retrans.append(n_retrans)
        gave_up.append(n_gave)
        invariants_ok = invariants_ok and inv_p and inv_r

    report = ShapeReport("R1 reliability")
    report.expect_within(plain[0], 0.999, 1.0, "no loss: fire-and-forget exact")
    report.expect_less(
        plain[-1], 0.95,
        f"fire-and-forget loses deliveries at {loss_rates[-1]:.0%} loss",
    )
    for p, r in zip(loss_rates, reliable):
        report.expect_within(
            r, 0.999, 1.0, f"reliable transport exact at {p:.0%} loss"
        )
    report.expect_less(
        overhead[-1], 2.0,
        "retransmission overhead stays below 2x bytes at the worst loss",
    )
    report.expect_true(
        retrans[0] == 0 and retrans[-1] > 0,
        "retransmission counter tracks injected loss",
    )
    report.expect_true(
        invariants_ok, "ring/coverage invariants hold under loss"
    )
    report.expect_true(exactly_once, "exactly-once, nothing spurious")
    return ReliabilityResult(
        loss_rates=list(loss_rates),
        plain_ratio=plain,
        reliable_ratio=reliable,
        reliable_byte_overhead=overhead,
        retransmissions=retrans,
        gave_up=gave_up,
        report=report,
    )


def main() -> None:  # pragma: no cover - CLI entry
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
