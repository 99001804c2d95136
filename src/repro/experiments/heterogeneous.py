"""Experiment H1 (extension): load balancing with heterogeneous capacities.

End of Section 5.2: "In this paper, we assume all nodes have same
capacity (same threshold factors).  We will evaluate the performance
and cost for load balancing in heterogeneous environment with various
parameters in the future."

The scenario gives the *heavily loaded* surrogates ``capacity_ratio``
times everyone else's capacity -- the deployment a capacity-aware
operator would actually run (provision the hotspot).  Two balancers run
on identical deployments: *capacity-aware* (thresholds and acceptor
ranking normalised per unit capacity -- "the value of the threshold
factor delta for each node is based on the node's capacity") and
*capacity-blind* (the uniform rule the paper evaluates).  The blind
rule sheds load off the big provisioned nodes exactly as if they were
small; the aware rule recognises their headroom and leaves the load
where the capacity is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.analysis.compare import ShapeReport
from repro.analysis.tables import format_table
from repro.core.config import HyperSubConfig
from repro.core.system import HyperSubSystem
from repro.workloads import WorkloadGenerator, default_paper_spec


@dataclass
class HeterogeneousResult:
    rows: List[List[object]]
    report: ShapeReport

    def render(self) -> str:
        return "\n\n".join(
            [
                format_table(
                    ["stage", "max load/capacity", "big-node share of load",
                     "big-node share of capacity", "migrations"],
                    self.rows,
                    title="H1 -- capacity-aware migration under 5x "
                    "heterogeneous capacities",
                ),
                self.report.render(),
            ]
        )


def _one_run(
    capacity_aware: bool,
    num_nodes: int,
    subs_per_node: int,
    capacity_ratio: float,
    big_fraction: float,
    rounds: int,
    seed: int,
):
    spec = default_paper_spec(subs_per_node=subs_per_node)
    gen = WorkloadGenerator(spec, seed=7)
    cfg = HyperSubConfig(seed=seed)
    system = HyperSubSystem(num_nodes=num_nodes, config=cfg)
    system.add_scheme(gen.scheme)

    gen.populate(system)
    system.finish_setup()
    before = system.node_loads().astype(np.float64)
    system.network.stats.reset()

    # The provisioned ("big") nodes are the heaviest surrogates -- the
    # operator put the capacity where the hotspot is.  Both runs use
    # the same workload, hence the same big set.
    n_big = int(big_fraction * num_nodes)
    big_set = {int(a) for a in np.argsort(before)[::-1][:n_big]}
    true_caps = np.array(
        [capacity_ratio if a in big_set else 1.0 for a in range(num_nodes)]
    )
    if capacity_aware:
        for addr, node in enumerate(system.nodes):
            node.capacity = float(true_caps[addr])
    # capacity-blind: decisions keep the default capacity of 1.0
    system.run_migration_rounds(rounds)
    after = system.node_loads().astype(np.float64)
    per_unit = after / true_caps
    big_share = after[list(big_set)].sum() / max(after.sum(), 1e-9)
    return {
        "per_unit_peak_before": float((before / true_caps).max()),
        "per_unit_peak": float(per_unit.max()),
        "big_share": float(big_share),
        "cap_share": float(true_caps[list(big_set)].sum() / true_caps.sum()),
        "migrations": int(
            system.network.stats.msgs_by_kind.get("ps_migrate", 0)
        ),
    }


def run(
    num_nodes: int = 200,
    subs_per_node: int = 10,
    capacity_ratio: float = 5.0,
    big_fraction: float = 0.2,
    rounds: int = 3,
    seed: int = 1,
) -> HeterogeneousResult:
    aware = _one_run(
        True, num_nodes, subs_per_node, capacity_ratio, big_fraction, rounds, seed
    )
    blind = _one_run(
        False, num_nodes, subs_per_node, capacity_ratio, big_fraction, rounds, seed
    )

    rows = [
        ["capacity-aware", aware["per_unit_peak"], aware["big_share"],
         aware["cap_share"], aware["migrations"]],
        ["capacity-blind", blind["per_unit_peak"], blind["big_share"],
         blind["cap_share"], blind["migrations"]],
        ["(before any LB)", aware["per_unit_peak_before"], "-",
         aware["cap_share"], 0],
    ]
    report = ShapeReport("H1 heterogeneous capacities")
    report.expect_less(
        aware["migrations"], blind["migrations"],
        "aware rule migrates less (provisioned nodes stop shedding)",
    )
    report.expect_less(
        aware["per_unit_peak"], blind["per_unit_peak"] * 1.1,
        "aware rule at least matches the blind rule on per-unit peak",
    )
    report.expect_greater(
        aware["big_share"], blind["big_share"],
        "aware rule leaves more load on high-capacity nodes",
    )
    return HeterogeneousResult(rows=rows, report=report)


def main() -> None:  # pragma: no cover - CLI entry
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
