"""Experiment A1 (extension): ablations of HyperSub's design choices.

Each ablation isolates one mechanism DESIGN.md calls out:

* **PNS** -- proximity neighbour selection (Chord-PNS vs plain Chord):
  should cut delivery latency at identical hop counts.
* **Rotation** -- zone-mapping rotation across schemes: should spread
  co-located hot zones of multiple schemes over distinct nodes.
* **Subscheme splitting** (Section 3.5) -- with subscriptions that leave
  attributes unspecified, splitting should deepen zone placement and
  reduce the load concentrated on shallow-zone surrogates.
* **Direct-rendezvous radius R** -- the reproduction's cascade-control
  knob: identical deliveries for any R, with the documented state /
  per-event-entry trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.analysis.compare import ShapeReport
from repro.analysis.tables import format_table
from repro.core.config import HyperSubConfig
from repro.core.scheme import Attribute, Scheme
from repro.core.subscription import Predicate, Subscription
from repro.core.system import HyperSubSystem
from repro.experiments.common import DeliveryConfig, scale_from_env
from repro.runner import map_configs


@dataclass
class AblationResult:
    rows: List[List[object]]
    report: ShapeReport

    def render(self) -> str:
        table = format_table(
            ["ablation", "variant", "metric", "value"],
            self.rows,
            title="A1 -- design-choice ablations",
        )
        return "\n\n".join([table, self.report.render()])


def run(num_nodes: int | None = None, num_events: int | None = None) -> AblationResult:
    n, e = scale_from_env()
    num_nodes = num_nodes or n
    num_events = num_events or e
    rows: List[List[object]] = []
    report = ShapeReport("A1 ablations")

    # ---- delivery-config points, one runner batch -----------------------
    # PNS on/off plus the three direct-rendezvous radii are independent
    # DeliveryConfig points; one map_configs call lets the process pool
    # (and the result store) handle all five.  The runner dedupes the
    # PNS-on point against R=8 (they are the same configuration).
    r_levels = (0, 8, 20)
    delivery_cfgs = [
        DeliveryConfig(num_nodes=num_nodes, num_events=num_events, pns=True),
        DeliveryConfig(num_nodes=num_nodes, num_events=num_events, pns=False),
    ] + [
        DeliveryConfig(
            num_nodes=num_nodes, num_events=num_events,
            direct_rendezvous_levels=r_level,
        )
        for r_level in r_levels
    ]
    delivery_runs = map_configs(delivery_cfgs, label="ablation")
    pns_on, pns_off = delivery_runs[0], delivery_runs[1]
    r_runs = dict(zip(r_levels, delivery_runs[2:]))

    # ---- PNS on/off -----------------------------------------------------
    rows += [
        ["PNS", "on", "avg max latency ms", pns_on.max_latency_ms.mean],
        ["PNS", "off", "avg max latency ms", pns_off.max_latency_ms.mean],
        ["PNS", "on", "avg max hops", pns_on.max_hops.mean],
        ["PNS", "off", "avg max hops", pns_off.max_hops.mean],
    ]
    report.expect_less(
        pns_on.max_latency_ms.mean, pns_off.max_latency_ms.mean,
        "PNS reduces delivery latency",
    )
    report.expect_within(
        pns_on.max_hops.mean / max(pns_off.max_hops.mean, 1e-9), 0.8, 1.2,
        "PNS leaves hop counts roughly unchanged",
    )

    # ---- direct-rendezvous radius R --------------------------------------
    for r_level in r_levels:
        rows += [
            ["R (direct rendezvous)", str(r_level), "stored entries",
             int(r_runs[r_level].loads.sum())],
            ["R (direct rendezvous)", str(r_level), "avg KB/event",
             r_runs[r_level].bandwidth_kb.mean],
        ]
    report.expect_true(
        r_runs[0].matched_counts.mean == r_runs[8].matched_counts.mean
        == r_runs[20].matched_counts.mean,
        "delivery identical for every R",
        f"means {[r_runs[k].matched_counts.mean for k in (0, 8, 20)]}",
    )
    report.expect_less(
        float(r_runs[8].loads.sum()), float(r_runs[0].loads.sum()),
        "R=8 stores fewer surrogate subscriptions than the full cascade",
    )

    # ---- Rotation (multi-scheme hotspot spreading) ------------------------
    rot_loads = {}
    for rotation in (True, False):
        cfg = HyperSubConfig(seed=1, code_bits=20, rotation=rotation,
                             direct_rendezvous_levels=8)
        system = HyperSubSystem(num_nodes=min(num_nodes, 300), config=cfg)
        schemes = [
            Scheme(f"s{i}", [Attribute(a, 0, 10_000) for a in "abcd"])
            for i in range(5)
        ]
        rng = np.random.default_rng(3)
        for sc in schemes:
            system.add_scheme(sc)
            for _ in range(40):
                # Straddling subscriptions: identical shallow zone per scheme.
                sub = Subscription.from_box(
                    sc, [4500] * 4, [5500] * 4
                )
                system.subscribe(int(rng.integers(0, len(system.nodes))), sub)
        system.finish_setup()
        real = np.array(
            [node.stored_subscription_count("sub") for node in system.nodes]
        )
        rot_loads[rotation] = real
        rows.append(
            ["rotation", "on" if rotation else "off", "max real-sub load", int(real.max())]
        )
    report.expect_less(
        float(rot_loads[True].max()), float(rot_loads[False].max()),
        "rotation spreads multi-scheme hot zones",
    )

    # ---- Subscheme splitting (Section 3.5) --------------------------------
    # R = max_level (no cascade) so the comparison isolates *placement*:
    # Section 3.5 is about where partially-specified subscriptions land,
    # not about surrogate-subscription state (a subscheme's deeper
    # per-dimension tree legitimately stores more markers per sub).
    split_stats = {}
    for split in (True, False):
        cfg = HyperSubConfig(seed=1, code_bits=20, direct_rendezvous_levels=20)
        system = HyperSubSystem(num_nodes=min(num_nodes, 300), config=cfg)
        scheme = Scheme("s", [Attribute(a, 0, 10_000) for a in "abcd"])
        system.add_scheme(
            scheme, subschemes=[["a", "b"], ["c", "d"]] if split else None
        )
        rng = np.random.default_rng(4)
        levels = []
        for _ in range(600):
            # Subscribers only constrain half the attributes -- the
            # behaviour Section 3.5 exists for.
            attrs = ["a", "b"] if rng.random() < 0.5 else ["c", "d"]
            c = float(rng.normal(3000, 400) % 9500)
            preds = [Predicate(x, c, c + 300) for x in attrs]
            sub = Subscription(scheme, preds)
            system.subscribe(int(rng.integers(0, len(system.nodes))), sub)
            ent = system.entity_for_subscription(sub)
            levels.append(ent.zone_of_box(*sub.box).level)
        system.finish_setup()
        real = np.array(
            [node.stored_subscription_count("sub") for node in system.nodes]
        )
        split_stats[split] = {
            "mean_level": float(np.mean(levels)),
            "max_load": int(real.max()),
        }
        rows += [
            ["subscheme split", "on" if split else "off", "mean zone level",
             split_stats[split]["mean_level"]],
            ["subscheme split", "on" if split else "off", "max real-sub load",
             split_stats[split]["max_load"]],
        ]
    report.expect_greater(
        split_stats[True]["mean_level"], split_stats[False]["mean_level"] + 1.0,
        "splitting deepens zone placement for partially-specified subs",
    )
    report.expect_less(
        float(split_stats[True]["max_load"]),
        float(split_stats[False]["max_load"]),
        "splitting reduces shallow-zone load concentration",
    )

    return AblationResult(rows=rows, report=report)


def main() -> None:  # pragma: no cover - CLI entry
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
