#!/usr/bin/env python
"""Load balancing in action: skewed workload, then dynamic migration.

Reproduces Section 4's mechanism on a small network with a deliberately
skewed (hotspot-concentrated) subscription population:

1. install subscriptions -> show the skewed load distribution;
2. run migration rounds (probing level 1, delta = 0.1) -> show the
   flattened distribution and where the load went;
3. verify deliveries are still exactly correct afterwards.

Run:  python examples/load_balancing_demo.py
"""

import numpy as np

from repro.core import (
    Attribute,
    Event,
    HyperSubConfig,
    HyperSubSystem,
    Scheme,
    Subscription,
)


def sparkline(loads: np.ndarray, width: int = 60) -> str:
    """Coarse text histogram of ranked loads."""
    ranked = np.sort(loads)[::-1][:width]
    peak = max(int(ranked.max()), 1)
    blocks = " .:-=+*#%@"
    return "".join(blocks[min(int(v * 9 / peak), 9)] for v in ranked)


def main() -> None:
    config = HyperSubConfig(
        seed=5,
        migration_delta=0.1,
        migration_probe_level=1,
    )
    system = HyperSubSystem(num_nodes=120, config=config)
    scheme = Scheme("telemetry", [Attribute(n, 0, 10_000) for n in "wxyz"])
    system.add_scheme(scheme)

    rng = np.random.default_rng(2)
    installed = []
    for _ in range(800):
        # Everything clusters around one hot region -> a few surrogate
        # nodes absorb nearly all subscriptions.
        lows, highs = [], []
        for _ in range(4):
            centre = float(rng.normal(3000, 150) % 10_000)
            width = float(rng.uniform(50, 400))
            lows.append(max(0.0, centre - width))
            highs.append(min(10_000.0, centre + width))
        sub = Subscription.from_box(scheme, lows, highs)
        installed.append((sub, system.subscribe(int(rng.integers(0, 120)), sub)))
    system.finish_setup()

    before = system.node_loads()
    print("ranked load before migration (each char = one node):")
    print(f"  [{sparkline(before)}]  max={before.max()}")

    system.run_migration_rounds(rounds=3)
    after = system.node_loads()
    print("ranked load after 3 migration rounds:")
    print(f"  [{sparkline(after)}]  max={after.max()}")
    print(
        f"\nmax load {before.max()} -> {after.max()} "
        f"({before.max() / max(after.max(), 1):.1f}x flatter); "
        f"imbalance max/mean {before.max() / before.mean():.1f} -> "
        f"{after.max() / after.mean():.1f}"
    )

    # Deliveries still exactly correct after migration.
    system.network.stats.reset()
    system.metrics.clear_events()
    checked = 0
    for _ in range(40):
        pt = rng.normal(3000, 250, 4) % 10_000
        ev = Event(scheme, list(pt))
        eid = system.publish(int(rng.integers(0, 120)), ev)
        system.run_until_idle()
        rec = system.metrics.records[eid]
        got = sorted((d[0].nid, d[0].iid) for d in rec.deliveries)
        expect = sorted(
            (sid.nid, sid.iid) for sub, sid in installed if sub.matches(ev)
        )
        assert got == expect, "delivery diverged after migration!"
        checked += rec.matched
    print(f"\n40 post-migration events: {checked} deliveries, all exactly correct")
    assert after.max() < before.max()


if __name__ == "__main__":
    main()
