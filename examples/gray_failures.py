#!/usr/bin/env python
"""Gray failures: a hand-written fault timeline, judged end to end.

A gray failure degrades a node or link without killing it -- the kind
of fault a health check misses.  This example writes one timeline with
the fluent ``FaultSchedule`` builders: a crash the node later rejoins
from, a partition, a latency spike, slow nodes, a one-way link cut,
duplicated and reordered packets, and a flapping node.  It prints the
timeline, then runs the schedule's declarative spec through one
durable chaos round (``repro.experiments.chaos.run_round``).  Every
matching event must still arrive exactly once and in publisher order,
as judged by ``repro.oracle`` against brute-force matching, and every
custody log must drain.

Run:  python examples/gray_failures.py
"""

from repro.experiments.chaos import run_round
from repro.faults import FaultSchedule


def main() -> None:
    sched = (
        FaultSchedule()
        .crash(6_000, [3])
        .rejoin(14_000, [3])
        .partition(8_000, 12_000, {5: 1, 9: 1, 13: 1})
        .latency_spike(10_000, 16_000, 3.0)
        .slow(9_000, 15_000, [2, 6], 0.25)
        .asym_partition(11_000, 17_000, [1], [4, 8])
        .duplicate(12_000, 20_000, 0.2, seed=5)
        .reorder(7_000, 18_000, 150.0, seed=5)
        .flap(9_000, 19_000, 11, period_ms=3_000)
    )
    print("fault timeline (simulated time):")
    print("  " + sched.describe().replace("\n", "\n  "))
    out = run_round(
        {
            "mode": "durable",
            "seed": 42,
            "round": 0,
            "num_nodes": 40,
            "num_events": 80,
            "spec": sched.to_spec(),
        }
    )
    print(
        f"\ndurable delivery: {out['delivered']}/{out['expected']} delivered, "
        f"{out['lost']} lost, {out['dup']} duplicated to a subscriber "
        f"(the network duplicated {out['net_duplicated']} and reordered "
        f"{out['net_reordered']} packets)"
    )
    assert not out["violations"], out["violations"]
    print("exactly once, in order, custody drained: no violations")


if __name__ == "__main__":
    main()
