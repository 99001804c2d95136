"""Property test: exactly-once delivery survives the combined fault
stack (satellite of the overload PR).

The reliable transport's receiver-side dedup (``_rel_seen``, keyed on
``(src, incarnation epoch, rseq)``) is what turns at-least-once
retransmission into exactly-once application delivery.  Each mechanism
that redelivers a packet attacks it from a different angle:

* **ack loss** -- the receiver handled the packet but the sender never
  learns, so the same ``(src, epoch, rseq)`` arrives again;
* **hop failover** -- the packet's SubIDs are re-grouped onto a fresh
  packet via an alternate route, so the *same delivery* arrives under a
  *different* key and only repository-level idempotence protects it;
* **rejoin epoch bump** -- a rejoined sender reuses rseq values under a
  new epoch, which must NOT be deduplicated against its previous life.

This test runs all three at once over several seeds and asserts no
subscriber ever sees one event twice, and nothing undeserved arrives.
"""

import numpy as np
import pytest

from repro.core import (
    Attribute,
    Event,
    HyperSubConfig,
    HyperSubSystem,
    Scheme,
    Subscription,
)
from repro.faults import FaultSchedule

N_NODES = 40
N_SUBS = 150
N_EVENTS = 25


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_no_duplicate_delivery_under_ack_loss_failover_and_rejoin(seed, monkeypatch):
    monkeypatch.setattr("repro.core.replication.ANTI_ENTROPY_INTERVAL_MS", 1_000.0)
    cfg = HyperSubConfig(
        seed=seed + 10,
        code_bits=12,
        replication_factor=3,
        reliable_delivery=True,
        retransmit_timeout_ms=500.0,
        max_retries=2,
        hop_failover=True,
        failover_backoff_ms=500.0,
    )
    system = HyperSubSystem(num_nodes=N_NODES, config=cfg)
    scheme = Scheme("s", [Attribute(x, 0, 10000) for x in "abcd"])
    system.add_scheme(scheme)
    rng = np.random.default_rng(seed)
    installed = []
    for _ in range(N_SUBS):
        lows, highs = [], []
        for _ in range(4):
            c = float(rng.normal(3000, 300) % 10000)
            w = float(rng.uniform(100, 700))
            lows.append(max(0.0, c - w))
            highs.append(min(10000.0, c + w))
        sub = Subscription.from_box(scheme, lows, highs)
        installed.append((sub, system.subscribe(int(rng.integers(0, N_NODES)), sub)))
    system.finish_setup()
    system.start_maintenance(stabilize_interval_ms=250.0, rpc_timeout_ms=1_000.0)
    system.start_anti_entropy()

    # 25% of every packet (acks included) lost across the whole event
    # window, plus a crash-and-rejoin of three loaded nodes in the
    # middle of it: retransmission, hop failover and epoch bumps all
    # fire together.
    loads = [
        sum(len(r.store) for r in node.zone_repos.values())
        for node in system.nodes
    ]
    victims = [int(a) for a in np.argsort(loads)[-3:]]
    sched = FaultSchedule()
    sched.loss(1_000.0, 0.25, until_ms=22_000.0, seed=seed + 50)
    sched.crash(8_000.0, victims)
    sched.rejoin(15_000.0, victims)
    sched.install(system)

    publishers = [a for a in range(N_NODES) if a not in set(victims)]
    events = []
    t = 1_000.0
    for _ in range(N_EVENTS):
        t += float(rng.exponential(800.0))
        ev = Event(scheme, list(rng.normal(3000, 400, 4) % 10000))
        events.append(ev)
        pub = publishers[int(rng.integers(0, len(publishers)))]
        system.sim.schedule_at(t, system.publish, pub, ev)

    system.run(until=60_000.0)
    system.stop_maintenance()
    system.stop_anti_entropy()
    system.run_until_idle()

    match = {
        id(ev): {(sid.nid, sid.iid) for s, sid in installed if s.matches(ev)}
        for ev in events
    }
    records = sorted(
        system.metrics.records.values(), key=lambda r: r.publish_time
    )
    assert len(records) == N_EVENTS
    for rec, ev in zip(records, events):
        got = [(d[0].nid, d[0].iid) for d in rec.deliveries]
        assert len(got) == len(set(got)), (
            f"event {rec.event_id} delivered twice to "
            f"{[g for g in got if got.count(g) > 1]}"
        )
        undeserved = set(got) - match[id(ev)]
        assert not undeserved, (
            f"event {rec.event_id} reached non-matching subscribers "
            f"{undeserved}"
        )
