"""The kitchen-sink integration test: every resilience mechanism at once.

A network suffering simultaneous crash-stop failures AND 3 % message
loss, running with replication (k=3), reliable transport, piggybacked
maintenance, the bands matching index and subschemes -- the full
production configuration.  After the ring heals, delivery to surviving
subscribers must be complete and exactly-once.
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


@pytest.fixture(scope="module")
def battlefield():
    cfg = HyperSubConfig(
        seed=3,
        code_bits=12,
        replication_factor=3,
        reliable_delivery=True,
        retransmit_timeout_ms=1_200.0,
        max_retries=5,
        piggyback_maintenance=True,
        matching_index="bands",
    )
    system = HyperSubSystem(num_nodes=60, config=cfg)
    scheme = Scheme("s", [Attribute(x, 0, 10000) for x in "abcd"])
    system.add_scheme(scheme, subschemes=[["a", "b"], ["c", "d"]])

    rng = np.random.default_rng(1)
    installed, addr_of = [], {}
    for _ in range(300):
        c = rng.normal(3000, 300, 4) % 10000
        w = rng.uniform(100, 700, 4)
        sub = Subscription.from_box(
            scheme,
            list(np.clip(c - w, 0, 10000)),
            list(np.clip(c + w, 0, 10000)),
        )
        addr = int(rng.integers(0, 60))
        sid = system.subscribe(addr, sub)
        installed.append((sub, sid))
        addr_of[sid] = addr
    system.finish_setup()

    for node in system.nodes:
        node.stabilize_interval_ms = 250.0
        node.rpc_timeout_ms = 1_000.0
        node.start_maintenance()

    # 6 failures, including the hottest surrogate, plus 3% packet loss.
    loads = system.node_loads()
    victims = {int(np.argmax(loads))}
    victims |= {int(v) for v in rng.choice(60, size=6, replace=False)}
    system.network.set_loss_rate(0.03, seed=9)
    for i, v in enumerate(sorted(victims)):
        system.sim.schedule_at(200.0 + 150.0 * i, system.nodes[v].fail)
    system.run(until=system.sim.now + 30_000.0)  # heal

    return system, scheme, installed, addr_of, victims, rng


def test_exactly_once_delivery_through_the_storm(battlefield):
    system, scheme, installed, addr_of, victims, rng = battlefield
    delivered = expected = dups = unexpected = 0
    for _ in range(40):
        pt = rng.normal(3000, 400, 4) % 10000
        ev = Event(scheme, list(pt))
        pub = int(rng.integers(0, 60))
        while pub in victims:
            pub = int(rng.integers(0, 60))
        eid = system.publish(pub, ev)
        system.run(until=system.sim.now + 25_000.0)
        rec = system.metrics.records[eid]
        got_list = [(d[0].nid, d[0].iid) for d in rec.deliveries]
        got = set(got_list)
        dups += len(got_list) - len(got)
        want = {
            (sid.nid, sid.iid)
            for s, sid in installed
            if s.matches(ev) and addr_of[sid] not in victims
        }
        delivered += len(got & want)
        expected += len(want)
        unexpected += len(got - want)
    assert expected > 150, "scenario must exercise real deliveries"
    assert dups == 0, "duplicates despite receiver-side dedup"
    assert unexpected == 0, "misdelivery under combined failures"
    assert delivered == expected, (
        f"lost {expected - delivered}/{expected} despite replication + "
        "reliable transport"
    )


def test_ring_healed(battlefield):
    system, _scheme, _installed, _addr_of, victims, _rng = battlefield
    live = [n for n in system.nodes if n.alive()]
    assert len(live) == 60 - len(victims)
    ids = sorted(n.node_id for n in live)
    for node in live:
        idx = ids.index(node.node_id)
        assert node.successors, "live node lost its successor list"
        assert node.successors[0][0] == ids[(idx + 1) % len(ids)]


def test_maintenance_stops_cleanly(battlefield):
    system, *_ = battlefield
    for node in system.nodes:
        node.stop_maintenance()
    # With maintenance off and retries bounded, the simulator drains.
    system.run_until_idle()
    for node in system.nodes:
        if node.alive():
            assert not node._rel_pending
