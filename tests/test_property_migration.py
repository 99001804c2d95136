"""Property test: migration never changes what gets delivered.

Hypothesis drives random skewed workloads and migration parameters;
after any number of balancing rounds the delivered set must equal the
brute-force match set, and real subscriptions must be conserved.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    Attribute,
    Event,
    HyperSubConfig,
    HyperSubSystem,
    Scheme,
    Subscription,
)

N_NODES = 25
DOMAIN = 1000.0

params = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 10_000),
        "delta": st.sampled_from([0.0, 0.1, 0.5, 2.0]),
        "acceptors": st.integers(1, 6),
        "rounds": st.integers(1, 3),
        "n_subs": st.integers(10, 120),
        "hotspot": st.floats(0.1, 0.9),
    }
)


@given(p=params)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_migration_preserves_delivery_and_conserves_subs(p):
    cfg = HyperSubConfig(
        seed=3,
        code_bits=12,
        migration_delta=p["delta"],
        migration_max_acceptors=p["acceptors"],
    )
    system = HyperSubSystem(num_nodes=N_NODES, config=cfg)
    scheme = Scheme("s", [Attribute("x", 0, DOMAIN), Attribute("y", 0, DOMAIN)])
    system.add_scheme(scheme)

    rng = np.random.default_rng(p["seed"])
    centre = p["hotspot"] * DOMAIN
    installed = []
    for _ in range(p["n_subs"]):
        c = rng.normal(centre, 40, 2) % DOMAIN
        w = rng.uniform(5, 80, 2)
        lows = np.clip(c - w, 0, DOMAIN)
        highs = np.clip(c + w, 0, DOMAIN)
        sub = Subscription.from_box(scheme, list(lows), list(highs))
        installed.append((sub, system.subscribe(int(rng.integers(0, N_NODES)), sub)))
    system.finish_setup()

    def real_subs():
        return sum(n.stored_subscription_count("sub") for n in system.nodes)

    before = real_subs()
    system.run_migration_rounds(p["rounds"])
    assert real_subs() == before, "migration lost or duplicated subscriptions"

    for _ in range(5):
        pt = rng.normal(centre, 60, 2) % DOMAIN
        ev = Event(scheme, list(pt))
        eid = system.publish(int(rng.integers(0, N_NODES)), ev)
        system.run_until_idle()
        rec = system.metrics.records[eid]
        got = sorted((d[0].nid, d[0].iid) for d in rec.deliveries)
        expect = sorted(
            (sid.nid, sid.iid) for sub, sid in installed if sub.matches(ev)
        )
        assert got == expect
