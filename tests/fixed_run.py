"""The fixed best-effort run the deterministic cost gates measure:
calls per message (``tests/test_calls_per_message.py``) and bytes and
blocks per object (``tests/test_memory_budget.py``)."""

import numpy as np

from repro.core import (
    Attribute,
    Event,
    HyperSubConfig,
    HyperSubSystem,
    Scheme,
    Subscription,
)

N_NODES = 80
N_SUBS = 240
N_EVENTS = 60


def fixed_system() -> HyperSubSystem:
    """80 nodes, 240 clustered subscriptions installed, 60 events
    scheduled and not yet run: ``run_until_idle()`` is the event phase."""
    system = HyperSubSystem(
        num_nodes=N_NODES, config=HyperSubConfig(seed=5, code_bits=12)
    )
    scheme = Scheme("s", [Attribute(x, 0, 10_000) for x in "abcd"])
    system.add_scheme(scheme)
    rng = np.random.default_rng(11)
    for _ in range(N_SUBS):
        centre = rng.normal(3_000, 400, size=4) % 10_000
        width = rng.uniform(200, 900, size=4)
        system.subscribe(
            int(rng.integers(0, N_NODES)),
            Subscription.from_box(
                scheme,
                np.maximum(centre - width, 0.0).tolist(),
                np.minimum(centre + width, 10_000.0).tolist(),
            ),
        )
    system.finish_setup()
    events = [
        (int(rng.integers(0, N_NODES)), Event(scheme, point.tolist()))
        for point in rng.normal(3_000, 400, size=(N_EVENTS, 4)) % 10_000
    ]
    for k, (addr, event) in enumerate(events):
        system.sim.schedule_at(system.sim.now + 50.0 * k, system.publish, addr, event)
    return system
