"""The fixed runs the deterministic cost gates measure.

:func:`fixed_system` is best-effort: calls per message
(``tests/test_calls_per_message.py``) and bytes and blocks per object
(``tests/test_memory_budget.py``).  :func:`fixed_durable_system` is
durable + FIFO under loss: scheduler dispatches per cause
(``tests/test_guarantees.py``) and calls per custody entry
(``tests/test_durable_calls.py``).  :func:`fixed_rendezvous_system` is
best-effort with shallow zones visited directly and half its
subscriptions wildcard on one attribute: rendezvous scans per event
(``tests/test_rendezvous_scans.py``)."""

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


N_DURABLE_NODES = 60
N_DURABLE_EVENTS = 120


def fixed_durable_system() -> HyperSubSystem:
    """60 nodes, one subscription each, durable + FIFO delivery under
    3 % loss, custody redelivery started and 120 events scheduled 25 ms
    apart: :func:`run_durable` is the event phase."""
    cfg = HyperSubConfig(
        seed=16, code_bits=12, reliable_delivery=True,
        retransmit_timeout_ms=1_000.0, max_retries=2,
        delivery_mode="durable", ordering="fifo",
        direct_rendezvous_levels=21, durable_redelivery_ms=2_000.0,
        durable_rejoin_grace_ms=2_000.0,
    )
    system = HyperSubSystem(num_nodes=N_DURABLE_NODES, config=cfg)
    scheme = Scheme("s", [Attribute(x, 0, 1000) for x in "ab"])
    system.add_scheme(scheme)
    for a in range(N_DURABLE_NODES):
        system.subscribe(
            a,
            Subscription.from_box(
                scheme, [13.0 * a % 700, 50.0], [13.0 * a % 700 + 250.0, 950.0]
            ),
        )
    system.finish_setup()
    system.network.set_loss_rate(0.03, seed=16)
    system.start_durable_redelivery()
    for i in range(N_DURABLE_EVENTS):
        system.sim.schedule_at(
            25.0 * i, system.publish, i % N_DURABLE_NODES,
            Event(scheme, [37.0 * i % 1000, 500.0]),
        )
    return system


def run_durable(system: HyperSubSystem) -> None:
    """The event phase of :func:`fixed_durable_system`: 40 s of traffic
    and redelivery, then drained with redelivery stopped."""
    system.run(until=40_000.0)
    system.stop_durable_redelivery()
    system.run_until_idle()


N_SCAN_NODES = 64
N_SCAN_SUBS = 200
N_SCAN_EVENTS = 80


def fixed_rendezvous_system() -> HyperSubSystem:
    """64 nodes, best-effort, the default ``direct_rendezvous_levels``
    (8, so every event visits the occupied shallow zones directly), 200
    subscriptions -- every second one leaves one attribute at the full
    domain (the paper's Section 3.5 case) -- and 80 uniform events
    scheduled: ``run_until_idle()`` is the event phase.  A shallow
    zone's key is the last id of its arc, so it shares that key with its
    rightmost descendants, and a visit to it scans them all."""
    system = HyperSubSystem(
        num_nodes=N_SCAN_NODES, config=HyperSubConfig(seed=23, code_bits=12)
    )
    scheme = Scheme("w", [Attribute(x, 0, 1_000) for x in "abc"])
    system.add_scheme(scheme)
    rng = np.random.default_rng(23)
    for k in range(N_SCAN_SUBS):
        centre = rng.uniform(0, 1_000, size=3)
        width = rng.uniform(20, 150, size=3)
        lows = np.maximum(centre - width, 0.0)
        highs = np.minimum(centre + width, 1_000.0)
        if k % 2:
            lows[k % 3], highs[k % 3] = 0.0, 1_000.0
        system.subscribe(
            int(rng.integers(0, N_SCAN_NODES)),
            Subscription.from_box(scheme, lows.tolist(), highs.tolist()),
        )
    system.finish_setup()
    for k, point in enumerate(rng.uniform(0, 1_000, size=(N_SCAN_EVENTS, 3))):
        system.sim.schedule_at(
            system.sim.now + 40.0 * k, system.publish,
            int(rng.integers(0, N_SCAN_NODES)), Event(scheme, point.tolist()),
        )
    return system
