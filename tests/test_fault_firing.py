"""What a fault schedule does when it fires, pinned entry by entry.

One entry of every declarative spec key is installed on a 16-node
system under a telemetry session.  The test pins the ``faults.<name>``
counters, the ``fault`` spans (time, name, addrs) in firing order, the
``describe()`` timeline and ``len()``: the record a schedule keeps may
change shape, what it fires may not.
"""

import numpy as np
import pytest

from repro.core import (
    Attribute,
    HyperSubConfig,
    HyperSubSystem,
    Scheme,
    Subscription,
)
from repro.faults import FaultSchedule
from repro.faults.schedule import SPEC_KEYS
from repro.telemetry import TelemetrySession, set_session

#: One entry per spec key; every window but the flap closes at 4 s.
SPEC = [
    {"at": 1_000.0, "crash": [3, 7]},
    {"at": 9_000.0, "rejoin": [3, 7]},
    {"from": 1_000.0, "to": 4_000.0, "partition": {1: 1, 0: 0}},
    {"from": 1_000.0, "to": 4_000.0, "loss": 0.2, "seed": 9},
    {"from": 1_000.0, "to": 4_000.0, "latency": 3.0},
    {"from": 1_000.0, "to": 4_000.0, "storm": {"addr": 2, "rate": 0.01}},
    {"from": 1_000.0, "to": 4_000.0, "slow": {"addrs": [1, 2], "factor": 0.25}},
    {
        "from": 1_000.0, "to": 4_000.0,
        "asym_partition": {"src": [0, 1], "dst": [8, 9]},
    },
    {"from": 1_000.0, "to": 4_000.0, "duplicate": 0.3, "seed": 4},
    {"from": 1_000.0, "to": 4_000.0, "reorder": 150.0, "seed": 4},
    {"from": 1_000.0, "to": 9_000.0, "flap": {"addr": 5, "period": 2_000.0}},
]

#: (t, fault, addrs) of every ``fault`` span, in firing order.
SPANS = [
    (1_000.0, "crash", [3, 7]),
    (1_000.0, "partition", []),
    (1_000.0, "loss", []),
    (1_000.0, "latency", []),
    (1_000.0, "storm", [2]),
    (1_000.0, "slow", [1, 2]),
    (1_000.0, "asym_partition", [0, 1]),
    (1_000.0, "duplicate", []),
    (1_000.0, "reorder", []),
    (1_000.0, "flap", [5]),
    (4_000.0, "heal_partition", []),
    (4_000.0, "clear_loss", []),
    (4_000.0, "clear_latency", []),
    (4_000.0, "clear_slow", [1, 2]),
    (4_000.0, "heal_asym_partition", []),
    (4_000.0, "clear_duplicate", []),
    (4_000.0, "clear_reorder", []),
    (9_000.0, "rejoin", [3, 7]),
]

#: ``faults.<name>`` counters: ``len(addrs) or 1`` per firing.
COUNTERS = {
    "faults.asym_partition": 2,
    "faults.clear_duplicate": 1,
    "faults.clear_latency": 1,
    "faults.clear_loss": 1,
    "faults.clear_reorder": 1,
    "faults.clear_slow": 2,
    "faults.crash": 2,
    "faults.duplicate": 1,
    "faults.flap": 1,
    "faults.heal_asym_partition": 1,
    "faults.heal_partition": 1,
    "faults.latency": 1,
    "faults.loss": 1,
    "faults.partition": 1,
    "faults.rejoin": 2,
    "faults.reorder": 1,
    "faults.slow": 2,
    "faults.storm": 1,
}

DESCRIBE = """\
t=1000ms crash [3, 7]
t=1000ms partition {0: 0, 1: 1}
t=1000ms loss rate=0.200
t=1000ms latency x3
t=1000ms storm addr=2 rate=0.01/ms until=4000ms
t=1000ms slow [1, 2] x0.25
t=1000ms asym_partition [0, 1] -/-> [8, 9]
t=1000ms duplicate rate=0.300
t=1000ms reorder window=150ms
t=1000ms flap addr=5 period=2000ms until=9000ms
t=4000ms heal_partition
t=4000ms clear_loss
t=4000ms clear_latency
t=4000ms clear_slow [1, 2]
t=4000ms heal_asym_partition
t=4000ms clear_duplicate
t=4000ms clear_reorder
t=9000ms rejoin [3, 7]"""


@pytest.fixture
def session(tmp_path):
    sess = TelemetrySession(tmp_path / "out", label="faults")
    set_session(sess)
    yield sess
    set_session(None)


def _system() -> HyperSubSystem:
    system = HyperSubSystem(num_nodes=16, config=HyperSubConfig(seed=3, code_bits=12))
    scheme = Scheme("s", [Attribute(x, 0, 10000) for x in "ab"])
    system.add_scheme(scheme)
    rng = np.random.default_rng(1)
    for _ in range(32):
        lo = rng.uniform(0, 9000, size=2)
        sub = Subscription.from_box(scheme, list(lo), list(lo + 1000))
        system.subscribe(int(rng.integers(0, 16)), sub)
    system.finish_setup()
    return system


def test_spec_covers_every_key():
    keys = {k for e in SPEC for k in e if k not in ("at", "from", "to", "seed")}
    assert keys == set(SPEC_KEYS)


def test_every_key_fires_its_counters_and_spans(session):
    system = _system()
    sched = FaultSchedule.from_spec(SPEC)
    assert sched.describe() == DESCRIBE
    assert len(sched) == len(SPANS)
    sched.install(system)
    system.run(until=12_000.0)
    spans = [
        (s.t, s.attrs["fault"], s.attrs["addrs"])
        for s in session.tracer.spans
        if s.kind == "fault"
    ]
    assert spans == SPANS
    counters = {
        name: value
        for name, value in session.registry.summary()["counters"].items()
        if name.startswith("faults.")
    }
    assert counters == COUNTERS
    # the flap healed by its window's end, the crashed pair rejoined
    assert all(system.nodes[a].alive() for a in (3, 5, 7))
