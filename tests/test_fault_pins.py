"""Pinned outputs of the fault experiments at small, fixed sizes.

Each fault experiment (G1, R2, R3, C1, R1, D1) is run at a fixed small
size and its ``render()`` text is compared with a committed file under
``tests/data/fault_pins/``; the chaos campaign pins the ``run_round``
digests of two rounds per mode instead.  Everything in these outputs is
simulated (no wall time), so any change to a number, a table column or
a shape-check line is a change in what the run did or reports.

A change that moves a pin on purpose re-records it and says why in
CHANGES.md, the rule ``tests/test_wire_identity.py`` follows::

    PYTHONPATH=src python tests/test_fault_pins.py --rerecord [NAME ...]
"""

import json
import sys
from pathlib import Path

import pytest

PIN_DIR = Path(__file__).parent / "data" / "fault_pins"

#: The chaos rounds pinned: rounds 0-1 of both modes, seed 42.
CHAOS_ROUNDS = [
    {"mode": mode, "seed": 42, "round": rnd, "num_nodes": 16, "num_events": 16}
    for mode in ("durable", "best-effort")
    for rnd in (0, 1)
]


def _g1() -> str:
    from repro.experiments import guarantees

    return guarantees.run(30, 30, jobs=1).render()


def _r2() -> str:
    from repro.experiments import recovery

    return recovery.run(60, 60).render()


def _r3() -> str:
    from repro.experiments import overload

    return overload.run(60, 60).render()


def _c1() -> str:
    from repro.experiments import churn

    return churn.run(60, 40, fail_fractions=(0.0, 0.2), seeds=(1,)).render()


def _r1() -> str:
    from repro.experiments import reliability

    return reliability.run(40, 40, loss_rates=(0.0, 0.1)).render()


def _d1() -> str:
    from repro.experiments import dynamic

    return dynamic.run(
        40, subs_per_phase=60, phases=3, phase_ms=10_000.0
    ).render()


def _chaos() -> str:
    from repro.experiments.chaos import run_round

    digests = {
        f"{t['mode']}/round{t['round']}": run_round(dict(t))["digest"]
        for t in CHAOS_ROUNDS
    }
    return json.dumps(digests, indent=2, sort_keys=True) + "\n"


#: pin name -> (producer, file name)
PINS = {
    "g1": (_g1, "g1_guarantees.txt"),
    "r2": (_r2, "r2_recovery.txt"),
    "r3": (_r3, "r3_overload.txt"),
    "c1": (_c1, "c1_churn.txt"),
    "r1": (_r1, "r1_reliability.txt"),
    "d1": (_d1, "d1_dynamic.txt"),
    "chaos": (_chaos, "chaos_digests.json"),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_output_matches_pin(name, monkeypatch):
    monkeypatch.delenv("REPRO_SCALE", raising=False)
    monkeypatch.delenv("REPRO_NODES", raising=False)
    monkeypatch.delenv("REPRO_EVENTS", raising=False)
    produce, fname = PINS[name]
    expected = (PIN_DIR / fname).read_text()
    assert produce().rstrip("\n") == expected.rstrip("\n")


def _rerecord(names) -> None:
    PIN_DIR.mkdir(parents=True, exist_ok=True)
    for name in names or sorted(PINS):
        produce, fname = PINS[name]
        text = produce()
        if not text.endswith("\n"):
            text += "\n"
        (PIN_DIR / fname).write_text(text)
        print(f"re-recorded {name} -> {PIN_DIR / fname}")


if __name__ == "__main__":
    if "--rerecord" not in sys.argv[1:]:
        sys.exit(__doc__)
    _rerecord([a for a in sys.argv[1:] if a != "--rerecord"])
