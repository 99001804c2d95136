"""Property tests: whatever the nemesis draws within budget is safe.

Two layers, mirroring the chaos campaign's contract
(docs/FAULTS.md, "Chaos campaigns"):

* **generator properties** -- every schedule the nemesis emits from an
  arbitrary (seed, round) builds, respects the budget's crash floors,
  protects the protected addresses, and heals by ``t_end`` (pure
  generator checks, so Hypothesis can afford many examples);
* **end-to-end survivability** -- running the durable+fifo stack under
  a nemesis schedule produces zero invariant violations and zero
  duplicate deliveries once everything heals.  This is the expensive
  oracle, so it runs few examples on a small fleet; the nightly
  campaign (``python -m repro chaos``) covers scale.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.chaos import chaos_budget, run_round
from repro.faults import ChaosBudget, ChaosNemesis, FaultSchedule

_N_NODES = 12
_N_EVENTS = 8


@given(seed=st.integers(0, 2**16), rnd=st.integers(0, 64))
@settings(max_examples=40, deadline=None)
def test_nemesis_schedules_respect_budget(seed, rnd):
    budget = ChaosBudget(protect=(0, 1, 2))
    nemesis = ChaosNemesis(_N_NODES, budget, seed=seed)
    spec = nemesis.generate_spec(rnd)
    assert spec
    sched = FaultSchedule.from_spec(spec)  # builds: all DSL validation
    assert sched.to_spec() == spec  # canonical: round-trips exactly

    heal_by = budget.t_end - budget.min_heal_ms
    down = set()
    for entry in spec:
        start = entry.get("at", entry.get("from"))
        end = entry.get("to", entry.get("at"))
        assert budget.t_start <= start <= heal_by
        assert end <= heal_by + 1e-9
        if "crash" in entry:
            assert not set(entry["crash"]) & set(budget.protect)
            down.update(entry["crash"])
        if "rejoin" in entry:
            down.difference_update(entry["rejoin"])
        if "flap" in entry:
            assert entry["flap"]["addr"] not in budget.protect
    assert not down, f"nodes {down} never rejoin before t_end"


def _assert_durable_round_survives(seed, rnd):
    nemesis = ChaosNemesis(
        _N_NODES, chaos_budget("durable"), seed=seed, replica_k=1
    )
    spec = nemesis.generate_spec(rnd)
    out = run_round(
        {
            "mode": "durable",
            "seed": seed,
            "round": rnd,
            "num_nodes": _N_NODES,
            "num_events": _N_EVENTS,
            "spec": spec,
        }
    )
    assert out["violations"] == [], (
        f"seed={seed} round={rnd} spec={spec}: {out['violations']}"
    )
    assert out["dup"] == 0
    assert out["log_left"] == 0


# Derandomized: the four draws are the same on every run, so tier-1 is
# decidable.  The draws this property has failed on live below as named
# regressions instead of being rediscovered at random by unrelated PRs.
@given(seed=st.integers(0, 2**16), rnd=st.integers(0, 8))
@settings(
    max_examples=4,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_durable_fifo_survives_any_nemesis_schedule(seed, rnd):
    """Within budget, durable+fifo promises zero violations and zero
    duplicate deliveries after heal -- for *any* nemesis draw."""
    _assert_durable_round_survives(seed, rnd)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ring invariant after heal — ROADMAP item 4",
)
@pytest.mark.parametrize(
    "seed, rnd",
    [
        pytest.param(233, 7, id="seed233-round7"),
        pytest.param(3382, 0, id="seed3382-round0"),
    ],
)
def test_known_ring_invariant_draws(seed, rnd):
    """Draws the random search found violating the Chord ring invariant
    after heal (both recorded in CHANGES.md)."""
    _assert_durable_round_survives(seed, rnd)
