"""Fault-schedule injection and self-healing audit tools (extension).

The paper defers fault tolerance to future work; this package supplies
the scaffolding the robustness experiments need:

* :class:`FaultSchedule` -- a deterministic, seedable timeline of
  crash / rejoin / partition / loss / latency-spike / gray-failure
  actions driven by the simulator clock, with build-time validation
  (:class:`FaultScheduleError`) and a round-trippable declarative spec;
* :class:`ChaosNemesis` / :class:`ChaosBudget` -- seeded random
  schedule generation within safety floors (chaos campaigns), and
  :func:`chain_safe_churn`, the churn draw that spares every replica
  chain (churn experiments);
* :func:`shrink_spec` / :class:`ShrinkResult` -- ddmin + parameter
  shrinking of failing schedules to minimal replayable form;
* :class:`InvariantChecker` / :class:`InvariantReport` -- global-
  knowledge audits of ring consistency, zone-responsibility coverage
  and replica-count floors, runnable mid-simulation.
"""

from repro.faults.chaos import (
    ChaosBudget,
    ChaosNemesis,
    chain_safe_churn,
    ring_order,
)
from repro.faults.invariants import InvariantChecker, InvariantReport
from repro.faults.schedule import (
    FaultAction,
    FaultSchedule,
    FaultScheduleError,
)
from repro.faults.shrink import ShrinkResult, shrink_spec

__all__ = [
    "ChaosBudget",
    "ChaosNemesis",
    "FaultAction",
    "FaultSchedule",
    "FaultScheduleError",
    "InvariantChecker",
    "InvariantReport",
    "ShrinkResult",
    "chain_safe_churn",
    "ring_order",
    "shrink_spec",
]
