"""Fault-schedule injection and self-healing audit tools (extension).

The paper defers fault tolerance to future work; this package supplies
the scaffolding the robustness experiments need:

* :class:`FaultSchedule` -- a deterministic, seedable timeline of
  crash / rejoin / partition / loss / latency-spike / gray-failure
  faults driven by the simulator clock, kept as its declarative spec
  entries, each checked whole at build time (:class:`FaultScheduleError`);
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
from repro.faults.schedule import FaultSchedule, FaultScheduleError
from repro.faults.shrink import ShrinkResult, shrink_spec

__all__ = [
    "ChaosBudget",
    "ChaosNemesis",
    "FaultSchedule",
    "FaultScheduleError",
    "InvariantChecker",
    "InvariantReport",
    "ShrinkResult",
    "chain_safe_churn",
    "ring_order",
    "shrink_spec",
]
