"""Discrete event-driven, packet-level network simulator.

This package is the reproduction's substitute for p2psim (the C++
simulator the paper runs on).  It provides:

* :class:`~repro.sim.engine.Simulator` -- a deterministic discrete-event
  scheduler (time unit: milliseconds).
* :class:`~repro.sim.network.Network` -- a packet-level message fabric
  with per-node byte accounting.
* :mod:`~repro.sim.topology` -- latency models, including the synthetic
  King-style topology used throughout the evaluation.
* :mod:`~repro.sim.stats` -- counters and distribution helpers.
"""

from repro.sim.engine import Simulator
from repro.sim.messages import Message
from repro.sim.network import Network, SimNode
from repro.sim.stats import NetworkStats
from repro.sim.topology import (
    Topology,
    ConstantTopology,
    ExplicitTopology,
    KingLikeTopology,
)

__all__ = [
    "Simulator",
    "Message",
    "Network",
    "SimNode",
    "NetworkStats",
    "Topology",
    "ConstantTopology",
    "ExplicitTopology",
    "KingLikeTopology",
]
