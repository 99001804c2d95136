"""Load-balancing orchestration (Section 4).

Two mechanisms:

* **Zone-mapping rotation** is purely static -- it lives in
  :class:`~repro.core.subscheme.PubSubEntity` (each entity's zone keys
  are shifted by phi = hash(entity name)) and is toggled by
  ``HyperSubConfig.rotation``.

* **Dynamic subscription migration** is a per-node protocol implemented
  in :class:`~repro.core.node.PubSubNodeMixin` (probe -> threshold check
  -> per-arc migration -> summarising surrogate registration).  This
  module schedules it:

  - :func:`run_static_rounds` runs whole-network rounds in a quiescent
    phase (between installation and event publication), which is how
    the paper's figures are produced -- they measure event delivery
    *after* the balancer has acted;
  - :func:`start_periodic` arms the paper's "at run time, each node
    periodically samples the load on its neighbors" behaviour for
    experiments that need concurrent balancing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.system import HyperSubSystem


def run_static_rounds(
    system: "HyperSubSystem", rounds: int = 1, stagger_ms: float = 1.0
) -> None:
    """Run ``rounds`` sequential whole-network migration rounds.

    Nodes inside one round start staggered by ``stagger_ms`` so probe
    replies interleave realistically; the simulator is drained between
    rounds so every migration (and the surrogate registrations it
    triggers) completes before the next round samples loads.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    # Draining the simulator can never finish while periodic Chord
    # maintenance keeps rescheduling itself; pause it for the duration.
    paused = [node for node in system.nodes if node._running_maintenance]
    for node in paused:
        node.stop_maintenance()
    system.sim.run_until_idle()
    try:
        for _ in range(rounds):
            base = system.sim.now
            for i, node in enumerate(system.nodes):
                if node.alive():
                    system.sim.schedule_at(base + i * stagger_ms, node.lb_start_round)
            system.sim.run_until_idle()
    finally:
        for node in paused:
            if node.alive():
                node.start_maintenance()


def start_periodic(system: "HyperSubSystem") -> None:
    """Arm periodic per-node migration at ``migration_interval_ms``.

    Each node re-probes forever (while alive); intervals are staggered
    by node address to avoid synchronised probe storms.
    """
    interval = system.config.migration_interval_ms
    n = max(len(system.nodes), 1)

    def tick(addr: int) -> None:
        node = system.nodes[addr]
        if not node.alive():
            return
        node.lb_start_round()
        system.sim.schedule(interval, tick, addr)

    for addr, node in enumerate(system.nodes):
        offset = (addr / n) * interval
        system.sim.schedule(offset, tick, addr)


def imbalance_ratio(loads) -> float:
    """max/mean load -- the headline skew statistic for Figure 4 text."""
    import numpy as np

    arr = np.asarray(loads, dtype=np.float64)
    mean = arr.mean()
    if mean == 0:
        return 0.0
    return float(arr.max() / mean)
