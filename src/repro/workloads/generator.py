"""Workload driver: turns a :class:`WorkloadSpec` into subscriptions,
events and a publication schedule.

Event values follow the paper's construction: a Zipf rank is scaled to
the unit interval and shifted so its mass sits at the dimension's data
hotspot (wrap-around keeps the distribution inside the domain).
Subscription range *centres* reuse the data distribution; range *sizes*
are Zipf-distributed up to ``max_range_frac`` of the domain.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

import numpy as np

from repro.core.event import Event
from repro.core.scheme import Scheme
from repro.core.subscription import Subscription
from repro.workloads.spec import WorkloadSpec
from repro.workloads.zipf import ZipfSampler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.system import HyperSubSystem


class WorkloadGenerator:
    """Deterministic (seeded) generator for one workload spec."""

    def __init__(self, spec: WorkloadSpec, seed: int = 1) -> None:
        self.spec = spec
        self.scheme: Scheme = spec.build_scheme()
        self.rng = np.random.default_rng(seed)
        self._data_samplers = [
            ZipfSampler(spec.zipf_levels, a.data_skew, self.rng)
            for a in spec.attributes
        ]
        self._size_samplers = [
            ZipfSampler(spec.zipf_levels, a.size_skew, self.rng)
            for a in spec.attributes
        ]

    # ------------------------------------------------------------------
    # Value sampling
    # ------------------------------------------------------------------
    def _data_value(self, dim: int) -> float:
        """One event-distribution value on dimension ``dim``."""
        a = self.spec.attributes[dim]
        u = self._data_samplers[dim].unit_sample()
        return a.min + ((a.data_hotspot + u) % 1.0) * a.span

    def _range_size(self, dim: int) -> float:
        a = self.spec.attributes[dim]
        u = self._size_samplers[dim].unit_sample()
        frac = (a.size_hotspot + u) % 1.0
        return frac * a.max_range_frac * a.span

    # ------------------------------------------------------------------
    # Objects
    # ------------------------------------------------------------------
    def event(self) -> Event:
        values = [self._data_value(d) for d in range(self.spec.dimensions)]
        return Event(self.scheme, values)

    def subscription(self) -> Subscription:
        """Template subscription: data-distributed centre, Zipf size."""
        lows: List[float] = []
        highs: List[float] = []
        for d in range(self.spec.dimensions):
            a = self.spec.attributes[d]
            centre = self._data_value(d)
            half = self._range_size(d) / 2.0
            lows.append(max(a.min, centre - half))
            highs.append(min(a.max, centre + half))
        return Subscription.from_box(self.scheme, lows, highs)

    # ------------------------------------------------------------------
    # System drivers
    # ------------------------------------------------------------------
    def populate(self, system: "HyperSubSystem") -> List[Tuple[Subscription, object]]:
        """Install ``subs_per_node`` subscriptions on every node.

        Mirrors the paper's setup ("the simulation starts by
        initializing subscriptions on each node in the network").
        Returns ``[(subscription, subid), ...]`` for oracles/tests.
        """
        installed = []
        for addr in range(len(system.nodes)):
            for _ in range(self.spec.subs_per_node):
                sub = self.subscription()
                installed.append((sub, system.subscribe(addr, sub)))
        return installed

    def schedule_events(
        self,
        system: "HyperSubSystem",
        count: int | None = None,
        start_ms: float | None = None,
    ) -> int:
        """Schedule Poisson event publications from random nodes.

        "We schedule [...] events generated on randomly chosen nodes.
        The interarrival time of these events is exponentially
        distributed."  Returns the number scheduled.
        """
        n = count if count is not None else self.spec.num_events
        t = start_ms if start_ms is not None else system.sim.now
        num_nodes = len(system.nodes)
        for _ in range(n):
            t += float(self.rng.exponential(self.spec.mean_interarrival_ms))
            addr = int(self.rng.integers(0, num_nodes))
            system.schedule_publish(t, addr, self.event())
        return n
