"""Metrics registry: named counters and gauges.

The registry gives every quantity of a telemetry scope a *name*
(dotted, e.g. ``transport.retransmissions``, ``zone.occupancy``,
``node.load_imbalance``, ``repair.bytes``) and a uniform export path
into the run manifest.  It is a view, not an owner: the systems keep
their counts (``NetworkStats``, ``Metrics``) and gauges, and the
session writes them here at phase boundaries
(:meth:`repro.telemetry.session.TelemetrySession.publish_counts` and
``publish_gauges``).  Per-delivery values stay with their owner
(``EventRecord.deliveries``, ``deliver`` spans).

Two instrument kinds:

* :class:`Counter` -- tally that ``inc`` only raises (the session's
  view writes ``value`` directly, which a system's reset lowers);
* :class:`Gauge` -- last-written value (``set``).

Both support **sim-time series sampling**:
:meth:`MetricsRegistry.sample_all` snapshots every instrument at a
simulated timestamp, so a run's manifest can show e.g. the load
imbalance *over time* rather than only its final value.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


class Counter:
    """A named tally; ``inc`` refuses to lower it."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r}: cannot decrease")
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A named point-in-time value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}={self.value})"


class MetricsRegistry:
    """Name-indexed home for every instrument of one telemetry scope.

    ``counter`` / ``gauge`` are get-or-create, so any layer can publish
    into a shared registry without coordination::

        reg.counter("invariants.checks").inc()
        reg.gauge("node.load_imbalance").set(imb)
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        #: metric name -> [(sim time ms, value)] sampled series
        self.series: Dict[str, List[Tuple[float, float]]] = {}

    # -- instruments ----------------------------------------------------
    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            self._check_fresh(name)
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            self._check_fresh(name)
            g = self._gauges[name] = Gauge(name)
        return g

    def _check_fresh(self, name: str) -> None:
        if name in self._counters or name in self._gauges:
            raise ValueError(f"metric {name!r} already registered with another kind")

    def value(self, name: str) -> Optional[float]:
        """Current scalar value of a counter or gauge (None if unknown)."""
        inst = self._counters.get(name) or self._gauges.get(name)
        return None if inst is None else inst.value

    # -- sim-time series sampling ----------------------------------------
    def sample(self, name: str, t_ms: float) -> None:
        """Append one ``(t, value)`` point for a counter or gauge."""
        v = self.value(name)
        if v is None:
            raise KeyError(f"no counter or gauge named {name!r}")
        self.series.setdefault(name, []).append((float(t_ms), v))

    def sample_all(self, t_ms: float) -> None:
        """Snapshot every counter and gauge at simulated time ``t_ms``."""
        for name in list(self._counters) + list(self._gauges):
            self.sample(name, t_ms)

    # -- export -----------------------------------------------------------
    def summary(self) -> Dict[str, Dict]:
        """The manifest's ``metrics`` block: final values."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
        }

    def as_dict(self) -> Dict[str, Dict]:
        """Full dump (summary + sampled series), for ``metrics.json``."""
        out = self.summary()
        out["series"] = {
            n: [[t, v] for t, v in pts] for n, pts in sorted(self.series.items())
        }
        return out
