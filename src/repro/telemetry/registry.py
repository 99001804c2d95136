"""Metrics registry: named counters, gauges and histograms.

The registry gives every quantity of a telemetry scope a *name*
(dotted, e.g. ``transport.retransmissions``, ``zone.occupancy``,
``node.load_imbalance``, ``repair.bytes``) and a uniform export path
into the run manifest.  For a network's counts it is a view, not the
owner: ``NetworkStats`` keeps those, and the session writes their sum
over its systems here at phase boundaries
(:meth:`repro.telemetry.session.TelemetrySession.publish_counts`).

Three instrument kinds:

* :class:`Counter` -- tally that ``inc`` only raises (the session's
  view writes ``value`` directly, which a system's reset lowers);
* :class:`Gauge` -- last-written value (``set`` / ``add``);
* :class:`Histogram` -- sample accumulator with percentile summaries
  (``observe``).

Counters and gauges additionally support **sim-time series sampling**:
:meth:`MetricsRegistry.sample_all` snapshots every instrument at a
simulated timestamp, so a run's manifest can show e.g. the load
imbalance *over time* rather than only its final value.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np


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

    def add(self, delta: float) -> None:
        self.value += delta

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """A named sample accumulator with distribution summaries."""

    __slots__ = ("name", "values")

    def __init__(self, name: str) -> None:
        self.name = name
        self.values: List[float] = []

    def observe(self, value: float) -> None:
        self.values.append(float(value))

    @property
    def n(self) -> int:
        return len(self.values)

    def summary(self) -> Dict[str, float]:
        if not self.values:
            return {"n": 0, "mean": 0.0, "p50": 0.0, "p90": 0.0,
                    "p99": 0.0, "max": 0.0}
        arr = np.asarray(self.values, dtype=np.float64)
        return {
            "n": int(arr.size),
            "mean": float(arr.mean()),
            "p50": float(np.percentile(arr, 50)),
            "p90": float(np.percentile(arr, 90)),
            "p99": float(np.percentile(arr, 99)),
            "max": float(arr.max()),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name}, n={self.n})"


class MetricsRegistry:
    """Name-indexed home for every instrument of one telemetry scope.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create, so any
    layer can publish into a shared registry without coordination::

        reg.counter("transport.retransmissions").inc()
        reg.gauge("node.load_imbalance").set(imb)
        reg.histogram("delivery.hops").observe(h)
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
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

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            self._check_fresh(name)
            h = self._histograms[name] = Histogram(name)
        return h

    def _check_fresh(self, name: str) -> None:
        if (
            name in self._counters
            or name in self._gauges
            or name in self._histograms
        ):
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
        """The manifest's ``metrics`` block: final values + histogram stats."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.summary() for n, h in sorted(self._histograms.items())
            },
        }

    def as_dict(self) -> Dict[str, Dict]:
        """Full dump (summary + sampled series), for ``metrics.json``."""
        out = self.summary()
        out["series"] = {
            n: [[t, v] for t, v in pts] for n, pts in sorted(self.series.items())
        }
        return out
