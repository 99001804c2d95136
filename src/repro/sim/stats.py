"""Measurement plumbing: byte counters and distribution summaries.

The paper's cost metrics (Section 5.1):

* per-event **hops** -- maximum path length to reach all subscribers;
* per-event **latency** -- maximum delivery time;
* per-event **bandwidth cost** -- total bytes moved for one event;
* per-node **in/out bandwidth** -- bytes received/sent over a whole run.

:class:`NetworkStats` owns the per-node counters; per-event metrics are
accumulated by the pub/sub layer in :class:`repro.core.system.EventRecord`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.telemetry.registry import MetricsRegistry

#: Why a packet never reached a live handler.  ``dead_dst`` -- the
#: destination is unregistered or crashed; ``loss`` -- i.i.d. injected
#: message loss; ``partition`` -- src and dst are in different partition
#: groups; ``overflow`` -- the destination's bounded ingress queue was
#: full (finite-service model).  One aggregate ``net.dropped`` hid which
#: fault dropped a packet; the per-cause split keeps each mechanism's
#: contribution visible in ``dropped_by_cause`` and the run manifest.
DROP_CAUSES = ("dead_dst", "loss", "partition", "overflow")

#: Why the reliable transport permanently abandoned an event packet.
#: ``retries`` -- ack timeouts exhausted the retry budget with no
#: failover route; ``failover`` -- the reroute budget ran out (or the
#: sender died mid-failover); ``ttl`` -- the hop limit caught a routing
#: loop; ``shed`` -- admission control dropped a fire-and-forget packet
#: nobody would retransmit.  The aggregate ``transport.gave_up`` hid
#: which mechanism lost a delivery; the per-cause split lets the
#: guarantees experiment attribute exactly what durable mode recovers.
GIVE_UP_CAUSES = ("retries", "failover", "ttl", "shed")

#: Durable-delivery health counters (delivery-guarantees extension):
#: custody entries appended / retired by subscriber-level acks /
#: re-sent by the redelivery scan / evicted by the log budget, plus
#: out-of-order arrivals dropped by a full reorder buffer.  Created
#: eagerly so every manifest carries them (zero on best-effort runs).
DURABLE_COUNTERS = (
    "durable.appends",
    "durable.acked",
    "durable.redelivered",
    "durable.truncated",
    "durable.reorder_overflow",
)


class _CounterAttr:
    """An ``int`` attribute of :class:`NetworkStats` kept in the registry
    counter that ``NetworkStats.__init__`` stored under ``slot``: reading
    gives the count, assigning (``writable`` ones only) overwrites it."""

    def __init__(self, slot: str, doc: str = "", writable: bool = False) -> None:
        self.slot = slot
        self.writable = writable
        self.__doc__ = doc

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        return int(getattr(obj, self.slot).value)

    def __set__(self, obj, value: int) -> None:
        if not self.writable:
            raise AttributeError("read-only counter; use its record_* method")
        getattr(obj, self.slot).value = float(value)


class NetworkStats:
    """Per-node byte/message accounting for one simulation run.

    The reliable-transport health counters (``retransmissions``,
    ``gave_up``, ``gave_up_subids``) live in a
    :class:`~repro.telemetry.registry.MetricsRegistry` under the
    ``transport.*`` names rather than as ad-hoc attributes; the
    attribute API is preserved via properties.  Passing the telemetry
    session's registry makes them land in the run manifest for free.
    """

    def __init__(
        self, num_nodes: int, registry: Optional[MetricsRegistry] = None
    ) -> None:
        self.num_nodes = num_nodes
        self._zero_per_node()
        self.bytes_by_kind: Dict[str, float] = {}
        self.msgs_by_kind: Dict[str, int] = {}
        self.registry = registry if registry is not None else MetricsRegistry()
        #: reliable-transport health: packets resent after an ack timeout,
        #: and packets abandoned after exhausting retries *and* (when
        #: hop-failover is on) rerouting attempts.  Before these existed,
        #: exhausted hops vanished silently (src/repro/core/node.py's
        #: _rel_retry simply dropped the pending state).
        self._c_retrans = self.registry.counter("transport.retransmissions")
        self._c_gave_up = self.registry.counter("transport.gave_up")
        #: SubIDs riding on abandoned packets (deliveries at risk).
        self._c_gave_up_subids = self.registry.counter("transport.gave_up_subids")
        #: per-cause breakdown of the give-ups (see GIVE_UP_CAUSES).
        self._c_gave_up_cause = {
            cause: self.registry.counter(f"transport.gave_up.{cause}")
            for cause in GIVE_UP_CAUSES
        }
        #: durable-delivery custody-log health (zero when the mode is
        #: off), by short name (``"appends"`` for ``durable.appends``).
        self._c_durable = {
            name.split(".", 1)[1]: self.registry.counter(name)
            for name in DURABLE_COUNTERS
        }
        #: event entries Algorithm 5 discarded because the healing ring
        #: offered no next hop (or only a degenerate self-hop).
        self._c_unroutable = self.registry.counter("transport.unroutable")
        #: ``ps_busy`` NACKs honoured by senders (overload backpressure:
        #: each one rescheduled a retransmission with exponential backoff
        #: instead of consuming the retry budget).
        self._c_busy = self.registry.counter("transport.busy_backoffs")
        #: packets that never reached a live handler, total and by cause.
        self._c_dropped = self.registry.counter("net.dropped")
        self._c_drop_cause = {
            cause: self.registry.counter(f"net.dropped.{cause}")
            for cause in DROP_CAUSES
        }
        #: gray-failure injection accounting (chaos extension): packets
        #: the network delivered a second time, and packets that picked
        #: up adversarial reorder jitter.  Zero on healthy runs.
        self._c_duplicated = self.registry.counter("net.duplicated")
        self._c_reordered = self.registry.counter("net.reordered")
        #: event packets deliberately shed by admission control (each one
        #: was NACKed with ``ps_busy`` or accounted as a give-up -- never
        #: silently lost, mirroring the ``gave_up`` discipline).
        self._c_shed = self.registry.counter("faults.shed")
        #: iterative DHT lookups restarted from the origin after the
        #: routing-loop guard tripped -- an expected transient while the
        #: ring heals around failures, fatal only if it never converges.
        self._c_lookup_restarts = self.registry.counter("dht.lookup_restarts")
        #: lookups dropped after exhausting their restarts (the caller's
        #: callback never runs).
        self._c_lookup_abandoned = self.registry.counter("dht.lookup_abandoned")
        #: unregistrations that found nothing to remove on the surrogate
        #: (repository gone, or the copy was migrated / already removed).
        self._c_stale_unregister = self.registry.counter("install.stale_unregister")
        #: event entries that reached their node and found no subscription,
        #: marker or migrated store under that SubID (unsubscribed while
        #: the event was in flight, or the holder departed).
        self._c_stale_subid = self.registry.counter("delivery.stale_subid")
        #: reliable event packets acked again but not processed again:
        #: their ``(sender, epoch, rseq)`` had been seen (the first ack
        #: was lost and the sender retransmitted, or the network ghosted
        #: a copy).
        self._c_duplicate_packet = self.registry.counter("delivery.duplicate_packet")
        #: entries for a local subscription that had already been handed
        #: this event (hop failover re-groups SubIDs onto a fresh packet,
        #: which the packet-level dedup cannot recognise).
        self._c_duplicate_entry = self.registry.counter("delivery.duplicate_entry")
        #: entries whose SubID names a subscription or migrated store of
        #: another scheme than the event's.
        self._c_scheme_mismatch = self.registry.counter("delivery.scheme_mismatch")
        # Eagerly create the queue-depth gauges so every pub/sub run's
        # manifest carries them (REQUIRED_METRICS), even before the first
        # sample_telemetry() call.  ``queue.depth`` is the deepest
        # single-node ingress backlog at the latest sample;
        # ``queue.depth.peak`` is the deepest one seen anywhere over the
        # whole run (finite-service model).
        self.registry.gauge("queue.depth")
        self._g_queue_peak = self.registry.gauge("queue.depth.peak")

    # -- registry-backed counter attributes -----------------------------
    retransmissions = _CounterAttr("_c_retrans", writable=True)
    gave_up = _CounterAttr("_c_gave_up", writable=True)
    gave_up_subids = _CounterAttr("_c_gave_up_subids", writable=True)
    busy_backoffs = _CounterAttr("_c_busy", writable=True)
    shed = _CounterAttr("_c_shed", writable=True)
    lookup_restarts = _CounterAttr("_c_lookup_restarts", writable=True)
    dropped = _CounterAttr("_c_dropped", writable=True)
    lookup_abandoned = _CounterAttr(
        "_c_lookup_abandoned", "Lookups dropped after their last restart also looped."
    )
    stale_unregister = _CounterAttr(
        "_c_stale_unregister", "Unregistrations that found no stored copy to remove."
    )
    stale_subid = _CounterAttr(
        "_c_stale_subid", "Event entries for a SubID nobody here holds any more."
    )
    duplicate_packet = _CounterAttr(
        "_c_duplicate_packet", "Reliable event packets received (and acked) a second time."
    )
    duplicate_entry = _CounterAttr(
        "_c_duplicate_entry", "Entries for a subscription already handed this event."
    )
    scheme_mismatch = _CounterAttr(
        "_c_scheme_mismatch", "Entries whose SubID belongs to another scheme than the event."
    )
    duplicated = _CounterAttr(
        "_c_duplicated", "Packets the network ghost-delivered twice (duplicate fault)."
    )
    reordered = _CounterAttr(
        "_c_reordered", "Packets that picked up adversarial reorder jitter."
    )
    unroutable = _CounterAttr(
        "_c_unroutable", "Event entries dropped for want of a next hop (Algorithm 5)."
    )

    def record_lookup_abandoned(self) -> None:
        self._c_lookup_abandoned.inc()

    def record_stale_unregister(self) -> None:
        self._c_stale_unregister.inc()

    def record_stale_subid(self) -> None:
        self._c_stale_subid.inc()

    def record_duplicate_packet(self) -> None:
        self._c_duplicate_packet.inc()

    def record_duplicate_entry(self) -> None:
        self._c_duplicate_entry.inc()

    def record_scheme_mismatch(self) -> None:
        self._c_scheme_mismatch.inc()

    @property
    def dropped_by_cause(self) -> Dict[str, int]:
        """``{cause: count}`` over :data:`DROP_CAUSES` (all keys present)."""
        return {
            cause: int(ctr.value) for cause, ctr in self._c_drop_cause.items()
        }

    def record_drop(self, cause: str) -> None:
        """Account one dropped packet under ``cause`` (see DROP_CAUSES)."""
        self._c_dropped.inc()
        self._c_drop_cause[cause].inc()

    def record_duplicate(self) -> None:
        self._c_duplicated.inc()

    def record_reorder(self) -> None:
        self._c_reordered.inc()

    @property
    def gave_up_by_cause(self) -> Dict[str, int]:
        """``{cause: count}`` over :data:`GIVE_UP_CAUSES` (all keys present)."""
        return {
            cause: int(ctr.value)
            for cause, ctr in self._c_gave_up_cause.items()
        }

    def record_give_up(self, cause: str, n_subids: int) -> None:
        """Account one abandoned packet under ``cause`` (GIVE_UP_CAUSES)."""
        self._c_gave_up.inc()
        self._c_gave_up_cause[cause].inc()
        self._c_gave_up_subids.inc(n_subids)

    def record_unroutable(self) -> None:
        self._c_unroutable.inc()

    def record_durable(self, name: str, n: int = 1) -> None:
        """Bump one ``durable.*`` counter (see DURABLE_COUNTERS)."""
        self._c_durable[name].inc(n)

    @property
    def durable_counts(self) -> Dict[str, int]:
        """``{short name: count}`` for the ``durable.*`` counters."""
        return {name: int(ctr.value) for name, ctr in self._c_durable.items()}

    def note_queue_depth(self, depth: int) -> None:
        """Raise the run-wide ingress high-water mark (cheap: only a new
        per-node peak reaches here, so this is rare by construction)."""
        if depth > self._g_queue_peak.value:
            self._g_queue_peak.set(float(depth))

    def _zero_per_node(self) -> None:
        # Per-node accumulators are plain lists: ``record_send`` runs
        # once per packet and a NumPy scalar read-modify-write costs
        # several times a list slot's.  The array views below are built
        # on demand for the (rare) readers.
        n = self.num_nodes
        self._in_bytes = [0.0] * n
        self._out_bytes = [0.0] * n

    def record_send(self, src: int, dst: int, kind: str, size_bytes: int) -> None:
        self._out_bytes[src] += size_bytes
        self._in_bytes[dst] += size_bytes
        try:
            self.bytes_by_kind[kind] += size_bytes
            self.msgs_by_kind[kind] += 1
        except KeyError:
            self.bytes_by_kind[kind] = float(size_bytes)
            self.msgs_by_kind[kind] = 1

    # -- per-node views (snapshots; the accumulators are the lists) ------
    @property
    def in_bytes(self) -> np.ndarray:
        """Bytes received per node address (float64 snapshot)."""
        return np.array(self._in_bytes, dtype=np.float64)

    @property
    def out_bytes(self) -> np.ndarray:
        """Bytes sent per node address (float64 snapshot)."""
        return np.array(self._out_bytes, dtype=np.float64)

    @property
    def total_bytes(self) -> float:
        return float(sum(self._out_bytes))

    @property
    def total_msgs(self) -> int:
        return sum(self.msgs_by_kind.values())

    def reset(self) -> None:
        """Zero every counter (used between warm-up and measurement)."""
        self._zero_per_node()
        self.bytes_by_kind.clear()
        self.msgs_by_kind.clear()
        self.registry.reset("transport.")
        self.registry.reset("net.dropped")
        self.registry.reset("net.duplicated")
        self.registry.reset("net.reordered")
        self.registry.reset("faults.shed")
        self.registry.reset("durable.")
        self.registry.reset("dht.lookup_")
        self.registry.reset("install.stale_unregister")
        # by counter, not by the "delivery." prefix: a shared registry
        # keeps the delivery.hops / delivery.latency_ms histograms there
        for counter in (
            self._c_stale_subid, self._c_duplicate_packet,
            self._c_duplicate_entry, self._c_scheme_mismatch,
        ):
            counter.reset()
        self.registry.reset("queue.depth.peak")

    def bytes_for(self, prefixes: Iterable[str]) -> float:
        """Total bytes over all message kinds matching any prefix
        (e.g. ``("ps_ae_", "ps_handoff")`` isolates repair traffic)."""
        prefixes = tuple(prefixes)
        return sum(
            b for k, b in self.bytes_by_kind.items() if k.startswith(prefixes)
        )


@dataclass
class Distribution:
    """A finished sample with the summaries the figures report."""

    values: np.ndarray

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "Distribution":
        return cls(np.asarray(sorted(values), dtype=np.float64))

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return float(self.values.mean()) if self.n else 0.0

    @property
    def max(self) -> float:
        return float(self.values[-1]) if self.n else 0.0

    @property
    def min(self) -> float:
        return float(self.values[0]) if self.n else 0.0

    def percentile(self, q: float) -> float:
        if not self.n:
            return 0.0
        return float(np.percentile(self.values, q))

    def cdf(self, points: int = 100) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(x, F(x))`` suitable for plotting/printing a CDF.

        ``x`` are ``points`` evenly-spaced sample values spanning the
        observed range; ``F(x)`` is the empirical CDF evaluated there.
        """
        if not self.n:
            return np.array([]), np.array([])
        if self.values[0] == self.values[-1]:
            # Degenerate sample (n == 1, or all values equal):
            # ``np.linspace`` would collapse to one x repeated ``points``
            # times.  The honest CDF is a single step at that value.
            return np.array([self.values[0]]), np.array([1.0])
        xs = np.linspace(self.values[0], self.values[-1], points)
        fs = np.searchsorted(self.values, xs, side="right") / self.n
        return xs, fs

    def summary(self) -> Dict[str, float]:
        return {
            "n": self.n,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "max": self.max,
        }


def rank_desc(values: Sequence[float], top: int | None = None) -> List[float]:
    """Values sorted descending, truncated to ``top`` (Figure 4 style)."""
    out = sorted((float(v) for v in values), reverse=True)
    return out if top is None else out[:top]
