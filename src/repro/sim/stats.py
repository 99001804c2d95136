"""Measurement plumbing: byte counters and distribution summaries.

The paper's cost metrics (Section 5.1):

* per-event **hops** -- maximum path length to reach all subscribers;
* per-event **latency** -- maximum delivery time;
* per-event **bandwidth cost** -- total bytes moved for one event;
* per-node **in/out bandwidth** -- bytes received/sent over a whole run.

:class:`NetworkStats` owns one network's counts -- bytes per node and
per message kind, drops, retransmissions, give-ups, custody-log health
-- as plain numbers bumped in place; per-event metrics are accumulated
by the pub/sub layer in :class:`repro.core.system.EventRecord`.  Each
count has one owner: a telemetry session does not hold a second copy
but sums what its systems' stats read at their phase boundaries
(:meth:`repro.telemetry.session.TelemetrySession.publish_counts`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

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
#: out-of-order arrivals dropped by a full reorder buffer.  Always
#: present, so every manifest carries them (zero on best-effort runs).
DURABLE_COUNTERS = (
    "durable.appends",
    "durable.acked",
    "durable.redelivered",
    "durable.truncated",
    "durable.reorder_overflow",
)


#: The plain ``int`` counts of :class:`NetworkStats`, attribute ->
#: manifest name.  Callers bump them in place (``stats.shed += 1``).
COUNTER_NAMES = {
    # reliable-transport health: packets resent after an ack timeout, and
    # packets abandoned after exhausting retries *and* (when hop-failover
    # is on) rerouting attempts, with the SubIDs riding on them
    "retransmissions": "transport.retransmissions",
    "gave_up": "transport.gave_up",
    "gave_up_subids": "transport.gave_up_subids",
    # event entries Algorithm 5 discarded because the healing ring offered
    # no next hop (or only a degenerate self-hop)
    "unroutable": "transport.unroutable",
    # ``ps_busy`` NACKs honoured by senders (overload backpressure: each
    # rescheduled a retransmission with exponential backoff instead of
    # consuming the retry budget)
    "busy_backoffs": "transport.busy_backoffs",
    # packets that never reached a live handler (split in dropped_by_cause)
    "dropped": "net.dropped",
    # gray-failure injection (chaos extension): packets the network
    # delivered a second time, and packets that picked up adversarial
    # reorder jitter
    "duplicated": "net.duplicated",
    "reordered": "net.reordered",
    # event packets shed by admission control (each one was NACKed with
    # ``ps_busy`` or accounted as a give-up -- never silently lost)
    "shed": "faults.shed",
    # iterative DHT lookups restarted from the origin after the
    # routing-loop guard tripped, and those dropped after their last
    # restart also looped (the caller's callback never runs)
    "lookup_restarts": "dht.lookup_restarts",
    "lookup_abandoned": "dht.lookup_abandoned",
    # unregistrations that found no stored copy to remove on the surrogate
    "stale_unregister": "install.stale_unregister",
    # event entries that reached their node and found no subscription,
    # marker or migrated store under that SubID
    "stale_subid": "delivery.stale_subid",
    # reliable event packets acked again but not processed again (their
    # ``(sender, epoch, rseq)`` had been seen)
    "duplicate_packet": "delivery.duplicate_packet",
    # entries for a local subscription already handed this event (hop
    # failover re-groups SubIDs onto a fresh packet)
    "duplicate_entry": "delivery.duplicate_entry",
    # entries whose SubID names a subscription or migrated store of
    # another scheme than the event's
    "scheme_mismatch": "delivery.scheme_mismatch",
}


class NetworkStats:
    """Byte, message and fault counts of one network for one run.

    Every count is a plain number bumped in place and owned by this
    network alone: two systems never share one.  :meth:`counts` names
    each the way the run manifest does; a telemetry session sums those
    over its systems (docs/OBSERVABILITY.md, "One owner per count").
    """

    def __init__(self, num_nodes: int) -> None:
        self.num_nodes = num_nodes
        self.reset()

    def reset(self) -> None:
        """Zero every count (used between warm-up and measurement).

        The dicts are replaced, not cleared: a reader that keeps one
        across a reset keeps what it read."""
        # Per-node accumulators are plain lists: ``record_send`` runs
        # once per packet and a NumPy scalar read-modify-write costs
        # several times a list slot's.  The array views below are built
        # on demand for the (rare) readers.
        self._in_bytes = [0.0] * self.num_nodes
        self._out_bytes = [0.0] * self.num_nodes
        self.bytes_by_kind: Dict[str, float] = {}
        self.msgs_by_kind: Dict[str, int] = {}
        for attr in COUNTER_NAMES:
            setattr(self, attr, 0)
        #: ``{cause: count}`` over :data:`DROP_CAUSES` (all keys present)
        self.dropped_by_cause = dict.fromkeys(DROP_CAUSES, 0)
        #: ``{cause: count}`` over :data:`GIVE_UP_CAUSES` (all keys present)
        self.gave_up_by_cause = dict.fromkeys(GIVE_UP_CAUSES, 0)
        #: ``{short name: count}`` for the ``durable.*`` counters
        self.durable_counts = {
            name.split(".", 1)[1]: 0 for name in DURABLE_COUNTERS
        }
        #: deepest single-node ingress backlog seen (finite-service model)
        self.queue_peak = 0

    def counts(self) -> Dict[str, int]:
        """Every count under its manifest name (``queue_peak``, a
        high-water mark rather than a count, aside)."""
        out = {name: getattr(self, attr) for attr, name in COUNTER_NAMES.items()}
        for prefix, by_key in (
            ("net.dropped.", self.dropped_by_cause),
            ("transport.gave_up.", self.gave_up_by_cause),
            ("durable.", self.durable_counts),
        ):
            for key, n in by_key.items():
                out[prefix + key] = n
        return out

    def record_drop(self, cause: str) -> None:
        """Account one dropped packet under ``cause`` (see DROP_CAUSES)."""
        self.dropped += 1
        self.dropped_by_cause[cause] += 1

    def record_duplicate(self) -> None:
        self.duplicated += 1

    def record_reorder(self) -> None:
        self.reordered += 1

    def record_give_up(self, cause: str, n_subids: int) -> None:
        """Account one abandoned packet under ``cause`` (GIVE_UP_CAUSES)."""
        self.gave_up += 1
        self.gave_up_by_cause[cause] += 1
        self.gave_up_subids += n_subids

    def record_durable(self, name: str, n: int = 1) -> None:
        """Bump one ``durable.*`` counter (see DURABLE_COUNTERS)."""
        self.durable_counts[name] += n

    def note_queue_depth(self, depth: int) -> None:
        """Raise the run-wide ingress high-water mark (cheap: only a new
        per-node peak reaches here, so this is rare by construction)."""
        if depth > self.queue_peak:
            self.queue_peak = depth

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
