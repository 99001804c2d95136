"""System configuration.

Defaults mirror the paper's simulation setup (Section 5.1): Chord with
PNS(16), 64-bit identifiers, 20 bits of zone code, zone-mapping
rotation on, load-balancing probing level 1 and threshold factor
delta = 0.1.  Dynamic migration runs only when a caller starts it
(``HyperSubSystem.run_migration_rounds`` / ``start_periodic_migration``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.zones import ZoneGeometry
from repro.dht.chord import DEFAULT_SUCC_LIST


@dataclass
class HyperSubConfig:
    """Tunables for one :class:`~repro.core.system.HyperSubSystem`."""

    #: Zone-code base beta (the paper sweeps 2 and 4).
    base: int = 2
    #: Identifier bits reserved for zone codes ("the first 20 bits").
    code_bits: int = 20
    #: Proximity neighbour selection for Chord fingers (Chord-PNS).
    pns: bool = True
    #: Zone-mapping rotation (static load balancing, Section 4).
    rotation: bool = True

    # -- dynamic subscription migration (Section 4) --------------------
    #: Threshold factor delta: overloaded when L > avg * (1 + delta).
    migration_delta: float = 0.1
    #: Probing level P_l: 1 = direct neighbours, 2 = plus their neighbours.
    migration_probe_level: int = 1
    #: Maximum number of acceptor nodes k per migration.
    migration_max_acceptors: int = 4
    #: Interval between periodic migration rounds (simulated ms); only
    #: used when periodic balancing is started explicitly.
    migration_interval_ms: float = 10_000.0

    # -- delivery topology ----------------------------------------------
    #: R: zones at levels < R are *visited directly* by every event (one
    #: extra rendezvous entry per level) instead of being reached through
    #: the summary-filter cascade, and correspondingly push no surrogate
    #: subscriptions toward the leaves.  R = 0 is the paper's Algorithm 4
    #: verbatim (single leaf rendezvous + full cascade).  Delivery
    #: results are identical for any R; the knob trades O(R) extra
    #: per-event entries against the cascade's state blow-up: shallow
    #: zones' bounding-box filters merge unrelated subscriptions into
    #: huge boxes whose subdivisions reach an enormous number of leaf
    #: zones.  Setting R to ``max_level`` disables the cascade entirely
    #: (every ancestor visited directly) -- useful as an ablation.
    #: The default of 8 keeps installation state bounded on any
    #: workload; set 0 to run Algorithm 4 literally (the ablation
    #: benchmark demonstrates the delivered events are identical).
    direct_rendezvous_levels: int = 8

    # -- reliable event transport (extension) ----------------------------
    #: Per-hop acknowledgement + retransmission for event-delivery
    #: packets.  The paper's transport is fire-and-forget (its simulator
    #: never drops packets); with message loss injected
    #: (``Network.set_loss_rate``) this recovers at-least-once delivery,
    #: with receiver-side de-duplication keeping it exactly-once at the
    #: application.  Retransmissions are charged as fresh bytes.
    reliable_delivery: bool = False
    #: How long a hop waits for an ack before retransmitting (ms).
    retransmit_timeout_ms: float = 2_000.0
    #: Retransmissions per packet before giving up on the hop.
    max_retries: int = 3

    # -- self-healing (extension) ----------------------------------------
    #: Hop-failover rerouting: when a reliable event packet exhausts its
    #: retries, the dead next hop is evicted from the local routing
    #: tables and the packet's SubIDs are re-grouped and re-forwarded
    #: via an alternate finger/successor (after ``failover_backoff_ms``,
    #: giving ring maintenance a beat to converge) instead of being
    #: silently dropped.  Requires ``reliable_delivery``.
    hop_failover: bool = False
    #: Delay before a failover reroute is attempted (ms).
    failover_backoff_ms: float = 2_000.0
    #: Reroute attempts per packet lineage before giving up for good
    #: (counted in ``NetworkStats.gave_up``).
    failover_max_attempts: int = 3

    # -- finite service & overload protection (extension) ----------------
    #: Per-node finite service model: messages join a bounded ingress
    #: queue and are handled at ``service_rate_msgs_per_ms * capacity``
    #: instead of instantaneously.  The paper's simulator (and the
    #: default here) gives nodes infinite processing capacity, which
    #: makes overload literally unobservable; with the service model a
    #: transient event storm at a hot rendezvous zone queues, ages and
    #: overflows like a real broker (docs/FAULTS.md).
    service_model: bool = False
    #: Messages served per millisecond per unit of node capacity
    #: (heterogeneous capacities scale it; 0.5 = 2 ms per message).
    service_rate_msgs_per_ms: float = 0.5
    #: Ingress queue bound; arrivals beyond it are shed (counted as
    #: ``overflow`` drops, never silent).
    ingress_queue_capacity: int = 64
    #: Admission control + backpressure: control traffic (acks,
    #: anti-entropy, migration, maintenance) outranks event traffic in
    #: the ingress queue; shed reliable event packets are NACKed with
    #: ``ps_busy`` so the sender backs off exponentially instead of
    #: retransmitting into a full queue.  Requires ``service_model``
    #: and ``reliable_delivery``.
    overload_protection: bool = False

    # -- delivery guarantees (extension; ROADMAP item 5) ------------------
    #: Delivery tier on top of the reliable transport.  ``"best_effort"``
    #: is the PR 1-3 stack unchanged: per-hop acks recover transient
    #: loss, but a crash between rendezvous match and subscriber ack
    #: (or retry/TTL/shed exhaustion) loses the delivery permanently
    #: (``transport.gave_up``).  ``"durable"`` adds a custody-transfer
    #: store-and-forward log (core/durability.py): the publisher and
    #: every match site append what they owe downstream to a durable
    #: per-entity log, retire entries only on *subscriber-level* acks
    #: (distinct from packet-level acks), and periodically redeliver
    #: whatever is still unacked -- through crash-rejoin and arc
    #: migration (the log travels with the entity).  Requires
    #: ``reliable_delivery``.  See docs/GUARANTEES.md.
    delivery_mode: str = "best_effort"
    #: Inter-event ordering guarantee, per scheme: ``"none"`` (any
    #: interleaving), ``"fifo"`` (each subscriber sees each publisher's
    #: matching events in publish order) or ``"causal"`` (FIFO plus
    #: publish-after-deliver edges across publishers, VCube-PS-style
    #: compact dependency metadata on event packets).  Ordered modes
    #: require ``delivery_mode="durable"`` (gaps must be guaranteed to
    #: fill, else a reorder buffer would wait forever) and the fully
    #: direct topology (``direct_rendezvous_levels > max_level``) so
    #: each subscription receives every matching event through a single
    #: per-(publisher, key) stream and leaf zones are occupancy-tracked.
    ordering: str = "none"
    #: Period between redelivery scans of the unacked durable log (ms).
    durable_redelivery_ms: float = 5_000.0
    #: Ring-stabilization grace after a rejoin (ms): until it expires,
    #: the rejoined node never *vacuously* acks key custody it holds no
    #: repository for -- a stale predecessor pointer can wrap its
    #: ``(pred, self]`` interval around keys whose repos live elsewhere,
    #: and acking those would retire obligations the true owner still
    #: serves.  Silent keys are simply redelivered after convergence.
    durable_rejoin_grace_ms: float = 10_000.0

    # -- piggybacked maintenance (extension; paper Section 6) ------------
    #: Attach the sender's ring state (own id, predecessor, first
    #: successor) to every event-delivery packet.  Receivers absorb it
    #: as an implicit notify + liveness proof, letting Chord skip the
    #: dedicated stabilize/ping RPCs on links that already carry event
    #: traffic.  Costs PIGGYBACK_BYTES per event packet.
    piggyback_maintenance: bool = False

    # -- fault tolerance (extension; paper Section 6 future work) -------
    #: Number of nodes holding each zone repository: the surrogate plus
    #: ``replication_factor - 1`` standby copies on its Chord successor
    #: list.  Standbys serve matching only once they become responsible
    #: for the dead primary's arc (successor takeover), which is exactly
    #: when events start routing to them.  1 disables replication (the
    #: paper's configuration); at most ``DEFAULT_SUCC_LIST + 1``.
    replication_factor: int = 1

    # -- installation --------------------------------------------------
    #: When True, subscription installation rides simulated DHT lookups
    #: and messages (Algorithm 2 faithfully).  When False, placement is
    #: computed directly from global knowledge -- identical state, zero
    #: simulated traffic -- which is what the large-scale benchmarks use
    #: since the paper resets measurement after the install phase.
    simulate_install: bool = False

    #: Master seed for node identifiers and per-node randomness.
    seed: int = 1

    def __post_init__(self) -> None:
        if self.migration_probe_level not in (1, 2):
            raise ValueError("migration_probe_level must be 1 or 2")
        if self.migration_delta < 0:
            raise ValueError("migration_delta must be non-negative")
        if self.migration_max_acceptors < 1:
            raise ValueError("migration_max_acceptors must be >= 1")
        if self.migration_interval_ms <= 0:
            raise ValueError("migration_interval_ms must be positive")
        if self.direct_rendezvous_levels < 0:
            raise ValueError("direct_rendezvous_levels must be >= 0")
        if self.replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")
        if self.replication_factor > DEFAULT_SUCC_LIST + 1:
            # standbys live on the successor list: a larger factor
            # would silently stop at the list's length
            raise ValueError(
                f"replication_factor must be <= {DEFAULT_SUCC_LIST + 1} "
                "(the successor-list length + 1)"
            )
        if self.retransmit_timeout_ms <= 0:
            raise ValueError("retransmit_timeout_ms must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.hop_failover and not self.reliable_delivery:
            raise ValueError("hop_failover requires reliable_delivery")
        if self.failover_backoff_ms <= 0:
            raise ValueError("failover_backoff_ms must be positive")
        if self.failover_max_attempts < 1:
            raise ValueError("failover_max_attempts must be >= 1")
        if self.service_rate_msgs_per_ms <= 0:
            raise ValueError("service_rate_msgs_per_ms must be positive")
        if self.ingress_queue_capacity < 1:
            raise ValueError("ingress_queue_capacity must be >= 1")
        if self.overload_protection and not self.service_model:
            raise ValueError("overload_protection requires service_model")
        if self.overload_protection and not self.reliable_delivery:
            raise ValueError("overload_protection requires reliable_delivery")
        if self.delivery_mode not in ("best_effort", "durable"):
            raise ValueError(f"unknown delivery_mode {self.delivery_mode!r}")
        if self.ordering not in ("none", "fifo", "causal"):
            raise ValueError(f"unknown ordering {self.ordering!r}")
        if self.delivery_mode == "durable" and not self.reliable_delivery:
            raise ValueError('delivery_mode="durable" requires reliable_delivery')
        if self.ordering != "none" and self.delivery_mode != "durable":
            raise ValueError(
                'ordering != "none" requires delivery_mode="durable" '
                "(gaps must be guaranteed to fill)"
            )
        if self.durable_redelivery_ms <= 0:
            raise ValueError("durable_redelivery_ms must be positive")
        if self.durable_rejoin_grace_ms < 0:
            raise ValueError("durable_rejoin_grace_ms must be >= 0")
        # Validates base/code_bits compatibility eagerly.
        self.geometry  # noqa: B018
        if self.ordering != "none" and self.direct_rendezvous_levels <= self.max_level:
            raise ValueError(
                "ordered delivery requires the fully direct topology "
                f"(direct_rendezvous_levels > max_level = {self.max_level}): "
                "marker-chain relays would interleave per-publisher "
                "streams, and leaf zones must be occupancy-tracked so "
                "publishers only take custody for keys someone can ack"
            )

    @property
    def geometry(self) -> ZoneGeometry:
        return ZoneGeometry(base=self.base, code_bits=self.code_bits)

    @property
    def max_level(self) -> int:
        return self.geometry.max_level
