"""HyperSub node logic: Algorithms 2-5 plus the migration protocol.

:class:`PubSubNodeMixin` carries everything above the DHT:

* subscriber-side state (the user's own subscriptions, Algorithm 2);
* surrogate-side state: one :class:`ZoneRepo` per content zone this
  node is surrogate for ("content zones are managed individually, with
  the node regarded as a few virtual nodes"), each holding a
  :class:`~repro.core.matching.BoxStore`, a summary filter and the
  surrogate subscriptions pushed to child zones (Algorithm 3);
* event processing (Algorithm 5): match locally, merge matched SubIDs,
  group the remainder by next DHT hop, forward one aggregated message
  per link;
* dynamic subscription migration (Section 4): load probing, acceptor
  selection, per-arc migration, summarising surrogate subscriptions.

:class:`HyperSubChordNode` binds the mixin to Chord(-PNS), the overlay
the paper evaluates.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.matching import BoxStore
from repro.core.subscription import SubID, Subscription
from repro.core.summary import boxes_equal, merge_box, split_pieces
from repro.core.overload import CircuitBreaker
from repro.core.subscheme import PubSubEntity
from repro.core.zones import ContentZone
from repro.dht.chord import ChordNode
from repro.dht.idspace import cw_distance, id_in_interval
from repro.core.durability import DurableState
from repro.sim.messages import (
    AE_DIGEST_ENTRY_BYTES,
    CONTROL_BYTES,
    DEP_ENTRY_BYTES,
    DURABLE_META_BYTES,
    PIGGYBACK_BYTES,
    SUBID_BYTES,
    Message,
    event_message_bytes,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.system import HyperSubSystem

#: Route decisions besides a next-hop address: ``_RC_HERE`` -- this
#: node is responsible for the id; ``None`` -- no usable hop (healing
#: ring).  ``_RC_MISS`` marks absence from the cache.
_RC_HERE = object()
_RC_MISS = object()
#: VCube-PS-style causal ordering context: it rides every packet and
#: custody record of an event that carries it.
_ORDERING_FIELDS = ("pub", "pseq", "deps")
#: Payload fields a forwarded event packet inherits from the packet it
#: was derived from, when that one carries them (ordering context,
#: hop-failover budget).
_INHERITED_FIELDS = _ORDERING_FIELDS + ("fo",)
#: Hard per-packet hop ceiling.  Transient routing loops are possible
#: while the ring heals around a crash (A routes to B's stale successor
#: entry, which routes back); the TTL converts them into counted drops.
#: Stable-ring paths are O(log n), so 64 is far above any legitimate route.
EVENT_TTL_HOPS = 64
#: Route decisions kept per node before the cache is flushed wholesale
#: (flush-on-full beats LRU bookkeeping at this hit pattern).
ROUTE_CACHE_MAX = 4096
#: Bytes of an event packet before its SubIDs (header + event body).
_EVENT_BASE_BYTES = event_message_bytes(0)
#: Packet-dedup keys are one int, ``rseq`` above the sender's epoch
#: above its address: ``rejoin_node`` refuses the incarnation that
#: would overflow the epoch field, and no topology reaches 2**32 nodes.
REL_EPOCH_BITS = 16
_REL_ADDR_BITS = 32
#: Surrogate-subscription iids are minted above this, a node's own
#: subscription iids below it (``_next_marker_iid``): the iid alone
#: tells a marker from a subscription.
MARKER_IID_BASE = 1 << 48


#: Wire size of one subscription box (two float64 bounds per dimension).
def subscription_wire_bytes(dims: int) -> int:
    return SUBID_BYTES + 16 * dims


def _event_fields(p: Dict[str, Any]) -> Dict[str, Any]:
    """The event-constant fields of packet payload or custody record
    ``p``: event id, scheme, point, plus the ordering context it has."""
    out = {"event_id": p["event_id"], "scheme": p["scheme"], "point": p["point"]}
    for name in _ORDERING_FIELDS:
        if name in p:
            out[name] = p[name]
    return out


def _store_checksum(store: BoxStore) -> int:
    """Order-independent fingerprint of a store's SubID set.

    XOR of per-id hashes: cheap, incremental-friendly, and two stores
    with equal counts and checksums are treated as identical by the
    anti-entropy digest exchange (collision odds are negligible for
    repair purposes, and a miss only costs one redundant diff round).
    """
    acc = 0
    for sid in store.subids():
        acc ^= hash((sid.nid, sid.iid)) & 0xFFFFFFFFFFFFFFFF
    return acc


class ZoneRepo:
    """Surrogate state for one content zone of one entity."""

    __slots__ = ("entity_key", "zone", "store", "sf", "children", "migr", "split")

    def __init__(self, entity_key: str, zone: ContentZone, store: BoxStore) -> None:
        self.entity_key = entity_key
        self.zone = zone
        self.store = store
        #: where the zone divides into children (``entity.child_split``),
        #: worked out by the first cascade and kept: two floats, all the
        #: cascade reads of the zone's box
        self.split: Optional[Tuple[float, float]] = None
        #: summary filter: bounding box of everything registered here
        self.sf: Optional[Tuple[np.ndarray, np.ndarray]] = None
        #: child digit -> ``[iid of the surrogate subscription there, the
        #: piece it was last pushed with]``; the piece is ``None`` while
        #: the surrogate subscription is withdrawn (its iid stays minted)
        self.children: Dict[int, list] = {}
        #: stored migration markers, the one provenance the iid does not
        #: give away (:meth:`kind_of`); ``None`` until the first one
        self.migr: Optional[set] = None

    @property
    def key(self) -> Tuple[str, int, int]:
        return (self.entity_key, self.zone.code, self.zone.level)

    def put(self, subid: SubID, lows: np.ndarray, highs: np.ndarray, kind: str) -> None:
        """Store (or replace) ``subid``'s box with provenance ``kind``."""
        if (kind == "marker") != (subid.iid >= MARKER_IID_BASE):
            raise ValueError(f"{subid} is outside the iid namespace of a {kind!r}")
        self.store.put(subid, lows, highs)
        if kind == "migr":
            if self.migr is None:
                self.migr = set()
            self.migr.add(subid)
        elif self.migr:
            self.migr.discard(subid)

    def remove(self, subid: SubID) -> None:
        self.store.remove(subid)
        if self.migr:
            self.migr.discard(subid)

    def kind_of(self, subid: SubID) -> str:
        """Provenance of a stored entry: "sub" | "marker" | "migr"."""
        if subid.iid >= MARKER_IID_BASE:
            return "marker"
        if self.migr and subid in self.migr:
            return "migr"
        return "sub"

    def child_pieces(
        self, entity: PubSubEntity, sf: Tuple[np.ndarray, np.ndarray]
    ) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
        """``sf`` subdivided to fit the child zones (Section 3.3)."""
        zone = self.zone
        if self.split is None:
            self.split = entity.child_split(zone)
        edge, width = self.split
        dims = entity.full_dims
        return split_pieces(
            sf, dims[zone.level % len(dims)], edge, width, zone.geometry.base
        )

    def export(self, subids=None) -> Tuple[dict, int]:
        """The one writer of the repository-transfer format.

        ``{"repo": key, "entries": [((nid, iid), lows, highs, kind)]}``
        over every stored entry (or just ``subids``), and the bytes
        those entries occupy on the wire.  :meth:`PubSubNodeMixin.
        _absorb_repo` is the reader.
        """
        store = self.store
        entries = []
        wire_bytes = 0
        for sid in (store.subids() if subids is None else subids):
            lo, hi = store.get_box(sid)
            entries.append(
                ((sid.nid, sid.iid), lo.tolist(), hi.tolist(), self.kind_of(sid))
            )
            wire_bytes += subscription_wire_bytes(len(lo))
        return {"repo": list(self.key), "entries": entries}, wire_bytes


class CustodyCohort:
    """The nodes whose custody scan was armed by one
    ``start_durable_redelivery`` call.

    They share a phase, so they share one scheduler entry per period:
    the tick visits the members in the order given (address order --
    the order their separate timers would fire in) and scans only those
    with something in the log, so a node with no unacked custody costs
    nothing.  Membership is by identity: a member that was stopped,
    restarted (it then belongs to a newer cohort) or crashed is dropped
    at the next tick, and a cohort with no members left is not re-armed,
    so a dead incarnation's timer dies with it and the simulation
    drains.  The class lives in this module because the tick is node
    work, and profilers book a scheduled callback by the module that
    defines it.
    """

    __slots__ = ("members",)

    def __init__(self, members: List["PubSubNodeMixin"]) -> None:
        self.members = members
        for node in members:
            node._dur_cohort = self
        first = members[0]
        first.sim.schedule(first.system.config.durable_redelivery_ms, self.tick)

    def tick(self) -> None:
        members = self.members = [
            node for node in self.members
            if node._dur_cohort is self and node._alive
        ]
        if not members:
            return
        sim = members[0].sim
        interval = members[0].system.config.durable_redelivery_ms
        now = sim.now
        for node in members:
            durable = node.durable
            if durable.log:
                for entry in durable.due(now, interval):
                    node._dur_redeliver(entry)
        sim.schedule(interval, self.tick)


class PubSubNodeMixin:
    """Pub/sub behaviour of a HyperSub node.

    Requires the host class to be a :class:`~repro.dht.chord.ChordNode`
    (routing, messaging, ring maintenance); call :meth:`_init_pubsub`
    after the Chord init.
    """

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _init_pubsub(self, system: "HyperSubSystem") -> None:
        self.system = system
        self._iid_counter = 0
        self._marker_iid_counter = MARKER_IID_BASE
        #: iid -> (entity_key, Subscription, zone, SubID) for the user's
        #: own subs (the SubID minted at subscribe time: every delivery
        #: hands that one object to the application)
        self.own_subs: Dict[
            int, Tuple[str, Subscription, ContentZone, SubID]
        ] = {}
        #: (entity_key, code, level) -> ZoneRepo
        self.zone_repos: Dict[Tuple[str, int, int], ZoneRepo] = {}
        #: rotated zone key -> repo keys reachable by direct rendezvous.
        #: Leaf repos always; shallow repos too when R > 0.  A list, not
        #: a single key: an ancestor's key equals its rightmost
        #: descendant leaf's key, so keys can legitimately collide.
        self.rendezvous_index: Dict[int, List[Tuple[str, int, int]]] = {}
        #: surrogate-subscription iid -> repo key it summarises
        self.marker_origin: Dict[int, Tuple[str, int, int]] = {}
        #: accepted-migration iid -> (scheme_name, BoxStore)
        self.migrated: Dict[int, Tuple[str, BoxStore]] = {}
        #: standby replicas of other primaries' zone repos
        #: (replication extension): repo key -> ZoneRepo
        self.standby_repos: Dict[Tuple[str, int, int], ZoneRepo] = {}
        #: rotated zone key -> standby repo keys (rendezvous takeover)
        self.standby_rendezvous: Dict[int, List[Tuple[str, int, int]]] = {}
        #: (origin nid, iid) -> standby repo key (marker takeover)
        self.standby_markers: Dict[Tuple[int, int], Tuple[str, int, int]] = {}
        #: (origin nid, iid) -> (scheme, BoxStore): migrated stores
        #: inherited from a gracefully departed predecessor
        self.standby_migrated: Dict[Tuple[int, int], Tuple[str, BoxStore]] = {}
        #: in-flight load-balancing round state
        self._lb_round: Optional[dict] = None
        self._lb_seq = 0
        #: per-destination throttle for piggybacked ring state: state
        #: changes slowly, so attaching it to every packet on a busy
        #: link wastes bytes; once per half-interval keeps it fresh.
        self._pb_last_sent: Dict[int, float] = {}
        #: reliable-transport state: outstanding event packets by seq
        self._rel_pending: Dict[int, dict] = {}
        self._rel_seq = 0
        #: transport incarnation.  Sequence numbers restart at 0 after a
        #: crash-rejoin; without an epoch in the dedup key, peers that
        #: heard rseq 1..j from the PREVIOUS incarnation would silently
        #: discard (while still acking!) the new incarnation's first j
        #: packets as duplicates.  ``HyperSubSystem.rejoin_node`` bumps it.
        self._rel_epoch = 0
        #: sender (addr, epoch, seq) already processed (dedup on ack
        #: loss), packed into one int each
        self._rel_seen: set = set()
        #: ``event_id << 48 | iid`` (own iids stay below
        #: ``MARKER_IID_BASE``) already handed to the application.  The
        #: packet-level dedup above is keyed on the packet's identity,
        #: which hop-failover deliberately *changes* (the SubIDs are
        #: re-grouped onto a fresh packet via an alternate route), so an
        #: ack-lost-then-failed-over packet arrives twice under two
        #: different keys.  Exactly-once at the application therefore
        #: needs this subscriber-side guard as well.
        self._delivered: set = set()
        #: relative node capacity (Section 4: "the value of the
        #: threshold factor delta for each node is based on the node's
        #: capacity"; the paper's runs assume 1.0 everywhere -- the
        #: heterogeneous evaluation it defers is experiment H1).
        self.capacity: float = 1.0
        #: per-destination circuit breaker (overload-protection
        #: extension); ``None`` when protection is off.
        self.breaker: Optional[CircuitBreaker] = (
            CircuitBreaker(
                system.config.breaker_failure_threshold,
                system.config.breaker_open_ms,
            )
            if system.config.overload_protection
            else None
        )

        #: anti-entropy re-replication loop state (self-healing extension)
        self._ae_running = False

        #: custody-transfer log (delivery-guarantees extension); ``None``
        #: outside durable mode so the hot paths pay one attribute load.
        self.durable: Optional[DurableState] = (
            DurableState(system.config.durable_log_max_entries)
            if system.config.delivery_mode == "durable"
            else None
        )
        #: (stream, key nid) -> {kseq: parked packet} at match sites
        self._dur_parks: Dict[Tuple, Dict[int, Message]] = {}
        #: (stream, iid) -> {mseq: parked packet} at subscribers
        self._dur_sub_parks: Dict[Tuple, Dict[int, Message]] = {}
        #: causal sequencer: pseq-contiguous arrivals blocked on deps
        self._seq_blocked: Dict[int, tuple] = {}
        #: the cohort whose tick scans our custody log; None when stopped
        self._dur_cohort: Optional[CustodyCohort] = None
        #: until this sim time, keys with no local repository are NOT
        #: vacuously acked -- a ring-stabilization grace extended after
        #: our own rejoin and after every predecessor change
        self._dur_vacuous_after = 0.0

        #: epoch-keyed route-decision cache: id -> ``_RC_HERE`` | next-hop
        #: address | ``None`` (perf extension; the invalidation rule
        #: lives in dht/base.py and docs/PERFORMANCE.md)
        self._rc: Dict[int, Any] = {}
        self._rc_epoch = -1
        self.rc_hits = 0
        self.rc_misses = 0

        self.register_handler("ps_register", self._on_ps_register)
        self.register_handler("ps_replica", self._on_ps_replica)
        self.register_handler("ps_handoff", self._on_ps_handoff)
        self.register_handler("ps_resync", self._on_ps_resync)
        self.register_handler("ps_resync_state", self._on_ps_resync_state)
        self.register_handler("ps_ae_digest", self._on_ae_digest)
        self.register_handler("ps_ae_state", self._on_ae_state)
        self.register_handler("ps_ae_fill", self._on_ae_fill)
        # Arc handoff on membership change: when a joiner slides in as
        # our new predecessor, the rendezvous repos whose keys now fall
        # in its arc must move to it.
        self.on_predecessor_change = self._on_pred_change
        self.register_handler("ps_unregister", self._on_ps_unregister)
        # The receive side of ``ps_event`` is chosen here, once: only a
        # config that can put ``rseq`` / ``pb`` on a packet pays for the
        # wrapper that reads them.
        cfg = system.config
        #: no feature of this node's config adds to a forwarded packet
        self._ev_plain = not (cfg.reliable_delivery or cfg.piggyback_maintenance)
        on_event = self._process_event if self._ev_plain else self._on_ps_event
        self.register_handler("ps_event", on_event)
        self.register_handler("ps_event_ack", self._on_ps_event_ack)
        self.register_handler("ps_dack", self._on_ps_dack)
        self.register_handler("ps_busy", self._on_ps_busy)
        self.register_handler("ps_storm", self._on_ps_storm)
        self.register_handler("ps_load_probe", self._on_load_probe)
        self.register_handler("ps_load_reply", self._on_load_reply)
        self.register_handler("ps_migrate", self._on_migrate)
        self.register_handler("ps_migrate_ack", self._on_migrate_ack)

    def _next_iid(self) -> int:
        self._iid_counter += 1
        return self._iid_counter

    def _next_marker_iid(self) -> int:
        """Mint a surrogate-subscription iid from its own namespace.

        Markers used to share ``_next_iid`` with real subscriptions,
        which made a subscription's identity depend on how many markers
        happened to be minted before it -- so any change in cascade
        timing relabelled every later subscription and broke digest
        comparisons across runs.
        The high offset keeps the two sequences disjoint.
        """
        self._marker_iid_counter += 1
        return self._marker_iid_counter

    def _trace(self, name: str, **fields: Any) -> Optional[int]:
        """Record one span at this node, now -- for the cold paths (the
        per-message sites keep their inline guard); returns the span id,
        ``None`` when no trace is being taken."""
        tel = self.system.telemetry
        if tel is None or not tel.tracing:
            return None
        return tel.tracer.span(name, t=self.sim.now, node=self.addr, **fields)

    # ------------------------------------------------------------------
    # Load (Section 4: "load on node is measured as the number of
    # subscriptions stored on the node")
    # ------------------------------------------------------------------
    def load(self) -> int:
        total = sum(len(r.store) for r in self.zone_repos.values())
        total += sum(len(store) for _s, store in self.migrated.values())
        return total

    def stored_subscription_count(self, kind: Optional[str] = None) -> int:
        """Count stored entries, optionally filtered by provenance."""
        if kind is None:
            return self.load()
        total = 0
        for repo in self.zone_repos.values():
            total += sum(1 for sid in repo.store.subids() if repo.kind_of(sid) == kind)
        if kind == "sub":
            total += sum(len(store) for _s, store in self.migrated.values())
        return total

    # ------------------------------------------------------------------
    # Algorithm 2: subscribe
    # ------------------------------------------------------------------
    def subscribe(self, sub: Subscription) -> SubID:
        """Register interest; returns the global subscription id."""
        entity = self.system.entity_for_subscription(sub)
        zone = entity.zone_of_subscription(sub)
        iid = self._next_iid()
        subid = SubID(self.node_id, iid)
        self.own_subs[iid] = (entity.key, sub, zone, subid)
        self.system.metrics.count_subscription(sub.scheme_name)
        self._dispatch_register(entity, zone, subid, sub.lows, sub.highs, "sub")
        return subid

    def unsubscribe(self, subid: SubID) -> None:
        """Best-effort removal.

        The installed copy is removed from the (current) surrogate of
        the subscription's zone.  A copy that has since been *migrated*
        becomes a stale entry: deliveries targeting it find no local
        subscription here and are dropped (``delivery.stale_subid``), the
        standard eventual-consistency behaviour for this kind of system.
        """
        if subid.nid != self.node_id or subid.iid not in self.own_subs:
            raise KeyError(f"not our subscription: {subid}")
        entity_key, sub, zone, _subid = self.own_subs.pop(subid.iid)
        self.system.metrics.count_subscription(sub.scheme_name, -1)
        self._dispatch_unregister(self.system.entity(entity_key), zone, subid)

    def _send_to_home(self, key: int, kind: str, payload: dict, size: int) -> None:
        """``lookup(key)``, then one ``kind`` packet to the node found
        (Algorithm 2).  When that node is this one the packet is handed
        over on the spot: it has no bytes or latency to charge, and a
        zero-cost self-packet is a function call."""

        def _send(res) -> None:
            msg = Message(self.addr, res.home_addr, kind, payload, size)
            if res.home_addr == self.addr:
                self.handle_message(msg)
            else:
                self.network.send(msg)

        self.lookup(key, _send)

    # ------------------------------------------------------------------
    # Algorithm 3: registration on the surrogate (plus the cascade)
    # ------------------------------------------------------------------
    def _dispatch_register(
        self,
        entity: PubSubEntity,
        zone: ContentZone,
        subid: SubID,
        lows: np.ndarray,
        highs: np.ndarray,
        kind: str,
    ) -> None:
        """Deliver a registration to the zone's surrogate node.

        Fast path (default): resolve the surrogate from global knowledge
        and call it directly -- byte-identical placement, no simulated
        traffic.  Simulated path: ``lookup()`` then a ``ps_register``
        packet, Algorithm 2 verbatim.
        """
        stats = self.system.install_traffic.setdefault(kind, [0, 0])
        stats[0] += 1
        stats[1] += CONTROL_BYTES + subscription_wire_bytes(len(lows))
        key = entity.rotated_key(zone)
        if not self.system.config.simulate_install:
            home = self.system.node_at_home(key)
            home._register_local(entity.key, zone.code, zone.level, subid, lows, highs, kind)
            return
        payload = {
            "entity": entity.key,
            "code": zone.code,
            "level": zone.level,
            "subid": (subid.nid, subid.iid),
            "lows": lows,
            "highs": highs,
            "kind": kind,
        }
        self._send_to_home(
            key, "ps_register", payload,
            CONTROL_BYTES + subscription_wire_bytes(len(lows)),
        )

    def _on_ps_register(self, msg: Message) -> None:
        p = msg.payload
        self._register_local(
            p["entity"], p["code"], p["level"], SubID(*p["subid"]),
            p["lows"], p["highs"], p["kind"],
        )

    def _get_repo(self, entity: PubSubEntity, zone: ContentZone) -> ZoneRepo:
        repo_key = (entity.key, zone.code, zone.level)
        repo = self.zone_repos.get(repo_key)
        if repo is None:
            repo = ZoneRepo(entity.key, zone, self.system.make_store(entity))
            self.zone_repos[repo_key] = repo
            direct = self.system.config.direct_rendezvous_levels
            if zone.is_leaf or zone.level < direct:
                self.rendezvous_index.setdefault(
                    entity.rotated_key(zone), []
                ).append(repo_key)
            if zone.level < direct:
                self.system.mark_shallow_occupied(repo_key)
        return repo

    def _register_local(
        self,
        entity_key: str,
        code: int,
        level: int,
        subid: SubID,
        lows: np.ndarray,
        highs: np.ndarray,
        kind: str,
    ) -> None:
        """Algorithm 3: store, refresh the summary filter, cascade."""
        cfg = self.system.config
        repo = self.zone_repos.get((entity_key, code, level))
        if repo is None:
            # first registration here: validate the zone, open its repo
            entity = self.system.entity(entity_key)
            repo = self._get_repo(entity, ContentZone(code, level, entity.geometry))
        replaced = subid in repo.store
        repo.put(subid, lows, highs, kind)
        if cfg.replication_factor > 1:
            self._replicate(entity_key, code, level, subid, lows, highs, kind)
        if replaced:
            # A surrogate-subscription update may *shrink* the box (the
            # parent's filter tightened); recompute instead of merging.
            self._refresh_summary(repo)
            return
        new_sf, changed = merge_box(repo.sf, (lows, highs))
        repo.sf = new_sf
        zone = repo.zone
        if not changed or zone.is_leaf:
            return
        if zone.level < cfg.direct_rendezvous_levels:
            # Shallow zones are visited directly by every event; their
            # filters need not cascade toward the leaves.
            return
        entity = self.system.entity(entity_key)
        self._push_pieces(repo, entity, zone, repo.child_pieces(entity, new_sf))

    def _push_pieces(
        self,
        repo: ZoneRepo,
        entity: PubSubEntity,
        zone: ContentZone,
        pieces: Dict[int, Tuple[np.ndarray, np.ndarray]],
    ) -> None:
        """Dispatch the given child pieces as surrogate subscriptions
        (Algorithm 3, step 3).

        Each digit's piece is compared against the last push: unchanged
        pieces cost nothing, changed ones *replace* the child's marker
        box under the same stable iid (no re-cascade per install), and
        digits whose piece vanished withdraw the marker.
        """
        children = repo.children
        for digit, child in children.items():
            if child[1] is not None and digit not in pieces:
                # The filter no longer reaches this child: withdraw the
                # surrogate subscription.  The iid stays minted so a later
                # re-push reuses it (marker_origin stays resolvable).
                child[1] = None
                self._dispatch_unregister(
                    entity, zone.child(digit), SubID(self.node_id, child[0])
                )
        for digit, piece in pieces.items():
            child = children.get(digit)
            prev = None if child is None else child[1]
            if boxes_equal(prev, piece):
                continue
            if child is not None:
                if prev is None:
                    # Re-pushed after a withdrawal: behind the live ones,
                    # so withdrawals keep dispatching in push order.
                    del children[digit]
                    children[digit] = child
                child[1] = piece
                marker_iid = child[0]
            else:
                marker_iid = self._next_marker_iid()
                children[digit] = [marker_iid, piece]
                self.marker_origin[marker_iid] = repo.key
                if self.system.config.replication_factor > 1:
                    # Standbys must be able to resolve our marker iids
                    # after a takeover (events climbing via children
                    # still carry the dead primary's node id).
                    k = self.system.config.replication_factor
                    for _sid, saddr in self.successors[: k - 1]:
                        self.system.nodes[saddr].register_standby_marker(
                            self.node_id, marker_iid, repo.key
                        )
            self._dispatch_register(
                entity,
                zone.child(digit),
                SubID(self.node_id, marker_iid),
                piece[0],
                piece[1],
                "marker",
            )

    def _refresh_summary(self, repo: ZoneRepo) -> None:
        """Recompute a tight summary filter and propagate shrinks.

        After a removal (unsubscribe, migration swap) or a
        surrogate-subscription replacement, the bounding box over the
        repo's live entries is the exact tight filter; when it changed,
        the child pieces are re-derived and the cascade re-pushed --
        children whose piece shrank run the same recomputation on
        *their* repos, so shrinks propagate to the leaves.  Correctness:
        the recomputed sf still covers every live box by construction,
        so a shrink can only remove false-positive cascade hops, never a
        delivery (the property tests assert both).
        """
        tight = repo.store.bounding_box()
        if boxes_equal(repo.sf, tight):
            return
        repo.sf = tight
        zone = repo.zone
        if zone.is_leaf or zone.level < self.system.config.direct_rendezvous_levels:
            return
        entity = self.system.entity(repo.entity_key)
        pieces = {} if tight is None else repo.child_pieces(entity, tight)
        self._push_pieces(repo, entity, zone, pieces)

    def _dispatch_unregister(
        self, entity: PubSubEntity, zone: ContentZone, subid: SubID
    ) -> None:
        """Withdraw a registration from the zone's surrogate node
        (mirror of :meth:`_dispatch_register`, both install paths)."""
        stats = self.system.install_traffic.setdefault("unregister", [0, 0])
        stats[0] += 1
        stats[1] += CONTROL_BYTES + SUBID_BYTES
        key = entity.rotated_key(zone)
        if not self.system.config.simulate_install:
            home = self.system.node_at_home(key)
            home._unregister_local(entity.key, zone.code, zone.level, subid)
            return
        payload = {
            "entity": entity.key,
            "code": zone.code,
            "level": zone.level,
            "subid": (subid.nid, subid.iid),
        }
        self._send_to_home(key, "ps_unregister", payload, CONTROL_BYTES + SUBID_BYTES)

    # ------------------------------------------------------------------
    # Replication extension: standby copies on the successor list
    # ------------------------------------------------------------------
    def _replicate(
        self,
        entity_key: str,
        code: int,
        level: int,
        subid: SubID,
        lows: np.ndarray,
        highs: np.ndarray,
        kind: str,
    ) -> None:
        """Mirror one accepted registration onto k-1 successors."""
        k = self.system.config.replication_factor
        replicas = self.successors[: k - 1]
        payload = {
            "entity": entity_key,
            "code": code,
            "level": level,
            "subid": (subid.nid, subid.iid),
            "lows": lows.tolist(),
            "highs": highs.tolist(),
            "kind": kind,
            "origin": self.node_id,
        }
        size = CONTROL_BYTES + subscription_wire_bytes(len(lows))
        for _succ_id, succ_addr in replicas:
            if self.system.config.simulate_install:
                self.send(
                    Message(
                        src=self.addr, dst=succ_addr, kind="ps_replica",
                        payload=payload, size_bytes=size,
                    )
                )
            else:
                self.system.nodes[succ_addr]._store_replica(
                    entity_key, code, level, subid, lows, highs, kind
                )

    def _on_ps_replica(self, msg: Message) -> None:
        p = msg.payload
        self._store_replica(
            p["entity"], p["code"], p["level"], SubID(*p["subid"]),
            np.asarray(p["lows"], dtype=np.float64),
            np.asarray(p["highs"], dtype=np.float64),
            p["kind"],
        )

    def _store_replica(
        self,
        entity_key: str,
        code: int,
        level: int,
        subid: SubID,
        lows: np.ndarray,
        highs: np.ndarray,
        kind: str,
    ) -> None:
        """Accept a standby copy.  Standbys never cascade or match until
        this node becomes responsible for the dead primary's arc."""
        entity = self.system.entity(entity_key)
        zone = ContentZone(code, level, entity.geometry)
        repo_key = (entity_key, code, level)
        repo = self.standby_repos.get(repo_key)
        if repo is None:
            repo = ZoneRepo(entity_key, zone, self.system.make_store(entity))
            self.standby_repos[repo_key] = repo
            direct = self.system.config.direct_rendezvous_levels
            if zone.is_leaf or zone.level < direct:
                self.standby_rendezvous.setdefault(
                    entity.rotated_key(zone), []
                ).append(repo_key)
        repo.put(subid, lows, highs, kind)

    def register_standby_marker(
        self, origin_nid: int, iid: int, repo_key: Tuple[str, int, int]
    ) -> None:
        self.standby_markers[(origin_nid, iid)] = repo_key

    def _absorb_repo(self, group: dict, mode: str) -> None:
        """The one reader of the repository-transfer format
        (:meth:`ZoneRepo.export` writes it).  ``mode`` is how the
        entries are installed:

        * ``"cascade"`` -- as fresh registrations (Algorithm 3: store,
          refresh the filter, cascade, replicate);
        * ``"standby"`` -- as standby copies that serve nothing until
          promoted;
        * ``"verbatim"`` -- live, filter merged, no cascade: the
          surrogate subscriptions pointing at a marker-served repo
          already exist in the child zones, and cascading again would
          mint duplicate markers.  The repository is opened even when
          the group is empty.
        """
        entity_key, code, level = group["repo"]
        if mode == "verbatim":
            entity = self.system.entity(entity_key)
            repo = self._get_repo(entity, ContentZone(code, level, entity.geometry))
        for (nid, iid), lows, highs, kind in group["entries"]:
            sid = SubID(nid, iid)
            lo = np.asarray(lows, dtype=np.float64)
            hi = np.asarray(highs, dtype=np.float64)
            if mode == "cascade":
                self._register_local(entity_key, code, level, sid, lo, hi, kind)
            elif mode == "standby":
                self._store_replica(entity_key, code, level, sid, lo, hi, kind)
            else:
                repo.put(sid, lo, hi, kind)
                repo.sf, _ = merge_box(repo.sf, (lo, hi))

    def _absorb_markers(self, markers) -> None:
        """Install shipped ``(nid, iid, repo key)`` marker mappings: our
        own surrogate-subscription ids (the volatile ``marker_origin``
        died with a crash) come back as ours, anyone else's as standby."""
        for nid, iid, repo_key in markers:
            repo_key = tuple(repo_key)
            if nid == self.node_id:
                self.marker_origin.setdefault(iid, repo_key)
                if iid > self._marker_iid_counter:
                    self._marker_iid_counter = iid  # never minted again
            else:
                self.standby_markers[(nid, iid)] = repo_key

    # ------------------------------------------------------------------
    # Anti-entropy re-replication (self-healing extension)
    # ------------------------------------------------------------------
    def start_anti_entropy(self) -> None:
        """Begin periodic repair rounds (idempotent).

        Each round (a) promotes standby replicas whose rendezvous keys
        this node has become responsible for -- successor takeover after
        a crash -- into live repositories, and (b) reconciles every live
        repository with the *current* successor list by digest exchange,
        shipping only missing entries, so ``replication_factor`` copies
        are restored after churn reshuffles the ring.
        """
        if self._ae_running:
            return
        self._ae_running = True
        self.sim.schedule(
            self.system.config.anti_entropy_interval_ms, self._ae_tick
        )

    def stop_anti_entropy(self) -> None:
        self._ae_running = False

    def _ae_tick(self) -> None:
        if not self._ae_running or not self._alive:
            return
        self.promote_takeovers()
        self._ae_exchange()
        self.sim.schedule(
            self.system.config.anti_entropy_interval_ms, self._ae_tick
        )

    def promote_takeovers(self) -> None:
        """Turn standby replicas we now answer for into live repositories.

        A standby only *serves matches* while events route to us; it
        neither cascades nor re-replicates.  Once we are durably
        responsible for its key (the primary crashed and the arc is
        ours), promoting it restores the full surrogate role -- and the
        next digest exchange re-replicates it onto our own successors,
        closing the repair loop.  Promotion also makes rejoin resync
        work: the arc handoff to a re-joining predecessor only ships
        *live* repositories.
        """
        self._promote_standby_keys(self.is_responsible)

    def _promote_standby_keys(self, want) -> None:
        """Promote standby replicas whose rendezvous key satisfies ``want``."""
        direct = self.system.config.direct_rendezvous_levels
        for key in list(self.standby_rendezvous):
            if not want(key):
                continue
            for repo_key in self.standby_rendezvous.pop(key):
                repo = self.standby_repos.pop(repo_key, None)
                if repo is None or repo_key in self.zone_repos:
                    continue
                self.zone_repos[repo_key] = repo
                self.rendezvous_index.setdefault(key, []).append(repo_key)
                if repo.zone.level < direct:
                    self.system.mark_shallow_occupied(repo_key)

    def _ae_exchange(self) -> None:
        """Send one digest of every live repository to each standby peer."""
        k = self.system.config.replication_factor
        replicas = self.successors[: k - 1]
        if not replicas or not self.zone_repos:
            return
        digest = [
            [list(repo_key), len(repo.store), _store_checksum(repo.store)]
            for repo_key, repo in self.zone_repos.items()
        ]
        markers = [
            [iid, list(repo_key)] for iid, repo_key in self.marker_origin.items()
        ]
        size = (
            CONTROL_BYTES
            + AE_DIGEST_ENTRY_BYTES * len(digest)
            + SUBID_BYTES * len(markers)
        )
        payload = {
            "origin": self.addr,
            "origin_id": self.node_id,
            "repos": digest,
            "markers": markers,
        }
        for _succ_id, succ_addr in replicas:
            self._trace("ae_digest", dst=succ_addr, repos=len(digest), bytes=size)
            self.send(
                Message(
                    src=self.addr,
                    dst=succ_addr,
                    kind="ps_ae_digest",
                    payload=payload,
                    size_bytes=size,
                )
            )

    def _on_ae_digest(self, msg: Message) -> None:
        """Standby side: report which repositories diverge and how."""
        p = msg.payload
        for iid, repo_key in p["markers"]:
            # Marker-id resolution must survive the primary's death even
            # on successors that joined the list after marker creation.
            self.register_standby_marker(p["origin_id"], iid, tuple(repo_key))
        diverged: List[dict] = []
        have_total = 0
        for repo_key_list, count, checksum in p["repos"]:
            repo_key = tuple(repo_key_list)
            if repo_key in self.zone_repos:
                # We serve this live (handoff/promotion raced the
                # primary's digest): never overwrite live state.
                continue
            local = self.standby_repos.get(repo_key)
            if (
                local is not None
                and len(local.store) == count
                and _store_checksum(local.store) == checksum
            ):
                continue
            have = (
                []
                if local is None
                else [[s.nid, s.iid] for s in local.store.subids()]
            )
            diverged.append({"repo": list(repo_key), "have": have})
            have_total += len(have)
        if not diverged:
            return
        self.send(
            Message(
                src=self.addr,
                dst=p["origin"],
                kind="ps_ae_state",
                payload={"origin": self.addr, "repos": diverged},
                size_bytes=CONTROL_BYTES
                + AE_DIGEST_ENTRY_BYTES * len(diverged)
                + SUBID_BYTES * have_total,
            )
        )

    def _on_ae_state(self, msg: Message) -> None:
        """Primary side: ship only the diff (missing boxes, stale ids)."""
        groups: List[dict] = []
        payload_bytes = 0
        for entry in msg.payload["repos"]:
            repo_key = tuple(entry["repo"])
            repo = self.zone_repos.get(repo_key)
            if repo is None:
                continue  # no longer ours (handed off meanwhile)
            have = {(nid, iid) for nid, iid in entry["have"]}
            group, fill_bytes = repo.export(
                [s for s in repo.store.subids() if (s.nid, s.iid) not in have]
            )
            group["drop"] = [
                [nid, iid]
                for nid, iid in have
                if SubID(nid, iid) not in repo.store
            ]
            if not group["entries"] and not group["drop"]:
                continue
            groups.append(group)
            payload_bytes += fill_bytes + len(group["drop"]) * SUBID_BYTES
        if not groups:
            return
        self._trace(
            "ae_fill", dst=msg.payload["origin"], repos=len(groups),
            bytes=CONTROL_BYTES + payload_bytes,
        )
        self.send(
            Message(
                src=self.addr,
                dst=msg.payload["origin"],
                kind="ps_ae_fill",
                payload={"groups": groups},
                size_bytes=CONTROL_BYTES + payload_bytes,
            )
        )

    def _on_ae_fill(self, msg: Message) -> None:
        """Standby side: absorb the diff."""
        for group in msg.payload["groups"]:
            self._absorb_repo(group, "standby")
            repo = self.standby_repos.get(tuple(group["repo"]))
            if repo is None:
                continue
            for nid, iid in group["drop"]:
                sid = SubID(nid, iid)
                if sid in repo.store:
                    repo.remove(sid)

    # ------------------------------------------------------------------
    # Graceful departure (membership extension)
    # ------------------------------------------------------------------
    def leave_gracefully(self) -> None:
        """Transfer every surrogate responsibility to the successor and
        leave the ring.

        After departure our identifier's keys resolve to the successor,
        so (a) rendezvous repos become its standby repos (served through
        the takeover paths), (b) our surrogate-subscription ids -- still
        embedded in child zones across the network -- are mapped on the
        successor via ``register_standby_marker``, and (c) migrated
        stores we accepted are inherited likewise.  A real node would
        ship this as one bulk transfer; the ring unlink itself is
        Chord's graceful ``leave``.
        """
        if self.successors:
            succ = self.system.nodes[self.successors[0][1]]
            for repo in self.zone_repos.values():
                succ._absorb_repo(repo.export()[0], "standby")
            for iid, repo_key in self.marker_origin.items():
                succ.register_standby_marker(self.node_id, iid, repo_key)
            for iid, (scheme_name, store) in self.migrated.items():
                succ.standby_migrated[(self.node_id, iid)] = (scheme_name, store)
        self.leave()

    # ------------------------------------------------------------------
    # Arc handoff on join (membership extension)
    # ------------------------------------------------------------------
    def _on_pred_change(
        self, old_id: Optional[int], new_id: Optional[int]
    ) -> None:
        """A joiner took over part of our arc: move its rendezvous state.

        Only *rendezvous-served* repos (leaves, and shallow zones under
        the direct radius) move -- they are matched strictly by key, and
        the key now resolves to the joiner.  Internal zones stay: their
        surrogate subscriptions in child zones carry OUR node id, which
        remains a valid address; new registrations for those zones
        simply accumulate at the joiner under its own markers.

        ``old_id is None`` is the crash-rejoin case: check-predecessor
        evicted the dead node's pointer, and the rejoining node (same
        identifier) is now notifying us.  The prior arc boundary is
        unknown, so everything outside our *new* responsibility ships to
        the predecessor -- which includes any repos promoted from
        standby during the takeover window.  Marker mappings for the
        moved repos travel along so the joiner can serve surrogate
        subscriptions that still carry its node id (its own volatile
        ``marker_origin`` died with it).
        """
        if self.durable is not None:
            # Any predecessor change -- not just our own rejoin -- means
            # this node's claim to its arc is in flux.  A saturated (but
            # alive) neighbor sheds maintenance pings exactly like a dead
            # one, so check-predecessor can route the arc of a live repo
            # owner to us; vacuously acking its keys (the "authoritatively
            # empty zone" path) would retire custody for subscriptions the
            # owner still serves.  Hold vacuous acks until the claim has
            # been stable for the grace window; custodians just redeliver.
            self._dur_vacuous_after = max(
                self._dur_vacuous_after,
                self.sim.now + self.system.config.durable_rejoin_grace_ms,
            )
        if new_id is None or old_id == new_id:
            return
        if old_id is None:
            moved = lambda k: not id_in_interval(  # noqa: E731
                k, new_id, self.node_id, incl_right=True
            )
        else:
            if not id_in_interval(new_id, old_id, self.node_id):
                return  # arc grew (failure takeover), nothing to ship
            moved = lambda k: id_in_interval(  # noqa: E731
                k, old_id, new_id, incl_right=True
            )
        # A standby whose key moves to the new predecessor would
        # otherwise be stuck for good: promotion requires *us* to answer
        # for the key, and the handoff below ships live repos only.  A
        # crash shorter than one anti-entropy interval (a flap) hits
        # exactly that window -- the takeover never ran a promotion
        # tick, the rejoiner returns to an empty arc, and every copy in
        # the system stays standby.  Promote such keys now so they ship.
        self._promote_standby_keys(moved)
        moved_keys = [k for k in self.rendezvous_index if moved(k)]
        if not moved_keys:
            return
        new_addr = self.predecessor[1]
        groups: List[dict] = []
        payload_bytes = 0
        moved_repo_keys: set = set()
        for key in moved_keys:
            for repo_key in self.rendezvous_index[key]:
                repo = self.zone_repos.pop(repo_key, None)
                if repo is None:
                    continue
                moved_repo_keys.add(repo_key)
                group, group_bytes = repo.export()
                groups.append(group)
                payload_bytes += group_bytes
            del self.rendezvous_index[key]

        # Crash-rejoin resync: the joiner's marker-served internal repos
        # (levels >= the direct radius, reached only through surrogate
        # subscriptions that carry its node id) are invisible to the
        # rendezvous handoff above.  Our standby replicas -- which we
        # kept serving during the takeover window via ``standby_markers``
        # -- are the surviving copies; ship them as no-cascade snapshots,
        # marker mappings included, so the joiner can answer its own
        # surrogate subscriptions again.  For a fresh joiner (an id never
        # seen before) there are no such markers and this adds nothing.
        markers = []
        snapshots: List[dict] = []
        snapshotted: set = set()
        for (nid, iid), repo_key in self.standby_markers.items():
            if repo_key in moved_repo_keys or nid == new_id:
                markers.append((nid, iid, list(repo_key)))
            if nid != new_id:
                continue
            if repo_key in moved_repo_keys or repo_key in snapshotted:
                continue
            repo = self.standby_repos.get(repo_key)
            if repo is None:
                continue
            snapshotted.add(repo_key)
            group, group_bytes = repo.export()
            snapshots.append(group)
            payload_bytes += group_bytes
        markers.extend(
            (self.node_id, iid, list(repo_key))
            for iid, repo_key in self.marker_origin.items()
            if repo_key in moved_repo_keys
        )
        dur_state = None
        if self.durable is not None:
            # Site-side ordering state travels with the keys: the new
            # owner must resume each per-key stream where we left it or
            # the sequence space would fork (duplicates / stalls).
            dur_state = self.durable.export_site_state(set(moved_keys))
            if not (dur_state["site_w"] or dur_state["mseq"]):
                dur_state = None
        if not groups and not snapshots and not markers and dur_state is None:
            return
        payload = {
            "groups": groups,
            "snapshots": snapshots,
            "markers": markers,
        }
        if dur_state is not None:
            payload["durable"] = dur_state
            payload_bytes += DURABLE_META_BYTES * (
                len(dur_state["site_w"]) + len(dur_state["mseq"])
            )
        self.send(
            Message(
                src=self.addr,
                dst=new_addr,
                kind="ps_handoff",
                payload=payload,
                size_bytes=CONTROL_BYTES
                + payload_bytes
                + SUBID_BYTES * len(markers),
            )
        )

    def _on_ps_handoff(self, msg: Message) -> None:
        for group in msg.payload["groups"]:
            self._absorb_repo(group, "cascade")
        for group in msg.payload.get("snapshots", ()):
            # Marker-served internal repos restored after a crash-rejoin.
            self._absorb_repo(group, "verbatim")
        self._absorb_markers(msg.payload.get("markers", ()))
        dur_state = msg.payload.get("durable")
        if dur_state is not None and self.durable is not None:
            self.durable.absorb_site_state(dur_state)

    # ------------------------------------------------------------------
    # Restart resync (self-healing extension)
    # ------------------------------------------------------------------
    def request_resync(self) -> None:
        """Ask the last-known successors to return our arc after a restart.

        A crash shorter than every failure-detection timescale (a flap)
        is invisible to the membership layer: no predecessor ever
        changes, so neither the arc handoff nor anti-entropy promotion
        fires, and the restarted node answers for its keys with empty
        repositories while its old successors sit on standby copies
        forever.  The restarting node is the one peer that *knows* it
        lost state, so it solicits those standby holders directly.
        """
        k = self.system.config.replication_factor
        for _succ_id, succ_addr in self.successors[: k - 1]:
            self.send(
                Message(
                    src=self.addr,
                    dst=succ_addr,
                    kind="ps_resync",
                    payload={"origin": self.addr, "origin_id": self.node_id},
                    size_bytes=CONTROL_BYTES,
                )
            )

    def _on_ps_resync(self, msg: Message) -> None:
        """Ship every standby copy (and marker mapping) to a restarter.

        Over-shipping is deliberate: the receiver keeps everything as
        standby and lets promotion sort live from spare, so the sender
        needs no view of the restarter's exact arc boundaries.
        """
        p = msg.payload
        groups: List[dict] = []
        shipped: set = set()
        payload_bytes = 0
        for repo_key, repo in self.standby_repos.items():
            group, group_bytes = repo.export()
            groups.append(group)
            shipped.add(repo_key)
            payload_bytes += group_bytes
        markers = [
            (nid, iid, list(repo_key))
            for (nid, iid), repo_key in self.standby_markers.items()
            if nid == p["origin_id"] or repo_key in shipped
        ]
        if not groups and not markers:
            return
        self.send(
            Message(
                src=self.addr,
                dst=p["origin"],
                kind="ps_resync_state",
                payload={"groups": groups, "markers": markers},
                size_bytes=CONTROL_BYTES
                + payload_bytes
                + SUBID_BYTES * len(markers),
            )
        )

    def _on_ps_resync_state(self, msg: Message) -> None:
        # Repos serving our own surrogate subscriptions (marker-served
        # internal zones) are installed verbatim live, exactly like the
        # handoff snapshot path.  Everything else lands as standby;
        # promotion turns the keys we answer for live once the ring view
        # settles.
        own = {
            tuple(repo_key)
            for nid, _iid, repo_key in msg.payload.get("markers", ())
            if nid == self.node_id
        }
        own.update(self.marker_origin.values())
        for group in msg.payload["groups"]:
            mode = "verbatim" if tuple(group["repo"]) in own else "standby"
            self._absorb_repo(group, mode)
        self._absorb_markers(msg.payload.get("markers", ()))
        self.promote_takeovers()
        # Our predecessor pointer may still be settling; retry promotion
        # once stabilization has had a couple of rounds (anti-entropy,
        # where enabled, keeps retrying every interval anyway).
        for mult in (2.0, 4.0):
            self.sim.schedule(
                mult * self.stabilize_interval_ms, self.promote_takeovers
            )

    def _on_ps_unregister(self, msg: Message) -> None:
        p = msg.payload
        self._unregister_local(p["entity"], p["code"], p["level"], SubID(*p["subid"]))

    def _unregister_local(
        self, entity_key: str, code: int, level: int, subid: SubID
    ) -> None:
        repo = self.zone_repos.get((entity_key, code, level))
        if repo is None or subid not in repo.store:
            # stale (e.g. the copy was migrated away)
            self.network.stats.record_stale_unregister()
            return
        repo.remove(subid)
        # The removed box may have been what held the filter wide.
        self._refresh_summary(repo)

    # ------------------------------------------------------------------
    # Algorithms 4 & 5: publish and deliver
    # ------------------------------------------------------------------
    def publish(self, event) -> int:
        """Inject an event; returns its id for metric correlation.

        The event message starts at the publisher with one rendezvous
        entry per entity of the scheme and is routed recursively through
        the overlay's embedded tree (Algorithm 5 handles the rendezvous
        entry with the same grouping logic as every other SubID).
        """
        event_id = self.system.metrics.new_event(event, self.addr, self.sim.now)
        cfg = self.system.config
        durable = self.durable
        ordering = cfg.ordering if durable is not None else "none"
        fields = {
            "event_id": event_id,
            "scheme": event.scheme_name,
            "point": event.point,
        }
        span_extra: Dict[str, Any] = {}
        if ordering == "causal":
            # The event is funnelled through the scheme's sequencer,
            # which assigns its place in the total order and computes
            # the real rendezvous fan-out.  One "seq" custody entry
            # covers the whole publish until the sequencer acks.
            durable.pub_pseq += 1
            pseq = durable.pub_pseq
            deps = [
                [a, n]
                for a, n in sorted(durable.causal_ctx.items())
                if a != self.addr and n > durable.causal_sent.get(a, 0)
            ]
            for a, n in deps:
                durable.causal_sent[a] = n
            durable.causal_ctx[self.addr] = pseq
            durable.causal_sent[self.addr] = pseq
            seq_addr = self.system.sequencer_addr(event.scheme_name)
            fields.update(pub=self.addr, pseq=pseq, deps=deps)
            meta = {"s": ["S", seq_addr], "k": pseq, "q": 1}
            self._dur_log("seq", dict(fields, rt=self.sim.now), -1, None, meta)
            entries = [(-1, None, meta)]
            span_extra = {"pseq": pseq, "deps": deps}
        else:
            keys = self._event_target_keys(
                event.scheme_name, event.point, filter_leaf=ordering != "none"
            )
            if durable is None:
                entries = [(key, None) for key in keys]
            else:
                # publisher-FIFO: one sequenced stream per key
                stream = ("P", self.addr) if ordering == "fifo" else None
                entries = self._dur_key_entries(
                    dict(fields, rt=self.sim.now), keys, stream
                )
        root_span = None
        tel = self.system.telemetry
        if tel is not None:
            tel.registry.counter("events.published").inc()
            if tel.tracing:
                root_span = tel.tracer.span(
                    "publish",
                    t=self.sim.now,
                    node=self.addr,
                    event=event_id,
                    scheme=event.scheme_name,
                    entries=len(entries),
                    **span_extra,
                )
        self._process_event(
            self._local_event(fields, entries, 0, 0.0, self.sim.now, root_span)
        )
        return event_id

    def _event_target_keys(
        self, scheme_name: str, point, filter_leaf: bool = False
    ) -> List[int]:
        """Rendezvous keys an event visits, in climb order.

        With R > 0 the event also visits its shallow ancestors directly
        (they push no surrogate subscriptions).  Empty shallow zones are
        skipped via the occupancy directory -- matching the cascade
        design, where the climb only reaches zones that registered
        something below themselves.  ``filter_leaf`` extends the same
        occupancy skip to the leaf zone itself: ordered durable modes
        must not take custody for a key nobody can ever ack (the config
        forces the fully direct topology there, so leaves are tracked).
        """
        direct = self.system.config.direct_rendezvous_levels
        keys: List[int] = []
        seen_keys = set()
        for entity in self.system.entities_of(scheme_name):
            leaf = entity.zone_of_point(point)
            targets = []
            if not filter_leaf or self.system.shallow_occupied(
                (entity.key, leaf.code, leaf.level)
            ):
                targets.append(leaf)
            zone = leaf
            while zone.level > 0:
                zone = zone.parent()
                if zone.level < direct and self.system.shallow_occupied(
                    (entity.key, zone.code, zone.level)
                ):
                    targets.append(zone)
            for z in targets:
                key = entity.rotated_key(z)
                if key not in seen_keys:
                    seen_keys.add(key)
                    keys.append(key)
        return keys

    def _pb_due(self, dst_addr: int) -> bool:
        """Attach ring state only where it can replace maintenance RPCs.

        Piggybacked state helps the *receiver* skip (a) pinging its
        predecessor -- we must be that predecessor candidate, i.e. the
        receiver is our successor -- or (b) stabilizing with its
        successor -- we must be that successor, i.e. the receiver is
        our predecessor.  Other links gain nothing, and even on useful
        links once per half-interval keeps the state fresh.
        """
        useful = set()
        if self.successors:
            useful.add(self.successors[0][1])
        if self.predecessor is not None:
            useful.add(self.predecessor[1])
        if dst_addr not in useful:
            return False
        interval = self.stabilize_interval_ms / 2.0
        last = self._pb_last_sent.get(dst_addr)
        if last is not None and self.sim.now - last < interval:
            return False
        self._pb_last_sent[dst_addr] = self.sim.now
        return True

    # ------------------------------------------------------------------
    # Reliable event transport (extension)
    # ------------------------------------------------------------------
    def _send_event_reliably(self, msg: Message) -> None:
        """Attach a sequence number, arm the retransmission timer."""
        self._rel_seq += 1
        seq = self._rel_seq
        msg.payload["rseq"] = seq
        if self._rel_epoch:
            msg.payload["repoch"] = self._rel_epoch
        state = {
            "dst": msg.dst,
            "payload": msg.payload,
            "size": msg.size_bytes,
            "hops": msg.hops,
            "path_latency": msg.path_latency,
            "root_time": msg.root_time,
            "retries": 0,
            "busy": 0,
            "span": msg.span_id,
        }
        self._rel_pending[seq] = state
        self.network.send(msg)
        # The timer is kept so the ack can cancel it and a ps_busy NACK
        # can replace it by a backoff timer.
        state["timer"] = self.system.retransmit_lane.arm(self._rel_retry, seq)

    def _rel_retry(self, seq: int) -> None:
        state = self._rel_pending.get(seq)
        if state is None:
            return  # acked in time
        if not self._alive:
            # A dead incarnation transmits nothing: the packet is
            # abandoned, counted like an exhausted retry budget.
            del self._rel_pending[seq]
            self._count_give_up(
                state["payload"], span=state.get("span"), cause="retries"
            )
            return
        if self.breaker is not None and self.breaker.record_failure(
            state["dst"], self.sim.now
        ):
            self._note_breaker_open(state["dst"])
        if state["retries"] >= self.system.config.max_retries:
            del self._rel_pending[seq]
            # Hop presumed dead.  With hop-failover the pending SubIDs
            # are re-grouped onto an alternate route; otherwise the
            # give-up is *counted* (NetworkStats.gave_up) -- the seed
            # dropped these silently, making exhausted hops invisible.
            if self.system.config.hop_failover:
                self._hop_failover(state)
            else:
                self._count_give_up(
                    state["payload"], span=state.get("span"), cause="retries"
                )
            return
        state["retries"] += 1
        self._trace(
            "retransmit", event=state["payload"]["event_id"],
            parent=state.get("span"), dst=state["dst"], attempt=state["retries"],
        )
        self._rel_retransmit(seq, state)

    def _rel_retransmit(self, seq: int, state: dict) -> None:
        """Put a pending packet on the wire again and re-arm its timer.

        The packet is rebuilt from the pending state: the object sent
        earlier is not a record of it (``Network._deliver`` counts hops
        on the object it is handed).
        """
        self.network.stats.retransmissions += 1
        # A retransmission is real traffic.
        self.system.metrics.on_event_message(
            state["payload"]["event_id"], state["size"]
        )
        self.network.send(
            Message(
                self.addr, state["dst"], "ps_event", state["payload"],
                state["size"], state["hops"], state["path_latency"],
                state["root_time"], state.get("span"),
            )
        )
        state["timer"] = self.system.retransmit_lane.arm(self._rel_retry, seq)

    def _count_give_up(
        self, payload: dict, span: Optional[int] = None, cause: str = "retries"
    ) -> None:
        """Account an abandoned event packet (it is real delivery risk).

        ``cause`` is one of :data:`repro.sim.stats.GIVE_UP_CAUSES`; the
        per-cause counters let the guarantees experiment attribute
        exactly which loss mechanism durable redelivery recovers.
        """
        entries = payload.get("entries", ())
        self.network.stats.record_give_up(cause, len(entries))
        self.system.metrics.on_give_up(payload["event_id"], len(entries))
        self._trace(
            "give_up", event=payload["event_id"], parent=span,
            entries=len(entries), cause=cause,
        )

    # ------------------------------------------------------------------
    # Hop-failover rerouting (self-healing extension)
    # ------------------------------------------------------------------
    def _hop_failover(self, state: dict) -> None:
        """Retry exhaustion against one hop: evict the corpse, reroute.

        The dead address is purged from the local routing tables (the
        retry exhaustion is stronger death evidence than one maintenance
        timeout), then after ``failover_backoff_ms`` -- a beat for ring
        maintenance to converge around the failure -- the packet's
        SubIDs re-enter Algorithm 5 locally and are re-grouped onto the
        surviving fingers/successors.  Each packet lineage carries a
        failover budget (``fo``) so repeated dead hops terminate in a
        counted give-up instead of looping.
        """
        dead_addr = state["dst"]
        self.evict_neighbor(dead_addr)
        fo = state["payload"].get("fo")
        if fo is None:
            fo = self.system.config.failover_max_attempts
        if fo <= 0 or not self._alive:
            self._count_give_up(
                state["payload"], span=state.get("span"), cause="failover"
            )
            return
        sid = self._trace(
            "failover", event=state["payload"]["event_id"],
            parent=state.get("span"), dead=dead_addr, budget=fo,
        )
        if sid is not None:
            # Reroutes nest under the failover decision, keeping the
            # causal chain publish -> forward -> failover -> forward.
            state["span"] = sid
        self.sim.schedule(
            self.system.config.failover_backoff_ms,
            self._failover_resend,
            state,
            fo - 1,
        )

    def _failover_resend(self, state: dict, fo: int) -> None:
        if not self._alive:
            self._count_give_up(
                state["payload"], span=state.get("span"), cause="failover"
            )
            return
        p = state["payload"]
        # Re-enter Algorithm 5 at this node: responsibility may have
        # shifted to us meanwhile (takeover), in which case the entries
        # are served locally from standby replicas; otherwise they are
        # re-grouped by the repaired routing tables and forwarded.
        self._process_event(
            self._local_event(
                p, list(p["entries"]), state["hops"], state["path_latency"],
                state["root_time"], state.get("span"), fo=fo,
            )
        )

    def _local_event(
        self, fields: Dict[str, Any], entries: List[tuple], hops: int,
        path_latency: float, root_time: float, span_id: Optional[int],
        fo: Optional[int] = None,
    ) -> Message:
        """The one writer of an event packet this node addresses to
        itself (publish root, failover re-entry, parked out-of-order
        entry, sequencer emit, custody redelivery): zero bytes, the
        event-constant ``fields`` -- ordering context included, or the
        custody chain of an ordered mode would strand -- around
        ``entries``, and the path metadata of what it continues."""
        payload = _event_fields(fields)
        payload["entries"] = entries
        if fo is not None:
            payload["fo"] = fo
        return Message(
            self.addr, self.addr, "ps_event", payload, 0,
            hops, path_latency, root_time, span_id,
        )

    def _on_ps_event_ack(self, msg: Message) -> None:
        state = self._rel_pending.pop(msg.payload["rseq"], None)
        if state is None:
            return
        # Retransmission timer or ps_busy backoff timer, whichever is armed.
        self.sim.cancel(state["timer"])
        if self.breaker is not None:
            self.breaker.record_success(state["dst"])

    # ------------------------------------------------------------------
    # Overload protection (bounded-ingress extension; docs/FAULTS.md)
    # ------------------------------------------------------------------
    #: Message kinds that may be shed under overload.  Everything else
    #: (acks, anti-entropy, arc handoffs, migration, maintenance RPCs)
    #: is control traffic and outranks events, so the system can keep
    #: healing itself while saturated.
    _SHEDDABLE_KINDS = frozenset({"ps_event", "ps_storm"})

    def ingress_priority(self, msg: Message) -> int:
        if not self.system.config.overload_protection:
            return 1  # priority-blind FIFO: the unprotected baseline
        return 1 if msg.kind in self._SHEDDABLE_KINDS else 0

    def on_ingress_shed(self, msg: Message) -> None:
        """A packet was shed from our full ingress queue (admission
        control).  Shedding is never silent: a reliable event packet is
        NACKed with ``ps_busy`` (the sender's copy stays pending, backs
        off and retries), anything else that carried deliveries is
        accounted exactly like a transport give-up."""
        p = msg.payload if isinstance(msg.payload, dict) else None
        protected = self.system.config.overload_protection
        if protected:
            self.network.stats.shed += 1
        self._trace(
            "shed", event=p.get("event_id") if p is not None else None,
            parent=msg.span_id, msg_kind=msg.kind, src=msg.src,
        )
        if p is None:
            return
        rseq = p.get("rseq")
        if protected and rseq is not None and msg.src != self.addr:
            self.send(
                Message(
                    src=self.addr, dst=msg.src, kind="ps_busy",
                    payload={"rseq": rseq}, size_bytes=CONTROL_BYTES,
                )
            )
        elif rseq is None and "event_id" in p:
            # Fire-and-forget packet: nobody will retransmit it.
            self._count_give_up(p, span=msg.span_id, cause="shed")

    def _on_ps_busy(self, msg: Message) -> None:
        """Backpressure NACK: the next hop shed our packet (queue full).

        Unlike an ack timeout this is proof the hop is *alive*, so the
        retransmission consumes no retry budget; it is rescheduled with
        exponential backoff (doubling per consecutive busy, capped) so
        senders drain a saturated queue instead of hammering it.
        """
        seq = msg.payload["rseq"]
        state = self._rel_pending.get(seq)
        if state is None:
            return  # a duplicate was served meanwhile, or we gave up
        state["busy"] += 1
        self.network.stats.busy_backoffs += 1
        if self.breaker is not None and self.breaker.record_failure(
            msg.src, self.sim.now
        ):
            self._note_breaker_open(msg.src)
        self.sim.cancel(state["timer"])
        cfg = self.system.config
        delay = min(
            cfg.retransmit_timeout_ms
            * (cfg.busy_backoff_factor ** state["busy"]),
            cfg.busy_backoff_max_ms,
        )
        self._trace(
            "busy", event=state["payload"]["event_id"],
            parent=state.get("span"), dst=state["dst"], backoff_ms=delay,
        )
        state["timer"] = self.sim.schedule(delay, self._rel_busy_resend, seq)

    def _rel_busy_resend(self, seq: int) -> None:
        state = self._rel_pending.get(seq)
        if state is None:
            return  # acked while backing off (an earlier copy was served)
        if not self._alive:
            del self._rel_pending[seq]
            self._count_give_up(
                state["payload"], span=state.get("span"), cause="retries"
            )
            return
        self._rel_retransmit(seq, state)

    def _note_breaker_open(self, dst: int) -> None:
        self.network.stats.breaker_opens += 1
        self._trace("breaker_open", dst=dst)

    def _route_around(self, key: int, hot: int) -> Optional[int]:
        """Open circuit to ``hot``: alternate routing entry for ``key``.

        Reuses the hop-failover machinery's route diversity: any entry
        strictly inside ``(self, key)`` still makes clockwise progress
        without overshooting the home node (Chord's guarantee), so the
        best such entry that avoids every open destination carries the
        traffic around the hot surrogate.  ``None`` when no alternate
        exists -- the caller then forwards to ``hot`` anyway, which
        doubles as the breaker's half-open probe.
        """
        avoid = self.breaker.open_dsts(self.sim.now)
        avoid.add(hot)
        avoid.add(self.addr)
        best = None
        best_dist = -1
        for ent_id, ent_addr in self.routing_entries():
            if ent_addr in avoid:
                continue
            if id_in_interval(ent_id, self.node_id, key):
                d = cw_distance(self.node_id, ent_id)
                if d > best_dist:
                    best = ent_addr
                    best_dist = d
        return best

    # -- fused route decision (perf contract, docs/PERFORMANCE.md) ------
    def _route_cache(self) -> Dict[int, Any]:
        """The decision cache, flushed if the routing epoch moved.

        A flushed epoch is the sole invalidation rule: responsibility
        and next hop depend only on predecessor/successors/fingers, and
        any mutation of those bumps the epoch (dht/base.py), so a hit
        is byte-identical to recomputing.  Breaker reroutes happen
        downstream of the decision and are never written back -- an
        open circuit must not poison routing for the breaker's
        lifetime.
        """
        epoch = self.routing_epoch
        if epoch != self._rc_epoch:
            self._rc.clear()
            self._rc_epoch = epoch
        return self._rc

    def _route_miss(self, nid: int):
        """Decide where an entry for ``nid`` goes, from routing state
        alone -- ``_RC_HERE``, a next-hop address, or ``None``
        (unroutable) -- and remember the answer."""
        self.rc_misses += 1
        if self.is_responsible(nid):
            decision = _RC_HERE
        else:
            decision = self.next_hop_addr(nid)
        if len(self._rc) >= ROUTE_CACHE_MAX:
            self._rc.clear()
        self._rc[nid] = decision
        return decision

    def _cached_next_hop(self, nid: int) -> Optional[int]:
        """``next_hop_addr`` through the decision cache (``None`` when
        this node is responsible, like the uncached call)."""
        decision = self._route_cache().get(nid, _RC_MISS)
        if decision is _RC_MISS:
            decision = self._route_miss(nid)
        else:
            self.rc_hits += 1
        return None if decision is _RC_HERE else decision

    def _on_ps_storm(self, msg: Message) -> None:
        """Synthetic storm traffic (``FaultSchedule.storm``): its entire
        cost is the service time it consumed in the ingress queue."""

    def _on_ps_event(self, msg: Message) -> None:
        """``ps_event`` receive wrapper of a config with reliable
        transport or piggybacked maintenance (registered by
        ``_init_pubsub``; any other config registers ``_process_event``
        itself): ack + packet-level dedup, ring-state absorption."""
        p = msg.payload
        if "rseq" in p:
            rseq = p["rseq"]
            self.network.send(
                Message(
                    self.addr, msg.src, "ps_event_ack", {"rseq": rseq},
                    CONTROL_BYTES,
                )
            )
            key = (
                (rseq << REL_EPOCH_BITS | p.get("repoch", 0)) << _REL_ADDR_BITS
            ) | msg.src
            if key in self._rel_seen:
                # duplicate (our ack was lost, or the network ghosted a
                # copy): already processed
                self.network.stats.record_duplicate_packet()
                return
            self._rel_seen.add(key)
        if "pb" in p:
            pb = p["pb"]
            self.absorb_piggyback(
                pb["id"],
                pb["addr"],
                tuple(pb["pred"]) if pb["pred"] else None,
                tuple(pb["succ"]) if pb["succ"] else None,
            )
        self._process_event(msg)

    def _process_event(self, msg: Message) -> None:
        """Algorithm 5: one node's share of the dissemination tree.

        The best-effort packet -- ``(nid, iid)`` entries, the four base
        payload fields -- is the straight line through this function.
        Everything a guarantee adds (custody metadata on an entry,
        ordering context, failover budget, piggybacked ring state,
        spans) is paid for only by packets that carry it: one test
        ahead of the emit loop sends those through the general one.
        """
        p = msg.payload
        if msg.hops > EVENT_TTL_HOPS:
            self._count_give_up(p, span=msg.span_id, cause="ttl")
            return
        event_id = p["event_id"]
        point = p["point"]
        scheme_name = p["scheme"]
        addr = self.addr
        breaker = self.breaker
        # The decision cache, flushed if the routing epoch moved (the
        # rule is ``_route_cache``'s).  Hits are counted by difference.
        rc = self._rc
        if self.routing_epoch != self._rc_epoch:
            rc.clear()
            self._rc_epoch = self.routing_epoch
        rc_get = rc.get
        non_hits = 0
        carries_meta = False

        # The worklist grows while it is walked: SubIDs matched here are
        # appended and handled in arrival order, like every other entry.
        worklist = list(p["entries"])
        groups: Dict[int, List[tuple]] = {}
        for ent in worklist:
            if len(ent) == 2:
                nid, iid = ent
                meta = None
            else:
                nid, iid, meta = ent
                carries_meta = True
                if "q" in meta:
                    # Sequencer-bound entry (causal mode): routed by
                    # network address, not by DHT id -- the sequencer is
                    # pinned.
                    non_hits += 1
                    seq_addr = meta["s"][1]
                    if seq_addr == addr:
                        worklist.extend(self._seq_ingest(p, meta, msg))
                    else:
                        groups.setdefault(seq_addr, []).append(ent)
                    continue
            nh = rc_get(nid, _RC_MISS)
            if nh is _RC_MISS:
                non_hits += 1  # _route_miss counts it
                nh = self._route_miss(nid)
            if nh is _RC_HERE:
                if meta is None:
                    more = self._handle_local_entry(
                        event_id, scheme_name, point, nid, iid, msg
                    )
                else:
                    more = self._durable_handle(p, nid, iid, meta, msg)
                if more:
                    worklist.extend(more)
                continue
            if nh is None or nh == addr:
                # Unroutable (healing ring) or a degenerate self-hop
                # -- a self-forward costs zero latency and no hops,
                # i.e. an infinite loop at frozen simulated time.
                # Drop the entry, counted: durable custody redelivers
                # it once the ring converges; best-effort never
                # promised it.
                self.network.stats.record_unroutable()
                continue
            if breaker is not None and not breaker.allow(nh, self.sim.now):
                alt = self._route_around(nid, nh)
                if alt is not None:
                    nh = alt
            group = groups.get(nh)
            if group is None:
                groups[nh] = [ent]
            else:
                group.append(ent)
        self.rc_hits += len(worklist) - non_hits
        if not groups:
            return

        system = self.system
        tel = system.telemetry
        tracing = tel is not None and tel.tracing
        edge_tracing = system.tracing
        on_event_message = system.metrics.on_event_message
        send = self.network.send
        if (
            self._ev_plain
            and len(p) == 4
            and not (carries_meta or tracing or edge_tracing)
        ):
            # Nothing to inherit, attach or record: one packet per link,
            # sized by the paper's formula, continuing ``msg``'s path.
            hops = msg.hops
            path_latency = msg.path_latency
            root_time = msg.root_time
            for nh, ents in groups.items():
                size = _EVENT_BASE_BYTES + SUBID_BYTES * len(ents)
                on_event_message(event_id, size)
                send(
                    Message(
                        addr, nh, "ps_event",
                        {
                            "event_id": event_id,
                            "scheme": scheme_name,
                            "point": point,
                            "entries": ents,
                        },
                        size, hops, path_latency, root_time,
                    )
                )
            return

        # What the forwarded packets inherit is a property of the packet
        # that came in, looked up once for all of them.
        cfg = system.config
        inherited = {name: p[name] for name in _INHERITED_FIELDS if name in p}
        extra_bytes = (
            DEP_ENTRY_BYTES * len(inherited["deps"]) if "deps" in inherited else 0
        )
        piggyback = None
        if cfg.piggyback_maintenance:
            piggyback = {
                "id": self.node_id,
                "addr": addr,
                "pred": self.predecessor,
                "succ": self.successors[0] if self.successors else None,
            }
        reliable = cfg.reliable_delivery
        for nh, ents in groups.items():
            size = event_message_bytes(len(ents)) + extra_bytes
            if carries_meta:
                # entries are (nid, iid) or (nid, iid, meta)
                size += DURABLE_META_BYTES * (sum(map(len, ents)) - 2 * len(ents))
            payload = {
                "event_id": event_id,
                "scheme": scheme_name,
                "point": point,
                "entries": ents,
            }
            if inherited:
                # (the failover budget is bounded per packet lineage)
                payload.update(inherited)
            if piggyback is not None and self._pb_due(nh):
                payload["pb"] = piggyback
                size += PIGGYBACK_BYTES
            child = msg.child(addr, nh, "ps_event", payload, size)
            on_event_message(event_id, size)
            # One call site feeds both edge views: the EventRecord list
            # and the causal trace ("forward" spans) stay in lockstep.
            if tracing:
                child.span_id = tel.tracer.span(
                    "forward",
                    t=self.sim.now,
                    node=addr,
                    event=event_id,
                    parent=msg.span_id,
                    src=addr,
                    dst=nh,
                    entries=len(ents),
                    bytes=size,
                )
            if edge_tracing:
                system.metrics.on_event_edge(event_id, addr, nh, len(ents))
            if reliable:
                self._send_event_reliably(child)
            else:
                send(child)

    def _trace_match(self, event_id: int, msg: Message, n_matched: int) -> None:
        """Record one matching step in the causal trace (if active)."""
        tel = self.system.telemetry
        if tel is not None and tel.tracing and n_matched:
            tel.tracer.span(
                "match",
                t=self.sim.now,
                node=self.addr,
                event=event_id,
                parent=msg.span_id,
                entries=n_matched,
            )

    def _handle_local_entry(
        self,
        event_id: int,
        scheme_name: str,
        point: np.ndarray,
        nid: int,
        iid: Optional[int],
        msg: Message,
    ) -> List[Tuple[int, Optional[int]]]:
        """Process one SubID addressed to this node; return merged SubIDs."""
        if iid is None:
            # Rendezvous entry: match every repo reachable at this key
            # (the event's leaf, plus directly-visited shallow zones; an
            # ancestor's key may equal its rightmost leaf's key).
            matched: List[Tuple[int, Optional[int]]] = []
            for repo_key in self.rendezvous_index.get(nid, ()):
                repo = self.zone_repos[repo_key]
                entity = self.system.entity(repo.entity_key)
                if entity.scheme.name != scheme_name:
                    continue
                matched += [
                    (s.nid, s.iid) for s in repo.store.match_point(point)
                ]
            if not matched:
                # Takeover path: we are responsible for this key but hold
                # no live repo -- a standby replica of the failed primary
                # serves the match instead (replication extension).
                for repo_key in self.standby_rendezvous.get(nid, ()):
                    if repo_key in self.zone_repos:
                        continue  # already served live above
                    repo = self.standby_repos[repo_key]
                    entity = self.system.entity(repo.entity_key)
                    if entity.scheme.name != scheme_name:
                        continue
                    matched += [
                        (s.nid, s.iid) for s in repo.store.match_point(point)
                    ]
            self._trace_match(event_id, msg, len(matched))
            return matched

        # Local iid tables are only meaningful for OUR node id: being
        # *responsible* for nid is weaker than *being* nid -- after a
        # takeover we are responsible for a dead node's arc and its
        # SubIDs route here, but its iid values must never be confused
        # with our own (Algorithm 5 searches by the full SubID).
        if nid == self.node_id:
            own = self.own_subs.get(iid)
            if own is not None:
                _entity_key, sub, _zone, subid = own
                if sub.scheme_name != scheme_name:
                    self.network.stats.record_scheme_mismatch()
                    return []
                once = event_id << 48 | iid
                if once in self._delivered:
                    # failover redelivery under a fresh packet
                    self.network.stats.record_duplicate_entry()
                    return []
                self._delivered.add(once)
                latency_ms = self.sim.now - msg.root_time
                system = self.system
                system.metrics.on_delivery(
                    event_id, subid, self.addr, msg.hops, latency_ms
                )
                tel = system.telemetry
                if tel is not None:
                    tel.registry.counter("events.delivered").inc()
                    tel.registry.histogram("delivery.hops").observe(msg.hops)
                    tel.registry.histogram("delivery.latency_ms").observe(
                        latency_ms
                    )
                    if tel.tracing:
                        tel.tracer.span(
                            "deliver",
                            t=self.sim.now,
                            node=self.addr,
                            event=event_id,
                            parent=msg.span_id,
                            subid=[self.node_id, iid],
                            hops=msg.hops,
                            latency_ms=latency_ms,
                        )
                system.notify_application(self.addr, event_id, subid)
                return []

            repo_key = self.marker_origin.get(iid)
            if repo_key is not None:
                # A surrogate subscription fired in a child zone: match
                # the summarised repository (the climb toward the root).
                # After an arc handoff the live copy may have moved to
                # our predecessor; an anti-entropy standby answers then.
                repo = self.zone_repos.get(repo_key) or self.standby_repos.get(
                    repo_key
                )
                if repo is not None:
                    matched = [
                        (s.nid, s.iid) for s in repo.store.match_point(point)
                    ]
                    self._trace_match(event_id, msg, len(matched))
                    return matched

            entry = self.migrated.get(iid)
            if entry is not None:
                mig_scheme, store = entry
                if mig_scheme != scheme_name:
                    self.network.stats.record_scheme_mismatch()
                    return []
                matched = [(s.nid, s.iid) for s in store.match_point(point)]
                self._trace_match(event_id, msg, len(matched))
                return matched

        # Takeover path: a surrogate subscription of a failed primary --
        # we are the successor of its id, so its marker entries route
        # here; serve the summarised repo from the standby replica.
        standby_key = self.standby_markers.get((nid, iid))
        if standby_key is not None and nid != self.node_id:
            # The replica may have been promoted to a live repo by
            # anti-entropy takeover; either copy answers the marker.
            repo = self.standby_repos.get(standby_key) or self.zone_repos.get(
                standby_key
            )
            if repo is not None:
                entity = self.system.entity(repo.entity_key)
                if entity.scheme.name == scheme_name:
                    return [
                        (s.nid, s.iid) for s in repo.store.match_point(point)
                    ]

        # Migrated store inherited from a gracefully departed node.
        inherited = self.standby_migrated.get((nid, iid))
        if inherited is not None and nid != self.node_id:
            mig_scheme, store = inherited
            if mig_scheme != scheme_name:
                self.network.stats.record_scheme_mismatch()
                return []
            return [(s.nid, s.iid) for s in store.match_point(point)]

        # stale SubID (unsubscribed / departed): dropped, counted
        self.network.stats.record_stale_subid()
        return []

    # ------------------------------------------------------------------
    # Durable delivery: custody transfer (delivery-guarantees extension)
    # ------------------------------------------------------------------
    def _dur_log(
        self,
        kind: str,
        ev: Dict[str, Any],
        nid: int,
        iid: Optional[int],
        meta: Dict[str, Any],
    ) -> None:
        """Take custody: log the obligation, stamp ``meta`` with it."""
        entry, evicted = self.durable.append(
            kind, ev, nid, iid, meta, self.sim.now
        )
        meta["t"] = [self.addr, entry.tok]
        self.network.stats.record_durable("appends")
        for old in evicted:
            self._dur_truncated(old)

    def _dur_truncated(self, entry) -> None:
        """Count + trace a budget eviction (a permanent, visible loss)."""
        self.network.stats.record_durable("truncated")
        self._trace(
            "durable_truncate", event=entry.event["event_id"], entry_kind=entry.kind
        )

    def _dur_ack(self, meta: Dict[str, Any], event_id: int) -> None:
        """Retire ``meta``'s custody entry at its custodian.

        Subscriber-level acks are deliberately unreliable control
        packets: a lost dack just means one more (idempotent)
        redelivery, which the duplicate path re-dacks.
        """
        t = meta.get("t")
        if t is None:  # pragma: no cover - defensive
            return
        cust, tok = t
        if cust == self.addr:
            if self.durable is not None and self.durable.ack(tok) is not None:
                self.network.stats.record_durable("acked")
            return
        self.system.metrics.on_event_message(event_id, CONTROL_BYTES)
        self.network.send(
            Message(
                self.addr, cust, "ps_dack", {"tok": tok, "event": event_id},
                CONTROL_BYTES,
            )
        )

    def _on_ps_dack(self, msg: Message) -> None:
        if self.durable is None:  # pragma: no cover - defensive
            return
        if self.durable.ack(msg.payload["tok"]) is not None:
            self.network.stats.record_durable("acked")

    def _dur_event_fields(self, p: dict, msg: Message) -> Dict[str, Any]:
        """Event-constant fields a custody entry must replay verbatim."""
        ev = _event_fields(p)
        ev["rt"] = msg.root_time
        return ev

    def _dur_parked_msg(self, p: dict, ent: tuple, msg: Message) -> Message:
        """Wrap one out-of-order entry for later local re-processing."""
        return self._local_event(
            p, [ent], msg.hops, msg.path_latency, msg.root_time, msg.span_id
        )

    def _dur_key_entries(
        self, ev: Dict[str, Any], keys: List[int], stream: Optional[tuple]
    ) -> List[tuple]:
        """Rendezvous keys -> one logged ``key`` custody entry each; in
        an ordered mode each takes its ``stream``'s next kseq at the key."""
        entries = []
        for key in keys:
            meta: Dict[str, Any] = {}
            if stream is not None:
                meta["s"] = list(stream)
                meta["k"] = self.durable.next_kseq(stream, key)
            self._dur_log("key", ev, key, None, meta)
            entries.append((key, None, meta))
        return entries

    def _dur_take_custody(
        self, p: dict, msg: Message, matched: List[tuple],
        stream: Optional[tuple] = None, key: Optional[int] = None,
    ) -> List[tuple]:
        """Matched SubIDs -> one logged ``sub`` custody entry each; in
        an ordered mode each takes the next mseq of its subscription in
        ``stream`` at rendezvous ``key``."""
        if not matched:
            return []
        ev = self._dur_event_fields(p, msg)
        out: List[tuple] = []
        for snid, siid in matched:
            m: Dict[str, Any] = {}
            if stream is not None:
                m["s"] = list(stream)
                m["m"] = self.durable.next_mseq(stream, key, (snid, siid))
            self._dur_log("sub", ev, snid, siid, m)
            out.append((snid, siid, m))
        return out

    def _dur_park(self, park: Dict[int, Message], seq: int, parked: Message) -> None:
        """Buffer an out-of-order packet, bounded by ``reorder_buffer_max``.

        On overflow the entry *furthest* from the watermark is dropped
        (never acked, so its custodian redelivers it once the gap
        heals); dropping the nearest would just re-open the same gap.
        """
        if seq in park:
            return  # duplicate of an already-parked sequence number
        if len(park) >= self.system.config.reorder_buffer_max:
            self.network.stats.record_durable("reorder_overflow")
            worst = max(park)
            if seq > worst:
                return  # the newcomer is the furthest: drop it instead
            del park[worst]
        park[seq] = parked

    def _durable_handle(
        self,
        p: dict,
        nid: int,
        iid: Optional[int],
        meta: Dict[str, Any],
        msg: Message,
    ) -> List[tuple]:
        """Consume one custody-tagged entry this node is responsible for."""
        if iid is None:
            if "k" in meta:
                return self._dur_key_ordered(p, nid, meta, msg)
            return self._dur_key_unordered(p, nid, meta, msg)
        return self._dur_sub_entry(p, nid, iid, meta, msg)

    def _dur_key_unordered(
        self, p: dict, nid: int, meta: Dict[str, Any], msg: Message
    ) -> List[tuple]:
        """Rendezvous matching with custody transfer, no ordering.

        Matching against a live repo, a standby takeover, or an
        authoritatively empty zone fully discharges the entry, so the
        incoming custody is acked.  One case must NOT ack: a node whose
        ring state is still stabilizing -- it just rejoined, or its
        predecessor changed (a storm-saturated neighbor sheds
        maintenance pings exactly like a dead one, handing us its live
        arc) -- can claim a wrapped ``(pred, self]`` interval through a
        stale predecessor pointer and "own" keys whose repositories
        live elsewhere; acking such a key with no local knowledge of it
        would retire custody for subscriptions the true owner still
        holds.  Within the grace window a key this node has no
        repository for stays silent, and the custodian simply
        redelivers after the ring has converged.
        """
        event_id = p["event_id"]
        if (
            self.sim.now < self._dur_vacuous_after
            and not self.rendezvous_index.get(nid)
            and not self.standby_rendezvous.get(nid)
        ):
            return []
        matched = self._handle_local_entry(
            event_id, p["scheme"], p["point"], nid, None, msg
        )
        out = self._dur_take_custody(p, msg, matched)
        self._dur_ack(meta, event_id)
        return out

    def _dur_key_ordered(
        self, p: dict, nid: int, meta: Dict[str, Any], msg: Message
    ) -> List[tuple]:
        """Per-stream contiguous rendezvous matching (fifo / causal).

        Only the durable *owner* of the key may process: a successor
        that took over the arc would assign fresh (low) mseq values,
        which downstream watermarks would absorb as duplicates --
        silently losing the delivery.  A non-owner stays silent (no
        dack), so the custodian redelivers until the owner rejoins.
        """
        if not self.rendezvous_index.get(nid):
            return []
        stream = tuple(meta["s"])
        k = meta["k"]
        skey = (stream, nid)
        w = self.durable.site_w.get(skey, 0)
        if k <= w:
            self._dur_ack(meta, p["event_id"])  # duplicate redelivery
            return []
        if k > w + 1:
            park = self._dur_parks.setdefault(skey, {})
            self._dur_park(park, k, self._dur_parked_msg(p, (nid, None, meta), msg))
            return []
        # k == w + 1: in order -- match, take custody, advance, drain.
        matched = self._handle_local_entry(
            p["event_id"], p["scheme"], p["point"], nid, None, msg
        )
        out = self._dur_take_custody(p, msg, matched, stream, nid)
        self.durable.site_w[skey] = k
        self._dur_ack(meta, p["event_id"])
        park = self._dur_parks.get(skey)
        if park:
            nxt = park.pop(k + 1, None)
            if not park:
                del self._dur_parks[skey]
            if nxt is not None:
                self._process_event(nxt)  # recursively continues the run
        return out

    def _dur_sub_entry(
        self, p: dict, nid: int, iid: int, meta: Dict[str, Any], msg: Message
    ) -> List[tuple]:
        """Consume a custody-tagged SubID entry (delivery or relay)."""
        event_id = p["event_id"]
        if nid == self.node_id and iid in self.own_subs:
            if "m" in meta:
                return self._dur_deliver_ordered(p, iid, meta, msg)
            self._dur_deliver_now(p, iid, meta, msg)
            return []
        # Relay consumption: a surrogate/migrated store we can serve
        # fully discharges the entry; so does a stale iid of our own
        # (unsubscribed -- nobody will ever want it again).  A foreign
        # SubID we merely route for (its node crashed) is NOT resolved:
        # stay silent and let the custodian redeliver after the rejoin.
        resolved = nid == self.node_id or (
            (nid, iid) in self.standby_markers
            or (nid, iid) in self.standby_migrated
        )
        if not resolved:
            return []
        matched = self._handle_local_entry(
            event_id, p["scheme"], p["point"], nid, iid, msg
        )
        out = self._dur_take_custody(p, msg, matched)
        self._dur_ack(meta, event_id)
        return out

    def _dur_deliver_now(self, p: dict, iid: int, meta: Dict[str, Any], msg: Message) -> None:
        """Deliver to a local subscription and ack the custody entry."""
        self._handle_local_entry(
            p["event_id"], p["scheme"], p["point"], self.node_id, iid, msg
        )
        pub = p.get("pub")
        if pub is not None and self.durable is not None:
            # Causal context: remember the newest pseq seen from each
            # publisher so our next publish declares the dependency.
            ctx = self.durable.causal_ctx
            if p["pseq"] > ctx.get(pub, 0):
                ctx[pub] = p["pseq"]
        self._dur_ack(meta, p["event_id"])

    def _dur_deliver_ordered(
        self, p: dict, iid: int, meta: Dict[str, Any], msg: Message
    ) -> List[tuple]:
        """Deliver in per-stream mseq order (contiguity watermark)."""
        stream = tuple(meta["s"])
        m = meta["m"]
        skey = (stream, iid)
        w = self.durable.sub_w.get(skey, 0)
        if m <= w:
            self._dur_ack(meta, p["event_id"])  # duplicate redelivery
            return []
        if m > w + 1:
            park = self._dur_sub_parks.setdefault(skey, {})
            self._dur_park(
                park, m, self._dur_parked_msg(p, (self.node_id, iid, meta), msg)
            )
            return []
        self._dur_deliver_now(p, iid, meta, msg)
        self.durable.sub_w[skey] = m
        park = self._dur_sub_parks.get(skey)
        if park:
            nxt = park.pop(m + 1, None)
            if not park:
                del self._dur_sub_parks[skey]
            if nxt is not None:
                self._process_event(nxt)
        return []

    # -- causal sequencer ----------------------------------------------
    def _seq_ingest(self, p: dict, meta: Dict[str, Any], msg: Message) -> List[tuple]:
        """Admit one publisher packet into the scheme's total order."""
        d = self.durable
        pub, pseq = p["pub"], p["pseq"]
        if pseq <= d.seq_w.get(pub, 0):
            self._dur_ack(meta, p["event_id"])  # duplicate redelivery
            return []
        key = (pub, pseq)
        if key not in self._seq_blocked:
            self._seq_blocked[key] = (p, meta, msg)
        self._seq_drain()
        return []

    def _seq_drain(self) -> None:
        """Sequence every blocked packet whose prerequisites now hold.

        A packet is admitted when (a) it is the next pseq of its
        publisher -- publisher-FIFO inside the total order -- and (b)
        every declared dependency has already been sequenced.  Because
        a dependency can only be declared after its event was
        *delivered* (hence sequenced), (b) only bites when redelivery
        races reorder the streams.
        """
        d = self.durable
        progress = True
        while progress:
            progress = False
            for pub, pseq in sorted(self._seq_blocked):
                if pseq != d.seq_w.get(pub, 0) + 1:
                    continue
                p, meta, msg = self._seq_blocked[(pub, pseq)]
                deps = p.get("deps") or ()
                if any(d.seq_w.get(a, 0) < n for a, n in deps):
                    continue
                del self._seq_blocked[(pub, pseq)]
                d.seq_w[pub] = pseq
                self._seq_emit(p, msg)
                self._dur_ack(meta, p["event_id"])
                progress = True
                break  # watermark moved: restart the scan

    def _seq_emit(self, p: dict, msg: Message) -> None:
        """Fan a sequenced event out to its rendezvous keys.

        The sequencer is the custodian from here on: one "key" entry
        per target in the single ``("Q",)`` stream, whose per-key kseq
        embeds the total order downstream.
        """
        ev = self._dur_event_fields(p, msg)
        ev.pop("deps", None)  # satisfied here; don't ship them onward
        keys = self._event_target_keys(p["scheme"], p["point"], filter_leaf=True)
        if not keys:
            return  # nobody subscribed anywhere: fully discharged
        self._process_event(
            self._local_event(
                ev, self._dur_key_entries(ev, keys, ("Q",)),
                msg.hops, msg.path_latency, msg.root_time, msg.span_id,
            )
        )

    # -- redelivery ----------------------------------------------------
    def start_durable_redelivery(self) -> None:
        """Arm the periodic scan that re-sends unacked custody entries,
        as a cohort of one (a rejoined node keeps its own phase)."""
        if self.durable is not None and self._dur_cohort is None:
            CustodyCohort([self])

    def stop_durable_redelivery(self) -> None:
        self._dur_cohort = None

    def _dur_redeliver(self, entry) -> None:
        """Re-issue one unacked obligation from its logged state."""
        entry.last_sent = self.sim.now
        entry.attempts += 1
        self.network.stats.record_durable("redelivered")
        self._trace(
            "durable_redeliver", event=entry.event["event_id"],
            entry_kind=entry.kind, attempt=entry.attempts,
        )
        # Replayed with the ORIGINAL root time: healing latency is real
        # end-to-end latency, not time-since-retry.
        self._process_event(
            self._local_event(
                entry.event, [entry.wire_entry()], 0, 0.0,
                entry.event.get("rt", self.sim.now), None,
            )
        )

    # ------------------------------------------------------------------
    # Section 4: dynamic subscription migration
    # ------------------------------------------------------------------
    def lb_start_round(self) -> None:
        """Begin one probe-and-migrate round (no-op if one is running)."""
        if self._lb_round is not None:
            return
        targets = self.neighbor_addrs()
        if not targets:
            return
        self._lb_seq += 1
        self._lb_round = {
            "seq": self._lb_seq,
            "pending": set(targets),
            "samples": [],  # (load, node_id, addr)
            "wave": 1,
            "probed": set(targets) | {self.addr},
        }
        for addr in targets:
            self._send_probe(addr)

    def _send_probe(self, addr: int) -> None:
        self.send(
            Message(
                src=self.addr,
                dst=addr,
                kind="ps_load_probe",
                payload={
                    "origin": self.addr,
                    "seq": self._lb_round["seq"],
                    "want_neighbors": self.system.config.migration_probe_level >= 2,
                },
                size_bytes=CONTROL_BYTES,
            )
        )

    def _on_load_probe(self, msg: Message) -> None:
        payload = {
            "seq": msg.payload["seq"],
            "load": self.load(),
            "capacity": self.capacity,
            "node_id": self.node_id,
            "addr": self.addr,
        }
        if msg.payload.get("want_neighbors"):
            payload["neighbors"] = self.neighbor_addrs()
        self.send(
            Message(
                src=self.addr,
                dst=msg.payload["origin"],
                kind="ps_load_reply",
                payload=payload,
                size_bytes=CONTROL_BYTES,
            )
        )

    def _on_load_reply(self, msg: Message) -> None:
        state = self._lb_round
        if state is None or msg.payload["seq"] != state["seq"]:
            return
        state["pending"].discard(msg.payload["addr"])
        state["samples"].append(
            (
                msg.payload["load"],
                msg.payload["node_id"],
                msg.payload["addr"],
                msg.payload.get("capacity", 1.0),
            )
        )
        if state["wave"] == 1 and "neighbors" in msg.payload:
            extra = [
                a
                for a in msg.payload["neighbors"]
                if a not in state["probed"]
            ]
            for addr in extra:
                state["probed"].add(addr)
                state["pending"].add(addr)
                self._send_probe(addr)
        if not state["pending"]:
            self._lb_decide()

    def _lb_decide(self) -> None:
        """Threshold check and acceptor selection (Section 4).

        Loads are normalised by capacity: a node is overloaded when its
        *per-unit-capacity* load exceeds the neighbourhood's
        per-unit-capacity average by the threshold factor, and acceptors
        are the neighbours with the most spare headroom.  With uniform
        capacities (the paper's runs) this reduces to the plain rule.
        """
        state = self._lb_round
        self._lb_round = None
        samples = state["samples"]
        if not samples:
            return
        total_load = sum(s[0] for s in samples)
        total_cap = sum(s[3] for s in samples)
        avg = total_load / max(total_cap, 1e-9)
        my_load = self.load() / max(self.capacity, 1e-9)
        delta = self.system.config.migration_delta
        if my_load <= avg * (1.0 + delta) or my_load == 0:
            return
        lighter = sorted(
            (s for s in samples if s[0] / max(s[3], 1e-9) < my_load),
            key=lambda s: s[0] / max(s[3], 1e-9),
        )
        if not lighter:
            return
        k = min(self.system.config.migration_max_acceptors, len(lighter))
        acceptors = lighter[:k]
        # "nodes N, A1, A2, ..., Ak lie in the clockwise order on the ring"
        acceptors.sort(key=lambda s: (s[1] - self.node_id) % (1 << 64))
        self._migrate_to(acceptors)

    def _migrate_to(self, acceptors: List[Tuple[int, int, int]]) -> None:
        """Partition stored real subscriptions by subscriber-id arcs.

        Subscriptions whose subscriber falls in [A_i, A_{i+1}) go to
        A_i; the final arc [A_k, N) also goes to A_k.  Subscribers in
        [N, A_1) stay local.  Entries are *copied* now and removed only
        when the acceptor acknowledges, so no event can miss them in
        transit.
        """
        ids = [a[1] for a in acceptors]  # samples are (load, id, addr, cap)
        arcs: List[Tuple[int, int]] = []  # (arc_left, arc_right) per acceptor
        for i in range(len(ids)):
            left = ids[i]
            right = ids[i + 1] if i + 1 < len(ids) else self.node_id
            arcs.append((left, right))

        for (_load, acc_id, acc_addr, _cap), (left, right) in zip(acceptors, arcs):
            groups: List[dict] = []
            payload_bytes = 0
            for repo in self.zone_repos.values():
                picked = [
                    sid
                    for sid in repo.store.subids()
                    if repo.kind_of(sid) == "sub"
                    and id_in_interval(sid.nid, left, right, incl_left=True)
                ]
                if not picked:
                    continue
                group, group_bytes = repo.export(picked)
                group["scheme"] = self.system.entity(repo.entity_key).scheme.name
                groups.append(group)
                payload_bytes += group_bytes
            if not groups:
                continue
            size = CONTROL_BYTES + payload_bytes
            self.send(
                Message(
                    src=self.addr,
                    dst=acc_addr,
                    kind="ps_migrate",
                    payload={"origin": self.addr, "groups": groups},
                    size_bytes=size,
                )
            )

    def _on_migrate(self, msg: Message) -> None:
        """Acceptor side: store groups, summarise, acknowledge."""
        acks = []
        for group in msg.payload["groups"]:
            scheme_name = group["scheme"]
            dims = self.system.scheme(scheme_name).dimensions
            store = BoxStore(dims)
            for (nid, iid), lows, highs, _kind in group["entries"]:
                store.put(
                    SubID(nid, iid),
                    np.asarray(lows, dtype=np.float64),
                    np.asarray(highs, dtype=np.float64),
                )
            iid = self._next_iid()
            self.migrated[iid] = (scheme_name, store)
            bbox = store.bounding_box()
            acks.append(
                {
                    "repo": group["repo"],
                    "iid": iid,
                    "lows": bbox[0].tolist(),
                    "highs": bbox[1].tolist(),
                    "subids": [e[0] for e in group["entries"]],
                }
            )
        dims = max(len(a["lows"]) for a in acks)
        self.send(
            Message(
                src=self.addr,
                dst=msg.payload["origin"],
                kind="ps_migrate_ack",
                payload={"acceptor_id": self.node_id, "acks": acks},
                size_bytes=CONTROL_BYTES + len(acks) * subscription_wire_bytes(dims),
            )
        )

    def _on_migrate_ack(self, msg: Message) -> None:
        """Origin side: swap migrated entries for one summarising marker."""
        acc_id = msg.payload["acceptor_id"]
        for ack in msg.payload["acks"]:
            repo = self.zone_repos.get(tuple(ack["repo"]))
            if repo is None:  # pragma: no cover - defensive
                continue
            for nid, iid in ack["subids"]:
                sid = SubID(nid, iid)
                if sid in repo.store:
                    repo.remove(sid)
            marker = SubID(acc_id, ack["iid"])
            repo.put(
                marker,
                np.asarray(ack["lows"], dtype=np.float64),
                np.asarray(ack["highs"], dtype=np.float64),
                "migr",
            )
            # The migration marker's bounding box may be tighter than
            # the departed subscriptions' contribution to the filter.
            self._refresh_summary(repo)


class HyperSubChordNode(PubSubNodeMixin, ChordNode):
    """The paper's configuration: HyperSub over Chord(-PNS)."""

    def __init__(self, addr: int, node_id: int, network, system=None, **kwargs) -> None:
        ChordNode.__init__(self, addr, node_id, network, **kwargs)
        self._init_pubsub(system)
