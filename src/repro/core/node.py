"""HyperSub node logic: Algorithms 2-5.

:class:`PubSubNodeMixin` carries the paper's pub/sub layer above the
DHT:

* subscriber-side state (the user's own subscriptions, Algorithm 2);
* surrogate-side state: one :class:`ZoneRepo` per content zone this
  node is surrogate for ("content zones are managed individually, with
  the node regarded as a few virtual nodes"), each holding a
  :class:`~repro.core.matching.BoxStore`, a summary filter and the
  surrogate subscriptions pushed to child zones (Algorithm 3);
* event processing (Algorithm 5): match locally, merge matched SubIDs,
  group the remainder by next DHT hop (through the route-decision
  cache), forward one aggregated message per link;
* durable custody and causal sequencing (delivery-guarantees
  extension), and their :class:`CustodyCohort` tick.

:class:`HyperSubChordNode` assembles the node the paper evaluates from
this mixin, three more and Chord(-PNS):
:class:`~repro.core.transport.TransportMixin` (reliable hop transport,
failover, overload admission),
:class:`~repro.core.replication.ReplicationMixin` (replica push,
anti-entropy, arc handoff, restart resync) and
:class:`~repro.core.loadbalance.MigrationMixin` (Section 4's dynamic
subscription migration).
"""

from __future__ import annotations

from operator import le
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.loadbalance import MigrationMixin
from repro.core.matching import BoxStore
from repro.core.replication import ReplicationMixin
from repro.core.subscription import SubID, Subscription
from repro.core.summary import (
    Box, boxes_equal, contains, merge_box, split_pieces,
)
from repro.core.subscheme import PubSubEntity
from repro.core.transport import TransportMixin
from repro.core.zones import ContentZone
from repro.dht.base import _RC_HERE, _RC_MISS
from repro.dht.chord import ChordNode
from repro.dht.idspace import ID_BITS, ID_SPACE
from repro.core import durability
from repro.core.durability import DurableState
from repro.sim.messages import (
    CONTROL_BYTES,
    DEP_ENTRY_BYTES,
    DURABLE_META_BYTES,
    PIGGYBACK_BYTES,
    SUBID_BYTES,
    Message,
    event_message_bytes,
    subscription_wire_bytes,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.system import HyperSubSystem

#: VCube-PS-style causal ordering context: it rides every packet and
#: custody record of an event that carries it.
_ORDERING_FIELDS = ("pub", "pseq", "deps")
#: Payload fields a forwarded event packet inherits from the packet it
#: was derived from, when that one carries them (ordering context,
#: hop-failover budget).
_INHERITED_FIELDS = _ORDERING_FIELDS + ("fo",)
_INHERITED_NAMES = frozenset(_INHERITED_FIELDS)
#: Hard per-packet hop ceiling.  Transient routing loops are possible
#: while the ring heals around a crash (A routes to B's stale successor
#: entry, which routes back); the TTL converts them into counted drops.
#: Stable-ring paths are O(log n), so 64 is far above any legitimate route.
EVENT_TTL_HOPS = 64
#: Bytes of an event packet before its SubIDs (header + event body).
_EVENT_BASE_BYTES = event_message_bytes(0)
#: Surrogate-subscription iids are minted above this, a node's own
#: subscription iids below it (``_next_marker_iid``): the iid alone
#: tells a marker from a subscription.
MARKER_IID_BASE = 1 << 48
#: Delivery-dedup keys are one int, the subscription's iid above the
#: event id: the field that changes with every event sits in the low
#: bits, so one subscription's keys fall on distinct set slots.
#: ``publish`` refuses the event id that would overflow it.
EVENT_ID_BITS = 32
#: Per-(publisher, stream) bound on out-of-order deliveries a
#: subscriber (or match site) parks while waiting for a gap to fill.
#: Overflow drops an arrival *unacked* (counted in
#: ``durable.reorder_overflow``), so upstream redelivers it later.
REORDER_BUFFER_MAX = 256


def _event_fields(p: Dict[str, Any]) -> Dict[str, Any]:
    """The event-constant fields of packet payload or custody record
    ``p``: event id, scheme, point, plus the ordering context it has."""
    out = {"event_id": p["event_id"], "scheme": p["scheme"], "point": p["point"]}
    for name in _ORDERING_FIELDS:
        if name in p:
            out[name] = p[name]
    return out


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
        self.sf: Optional[Box] = None
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

    def put(
        self, subid: SubID, lows: Tuple[float, ...], highs: Tuple[float, ...], kind: str
    ) -> None:
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

    def child_pieces(self, entity: PubSubEntity, sf: Box) -> Dict[int, Box]:
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
        those entries occupy on the wire.  :meth:`~repro.core.replication.
        ReplicationMixin._absorb_repo` is the reader.
        """
        store = self.store
        entries = []
        wire_bytes = 0
        for sid in (store.subids() if subids is None else subids):
            lo, hi = store.get_box(sid)
            entries.append(((sid.nid, sid.iid), list(lo), list(hi), self.kind_of(sid)))
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
        #: ``iid << EVENT_ID_BITS | event_id`` already handed to the
        #: application.  The packet-level dedup above is keyed on the
        #: packet's identity, which hop-failover deliberately *changes*
        #: (the SubIDs are re-grouped onto a fresh packet via an
        #: alternate route), so an ack-lost-then-failed-over packet
        #: arrives twice under two different keys.  Exactly-once at the
        #: application therefore needs this subscriber-side guard as well.
        self._delivered: set = set()

        #: custody-transfer log (delivery-guarantees extension); ``None``
        #: outside durable mode so the hot paths pay one attribute load.
        self.durable: Optional[DurableState] = (
            DurableState(durability.DURABLE_LOG_MAX_ENTRIES)
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

        self.register_handler("ps_register", self._on_ps_register)
        self.register_handler("ps_unregister", self._on_ps_unregister)
        self.register_handler("ps_dack", self._on_ps_dack)
        self._init_transport(system.config)
        self._init_replication()
        self._init_migration()

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
        # The box's one unpacking to floats: everything after it --
        # Algorithm 1, the registrar, the cascade -- reads the tuples.
        lows, highs = sub.box
        entity = self.system.entity_for_subscription(sub)
        zone = entity.zone_of_box(lows, highs)
        iid = self._next_iid()
        subid = SubID(self.node_id, iid)
        self.own_subs[iid] = (entity.key, sub, zone, subid)
        self.system.metrics.count_subscription(sub.scheme_name)
        self._dispatch_register(entity, zone, subid, lows, highs, "sub")
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
        lows: Tuple[float, ...],
        highs: Tuple[float, ...],
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
        repo = self.zone_repos.get((entity.key, zone.code, zone.level))
        if repo is None:
            repo = self._open_repo(
                self.zone_repos, self.rendezvous_index, entity, zone
            )
            if zone.level < self.system.config.direct_rendezvous_levels:
                self.system.mark_shallow_occupied(repo.key)
        return repo

    def _open_repo(
        self,
        repos: Dict[Tuple[str, int, int], ZoneRepo],
        index: Dict[int, List[Tuple[str, int, int]]],
        entity: PubSubEntity,
        zone: ContentZone,
    ) -> ZoneRepo:
        """A new, empty repository for ``zone`` in ``repos`` (the live
        or the standby table), listed in its rendezvous ``index`` when
        events visit the zone by key: leaves, and shallow zones under
        the direct radius."""
        repo_key = (entity.key, zone.code, zone.level)
        repo = repos[repo_key] = ZoneRepo(
            entity.key, zone, self.system.make_store(entity)
        )
        if zone.is_leaf or zone.level < self.system.config.direct_rendezvous_levels:
            index.setdefault(entity.rotated_key(zone), []).append(repo_key)
        return repo

    def _register_local(
        self,
        entity_key: str,
        code: int,
        level: int,
        subid: SubID,
        lows: Tuple[float, ...],
        highs: Tuple[float, ...],
        kind: str,
    ) -> None:
        """Algorithm 3: store, refresh the summary filter, cascade."""
        cfg = self.system.config
        repo = self.zone_repos.get((entity_key, code, level))
        if repo is None:
            # first registration here: validate the zone, open its repo
            entity = self.system.entity(entity_key)
            repo = self._get_repo(entity, ContentZone(code, level, entity.geometry))
        store = repo.store
        old = store.get_box(subid) if subid in store else None
        repo.put(subid, lows, highs, kind)
        if cfg.replication_factor > 1:
            self._replicate(entity_key, code, level, subid, lows, highs, kind)
        box = (lows, highs)
        if old is not None and not contains(box, old):
            # A surrogate-subscription update that shrank (the parent's
            # filter tightened): recompute.  One that only grew -- every
            # replacement during install -- merges into the filter, which
            # stays tight (``merge_box``).
            self._refresh_summary(repo)
            return
        new_sf, changed = merge_box(repo.sf, box)
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
        pieces: Dict[int, Box],
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
        surrogate-subscription replacement that shrank, the bounding
        box over the repo's live entries is the exact tight filter; when
        it changed, the child pieces are re-derived and the cascade
        re-pushed -- children whose piece shrank run the same
        recomputation on *their* repos, so shrinks propagate to the
        leaves.  Correctness: the recomputed sf still covers every live
        box by construction, so a shrink can only remove false-positive
        cascade hops, never a delivery (the property tests assert both).
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

    def _on_ps_unregister(self, msg: Message) -> None:
        p = msg.payload
        self._unregister_local(p["entity"], p["code"], p["level"], SubID(*p["subid"]))

    def _unregister_local(
        self, entity_key: str, code: int, level: int, subid: SubID
    ) -> None:
        repo = self.zone_repos.get((entity_key, code, level))
        if repo is None or subid not in repo.store:
            # stale (e.g. the copy was migrated away)
            self.network.stats.stale_unregister += 1
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
        if event_id >> EVENT_ID_BITS:
            raise OverflowError(
                f"event id {event_id} overflows the delivery-dedup key "
                f"(EVENT_ID_BITS = {EVENT_ID_BITS})"
            )
        cfg = self.system.config
        durable = self.durable
        ordering = cfg.ordering if durable is not None else "none"
        fields = {
            "event_id": event_id,
            "scheme": event.scheme_name,
            "point": event.point,
        }
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
            meta = {"s": ("S", seq_addr), "k": pseq, "q": 1}
            self._dur_log("seq", dict(fields, rt=self.sim.now), -1, None, meta)
            entries = [(-1, None, meta)]
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
                )
        # A best-effort config enters Algorithm 5 by its own handler.
        process = self._on_plain_event if self._ev_plain else self._process_event
        process(self._local_event(fields, entries, 0, self.sim.now, root_span))
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
        occupied = self.system.shallow_occupied
        keys: List[int] = []
        seen_keys = set()
        for entity in self.system.entities_of(scheme_name):
            leaf = entity.zone_of_point(point)
            code, m = leaf.code, leaf.level
            geometry = entity.geometry
            low_bits = ID_BITS - geometry.code_bits
            # The ancestor at level l has code ``code >> shift`` (shift =
            # bits_per_digit * (m - l)) and pads those shift bits with
            # ones (``ContentZone.key``): its key is the leaf's with the
            # low ``low_bits + shift`` bits set.  Shift 0 is the leaf.
            leaf_key = (code << low_bits) | ((1 << low_bits) - 1)
            shifts = []
            if not filter_leaf or occupied((entity.key, code, m)):
                shifts.append(0)
            for level in range(min(direct, m) - 1, -1, -1):
                shift = geometry.bits_per_digit * (m - level)
                if occupied((entity.key, code >> shift, level)):
                    shifts.append(shift)
            for shift in shifts:
                key = leaf_key | ((1 << (low_bits + shift)) - 1)
                key = (key + entity.rotation) % ID_SPACE
                if key not in seen_keys:
                    seen_keys.add(key)
                    keys.append(key)
        return keys

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

    def _local_event(
        self, fields: Dict[str, Any], entries: List[tuple], hops: int,
        root_time: float, span_id: Optional[int], fo: Optional[int] = None,
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
            self.addr, self.addr, "ps_event", payload, 0, hops, root_time, span_id
        )

    def _on_plain_event(self, msg: Message) -> None:
        """Algorithm 5 in a best-effort config: the ``ps_event`` handler
        and the publish entry of a node whose config puts nothing on a
        packet (``_ev_plain``: no reliable transport and no piggyback,
        hence no custody, ordering or failover).

        Every entry is a ``(nid, iid)`` SubID and the payload has the
        four base fields, so nothing here tests for more.  Only a packet
        past the TTL, or one that arrives while edges or spans are being
        recorded, goes to the general :meth:`_process_event`.  A relay
        that handles nothing itself and sends every entry down one link
        sends the arrived ``Message`` on: a new ``src``, ``dst`` and
        ``size_bytes``, and the payload, ``hops`` and ``root_time`` the
        next hop must see anyway.
        """
        system = self.system
        tel = system.telemetry
        if (
            msg.hops > EVENT_TTL_HOPS
            or system.tracing
            or (tel is not None and tel.tracing)
        ):
            self._process_event(msg)
            return
        p = msg.payload
        addr = self.addr
        # The route-decision cache, as in _process_event.
        rc = self._rc
        if self.routing_epoch != self._rc_epoch:
            rc.clear()
            self._rc_epoch = self.routing_epoch
        entries = p["entries"]
        if len(entries) == 1:
            # One SubID, the shape of most packets: it is relayed as it
            # came, or handled here and only what it matched is routed.
            ((nid, iid),) = entries
            nh = rc.get(nid, _RC_MISS)
            if nh is _RC_MISS:
                nh = self._route_miss(nid)
            else:
                self.rc_hits += 1
            if nh is not _RC_HERE:
                if nh is None or nh == addr:
                    self.network.stats.unroutable += 1
                    return
                self._relay(msg, nh, 1)
                return
            worklist = self._handle_local_entry(
                p["event_id"], p["scheme"], p["point"], nid, iid, msg
            )
            if not worklist:
                return
        else:
            worklist = list(entries)
        rc_get = rc.get
        misses = 0
        # SubIDs matched here are appended and handled in arrival order.
        groups: Dict[int, List[tuple]] = {}
        for ent in worklist:
            nid, iid = ent
            nh = rc_get(nid, _RC_MISS)
            if nh is _RC_MISS:
                misses += 1  # _route_miss counts it
                nh = self._route_miss(nid)
            if nh is _RC_HERE:
                more = self._handle_local_entry(
                    p["event_id"], p["scheme"], p["point"], nid, iid, msg
                )
                if more:
                    worklist.extend(more)
                continue
            if nh is None or nh == addr:
                # Unroutable or a degenerate self-hop: dropped, counted
                # (see _process_event).
                self.network.stats.unroutable += 1
                continue
            group = groups.get(nh)
            if group is None:
                groups[nh] = [ent]
            else:
                group.append(ent)
        n = len(worklist)
        self.rc_hits += n - misses
        if not groups:
            return
        if len(groups) == 1 and len(entries) > 1:
            ((nh, ents),) = groups.items()
            if len(ents) == n:
                # Every entry leaves on this one link, in arrival order,
                # and none was handled here.
                self._relay(msg, nh, n)
                return
        event_id = p["event_id"]
        scheme_name = p["scheme"]
        point = p["point"]
        hops = msg.hops
        root_time = msg.root_time
        send = self.network.send
        total = 0
        for nh, ents in groups.items():
            size = _EVENT_BASE_BYTES + SUBID_BYTES * len(ents)
            total += size
            # A forwarded packet continues ``msg``'s path.
            send(
                Message(
                    addr, nh, "ps_event",
                    {
                        "event_id": event_id,
                        "scheme": scheme_name,
                        "point": point,
                        "entries": ents,
                    },
                    size, hops, root_time,
                )
            )
        self.system.metrics.on_event_message(event_id, total, len(groups))

    def _relay(self, msg: Message, nh: int, n: int) -> None:
        """Send the arrived best-effort packet ``msg`` on to ``nh``: all
        ``n`` of its entries leave on that link and none was handled
        here, so payload, ``hops`` and ``root_time`` are what the next
        hop must see already."""
        size = _EVENT_BASE_BYTES + SUBID_BYTES * n
        msg.src = self.addr
        msg.dst = nh
        msg.size_bytes = size
        self.system.metrics.on_event_message(msg.payload["event_id"], size)
        self.network.send(msg)

    def _process_event(self, msg: Message) -> None:
        """Algorithm 5: one node's share of the dissemination tree, with
        everything a guarantee adds.

        The ``ps_event`` handler (under ``_on_ps_event``) of a config
        with reliable transport or piggyback, and every local re-entry
        of such a config (failover, parked entries, the sequencer,
        custody redelivery).  In a best-effort config
        :meth:`_on_plain_event` hands a packet here only for the TTL
        give-up and while edges or spans are recorded.  Entries are
        ``(nid, iid)`` SubIDs or custody-tagged ``(nid, iid, meta)``
        triples; forwarded packets inherit ordering context and the
        failover budget, may carry ring state, and go out through the
        reliable transport when the config has it.
        """
        p = msg.payload
        if msg.hops > EVENT_TTL_HOPS:
            self._count_give_up(p, span=msg.span_id, cause="ttl")
            return
        event_id = p["event_id"]
        point = p["point"]
        scheme_name = p["scheme"]
        addr = self.addr
        # The decision cache, flushed if the routing epoch moved.  That
        # is the sole invalidation rule: responsibility and next hop
        # depend only on predecessor / successors / fingers, and any
        # mutation of those bumps the epoch (dht/base.py), so a hit is
        # byte-identical to recomputing.  Hits are counted by
        # difference.
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
                # A custody entry is a rendezvous key, ordered or not, or
                # a SubID (delivery or relay).
                if meta is None:
                    more = self._handle_local_entry(
                        event_id, scheme_name, point, nid, iid, msg
                    )
                elif iid is not None:
                    more = self._dur_sub_entry(p, nid, iid, meta, msg)
                elif "k" in meta:
                    more = self._dur_key_ordered(p, nid, meta, msg)
                else:
                    more = self._dur_key_unordered(p, nid, meta, msg)
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
                self.network.stats.unroutable += 1
                continue
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
        # What the forwarded packets inherit is a property of the packet
        # that came in, looked up once for all of them, and only when it
        # carries any of it.
        cfg = system.config
        inherited = None
        base_bytes = _EVENT_BASE_BYTES
        if not _INHERITED_NAMES.isdisjoint(p):
            inherited = {name: p[name] for name in _INHERITED_FIELDS if name in p}
            if "deps" in inherited:
                base_bytes += DEP_ENTRY_BYTES * len(inherited["deps"])
        piggyback = None
        if cfg.piggyback_maintenance:
            piggyback = {
                "id": self.node_id,
                "addr": addr,
                "pred": self.predecessor,
                "succ": self.successors[0] if self.successors else None,
            }
        emit = (
            self._send_event_reliably if cfg.reliable_delivery else self.network.send
        )
        hops = msg.hops
        root_time = msg.root_time
        span_id = None
        for nh, ents in groups.items():
            n = len(ents)
            size = base_bytes + SUBID_BYTES * n
            if carries_meta:
                # entries are (nid, iid) or (nid, iid, meta)
                size += DURABLE_META_BYTES * (sum(map(len, ents)) - 2 * n)
            payload = {
                "event_id": event_id,
                "scheme": scheme_name,
                "point": point,
                "entries": ents,
            }
            if inherited is not None:
                # (the failover budget is bounded per packet lineage)
                payload.update(inherited)
            if piggyback is not None and self._pb_due(nh):
                payload["pb"] = piggyback
                size += PIGGYBACK_BYTES
            on_event_message(event_id, size)
            # One call site feeds both edge views: the EventRecord list
            # and the causal trace ("forward" spans) stay in lockstep.
            if tracing:
                span_id = tel.tracer.span(
                    "forward",
                    t=self.sim.now,
                    node=addr,
                    event=event_id,
                    parent=msg.span_id,
                    src=addr,
                    dst=nh,
                    entries=n,
                    bytes=size,
                )
            if edge_tracing:
                system.metrics.on_event_edge(event_id, addr, nh, n)
            # A forwarded packet continues ``msg``'s path.
            emit(
                Message(addr, nh, "ps_event", payload, size, hops, root_time, span_id)
            )

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
            # ancestor's key may equal its rightmost leaf's key) whose
            # summary filter the event hits (Section 3.3).  A live repo's
            # ``sf`` covers every box it holds (the registrar keeps it
            # tight), so a point outside it -- a NaN coordinate included,
            # as in the kernel -- matches nothing there: the scan is
            # skipped, and hits and their order are unchanged.
            matched: List[Tuple[int, Optional[int]]] = []
            pt = None  # the point as floats, converted once when needed
            for repo_key in self.rendezvous_index.get(nid, ()):
                repo = self.zone_repos[repo_key]
                entity = self.system.entity(repo.entity_key)
                if entity.scheme.name != scheme_name:
                    continue
                sf = repo.sf
                if sf is not None:
                    if pt is None:
                        pt = point.tolist()
                    if not (all(map(le, sf[0], pt)) and all(map(le, pt, sf[1]))):
                        continue
                matched += [
                    (s.nid, s.iid) for s in repo.store.match_point(point)
                ]
            if not matched:
                # Takeover path: we are responsible for this key but hold
                # no live repo -- a standby replica of the failed primary
                # serves the match instead (replication extension).  No
                # filter guard here: ``register_standby`` puts boxes
                # without merging them into the copy's ``sf``.
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
                    self.network.stats.scheme_mismatch += 1
                    return []
                once = iid << EVENT_ID_BITS | event_id
                if once in self._delivered:
                    # failover redelivery under a fresh packet
                    self.network.stats.duplicate_entry += 1
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
                    self.network.stats.scheme_mismatch += 1
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

        # stale SubID (unsubscribed / departed): dropped, counted
        self.network.stats.stale_subid += 1
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
        meta["t"] = (self.addr, entry.tok)
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
        cust, tok = meta["t"]  # every entry is stamped when it is logged
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
        return self._local_event(p, [ent], msg.hops, msg.root_time, msg.span_id)

    def _dur_key_entries(
        self, ev: Dict[str, Any], keys: List[int], stream: Optional[tuple]
    ) -> List[tuple]:
        """Rendezvous keys -> one logged ``key`` custody entry each; in
        an ordered mode each takes its ``stream``'s next kseq at the key."""
        entries = []
        for key in keys:
            meta: Dict[str, Any] = {}
            if stream is not None:
                meta["s"] = stream
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
        ``stream`` at rendezvous ``key``.  One loop per batch: the log
        append, the custody stamp and the sequence bump of an entry are
        done here, and the batch is counted once."""
        if not matched:
            return []
        ev = self._dur_event_fields(p, msg)
        durable = self.durable
        append = durable.append
        mseq = durable.mseq
        now = self.sim.now
        addr = self.addr
        out: List[tuple] = []
        for subid in matched:
            snid, siid = subid
            if stream is None:
                meta: Dict[str, Any] = {}
            else:
                skey = (stream, key, subid)
                m = mseq.get(skey, 0) + 1
                mseq[skey] = m
                meta = {"s": stream, "m": m}
            entry, evicted = append("sub", ev, snid, siid, meta, now)
            meta["t"] = (addr, entry.tok)
            for old in evicted:
                self._dur_truncated(old)
            out.append((snid, siid, meta))
        self.network.stats.record_durable("appends", len(out))
        return out

    def _dur_park(self, park: Dict[int, Message], seq: int, parked: Message) -> None:
        """Buffer an out-of-order packet, bounded by ``REORDER_BUFFER_MAX``.

        On overflow the entry *furthest* from the watermark is dropped
        (never acked, so its custodian redelivers it once the gap
        heals); dropping the nearest would just re-open the same gap.
        """
        if seq in park:
            return  # duplicate of an already-parked sequence number
        if len(park) >= REORDER_BUFFER_MAX:
            self.network.stats.record_durable("reorder_overflow")
            worst = max(park)
            if seq > worst:
                return  # the newcomer is the furthest: drop it instead
            del park[worst]
        park[seq] = parked

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
        stream = meta["s"]
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
        resolved = nid == self.node_id or (nid, iid) in self.standby_markers
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
        stream = meta["s"]
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
                msg.hops, msg.root_time, msg.span_id,
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
                entry.event, [entry.wire_entry()], 0,
                entry.event.get("rt", self.sim.now), None,
            )
        )


class HyperSubChordNode(
    PubSubNodeMixin, TransportMixin, ReplicationMixin, MigrationMixin, ChordNode
):
    """The paper's configuration: HyperSub over Chord(-PNS)."""

    def __init__(self, addr: int, node_id: int, network, system=None, **kwargs) -> None:
        ChordNode.__init__(self, addr, node_id, network, **kwargs)
        self._init_pubsub(system)
