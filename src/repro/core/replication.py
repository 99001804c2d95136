"""Repository replication of a HyperSub node.

:class:`ReplicationMixin` holds every protocol that copies a node's
zone repositories to another node, all through the one transfer
format (:meth:`~repro.core.node.ZoneRepo.export` writes it,
:meth:`ReplicationMixin._absorb_repo` reads it):

* replica push -- each accepted registration mirrored onto k-1
  successors as a standby copy (``ps_replica``);
* anti-entropy -- periodic digest exchange that re-replicates after
  churn and promotes standbys whose keys this node now answers for;
* arc handoff -- a joiner (or a rejoining crashed node) receives the
  rendezvous repositories of its arc (``ps_handoff``);
* restart resync -- a restarted node solicits its old successors'
  standby copies (``ps_resync``).

Its methods become methods of the node class
(:class:`~repro.core.node.HyperSubChordNode`), so handlers stay plain
functions of the node and share one handler table across the fleet.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.matching import BoxStore
from repro.core.subscription import SubID
from repro.core.summary import as_box
from repro.core.zones import ContentZone
from repro.dht.idspace import id_in_interval
from repro.sim.messages import (
    AE_DIGEST_ENTRY_BYTES,
    CONTROL_BYTES,
    DURABLE_META_BYTES,
    SUBID_BYTES,
    Message,
    subscription_wire_bytes,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.node import ZoneRepo

#: Anti-entropy round period (simulated ms).
ANTI_ENTROPY_INTERVAL_MS = 2_000.0


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


class ReplicationMixin:
    """Standby copies, anti-entropy, arc handoff and restart resync."""

    def _init_replication(self) -> None:
        """Replication state and handlers (called by ``_init_pubsub``)."""
        #: standby replicas of other primaries' zone repos
        self.standby_repos: Dict[Tuple[str, int, int], ZoneRepo] = {}
        #: rotated zone key -> standby repo keys (rendezvous takeover)
        self.standby_rendezvous: Dict[int, List[Tuple[str, int, int]]] = {}
        #: (origin nid, iid) -> standby repo key (marker takeover)
        self.standby_markers: Dict[Tuple[int, int], Tuple[str, int, int]] = {}
        #: anti-entropy re-replication loop state (self-healing extension)
        self._ae_running = False
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

    # ------------------------------------------------------------------
    # Replication extension: standby copies on the successor list
    # ------------------------------------------------------------------
    def _replicate(
        self,
        entity_key: str,
        code: int,
        level: int,
        subid: SubID,
        lows: Tuple[float, ...],
        highs: Tuple[float, ...],
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
            "lows": lows,
            "highs": highs,
            "kind": kind,
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
            p["lows"], p["highs"], p["kind"],
        )

    def _store_replica(
        self,
        entity_key: str,
        code: int,
        level: int,
        subid: SubID,
        lows: Tuple[float, ...],
        highs: Tuple[float, ...],
        kind: str,
    ) -> None:
        """Accept a standby copy.  Standbys never cascade or match until
        this node becomes responsible for the dead primary's arc."""
        repo = self.standby_repos.get((entity_key, code, level))
        if repo is None:
            entity = self.system.entity(entity_key)
            repo = self._open_repo(
                self.standby_repos, self.standby_rendezvous,
                entity, ContentZone(code, level, entity.geometry),
            )
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
        * ``"verbatim"`` -- live, no cascade: the surrogate
          subscriptions pointing at a marker-served repo already exist
          in the child zones, and cascading again would mint duplicate
          markers.  The filter is recomputed from the store once the
          group is in (an entry may replace a wider one).  The
          repository is opened even when the group is empty.
        """
        entity_key, code, level = group["repo"]
        if mode == "verbatim":
            entity = self.system.entity(entity_key)
            repo = self._get_repo(entity, ContentZone(code, level, entity.geometry))
        for (nid, iid), lows, highs, kind in group["entries"]:
            sid = SubID(nid, iid)
            lo, hi = as_box(lows, highs)
            if mode == "cascade":
                self._register_local(entity_key, code, level, sid, lo, hi, kind)
            elif mode == "standby":
                self._store_replica(entity_key, code, level, sid, lo, hi, kind)
            else:
                repo.put(sid, lo, hi, kind)
        if mode == "verbatim":
            repo.sf = repo.store.bounding_box()

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
        self.sim.schedule(ANTI_ENTROPY_INTERVAL_MS, self._ae_tick)

    def stop_anti_entropy(self) -> None:
        self._ae_running = False

    def _ae_tick(self) -> None:
        if not self._ae_running or not self._alive:
            return
        self.promote_takeovers()
        self._ae_exchange()
        self.sim.schedule(ANTI_ENTROPY_INTERVAL_MS, self._ae_tick)

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
                # Standbys keep no filter; a live repository's is tight.
                repo.sf = repo.store.bounding_box()
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
