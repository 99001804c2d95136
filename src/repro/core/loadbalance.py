"""Load balancing (Section 4).

Two mechanisms:

* **Zone-mapping rotation** is purely static -- it lives in
  :class:`~repro.core.subscheme.PubSubEntity` (each entity's zone keys
  are shifted by phi = hash(entity name)) and is toggled by
  ``HyperSubConfig.rotation``.

* **Dynamic subscription migration** is a per-node protocol, and this
  module holds both halves of it:

  - :class:`MigrationMixin` is the protocol (probe -> threshold check
    -> per-arc migration -> summarising marker); its methods become
    methods of the node class
    (:class:`~repro.core.node.HyperSubChordNode`);
  - :func:`run_static_rounds` runs whole-network rounds in a quiescent
    phase (between installation and event publication), which is how
    the paper's figures are produced -- they measure event delivery
    *after* the balancer has acted;
  - :func:`start_periodic` arms the paper's "at run time, each node
    periodically samples the load on its neighbors" behaviour for
    experiments that need concurrent balancing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.core.matching import BoxStore
from repro.core.subscription import SubID
from repro.core.summary import as_box
from repro.dht.idspace import id_in_interval
from repro.sim.messages import CONTROL_BYTES, Message, subscription_wire_bytes

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.system import HyperSubSystem


class MigrationMixin:
    """Section 4's probe-and-migrate protocol, run by every node.

    Load is the node's ``load()`` (stored subscriptions) over its
    ``capacity`` (the relative capacity of
    :class:`~repro.sim.network.SimNode`; the paper's runs assume 1.0
    everywhere -- the heterogeneous evaluation it defers is experiment
    H1).
    """

    def _init_migration(self) -> None:
        """Migration state and handlers (called by ``_init_pubsub``)."""
        #: in-flight load-balancing round state
        self._lb_round: Optional[dict] = None
        self._lb_seq = 0
        self.register_handler("ps_load_probe", self._on_load_probe)
        self.register_handler("ps_load_reply", self._on_load_reply)
        self.register_handler("ps_migrate", self._on_migrate)
        self.register_handler("ps_migrate_ack", self._on_migrate_ack)

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
                store.put(SubID(nid, iid), *as_box(lows, highs))
            iid = self._next_iid()
            self.migrated[iid] = (scheme_name, store)
            bbox = store.bounding_box()
            acks.append(
                {
                    "repo": group["repo"],
                    "iid": iid,
                    "lows": list(bbox[0]),
                    "highs": list(bbox[1]),
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
            repo.put(marker, *as_box(ack["lows"], ack["highs"]), "migr")
            # The migration marker's bounding box may be tighter than
            # the departed subscriptions' contribution to the filter.
            self._refresh_summary(repo)


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
