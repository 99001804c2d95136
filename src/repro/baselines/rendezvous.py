"""Central-rendezvous baseline (Ferry-style, Zhu & Hu ICPP'05).

One home node per scheme -- ``successor(hash(scheme name))`` -- stores
*every* subscription and matches *every* event.  Events route to the
home over Chord, are matched there, and are delivered to subscribers
with Chord-aggregated messages (the same SubID-grouping trick HyperSub
uses, which is exactly what Ferry contributes).

This is the design the paper criticises: "it used a small set of peers
for storing subscriptions and matching events, which may cause a
serious scalability concern" -- experiment B1 quantifies that by
comparing the home node's load and bandwidth against HyperSub's
distribution.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.event import Event
from repro.core.matching import BoxStore
from repro.core.scheme import Scheme
from repro.core.subscription import SubID, Subscription
from repro.core.system import Metrics
from repro.dht.chord import ChordNode, build_chord_overlay
from repro.dht.idspace import consistent_hash_64
from repro.sim.engine import Simulator
from repro.sim.messages import CONTROL_BYTES, Message, event_message_bytes
from repro.sim.network import Network
from repro.sim.topology import KingLikeTopology, Topology


class RendezvousNode(ChordNode):
    """Chord node with the central-matching pub/sub layer."""

    def __init__(self, addr, node_id, network, system=None, **kwargs) -> None:
        super().__init__(addr, node_id, network, **kwargs)
        self.system = system
        self.store = BoxStore(system.scheme.dimensions)
        self.own_subs: Dict[int, Subscription] = {}
        self._iid = 0
        self.register_handler("rv_store", self._on_store)
        self.register_handler("rv_event", self._on_event)

    # ------------------------------------------------------------------
    def subscribe(self, sub: Subscription) -> SubID:
        self._iid += 1
        subid = SubID(self.node_id, self._iid)
        self.own_subs[self._iid] = sub
        self.system.metrics.count_subscription(sub.scheme_name)
        size = CONTROL_BYTES + 9 + 16 * self.system.scheme.dimensions
        payload = {
            "subid": (subid.nid, subid.iid),
            "box": sub.box,
        }
        home = self.system.home_addr
        if home == self.addr:
            self.store.put(subid, *sub.box)
        else:
            self.send(
                Message(src=self.addr, dst=home, kind="rv_store",
                        payload=payload, size_bytes=size)
            )
        return subid

    def _on_store(self, msg: Message) -> None:
        self.store.put(SubID(*msg.payload["subid"]), *msg.payload["box"])

    # ------------------------------------------------------------------
    def publish(self, event: Event) -> int:
        event_id = self.system.metrics.new_event(event, self.addr, self.sim.now)
        root = Message(
            src=self.addr, dst=self.addr, kind="rv_event",
            payload={
                "event_id": event_id,
                "point": event.point,
                "entries": [(self.system.home_key, None)],
            },
            size_bytes=0, root_time=self.sim.now,
        )
        self._process_event(root)
        return event_id

    def _on_event(self, msg: Message) -> None:
        self._process_event(msg)

    def _process_event(self, msg: Message) -> None:
        """Route to the home, match there, deliver via Chord aggregation."""
        p = msg.payload
        event_id = p["event_id"]
        point = p["point"]
        worklist = deque(p["entries"])
        groups: Dict[int, List[Tuple[int, Optional[int]]]] = {}
        while worklist:
            nid, iid = worklist.popleft()
            if self.is_responsible(nid):
                if iid is None:
                    # We are the home: match everything.
                    worklist.extend(
                        (s.nid, s.iid) for s in self.store.match_point(point)
                    )
                elif iid in self.own_subs:
                    self.system.metrics.on_delivery(
                        event_id, SubID(self.node_id, iid), self.addr,
                        msg.hops, self.sim.now - msg.root_time,
                    )
            else:
                nh = self.next_hop_addr(nid)
                if nh is not None:
                    groups.setdefault(nh, []).append((nid, iid))
        for nh, ents in groups.items():
            size = event_message_bytes(len(ents))
            self.system.metrics.on_event_message(event_id, size)
            self.send(
                msg.child(self.addr, nh, "rv_event",
                          {"event_id": event_id, "point": point, "entries": ents},
                          size)
            )


class CentralRendezvousSystem:
    """Facade mirroring :class:`HyperSubSystem`'s measurement surface."""

    def __init__(
        self,
        scheme: Scheme,
        num_nodes: Optional[int] = None,
        topology: Optional[Topology] = None,
        seed: int = 1,
        pns: bool = True,
    ) -> None:
        if topology is None:
            if num_nodes is None:
                raise ValueError("provide num_nodes or a topology")
            topology = KingLikeTopology(num_nodes, seed=seed)
        self.scheme = scheme
        self.topology = topology
        self.sim = Simulator()
        self.network = Network(self.sim, topology)
        self.metrics = Metrics()
        self.home_key = consistent_hash_64(scheme.name.encode())
        self.nodes, self.ring = build_chord_overlay(
            self.network, seed=seed, pns=pns,
            node_factory=lambda addr, node_id, network, **kw: RendezvousNode(
                addr, node_id, network, system=self, **kw
            ),
        )
        self.home_addr = self.ring.addr(self.ring.successor(self.home_key))

    # ------------------------------------------------------------------
    def subscribe(self, addr: int, sub: Subscription) -> SubID:
        return self.nodes[addr].subscribe(sub)

    def publish(self, addr: int, event: Event) -> int:
        return self.nodes[addr].publish(event)

    def schedule_publish(self, at_ms: float, addr: int, event: Event) -> None:
        self.sim.schedule_at(at_ms, self.publish, addr, event)

    def finish_setup(self) -> None:
        self.sim.run_until_idle()
        self.network.stats.reset()
        self.metrics.clear_events()

    def run_until_idle(self) -> int:
        return self.sim.run_until_idle()

    def node_loads(self) -> np.ndarray:
        return np.array([len(n.store) for n in self.nodes], dtype=np.int64)
