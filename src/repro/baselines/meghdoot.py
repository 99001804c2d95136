"""Meghdoot (Gupta, Sahin, Agrawal, El Abbadi -- Middleware 2004).

Content-based pub/sub over CAN, the closest published competitor the
paper discusses: "Meghdoot is based on CAN ... The main limitation is
that the overlay's dimension is twice of the number of event
attributes".

Mapping (faithful to the Meghdoot paper):

* a scheme with ``d`` attributes uses a ``2d``-dimensional CAN;
* a subscription with ranges ``[l_i, h_i]`` becomes the point
  ``(l_1..l_d, h_1..h_d)`` (normalised), stored at the zone owning it;
* an event ``(v_1..v_d)`` maps to the point ``(v_1..v_d, v_1..v_d)``;
  every subscription matching it satisfies ``l_i <= v_i <= h_i``, so
  the *affected region* is ``l_i in [0, v_i]``, ``h_i in [v_i, 1]``;
* the event is routed to its point, then flooded through every zone
  intersecting the affected region; each zone matches its stored
  subscriptions and notifies subscribers directly (one unicast hop,
  Meghdoot's delivery model).

Meghdoot's load balancing -- zone splitting toward hot spots and zone
replication for event load -- is not modelled; the comparison targets
delivery cost and storage balance, which is what experiment B1 reports.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.baselines.can import CANNode, build_can_overlay
from repro.core.event import Event
from repro.core.scheme import Scheme
from repro.core.subscription import SubID, Subscription
from repro.core.system import Metrics
from repro.sim.engine import Simulator
from repro.sim.messages import CONTROL_BYTES, Message, event_message_bytes
from repro.sim.network import Network
from repro.sim.topology import KingLikeTopology, Topology


class MeghdootNode(CANNode):
    """CAN node carrying Meghdoot's subscription store and flooding."""

    def __init__(self, addr: int, network: Network, system: "MeghdootSystem") -> None:
        super().__init__(addr, network)
        self.system = system
        #: subscriptions stored here: 2d-point inside our zone
        self.store: Dict[SubID, Subscription] = {}
        #: the user's own subscriptions (delivery endpoint)
        self.own_subs: Dict[int, Subscription] = {}
        self._iid = 0
        self._seen_events: set[int] = set()
        self.register_handler("mg_store", self._on_store)
        self.register_handler("mg_event", self._on_event)
        self.register_handler("mg_notify", self._on_notify)

    # ------------------------------------------------------------------
    def subscribe(self, sub: Subscription) -> SubID:
        self._iid += 1
        subid = SubID(self.addr, self._iid)
        self.own_subs[self._iid] = sub
        self.system.metrics.count_subscription(sub.scheme_name)
        point = self.system.sub_point(sub)
        payload = {"subid": (subid.nid, subid.iid), "box": sub.box}
        size = CONTROL_BYTES + 9 + 16 * self.system.scheme.dimensions
        self._route_to_point(point, "mg_store", payload, size, None)
        return subid

    def _route_to_point(
        self,
        point: np.ndarray,
        kind: str,
        payload: dict,
        size: int,
        parent: Optional[Message],
    ) -> None:
        """Greedy-forward a message toward the zone owning ``point``."""
        if self.owns(point):
            # Already home: deliver locally with no network cost.
            msg = Message(
                src=self.addr, dst=self.addr, kind=kind,
                payload={**payload, "point": point}, size_bytes=0,
                root_time=self.sim.now if parent is None else parent.root_time,
            )
            self._handlers[kind](msg)
            return
        nh = self.next_hop_addr(point)
        if nh is None:  # pragma: no cover - defensive
            return
        body = {**payload, "point": point}
        if parent is None:
            msg = Message(
                src=self.addr, dst=nh, kind=kind, payload=body,
                size_bytes=size, root_time=self.sim.now,
            )
        else:
            msg = parent.child(self.addr, nh, kind, body, size)
        if kind == "mg_event":
            self.system.metrics.on_event_message(payload["event_id"], size)
        self.send(msg)

    def _on_store(self, msg: Message) -> None:
        point = msg.payload["point"]
        if not self.owns(point):
            self._route_to_point(
                point, "mg_store",
                {k: v for k, v in msg.payload.items() if k != "point"},
                msg.size_bytes, msg,
            )
            return
        lows, highs = msg.payload["box"]
        sub = Subscription.from_box(self.system.scheme, lows, highs)
        self.store[SubID(*msg.payload["subid"])] = sub

    # ------------------------------------------------------------------
    def publish(self, event: Event) -> int:
        event_id = self.system.metrics.new_event(event, self.addr, self.sim.now)
        point = self.system.event_point(event)
        payload = {
            "event_id": event_id,
            "values": event.point,
            "region": self.system.affected_region(event),
        }
        self._route_to_point(point, "mg_event", payload, event_message_bytes(0), None)
        return event_id

    def _on_event(self, msg: Message) -> None:
        p = msg.payload
        event_id = p["event_id"]
        point = p["point"]
        if not self.owns(point) and event_id not in self._seen_events:
            # Still in the routing phase toward the region's corner.
            if not self.zone.intersects(*p["region"]):
                self._route_to_point(
                    point, "mg_event",
                    {k: v for k, v in p.items() if k != "point"},
                    msg.size_bytes, msg,
                )
                return
        if event_id in self._seen_events:
            return
        self._seen_events.add(event_id)

        # Match subscriptions stored in this zone.
        values = np.asarray(p["values"]).tolist()
        for subid, sub in self.store.items():
            if sub.contains(values):
                size = event_message_bytes(1)
                self.system.metrics.on_event_message(event_id, size)
                self.send(
                    msg.child(
                        self.addr, subid.nid, "mg_notify",
                        {"event_id": event_id, "subid": (subid.nid, subid.iid)},
                        size,
                    )
                )
        # Flood to neighbours intersecting the affected region.
        lows, highs = p["region"]
        for addr in self.neighbors_intersecting(np.asarray(lows), np.asarray(highs)):
            if addr == msg.src:
                continue
            size = event_message_bytes(0)
            self.system.metrics.on_event_message(event_id, size)
            self.send(
                msg.child(
                    self.addr, addr, "mg_event",
                    {k: v for k, v in p.items()}, size,
                )
            )

    def _on_notify(self, msg: Message) -> None:
        subid = SubID(*msg.payload["subid"])
        if subid.iid in self.own_subs:
            self.system.metrics.on_delivery(
                msg.payload["event_id"], subid, self.addr, msg.hops,
                self.sim.now - msg.root_time,
            )


class MeghdootSystem:
    """Facade mirroring :class:`HyperSubSystem`'s measurement surface."""

    def __init__(
        self,
        scheme: Scheme,
        num_nodes: Optional[int] = None,
        topology: Optional[Topology] = None,
        seed: int = 1,
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
        self._dom_lo = scheme.domain_lows()
        self._dom_span = scheme.domain_highs() - self._dom_lo
        self.nodes: List[MeghdootNode] = build_can_overlay(
            self.network,
            dims=2 * scheme.dimensions,
            node_factory=lambda addr, network: MeghdootNode(addr, network, self),
        )

    # ------------------------------------------------------------------
    # Content-space <-> CAN-space mapping
    # ------------------------------------------------------------------
    def _norm(self, values: np.ndarray) -> np.ndarray:
        return (np.asarray(values) - self._dom_lo) / self._dom_span

    def sub_point(self, sub: Subscription) -> np.ndarray:
        return np.concatenate([self._norm(sub.lows), self._norm(sub.highs)])

    def event_point(self, event: Event) -> np.ndarray:
        v = self._norm(event.point)
        return np.concatenate([v, v])

    def affected_region(self, event: Event) -> Tuple[list, list]:
        """The 2d-box of subscription points that can match the event."""
        v = self._norm(event.point)
        lows = np.concatenate([np.zeros_like(v), v])
        highs = np.concatenate([v, np.ones_like(v)])
        return lows.tolist(), highs.tolist()

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
