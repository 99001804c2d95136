"""Scribe (Rowstron et al., NGC'01) and a content-over-topics adapter.

The paper's related work: "Scribe and Bayeux are topic-based pub/sub
systems built on top of Pastry and Tapestry respectively.  They can not
directly support content-based pub/sub services.  Tam et al. built a
content-based pub/sub system from Scribe.  However, their system still
suffers from some restrictions on the expression of subscriptions."

Implemented here on our own Pastry substrate:

* :class:`ScribeNode` -- topic multicast trees: a topic's *root* is the
  Pastry node closest to ``hash(topic)``; joins route toward the root
  leaving reverse-path forwarder state; publishes route to the root and
  multicast down the tree.
* :class:`ScribeContentSystem` -- the Tam-style adapter: each attribute's
  domain is cut into ``buckets`` topics.  A subscription joins the
  topics its range covers on its *most selective* specified attribute;
  an event is published to its bucket topic on **every** attribute, so
  any matching subscriber is guaranteed to hear it on the attribute it
  chose.  Subscribers filter false positives locally -- the delivered
  set is exact, but the *transport* carries every event whose single
  attribute bucket overlaps a subscription, which is exactly the
  expressiveness restriction the paper calls out (quantified in B1).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.event import Event
from repro.core.scheme import Scheme
from repro.core.subscription import SubID, Subscription
from repro.core.system import Metrics
from repro.dht.idspace import consistent_hash_64
from repro.dht.pastry import PastryNode, build_pastry_overlay
from repro.sim.engine import Simulator
from repro.sim.messages import CONTROL_BYTES, Message, event_message_bytes
from repro.sim.network import Network
from repro.sim.topology import KingLikeTopology, Topology


class ScribeNode(PastryNode):
    """Pastry node with Scribe's per-topic multicast state."""

    def __init__(self, addr, node_id, network, system=None, **kwargs) -> None:
        super().__init__(addr, node_id, network, **kwargs)
        self.system = system
        #: topic -> child addresses in the multicast tree
        self.children: Dict[int, Set[int]] = {}
        #: topic -> our parent's address (None at the root)
        self.parent: Dict[int, Optional[int]] = {}
        #: topics this node is itself subscribed to
        self.joined: Set[int] = set()
        #: local content subscriptions for subscriber-side filtering
        self.own_subs: Dict[int, Subscription] = {}
        self._iid = 0
        #: events already filtered here (a node subscribed via several
        #: attributes can hear the same event on more than one topic)
        self._seen: Set[int] = set()
        self.register_handler("sc_join", self._on_join)
        self.register_handler("sc_publish", self._on_publish)
        self.register_handler("sc_multicast", self._on_multicast)

    # ------------------------------------------------------------------
    # Tree construction
    # ------------------------------------------------------------------
    def join_topic(self, topic: int) -> None:
        """Become a member of the topic's multicast tree."""
        self.joined.add(topic)
        if topic in self.parent or self.is_responsible(topic):
            return  # already on the tree (forwarder or root)
        self._send_join(topic)

    def _send_join(self, topic: int) -> None:
        nh = self.next_hop_addr(topic)
        if nh is None:
            self.parent.setdefault(topic, None)  # we are the root
            return
        # Reverse-path forwarding: our parent is our first hop toward
        # the root (it records us as a child when the join arrives).
        self.parent[topic] = nh
        self.send(
            Message(
                src=self.addr, dst=nh, kind="sc_join",
                payload={"topic": topic, "child": self.addr},
                size_bytes=CONTROL_BYTES,
            )
        )

    def _on_join(self, msg: Message) -> None:
        topic = msg.payload["topic"]
        self.children.setdefault(topic, set()).add(msg.payload["child"])
        # Scribe rule: a node already on the tree absorbs the join;
        # otherwise it grafts itself by joining toward the root.
        if self.is_responsible(topic):
            self.parent.setdefault(topic, None)  # we are the root
            return
        if topic in self.parent:
            return  # already grafted
        nh = self.next_hop_addr(topic)
        if nh is None:  # pragma: no cover - responsibility raced above
            self.parent[topic] = None
            return
        self.parent[topic] = nh
        self.send(
            Message(
                src=self.addr, dst=nh, kind="sc_join",
                payload={"topic": topic, "child": self.addr},
                size_bytes=CONTROL_BYTES,
            )
        )

    # ------------------------------------------------------------------
    # Publication
    # ------------------------------------------------------------------
    def publish_to_topics(self, event: Event, topics: List[int], event_id: int) -> None:
        for topic in topics:
            payload = {
                "event_id": event_id,
                "topic": topic,
                "values": event.point,
            }
            if self.is_responsible(topic):
                self._multicast(topic, payload, None)
                continue
            size = event_message_bytes(0)
            self.system.metrics.on_event_message(event_id, size)
            self.send(
                Message(
                    src=self.addr, dst=self.next_hop_addr(topic),
                    kind="sc_publish", payload=payload, size_bytes=size,
                    root_time=self.sim.now,
                )
            )

    def _on_publish(self, msg: Message) -> None:
        topic = msg.payload["topic"]
        nh = self.next_hop_addr(topic)
        if nh is None:
            self._multicast(topic, msg.payload, msg)
            return
        size = event_message_bytes(0)
        self.system.metrics.on_event_message(msg.payload["event_id"], size)
        self.send(msg.child(self.addr, nh, "sc_publish", msg.payload, size))

    def _on_multicast(self, msg: Message) -> None:
        self._multicast(msg.payload["topic"], msg.payload, msg)

    def _multicast(self, topic: int, payload: dict, msg: Optional[Message]) -> None:
        event_id = payload["event_id"]
        if topic in self.joined:
            self._deliver_filtered(event_id, payload["values"], msg)
        for child in self.children.get(topic, ()):
            size = event_message_bytes(0)
            self.system.metrics.on_event_message(event_id, size)
            if msg is None:
                out = Message(
                    src=self.addr, dst=child, kind="sc_multicast",
                    payload=payload, size_bytes=size, root_time=self.sim.now,
                )
            else:
                out = msg.child(self.addr, child, "sc_multicast", payload, size)
            self.send(out)

    def _deliver_filtered(self, event_id: int, values, msg: Optional[Message]) -> None:
        """Subscriber-side filtering: only true matches count as
        deliveries (false positives are transport overhead)."""
        if event_id in self._seen:
            return  # already filtered via another attribute's topic
        self._seen.add(event_id)
        point = np.asarray(values).tolist()
        hops = msg.hops if msg is not None else 0
        latency = (self.sim.now - msg.root_time) if msg is not None else 0.0
        for iid, sub in self.own_subs.items():
            if sub.contains(point):
                self.system.metrics.on_delivery(
                    event_id, SubID(self.addr, iid), self.addr, hops, latency
                )


class ScribeContentSystem:
    """Content-based pub/sub over Scribe topics (Tam-style adapter)."""

    def __init__(
        self,
        scheme: Scheme,
        num_nodes: Optional[int] = None,
        topology: Optional[Topology] = None,
        seed: int = 1,
        buckets: int = 16,
    ) -> None:
        if topology is None:
            if num_nodes is None:
                raise ValueError("provide num_nodes or a topology")
            topology = KingLikeTopology(num_nodes, seed=seed)
        if buckets < 1:
            raise ValueError("buckets must be >= 1")
        self.scheme = scheme
        self.buckets = buckets
        self.topology = topology
        self.sim = Simulator()
        self.network = Network(self.sim, topology)
        self.metrics = Metrics()
        self.nodes, self.ring = build_pastry_overlay(
            self.network, seed=seed,
            node_factory=lambda addr, node_id, network, **kw: ScribeNode(
                addr, node_id, network, system=self, **kw
            ),
        )
        self._dom_lo = scheme.domain_lows()
        self._dom_span = scheme.domain_highs() - self._dom_lo
        self._topic_ids: Dict[Tuple[int, int], int] = {}
        for d in range(scheme.dimensions):
            for b in range(buckets):
                name = f"{scheme.name}/{scheme.attributes[d].name}/{b}"
                self._topic_ids[(d, b)] = consistent_hash_64(name.encode())

    # ------------------------------------------------------------------
    def _bucket(self, dim: int, value: float) -> int:
        frac = (value - self._dom_lo[dim]) / self._dom_span[dim]
        return min(max(int(frac * self.buckets), 0), self.buckets - 1)

    def topics_for_subscription(self, sub: Subscription) -> List[int]:
        """Topics on the most selective *specified* attribute.

        Selectivity = fewest buckets covered; ties resolve to the lower
        dimension.  Unconstrained subscriptions join every bucket of
        dimension 0 (the expressiveness restriction in action).
        """
        best_dim, best_range = 0, range(self.buckets)
        best_width = self.buckets + 1
        lows, highs = sub.box
        for d in range(self.scheme.dimensions):
            lo_b = self._bucket(d, lows[d])
            hi_b = self._bucket(d, highs[d])
            width = hi_b - lo_b + 1
            if width < best_width:
                best_dim, best_range, best_width = d, range(lo_b, hi_b + 1), width
        return [self._topic_ids[(best_dim, b)] for b in best_range]

    def topics_for_event(self, event: Event) -> List[int]:
        """One topic per attribute: whichever attribute a subscriber
        chose, its bucket topic hears the event."""
        return [
            self._topic_ids[(d, self._bucket(d, float(event.point[d])))]
            for d in range(self.scheme.dimensions)
        ]

    # ------------------------------------------------------------------
    def subscribe(self, addr: int, sub: Subscription) -> SubID:
        node = self.nodes[addr]
        node._iid += 1
        subid = SubID(addr, node._iid)
        node.own_subs[node._iid] = sub
        self.metrics.count_subscription(sub.scheme_name)
        for topic in self.topics_for_subscription(sub):
            node.join_topic(topic)
        return subid

    def publish(self, addr: int, event: Event) -> int:
        event_id = self.metrics.new_event(event, addr, self.sim.now)
        self.nodes[addr].publish_to_topics(
            event, self.topics_for_event(event), event_id
        )
        return event_id

    def schedule_publish(self, at_ms: float, addr: int, event: Event) -> None:
        self.sim.schedule_at(at_ms, self.publish, addr, event)

    def finish_setup(self) -> None:
        self.sim.run_until_idle()
        self.network.stats.reset()
        self.metrics.clear_events()

    def run_until_idle(self) -> int:
        return self.sim.run_until_idle()

    def node_loads(self) -> np.ndarray:
        """Tree state per node: children entries plus joined topics."""
        return np.array(
            [
                sum(len(c) for c in n.children.values()) + len(n.joined)
                for n in self.nodes
            ],
            dtype=np.int64,
        )
