"""Common overlay-node interface.

HyperSub's pub/sub layer needs exactly three things from the DHT
(paper Section 3):

1. ``lookup(key)`` -- locate the node responsible for a key (used for
   subscription installation and event publication, Algorithms 2 & 4);
2. per-node routing -- ``next_hop_addr(key)`` plus ``is_responsible`` --
   so event delivery can ride the *embedded trees* of the overlay
   (Algorithm 5) instead of maintaining dissemination trees;
3. a neighbour set, used by the dynamic load balancer for sampling.

Both :class:`~repro.dht.chord.ChordNode` and
:class:`~repro.dht.pastry.PastryNode` implement this interface, which is
how the repository demonstrates the paper's claim that "the techniques
... are applicable to other DHTs".

Routing epochs (perf contract, docs/PERFORMANCE.md)
---------------------------------------------------

``next_hop_addr`` sits on the hottest path of the whole simulation:
Algorithm 5 calls it once per SubID entry per message.  To let overlays
keep *lazily rebuilt* routing snapshots -- and higher layers keep
next-hop caches -- every :class:`OverlayNode` carries a monotonically
increasing ``routing_epoch``.  The contract is:

* any mutation of routing state (fingers, successor list, leaf set,
  predecessor pointer, routing table) bumps the epoch, via
  :meth:`bump_routing_epoch`;
* anything derived from routing state (a sorted snapshot, a memoised
  neighbour list, a next-hop cache) is valid exactly while the epoch it
  was built under is still current.

Concrete overlays are responsible for bumping; consumers only compare.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.sim.messages import CONTROL_BYTES, Message
from repro.sim.network import Network, SimNode

_lookup_ids = itertools.count()


@dataclass
class LookupResult:
    """Outcome of an iterative DHT lookup."""

    key: int
    home_addr: int
    home_id: int
    hops: int
    latency_ms: float


class OverlayNode(SimNode):
    """A DHT node: a :class:`SimNode` with an identifier and routing."""

    def __init__(self, addr: int, node_id: int, network: Network) -> None:
        super().__init__(addr, network)
        self.node_id = node_id
        self._handlers: Dict[str, Callable[[Message], None]] = {}
        self._pending_lookups: Dict[int, dict] = {}
        #: bumped on every routing-state mutation (see module docstring);
        #: snapshots/caches keyed on it self-invalidate.
        self.routing_epoch = 0
        #: memoised neighbour list (valid while the epoch matches)
        self._neigh_cache: List[int] = []
        self._neigh_epoch = -1
        self.register_handler("dht_lookup_step", self._on_lookup_step)
        self.register_handler("dht_lookup_reply", self._on_lookup_reply)
        self._alive = True

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def register_handler(self, kind: str, fn: Callable[[Message], None]) -> None:
        if kind in self._handlers:
            raise ValueError(f"duplicate handler for {kind!r}")
        self._handlers[kind] = fn

    def handle_message(self, msg: Message) -> None:
        try:
            handler = self._handlers[msg.kind]
        except KeyError:
            raise KeyError(
                f"{type(self).__name__} has no handler for {msg.kind!r}"
            ) from None
        handler(msg)

    def alive(self) -> bool:
        return self._alive

    def fail(self) -> None:
        """Crash-stop this node (churn experiments)."""
        self._alive = False

    # ------------------------------------------------------------------
    # Routing-epoch contract (see module docstring)
    # ------------------------------------------------------------------
    def bump_routing_epoch(self) -> None:
        """Invalidate every snapshot/cache derived from routing state."""
        self.routing_epoch += 1

    # ------------------------------------------------------------------
    # Routing interface implemented by concrete overlays
    # ------------------------------------------------------------------
    def is_responsible(self, key: int) -> bool:  # pragma: no cover - abstract
        """Does this node own ``key`` under the overlay's convention?"""
        raise NotImplementedError

    def next_hop_addr(self, key: int) -> Optional[int]:  # pragma: no cover
        """Address of the next routing hop toward ``key``.

        Returns ``None`` when this node is itself responsible.  Must
        make strict progress: following ``next_hop_addr`` from any node
        terminates at the responsible node.
        """
        raise NotImplementedError

    def neighbor_addrs(self) -> List[int]:  # pragma: no cover - abstract
        """Distinct addresses of routing-state neighbours."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Iterative lookup (Algorithms 2 & 4 call this as ``lookup()``)
    # ------------------------------------------------------------------
    def lookup(self, key: int, callback: Callable[[LookupResult], None]) -> None:
        """Asynchronously resolve ``successor(key)``.

        Iterative style: this node queries each hop in turn; every step
        costs one round trip of two control packets, mirroring p2psim's
        Chord lookup accounting.
        """
        lid = next(_lookup_ids)
        self._pending_lookups[lid] = {
            "key": key,
            "callback": callback,
            "hops": 0,
            "start": self.sim.now,
        }
        self._lookup_query(lid, key, self.addr)

    def _lookup_restart(self, lid: int) -> None:
        state = self._pending_lookups.get(lid)
        if state is None or not self.alive():
            return
        self._lookup_query(lid, state["key"], self.addr)

    def _lookup_query(self, lid: int, key: int, target_addr: int) -> None:
        msg = Message(
            src=self.addr,
            dst=target_addr,
            kind="dht_lookup_step",
            payload={"key": key, "lid": lid, "origin": self.addr},
            size_bytes=CONTROL_BYTES,
        )
        self.send(msg)

    def _on_lookup_step(self, msg: Message) -> None:
        key = msg.payload["key"]
        nxt = self.next_hop_addr(key)
        reply = Message(
            src=self.addr,
            dst=msg.payload["origin"],
            kind="dht_lookup_reply",
            payload={
                "lid": msg.payload["lid"],
                "key": key,
                "done": nxt is None,
                "next": self.addr if nxt is None else nxt,
                "node_id": self.node_id,
            },
            size_bytes=CONTROL_BYTES,
        )
        self.send(reply)

    def _on_lookup_reply(self, msg: Message) -> None:
        lid = msg.payload["lid"]
        state = self._pending_lookups.get(lid)
        if state is None:
            return
        state["hops"] += 1
        if state["hops"] > 4 * max(4, self.network.topology.size.bit_length() * 4):
            # Routing loop: while the ring heals around failures, stale
            # fingers can cycle a walk indefinitely.  That is a transient,
            # not a broken invariant -- restart the walk from the origin
            # after a backoff (counted, bounded) instead of destroying
            # the run.  A lookup that exhausts its restarts is dropped;
            # the caller's own retry discipline (e.g. custody redelivery)
            # picks up from there.
            state["restarts"] = state.get("restarts", 0) + 1
            self.network.stats.lookup_restarts += 1
            if state["restarts"] > 10:
                del self._pending_lookups[lid]
                return
            state["hops"] = 0
            self.sim.schedule(500.0, self._lookup_restart, lid)
            return
        if msg.payload["done"]:
            del self._pending_lookups[lid]
            result = LookupResult(
                key=state["key"],
                home_addr=msg.payload["next"],
                home_id=msg.payload["node_id"],
                hops=state["hops"],
                latency_ms=self.sim.now - state["start"],
            )
            state["callback"](result)
        else:
            self._lookup_query(lid, state["key"], msg.payload["next"])

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(addr={self.addr}, id={self.node_id:016x})"
