"""Common overlay-node interface.

HyperSub's pub/sub layer needs exactly three things from the DHT
(paper Section 3):

1. ``lookup(key)`` -- locate the node responsible for a key (used for
   subscription installation and event publication, Algorithms 2 & 4);
2. per-node routing -- ``next_hop_addr(key)`` plus ``is_responsible`` --
   so event delivery can ride the *embedded trees* of the overlay
   (Algorithm 5) instead of maintaining dissemination trees;
3. a neighbour set, used by the dynamic load balancer for sampling.

:class:`~repro.dht.chord.ChordNode` implements it for HyperSub and
:class:`~repro.dht.pastry.PastryNode` for the Scribe baseline.

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

The route-decision cache
------------------------

Every :class:`OverlayNode` keeps one such cache, ``_rc``: key ->
``_RC_HERE`` (this node is responsible), a next-hop address, or
``None`` (no usable hop while the ring heals).  It is flushed when the
epoch moves, so a hit is byte-identical to asking ``is_responsible`` /
``next_hop_addr`` again.  Lookups (:meth:`OverlayNode._route`) and
Algorithm 5's event loop (which reads ``_rc`` inline) share it, and
both count every decision in ``rc_hits`` / ``rc_misses``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.sim.messages import CONTROL_BYTES, Message
from repro.sim.network import Network, SimNode

_lookup_ids = itertools.count()
#: a pending lookup is the list ``[key, callback, hops, start, restarts]``
_KEY, _CALLBACK, _HOPS, _START, _RESTARTS = range(5)
#: walks restarted this often without converging are abandoned
MAX_LOOKUP_RESTARTS = 10
#: Route decisions besides a next-hop address: ``_RC_HERE`` -- this
#: node is responsible for the key; ``None`` -- no usable hop (healing
#: ring).  ``_RC_MISS`` marks absence from the cache.
_RC_HERE = object()
_RC_MISS = object()
#: Route decisions kept per node before the cache is flushed wholesale
#: (flush-on-full beats LRU bookkeeping at this hit pattern).
ROUTE_CACHE_MAX = 4096


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
        #: kind -> ``fn(node, msg)``; one table per distinct registration
        #: history, shared by every node of the network that has it
        self._handlers: Dict[str, Callable[["OverlayNode", Message], None]] = (
            network.handler_tables[None]
        )
        self._pending_lookups: Dict[int, list] = {}
        #: replies one walk may take before it counts as a routing loop
        self._lookup_hop_limit = 4 * max(4, network.topology.size.bit_length() * 4)
        #: bumped on every routing-state mutation (see module docstring);
        #: snapshots/caches keyed on it self-invalidate.
        self.routing_epoch = 0
        #: memoised neighbour list (valid while the epoch matches)
        self._neigh_cache: List[int] = []
        self._neigh_epoch = -1
        #: route-decision cache (module docstring), valid for ``_rc_epoch``
        self._rc: Dict[int, Any] = {}
        self._rc_epoch = -1
        self.rc_hits = 0
        self.rc_misses = 0
        self.register_handler("dht_lookup_step", self._on_lookup_step)
        self.register_handler("dht_lookup_reply", self._on_lookup_reply)

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def register_handler(self, kind: str, fn: Callable[[Message], None]) -> None:
        """Have ``fn(msg)`` handle messages of ``kind``.

        A method of this node is kept as its plain function, and the
        table that results is the one every node with the same
        registrations so far already uses: tables are never written
        after they are published, only succeeded (copy-on-write, found
        again by ``(table before, kind, function)``).  Any other
        callable is wrapped, which makes its table this node's alone.
        """
        table = self._handlers
        if kind in table:
            raise ValueError(f"duplicate handler for {kind!r}")
        if getattr(fn, "__self__", None) is self:
            func = fn.__func__
        else:
            def func(_node, msg, fn=fn):
                fn(msg)
        tables = self.network.handler_tables
        step = (id(table), kind, func)
        grown = tables.get(step)
        if grown is None:
            grown = tables[step] = {**table, kind: func}
        self._handlers = grown

    def handle_message(self, msg: Message) -> None:
        try:
            handler = self._handlers[msg.kind]
        except KeyError:
            raise KeyError(
                f"{type(self).__name__} has no handler for {msg.kind!r}"
            ) from None
        handler(self, msg)

    # ------------------------------------------------------------------
    # Routing-epoch contract (see module docstring)
    # ------------------------------------------------------------------
    def bump_routing_epoch(self) -> None:
        """Invalidate every snapshot/cache derived from routing state."""
        self.routing_epoch += 1

    def _route_miss(self, key: int):
        """Decide where ``key`` goes, from routing state alone --
        ``_RC_HERE``, a next-hop address, or ``None`` (unroutable) --
        and remember the answer."""
        self.rc_misses += 1
        if self.is_responsible(key):
            decision = _RC_HERE
        else:
            decision = self.next_hop_addr(key)
        if len(self._rc) >= ROUTE_CACHE_MAX:
            self._rc.clear()
        self._rc[key] = decision
        return decision

    def _route(self, key: int) -> Optional[int]:
        """``next_hop_addr(key)`` through the route-decision cache:
        ``None`` when this node is responsible or has no usable hop."""
        rc = self._rc
        if self.routing_epoch != self._rc_epoch:
            rc.clear()
            self._rc_epoch = self.routing_epoch
        decision = rc.get(key, _RC_MISS)
        if decision is _RC_MISS:
            decision = self._route_miss(key)
        else:
            self.rc_hits += 1
        return None if decision is _RC_HERE else decision

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
        Chord lookup accounting.  The first step interrogates the origin
        itself and counts as a hop like any other, but it is a function
        call, not a packet: it never had bytes or latency to charge.
        ``callback`` still never runs inside this call -- a lookup the
        origin can answer alone completes at zero delay through the
        scheduler (Chord's join and ``fix_fingers`` rely on that).
        """
        if not self._alive:
            # A crashed origin asks nobody; counted like the packet it
            # would have lost.
            self.network.stats.record_drop("dead_dst")
            return
        nxt = self._route(key)
        if nxt is None:
            self.sim.schedule(
                0.0,
                self._lookup_home,
                callback,
                LookupResult(key, self.addr, self.node_id, 1, 0.0),
            )
            return
        lid = next(_lookup_ids)
        self._pending_lookups[lid] = [key, callback, 1, self.sim.now, 0]
        self._lookup_query(lid, key, nxt)

    def _lookup_home(
        self, callback: Callable[[LookupResult], None], result: LookupResult
    ) -> None:
        """Complete a lookup this node answered itself.  A method, not
        the bare ``callback``, so that a crash in between is noticed
        and span tracers see a callable of this module."""
        if self._alive:
            callback(result)
        else:
            self.network.stats.record_drop("dead_dst")

    def _lookup_restart(self, lid: int) -> None:
        state = self._pending_lookups.get(lid)
        if state is None or not self._alive:
            return
        key = state[_KEY]
        state[_HOPS] += 1
        nxt = self._route(key)
        if nxt is None:
            self._lookup_done(lid, state, self.addr, self.node_id)
        else:
            self._lookup_query(lid, key, nxt)

    def _lookup_query(self, lid: int, key: int, target_addr: int) -> None:
        self.network.send(
            Message(
                src=self.addr,
                dst=target_addr,
                kind="dht_lookup_step",
                payload={"key": key, "lid": lid, "origin": self.addr},
                size_bytes=CONTROL_BYTES,
            )
        )

    def _on_lookup_step(self, msg: Message) -> None:
        key = msg.payload["key"]
        nxt = self._route(key)
        self.network.send(
            Message(
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
        )

    def _on_lookup_reply(self, msg: Message) -> None:
        reply = msg.payload
        lid = reply["lid"]
        state = self._pending_lookups.get(lid)
        if state is None:
            return
        state[_HOPS] += 1
        if state[_HOPS] > self._lookup_hop_limit:
            # Routing loop: while the ring heals around failures, stale
            # fingers can cycle a walk indefinitely.  That is a transient,
            # not a broken invariant -- restart the walk from the origin
            # after a backoff (counted, bounded) instead of destroying
            # the run.  A lookup that exhausts its restarts is dropped
            # (counted as ``dht.lookup_abandoned``); the caller's own
            # retry discipline (e.g. custody redelivery) picks up from
            # there.
            state[_RESTARTS] += 1
            stats = self.network.stats
            stats.lookup_restarts += 1
            if state[_RESTARTS] > MAX_LOOKUP_RESTARTS:
                del self._pending_lookups[lid]
                stats.lookup_abandoned += 1
                return
            state[_HOPS] = 0
            self.sim.schedule(500.0, self._lookup_restart, lid)
            return
        if reply["done"]:
            self._lookup_done(lid, state, reply["next"], reply["node_id"])
        else:
            self._lookup_query(lid, state[_KEY], reply["next"])

    def _lookup_done(self, lid: int, state: list, home_addr: int, home_id: int) -> None:
        del self._pending_lookups[lid]
        state[_CALLBACK](
            LookupResult(
                state[_KEY], home_addr, home_id, state[_HOPS],
                self.sim.now - state[_START],
            )
        )

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(addr={self.addr}, id={self.node_id:016x})"
