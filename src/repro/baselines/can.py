"""A Content-Addressable Network (Ratnasamy et al., SIGCOMM'01).

Substrate for the Meghdoot baseline.  The D-dimensional unit torus is
*not* needed here -- Meghdoot maps bounded attribute domains into the
unit cube, so this implementation uses the non-wrapping variant (zones
partition [0,1]^D; routing is greedy toward the target point through
face neighbours).

Construction is static (like the Chord/Pastry builders): the space is
split recursively -- always the largest zone, along its longest side --
until there is one zone per node.  That mirrors the balanced state CAN
reaches when joins pick random points.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.sim.messages import Message
from repro.sim.network import Network, SimNode


class CANZone:
    """An axis-aligned box owned by one node."""

    __slots__ = ("lows", "highs")

    def __init__(self, lows: np.ndarray, highs: np.ndarray) -> None:
        self.lows = np.asarray(lows, dtype=np.float64)
        self.highs = np.asarray(highs, dtype=np.float64)

    @property
    def dims(self) -> int:
        return len(self.lows)

    def volume(self) -> float:
        return float(np.prod(self.highs - self.lows))

    def contains(self, point: np.ndarray) -> bool:
        """Half-open membership (closed at the global upper boundary)."""
        inside_low = np.all(point >= self.lows)
        inside_high = np.all(
            (point < self.highs) | ((self.highs >= 1.0) & (point <= self.highs))
        )
        return bool(inside_low and inside_high)

    def distance_to(self, point: np.ndarray) -> float:
        """Euclidean distance from the box to the point (0 if inside)."""
        clamped = np.clip(point, self.lows, self.highs)
        return float(np.linalg.norm(clamped - point))

    def intersects(self, lows: np.ndarray, highs: np.ndarray) -> bool:
        """Positive-measure-or-boundary overlap with a query box."""
        return bool(np.all(self.lows <= highs) and np.all(lows <= self.highs))

    def split(self) -> Tuple["CANZone", "CANZone"]:
        """Halve along the longest side (ties: lowest dimension)."""
        extents = self.highs - self.lows
        j = int(np.argmax(extents))
        mid = (self.lows[j] + self.highs[j]) / 2.0
        lo_highs = self.highs.copy()
        lo_highs[j] = mid
        hi_lows = self.lows.copy()
        hi_lows[j] = mid
        return CANZone(self.lows.copy(), lo_highs), CANZone(hi_lows, self.highs.copy())

    def faces_touch(self, other: "CANZone") -> bool:
        """CAN neighbour test: abut on one axis, overlap on the rest."""
        abut_axis = -1
        for j in range(self.dims):
            if self.highs[j] == other.lows[j] or other.highs[j] == self.lows[j]:
                if abut_axis == -1:
                    abut_axis = j
        if abut_axis == -1:
            return False
        for j in range(self.dims):
            if j == abut_axis:
                continue
            if self.lows[j] >= other.highs[j] or other.lows[j] >= self.highs[j]:
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ",".join(
            f"[{lo:.3f},{hi:.3f})" for lo, hi in zip(self.lows, self.highs)
        )
        return f"CANZone({parts})"


class CANNode(SimNode):
    """One CAN participant: a zone plus its face neighbours."""

    def __init__(self, addr: int, network: Network) -> None:
        super().__init__(addr, network)
        self.zone: Optional[CANZone] = None
        self.neighbors: List[Tuple[int, CANZone]] = []  # (addr, their zone)
        self._handlers: Dict[str, Callable[[Message], None]] = {}

    def register_handler(self, kind: str, fn: Callable[[Message], None]) -> None:
        if kind in self._handlers:
            raise ValueError(f"duplicate handler for {kind!r}")
        self._handlers[kind] = fn

    def handle_message(self, msg: Message) -> None:
        handler = self._handlers.get(msg.kind)
        if handler is None:
            raise KeyError(f"CANNode has no handler for {msg.kind!r}")
        handler(msg)

    # ------------------------------------------------------------------
    def owns(self, point: np.ndarray) -> bool:
        return self.zone is not None and self.zone.contains(point)

    def next_hop_addr(self, point: np.ndarray) -> Optional[int]:
        """Greedy routing: the neighbour strictly closest to the point.

        Returns ``None`` when this node owns the point.  With an
        axis-aligned rectilinear partition there is always a neighbour
        strictly closer unless we already own the point.
        """
        if self.owns(point):
            return None
        my_dist = self.zone.distance_to(point)
        best_addr: Optional[int] = None
        best = my_dist
        for addr, zone in self.neighbors:
            d = zone.distance_to(point)
            if d < best or (d == best and best_addr is None and d < my_dist):
                best = d
                best_addr = addr
        return best_addr

    def neighbors_intersecting(
        self, lows: np.ndarray, highs: np.ndarray
    ) -> List[int]:
        return [a for a, z in self.neighbors if z.intersects(lows, highs)]


def build_can_overlay(
    network: Network,
    dims: int,
    node_factory: Optional[Callable[..., CANNode]] = None,
) -> List[CANNode]:
    """Statically partition ``[0,1]^dims`` into one zone per address."""
    n = network.topology.size
    if n < 1:
        raise ValueError("need at least one node")
    if dims < 1:
        raise ValueError("dims must be >= 1")

    # Split the largest zone until there is one per node.  The heap is
    # keyed by (-volume, sequence) for determinism.
    seq = itertools.count()
    root = CANZone(np.zeros(dims), np.ones(dims))
    heap: List[Tuple[float, int, CANZone]] = [(-root.volume(), next(seq), root)]
    while len(heap) < n:
        _negvol, _s, zone = heapq.heappop(heap)
        a, b = zone.split()
        heapq.heappush(heap, (-a.volume(), next(seq), a))
        heapq.heappush(heap, (-b.volume(), next(seq), b))
    zones = [z for _v, _s, z in sorted(heap, key=lambda t: t[1])]

    factory = node_factory or CANNode
    nodes = [factory(addr, network) for addr in range(n)]
    for node, zone in zip(nodes, zones):
        node.zone = zone

    # Face adjacency, vectorised per zone against all others.
    all_lows = np.stack([z.lows for z in zones])
    all_highs = np.stack([z.highs for z in zones])
    for i, zone in enumerate(zones):
        # Candidate filter: boxes that touch-or-overlap in every dim.
        touch = np.all(
            (all_lows <= zone.highs) & (zone.lows <= all_highs), axis=1
        )
        candidates = np.nonzero(touch)[0]
        for j in candidates:
            if j == i:
                continue
            if zone.faces_touch(zones[j]):
                nodes[i].neighbors.append((int(j), zones[j]))
    return nodes

