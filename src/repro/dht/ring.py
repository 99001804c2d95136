"""Sorted view of all live identifiers.

``SortedRing`` is the *global* oracle used (a) to construct overlays
statically -- the paper initialises the whole network before running
events -- and (b) by tests as ground truth for successor/ownership
queries.  Protocol code never consults it at "run time": routing uses
only per-node state (fingers, successor lists, leaf sets).
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, Iterator, List, Tuple

from repro.dht.idspace import ID_SPACE


class SortedRing:
    """Maintains ``(id -> addr)`` with O(log n) circular queries."""

    def __init__(self, pairs: Iterable[Tuple[int, int]] = ()) -> None:
        self._ids: List[int] = []
        #: ``_addrs[p]`` is the address of ``_ids[p]``
        self._addrs: List[int] = []
        self._addr_of: Dict[int, int] = {}
        for node_id, addr in pairs:
            self.add(node_id, addr)

    # ------------------------------------------------------------------
    def add(self, node_id: int, addr: int) -> None:
        if not 0 <= node_id < ID_SPACE:
            raise ValueError("id outside identifier space")
        if node_id in self._addr_of:
            raise ValueError(f"duplicate id {node_id}")
        idx = bisect.bisect_left(self._ids, node_id)
        self._ids.insert(idx, node_id)
        self._addrs.insert(idx, addr)
        self._addr_of[node_id] = addr

    def remove(self, node_id: int) -> None:
        idx = bisect.bisect_left(self._ids, node_id)
        if idx >= len(self._ids) or self._ids[idx] != node_id:
            raise KeyError(node_id)
        self._ids.pop(idx)
        self._addrs.pop(idx)
        del self._addr_of[node_id]

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._addr_of

    def __iter__(self) -> Iterator[int]:
        return iter(self._ids)

    @property
    def ids(self) -> List[int]:
        """Sorted ids (do not mutate)."""
        return self._ids

    @property
    def addrs(self) -> List[int]:
        """Addresses by position: ``addrs[p]`` belongs to ``ids[p]``
        (do not mutate)."""
        return self._addrs

    def addr(self, node_id: int) -> int:
        return self._addr_of[node_id]

    # ------------------------------------------------------------------
    def successor(self, key: int) -> int:
        """The id of the node responsible for ``key`` (Chord convention:
        first node id >= key, wrapping)."""
        if not self._ids:
            raise LookupError("empty ring")
        idx = bisect.bisect_left(self._ids, key)
        if idx == len(self._ids):
            idx = 0
        return self._ids[idx]

    def predecessor(self, key: int) -> int:
        """The id of the last node strictly before ``key`` (wrapping)."""
        if not self._ids:
            raise LookupError("empty ring")
        idx = bisect.bisect_left(self._ids, key) - 1
        return self._ids[idx]  # idx == -1 wraps to the largest id

    def successor_list(self, node_id: int, count: int) -> List[int]:
        """The ``count`` ids clockwise after ``node_id`` (excluding it)."""
        if not self._ids:
            raise LookupError("empty ring")
        n = len(self._ids)
        count = min(count, n - 1)
        idx = bisect.bisect_right(self._ids, node_id)
        return [self._ids[(idx + k) % n] for k in range(count)]
