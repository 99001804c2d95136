"""Pastry (Rowstron & Druschel, Middleware'01) behind the overlay API.

The substrate of the Scribe baseline (:mod:`repro.baselines.scribe`).
HyperSub itself runs on Chord only, the overlay the paper evaluates;
EXPERIMENTS.md ("Pastry (§3 portability)") records what running it on
this module once established.

Conventions:

* identifiers are 64-bit, interpreted as 16 hexadecimal digits
  (``b = 4``);
* a key is owned by the *numerically closest* node (ties break to the
  clockwise side);
* routing state is a leaf set (``L/2`` on each side) plus a prefix
  routing table whose entries are chosen by proximity (Pastry's
  locality heuristic), reusing the same RTT oracle as Chord-PNS.

Only static construction is provided.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.dht.base import OverlayNode
from repro.dht.idspace import ID_BITS, cw_distance, random_ids
from repro.dht.ring import SortedRing
from repro.sim.network import Network

#: Bits per digit (b). 16 digits of 4 bits cover the 64-bit space.
DIGIT_BITS = 4
NUM_DIGITS = ID_BITS // DIGIT_BITS
DIGIT_BASE = 1 << DIGIT_BITS
#: Leaf-set size (total; half on each side).
DEFAULT_LEAF_SET = 16


def digit_at(node_id: int, pos: int) -> int:
    """The ``pos``-th most-significant base-16 digit of ``node_id``."""
    shift = ID_BITS - DIGIT_BITS * (pos + 1)
    return (node_id >> shift) & (DIGIT_BASE - 1)


def shared_prefix_digits(a: int, b: int) -> int:
    """Number of leading base-16 digits shared by ``a`` and ``b``."""
    x = a ^ b
    if x == 0:
        return NUM_DIGITS
    return (ID_BITS - x.bit_length()) // DIGIT_BITS


def circular_abs_distance(a: int, b: int) -> int:
    """min(cw, ccw) distance between two identifiers."""
    d = cw_distance(a, b)
    return min(d, (1 << ID_BITS) - d)


class PastryNode(OverlayNode):
    """One Pastry participant (static construction)."""

    def __init__(
        self,
        addr: int,
        node_id: int,
        network: Network,
        leaf_set_size: int = DEFAULT_LEAF_SET,
        **_kwargs,
    ) -> None:
        super().__init__(addr, node_id, network)
        self.leaf_set_size = leaf_set_size
        self.leaves_cw: List[Tuple[int, int]] = []  # clockwise neighbours
        self.leaves_ccw: List[Tuple[int, int]] = []  # counter-clockwise
        # table[row] maps digit -> (id, addr)
        self.table: List[Dict[int, Tuple[int, int]]] = [
            {} for _ in range(NUM_DIGITS)
        ]

    # ------------------------------------------------------------------
    def _all_leaves(self) -> List[Tuple[int, int]]:
        return self.leaves_ccw + self.leaves_cw

    def _closer_to_key(self, key: int, cand_id: int, than_id: int) -> bool:
        """Is ``cand_id`` strictly closer to ``key`` (clockwise tiebreak)?"""
        dc = circular_abs_distance(cand_id, key)
        dt = circular_abs_distance(than_id, key)
        if dc != dt:
            return dc < dt
        # Equidistant: prefer the node reached clockwise from the key.
        return cw_distance(key, cand_id) < cw_distance(key, than_id)

    def is_responsible(self, key: int) -> bool:
        for ent_id, _ in self._all_leaves():
            if self._closer_to_key(key, ent_id, self.node_id):
                return False
        return True

    def next_hop_addr(self, key: int) -> Optional[int]:
        if self.is_responsible(key):
            return None
        # Leaf-set range check: if the key lies within the leaf set,
        # route directly to the numerically closest leaf.
        best_id, best_addr = self.node_id, self.addr
        for ent_id, ent_addr in self._all_leaves():
            if self._closer_to_key(key, ent_id, best_id):
                best_id, best_addr = ent_id, ent_addr
        in_leaf_range = self._key_in_leaf_range(key)
        if in_leaf_range:
            return best_addr if best_id != self.node_id else None

        row = shared_prefix_digits(key, self.node_id)
        if row < NUM_DIGITS:
            ent = self.table[row].get(digit_at(key, row))
            if ent is not None:
                return ent[1]
        # Rare case: no exact table entry.  Fall back to any known node
        # numerically closer with at least as long a prefix (Pastry's
        # "rare case" rule); leaf fallback guarantees progress.
        for row_entries in self.table[row:] if row < NUM_DIGITS else []:
            for ent_id, ent_addr in row_entries.values():
                if shared_prefix_digits(ent_id, key) >= row and self._closer_to_key(
                    key, ent_id, self.node_id
                ):
                    return ent_addr
        if best_id != self.node_id:
            return best_addr
        return None

    def _key_in_leaf_range(self, key: int) -> bool:
        if not self.leaves_cw and not self.leaves_ccw:
            return True
        lo = self.leaves_ccw[-1][0] if self.leaves_ccw else self.node_id
        hi = self.leaves_cw[-1][0] if self.leaves_cw else self.node_id
        # Clockwise arc from lo to hi contains the whole leaf set.
        return cw_distance(lo, key) <= cw_distance(lo, hi)

    def neighbor_addrs(self) -> List[int]:
        """Distinct neighbour addresses, memoised per routing epoch.

        Pastry construction is static, so after the build bumps the
        epoch once the leaf-set + table walk runs exactly one time no
        matter how often the load balancer or breaker samples it (the
        shared :class:`~repro.dht.base.OverlayNode` epoch contract).
        """
        if self._neigh_epoch == self.routing_epoch:
            return self._neigh_cache
        out: List[int] = []
        seen = {self.addr}
        for ent_id, ent_addr in self._all_leaves():
            if ent_addr not in seen:
                seen.add(ent_addr)
                out.append(ent_addr)
        for row in self.table:
            for _id, ent_addr in row.values():
                if ent_addr not in seen:
                    seen.add(ent_addr)
                    out.append(ent_addr)
        self._neigh_cache = out
        self._neigh_epoch = self.routing_epoch
        return out


def build_pastry_overlay(
    network: Network,
    seed: int = 1,
    *,
    leaf_set_size: int = DEFAULT_LEAF_SET,
    proximity_samples: int = 16,
    node_ids: Optional[List[int]] = None,
    node_factory: Optional[Callable[..., PastryNode]] = None,
) -> Tuple[List[PastryNode], SortedRing]:
    """Construct a fully-populated static Pastry overlay."""
    n = network.topology.size
    ids = node_ids if node_ids is not None else random_ids(n, seed)
    if len(ids) != n:
        raise ValueError("need exactly one id per network address")
    ring = SortedRing((node_id, addr) for addr, node_id in enumerate(ids))

    factory = node_factory or PastryNode
    nodes: List[PastryNode] = [
        factory(addr, ids[addr], network, leaf_set_size=leaf_set_size)
        for addr in range(n)
    ]

    rng = np.random.default_rng(seed ^ 0xFACADE)
    half = leaf_set_size // 2
    for node in nodes:
        cw = ring.successor_list(node.node_id, half)
        node.leaves_cw = [(sid, ring.addr(sid)) for sid in cw]
        ccw_ids: List[int] = []
        cur = node.node_id
        for _ in range(min(half, len(ring) - 1)):
            cur = ring.predecessor(cur)
            if cur == node.node_id:
                break
            ccw_ids.append(cur)
        node.leaves_ccw = [(pid, ring.addr(pid)) for pid in ccw_ids]
        _fill_routing_table(node, ring, network, proximity_samples, rng)
        # Routing state is complete: invalidate anything derived from the
        # factory-fresh (empty) tables.
        node.bump_routing_epoch()
    return nodes, ring


def _fill_routing_table(
    node: PastryNode,
    ring: SortedRing,
    network: Network,
    proximity_samples: int,
    rng: np.random.Generator,
) -> None:
    """Populate prefix rows; entries chosen by proximity among candidates.

    Candidates for row ``r`` digit ``d`` share the node's first ``r``
    digits and have digit ``d`` next -- a contiguous identifier range,
    so the global ring answers each cell with one arc query.
    """
    cells: List[Tuple[int, int, List[int]]] = []  # (row, digit, candidate ids)
    for row in range(NUM_DIGITS):
        span_bits = ID_BITS - DIGIT_BITS * (row + 1)
        prefix = node.node_id >> (span_bits + DIGIT_BITS) << (span_bits + DIGIT_BITS)
        own_digit = digit_at(node.node_id, row)
        row_has_candidates = False
        for d in range(DIGIT_BASE):
            if d == own_digit:
                continue
            start = prefix | (d << span_bits)
            end = start + (1 << span_bits)
            cands = ring.ids_in_arc(start, end & ((1 << ID_BITS) - 1))
            cands = [c for c in cands if c != node.node_id]
            if not cands:
                continue
            row_has_candidates = True
            if len(cands) > proximity_samples:
                picks = rng.choice(len(cands), size=proximity_samples, replace=False)
                cands = [cands[int(k)] for k in sorted(picks)]
            cells.append((row, d, cands))
        # Deeper rows only matter while some node shares this prefix;
        # once a row is empty every longer prefix is empty too.
        if not row_has_candidates and row > 0:
            break

    if not cells:
        return
    all_ids = [cid for _r, _d, cands in cells for cid in cands]
    addrs = np.array([ring.addr(cid) for cid in all_ids], dtype=np.intp)
    rtts = network.topology.rtt_many(node.addr, addrs)
    pos = 0
    for row, d, cands in cells:
        k = len(cands)
        best = int(np.argmin(rtts[pos : pos + k]))
        cid = cands[best]
        node.table[row][d] = (cid, ring.addr(cid))
        pos += k
