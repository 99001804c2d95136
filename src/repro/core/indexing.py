"""Indexed local event matching.

Algorithm 3's commentary: "There may be indexing structures maintained
on the surrogate node to facilitate local event matching; however, this
is not the focus of this paper."  This module supplies two:
:class:`GridIndex`, a spatial-hash accelerator over the first two
dimensions, and :class:`BandIndex`, an interval-band (counting-style)
index over every dimension -- both drop-in compatible with
:class:`~repro.core.matching.BoxStore` (the micro-benchmarks compare
them; the property tests prove they answer identically).  No config
selects either: every zone repository holds a plain ``BoxStore``
(docs/MATCHING.md "Which kind wins where").  Both classes stay
importable because ``benchmarks/e2e/layers.py`` names them and that
directory is a contract this repo's changes may not edit; ``repro
bench``'s 10^4 / 10^5 matching micro also times ``BandIndex``.

The linear store compares the query point against *every* stored box
(one columnar compare + reduce, so cheap until stores grow to tens of
thousands of entries; docs/MATCHING.md has the measured crossover).
The grid maps each box to the cells its first-two-dimension footprint
covers; a point query inspects one cell's candidates only.  Matching
cost drops from O(n) to O(n in cell) at the price of O(cells covered)
insertion.  Both indexes only pre-select candidate slots; the exact
containment test is the store's own kernel (``BoxStore._match``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.matching import BoxStore
from repro.core.subscription import SubID


class GridIndex(BoxStore):
    """A :class:`BoxStore` with a uniform-grid accelerator.

    ``domain_lows`` / ``domain_highs`` bound the coordinates that will
    ever be stored or queried (a zone repository knows its content
    space); ``cells_per_dim`` controls grid resolution on each of the
    first ``min(2, dims)`` dimensions.
    """

    def __init__(
        self,
        dims: int,
        domain_lows,
        domain_highs,
        cells_per_dim: int = 16,
    ) -> None:
        super().__init__(dims)
        if cells_per_dim < 1:
            raise ValueError("cells_per_dim must be >= 1")
        self._g_lows = np.asarray(domain_lows, dtype=np.float64)
        self._g_highs = np.asarray(domain_highs, dtype=np.float64)
        if self._g_lows.shape != (dims,) or self._g_highs.shape != (dims,):
            raise ValueError("domain bounds must have one entry per dim")
        if np.any(self._g_highs <= self._g_lows):
            raise ValueError("domain must have positive extent")
        self._grid_dims = min(2, dims)
        self._cells = cells_per_dim
        # Hot-path precomputation: ``_cell_of`` runs once per grid
        # dimension per query/insert, so keep plain Python floats (no
        # numpy scalar boxing) and fold the divide into a multiply by
        # the inverse span, computed once here.
        self._cell_lo = [float(self._g_lows[d]) for d in range(self._grid_dims)]
        self._cell_inv = [
            cells_per_dim / float(self._g_highs[d] - self._g_lows[d])
            for d in range(self._grid_dims)
        ]
        self._cell_max = cells_per_dim - 1
        self._buckets: Dict[Tuple[int, ...], Set[int]] = {}
        self._slot_cells: Dict[int, List[Tuple[int, ...]]] = {}

    # ------------------------------------------------------------------
    def _cell_of(self, value: float, dim: int) -> int:
        # Clamp before ``int()``: ±inf bounds are legal ("unspecified
        # dimension") and ``int()`` raises on them.  NaN fails both
        # tests and lands in the last cell, where exact verification
        # rejects it like everything else compared against NaN.
        c = (value - self._cell_lo[dim]) * self._cell_inv[dim]
        if c <= 0:
            return 0
        return int(c) if c < self._cell_max else self._cell_max

    def _cells_for_box(self, lows: np.ndarray, highs: np.ndarray):
        ranges = [
            range(
                self._cell_of(lows[d], d),
                self._cell_of(highs[d], d) + 1,
            )
            for d in range(self._grid_dims)
        ]
        if self._grid_dims == 1:
            return [(i,) for i in ranges[0]]
        return [(i, j) for i in ranges[0] for j in ranges[1]]

    # ------------------------------------------------------------------
    def put(self, subid: SubID, lows, highs) -> None:
        existed = subid in self._slot_of
        super().put(subid, lows, highs)
        slot = self._slot_of[subid]
        if existed:
            self._unlink(slot)
        cells = self._cells_for_box(lows, highs)  # validated by super().put
        self._slot_cells[slot] = cells
        for cell in cells:
            self._buckets.setdefault(cell, set()).add(slot)

    def _unlink(self, slot: int) -> None:
        for cell in self._slot_cells.pop(slot, ()):
            bucket = self._buckets.get(cell)
            if bucket is not None:
                bucket.discard(slot)
                if not bucket:
                    del self._buckets[cell]

    def _release_slot(self, slot: int) -> None:
        self._unlink(slot)

    # ------------------------------------------------------------------
    def match_point(self, point: np.ndarray) -> List[SubID]:
        if self._size == 0:
            return []
        cell = tuple(
            self._cell_of(point[d], d) for d in range(self._grid_dims)
        )
        bucket = self._buckets.get(cell)
        if not bucket:
            return []
        cand = np.fromiter(bucket, dtype=np.intp, count=len(bucket))
        return self._match(point, point, cand)


class BandIndex(BoxStore):
    """Interval-band (counting-style) index over *every* dimension.

    Per dimension the stored box boundaries are summarised into a
    sorted array of band edges (value quantiles, so bands adapt to the
    data); each band carries a packed bitset of the slots whose
    interval overlaps it.  ``match_point`` locates the point's band on
    each dimension with one binary search and intersects ≤ ``dims``
    bitsets -- one vectorised AND instead of a scan over all boxes --
    then verifies the few surviving candidates exactly, so answers are
    identical to :class:`BoxStore` by construction.

    The bitsets are rebuilt lazily: mutations land in a small *delta*
    set that queries scan linearly alongside the bitsets, and a rebuild
    triggers only once the delta outgrows a fraction of the indexed
    population.  Bulk install followed by heavy matching (the zone-repo
    life cycle) therefore pays one rebuild; stores below
    ``_MIN_INDEXED`` entries never build at all and stay pure linear.
    """

    _MIN_INDEXED = 64

    def __init__(self, dims: int, bands_per_dim: int = 0) -> None:
        super().__init__(dims)
        if bands_per_dim < 0:
            raise ValueError("bands_per_dim must be >= 0 (0 = auto)")
        self._bands_cfg = bands_per_dim
        self._edges: List[np.ndarray] = []
        self._bits: List[np.ndarray] = []  # per dim: (n_bands, words) uint8
        self._built_cap = 0
        self._built_count = 0
        self._delta: Set[int] = set()  # slots not in the built bitsets
        self._stale = 0  # built slots removed since the rebuild

    # ------------------------------------------------------------------
    def put(self, subid: SubID, lows, highs) -> None:
        super().put(subid, lows, highs)
        # A replacement's old box may still sit in the built bitsets;
        # the query path unions delta candidates before verifying, so
        # the stale entry can only ever be a filtered false positive.
        self._delta.add(self._slot_of[subid])

    def _release_slot(self, slot: int) -> None:
        if slot in self._delta:
            self._delta.discard(slot)
        else:
            self._stale += 1  # tombstoned (NaN) until rebuild: never verifies

    # ------------------------------------------------------------------
    def _needs_rebuild(self) -> bool:
        if self._size < self._MIN_INDEXED:
            return False
        pending = len(self._delta) + self._stale
        if not self._built_count:
            return pending > 0
        return pending * 4 > max(self._MIN_INDEXED, self._built_count)

    def _rebuild(self) -> None:
        cap = self._cols.shape[1]
        idx = np.nonzero(~np.isnan(self._cols[0, : self._hwm]))[0]
        n = len(idx)
        self._delta.clear()
        self._stale = 0
        self._built_cap = cap
        self._built_count = n
        if n == 0:
            self._edges = []
            self._bits = []
            return
        n_bands = self._bands_cfg or int(np.clip(n // 8, 16, 1024))
        words = (cap + 7) // 8
        edges_list: List[np.ndarray] = []
        bits_list: List[np.ndarray] = []
        for d in range(self.dims):
            lo = self._cols[d, idx]
            hi = -self._cols[self.dims + d, idx]
            vals = np.concatenate([lo, hi])
            vals = vals[np.isfinite(vals)]
            if vals.size:
                qs = np.linspace(0.0, 1.0, n_bands + 1)[1:-1]
                edges = np.unique(np.quantile(vals, qs))
            else:
                edges = np.empty(0, dtype=np.float64)
            # Bands: (-inf, e0), [e0, e1), ..., [e_last, +inf).
            b0 = np.searchsorted(edges, lo, side="right")
            b1 = np.searchsorted(edges, hi, side="right")
            nb = len(edges) + 1
            bits = np.zeros((nb, words), dtype=np.uint8)
            for start in range(0, nb, 128):
                stop = min(start + 128, nb)
                bands = np.arange(start, stop)[:, None]
                member = (b0[None, :] <= bands) & (bands <= b1[None, :])
                full = np.zeros((stop - start, cap), dtype=bool)
                full[:, idx] = member
                bits[start:stop] = np.packbits(full, axis=1)
            edges_list.append(edges)
            bits_list.append(bits)
        self._edges = edges_list
        self._bits = bits_list

    # ------------------------------------------------------------------
    def match_point(self, point: np.ndarray) -> List[SubID]:
        if self._size == 0:
            return []
        if self._needs_rebuild():
            self._rebuild()
        if not self._built_count:
            return super().match_point(point)
        acc: Optional[np.ndarray] = None
        for d in range(self.dims):
            band = int(np.searchsorted(self._edges[d], point[d], side="right"))
            row = self._bits[d][band]
            acc = row if acc is None else acc & row
        cand = np.nonzero(np.unpackbits(acc, count=self._built_cap))[0]
        if self._delta:
            cand = np.union1d(
                cand, np.fromiter(self._delta, dtype=np.intp, count=len(self._delta))
            )
        if not len(cand):
            return []
        return self._match(point, point, cand)
