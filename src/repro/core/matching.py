"""Vectorised subscription stores.

Every content-zone repository keeps its registered boxes (real
subscriptions *and* surrogate subscriptions) in a :class:`BoxStore`.
Bounds live column-major in one growing ``(2 * dims, capacity)`` NumPy
array holding ``[lows; -highs]``, so matching an event against a
repository is one broadcast ``<=`` against a ``[point; -point]`` query
column and one AND-reduce along the short axis instead of a Python
loop -- the ``event_match`` of Algorithm 5 is the hottest operation in
the whole simulation.

Nine repositories in ten hold a single box (the relay chains of
Algorithm 3), so a store costs what it holds: one column to start
with, doubled on demand; no free list until something is removed; the
query column shared by every store of the same width.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.subscription import SubID

#: ``dims -> (2 * dims, 1)`` query column, shared by every store of
#: that width: ``_match`` refills it and is done with it before it
#: returns, so no two uses overlap.
_QUERY_COLUMNS: Dict[int, np.ndarray] = {}


def _query_column(dims: int) -> np.ndarray:
    query = _QUERY_COLUMNS.get(dims)
    if query is None:
        query = _QUERY_COLUMNS[dims] = np.empty((2 * dims, 1), dtype=np.float64)
    return query


class BoxStore:
    """A mutable ``SubID -> hyper-rectangle`` map with point queries.

    ``put`` with an existing id replaces the box (surrogate-subscription
    updates); removed slots are tombstoned and recycled.

    Layout: slot ``s`` is column ``s`` of ``_cols``; rows ``[:dims]``
    are the lows and rows ``[dims:]`` the *negated* highs, so containment
    ``low <= p <= high`` is the single test ``column <= [p; -p]``.  Free
    and tombstoned columns hold NaN, which compares False against every
    query (±inf and NaN included) and which ``fmin`` skips, so neither
    matching nor :meth:`bounding_box` needs an "active" mask.  Scans stop
    at ``_hwm``, one past the highest slot ever handed out.

    Slots are handed out newest tombstone first, then fresh ones in
    ascending order (``_hwm`` is the next fresh slot), so the hit order
    of :meth:`match_point` follows from the put / remove history alone.
    """

    __slots__ = (
        "dims", "_cols", "_query", "_hwm", "_subids", "_slot_of", "_free", "_size",
    )

    def __init__(self, dims: int) -> None:
        if dims < 1:
            raise ValueError("dims must be >= 1")
        self.dims = dims
        self._cols = np.full((2 * dims, 1), np.nan)
        self._query = _query_column(dims)
        self._hwm = 0
        #: slot -> subid (``None`` once tombstoned), one entry per slot
        #: below ``_hwm``
        self._subids: List[Optional[SubID]] = []
        self._slot_of: Dict[SubID, int] = {}
        #: tombstoned slots, oldest first; ``None`` until the first removal
        self._free: Optional[List[int]] = None
        self._size = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def __contains__(self, subid: SubID) -> bool:
        return subid in self._slot_of

    def subids(self) -> Iterator[SubID]:
        return iter(self._slot_of.keys())

    def _box_at(self, slot: int) -> Tuple[np.ndarray, np.ndarray]:
        """Fresh copies of the bounds in ``slot``; negation is exact, so
        ±inf and the sign of zero round-trip."""
        col = self._cols[:, slot]
        return col[: self.dims].copy(), -col[self.dims :]

    def get_box(self, subid: SubID) -> Tuple[np.ndarray, np.ndarray]:
        return self._box_at(self._slot_of[subid])

    # ------------------------------------------------------------------
    def _grow(self) -> None:
        old = self._cols.shape[1]
        cols = np.full((2 * self.dims, old * 2), np.nan)
        cols[:, :old] = self._cols
        self._cols = cols

    def put(self, subid: SubID, lows: np.ndarray, highs: np.ndarray) -> None:
        """Insert or replace the box registered under ``subid``."""
        lows = np.asarray(lows, dtype=np.float64)
        highs = np.asarray(highs, dtype=np.float64)
        if lows.shape != (self.dims,) or highs.shape != (self.dims,):
            raise ValueError(f"box must have shape ({self.dims},)")
        # One comparison admits the legal boxes; NaN never compares
        # True, so it lands here too and is told apart by name.  A NaN
        # box must not be stored: it would be indistinguishable from a
        # tombstone (``len`` and the slot table would disagree with the
        # columns).  ±inf stays legal -- unspecified dimensions are the
        # full attribute domain.
        if not (lows <= highs).all():
            if np.isnan(lows).any() or np.isnan(highs).any():
                raise ValueError("box bounds must not contain NaN")
            raise ValueError("box has negative extent")
        slot = self._slot_of.get(subid)
        if slot is None:
            if self._free:
                slot = self._free.pop()
                self._subids[slot] = subid
            else:
                slot = self._hwm
                if slot == self._cols.shape[1]:
                    self._grow()
                self._subids.append(subid)
                self._hwm = slot + 1
            self._slot_of[subid] = slot
            self._size += 1
        col = self._cols[:, slot]
        col[: self.dims] = lows
        np.negative(highs, out=col[self.dims :])

    def _release_slot(self, slot: int) -> None:
        """Index-maintenance hook run before a slot is tombstoned.

        Subclasses with auxiliary structures (grid buckets, band
        bitsets) override this; both :meth:`remove` and
        :meth:`pop_matching` route through it.
        """

    def remove(self, subid: SubID) -> None:
        slot = self._slot_of.pop(subid)
        self._release_slot(slot)
        self._cols[:, slot] = np.nan
        self._subids[slot] = None
        if self._free is None:
            self._free = []
        self._free.append(slot)
        self._size -= 1

    def pop_matching(self, predicate) -> List[Tuple[SubID, np.ndarray, np.ndarray]]:
        """Remove and return entries whose subid satisfies ``predicate``.

        Used by the load balancer to extract the subscriptions whose
        subscribers fall in a migrated identifier arc.  Single pass over
        the slot table, then one gather copies every picked column out
        and one scatter tombstones them -- no per-entry ``get_box`` /
        ``remove`` (that dict re-resolution and the per-entry array
        traffic dominated handoff cost at migration scale).
        """
        picked = [
            (sid, slot) for sid, slot in self._slot_of.items() if predicate(sid)
        ]
        if not picked:
            return []
        slots = [slot for _, slot in picked]
        rows = self._cols.take(slots, axis=1).T
        lows = rows[:, : self.dims].copy()
        highs = np.negative(rows[:, self.dims :], order="C")
        for sid, slot in picked:
            del self._slot_of[sid]
            self._release_slot(slot)
            self._subids[slot] = None
        self._cols[:, slots] = np.nan
        if self._free is None:
            self._free = []
        self._free.extend(slots)
        self._size -= len(picked)
        return [(sid, lo, hi) for (sid, _), lo, hi in zip(picked, lows, highs)]

    # ------------------------------------------------------------------
    def _match(
        self,
        head: np.ndarray,
        tail: np.ndarray,
        cand: Optional[np.ndarray] = None,
    ) -> List[SubID]:
        """Subids of the boxes with ``lows <= head`` and ``tail <= highs``.

        The one exact-containment kernel: the query column becomes
        ``[head; -tail]`` and a slot hits when its whole column is
        ``<=`` it.  Scans every slot below the high-water mark, in
        ascending order, or only the candidate slots an index
        pre-selected, in ``cand`` order.  The reduce runs along the
        short ``2 * dims`` axis, i.e. as ``2 * dims - 1`` contiguous
        ANDs of long rows.
        """
        query, dims = self._query, self.dims
        query[:dims, 0] = head
        np.negative(tail, out=query[dims:, 0])
        if cand is None:
            cols = self._cols[:, : self._hwm]
        else:
            cols = self._cols.take(cand, axis=1)
        hit = np.logical_and.reduce(cols <= query, axis=0).nonzero()[0]
        if cand is not None:
            hit = cand[hit]
        subids = self._subids
        return [subids[i] for i in hit.tolist()]  # type: ignore[misc]

    def match_point(self, point: np.ndarray) -> List[SubID]:
        """All subids whose box contains ``point`` (Algorithm 5's
        ``event_match``), in ascending slot order.  A NaN coordinate
        matches nothing."""
        if self._size == 0:
            return []
        return self._match(point, point)

    def match_box(self, lows: np.ndarray, highs: np.ndarray) -> List[SubID]:
        """All subids whose box intersects ``[lows, highs]`` (closed).

        The point kernel with ``highs`` against the stored lows and
        ``lows`` against the stored highs; the covering layer uses it
        to find fusion candidates (both containers and containees,
        which point probes cannot discover).
        """
        if self._size == 0:
            return []
        return self._match(highs, lows)

    def bounding_box(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Smallest box covering every active entry, or ``None`` if empty."""
        if self._size == 0:
            return None
        mins = np.fmin.reduce(self._cols[:, : self._hwm], axis=1)
        return mins[: self.dims], -mins[self.dims :]
