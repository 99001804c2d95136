"""Subscription covering and merge aggregation (matching-engine layer).

Motivated by *Towards Scalable Subscription Aggregation and Real Time
Event Matching in a Large-Scale Content-Based Network* (arXiv
1811.07088): most real workloads register many near-identical
hyper-rectangles, so a repository that stores every one as its own
physical box pays for the duplication on every ``event_match``.

:class:`CoveringStore` wraps any :class:`~repro.core.matching.BoxStore`
(linear, grid or bands) and groups registered boxes into *aggregates*:

* an incoming subscription **covered** by an existing aggregate's box
  becomes a refcounted membership of that aggregate -- no new physical
  box enters the index;
* a subscription that is **merge-profitable** -- the union box's volume
  expansion factor stays within ``1 + merge_max_waste`` (the bounded
  false-positive volume ratio) -- joins the best such aggregate, whose
  box grows to the union;
* otherwise it founds a new singleton aggregate.

The index only ever sees aggregate boxes (synthetic ids); members are
resolved *exactly* at delivery time by checking the point against each
member's true box, so ``match_point`` answers are identical to a naive
store -- the covering layer can only reduce index size, never change
deliveries.  All enumeration APIs (``subids``/``get_box``/
``pop_matching``) speak member ids and true boxes, which keeps state
shipping (arc handoff, migration, anti-entropy, takeover) byte-exact.

No configuration selects this store: zone repositories hold a plain
``BoxStore``, and the class stays for the benchmarks that name it
(docs/MATCHING.md, "Covering (retired)").
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.matching import BoxStore
from repro.core.subscription import SubID

#: Synthetic node id for aggregate box ids in the wrapped index.  Real
#: node ids are unsigned 64-bit, so a negative nid can never collide.
_AGG_NID = -1

#: Width regulariser for the expansion factor: keeps degenerate
#: (zero-width, equality-predicate) dimensions from dividing by zero.
_EPS = 1e-9


def _widths(lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
    """Per-dim widths; a point-at-infinity dim yields NaN (silently).

    ``inf - inf`` is NaN, which every expansion-factor consumer already
    maps to a neutral ratio of 1.0 -- only the warning needs quashing.
    """
    with np.errstate(invalid="ignore"):
        return highs - lows


class _Aggregate:
    """One aggregate entry: a box in the index + its member boxes."""

    __slots__ = ("gid", "lows", "highs", "members", "_ids", "_lo", "_hi")

    def __init__(self, gid: SubID, lows: np.ndarray, highs: np.ndarray) -> None:
        self.gid = gid
        self.lows = lows
        self.highs = highs
        #: member SubID -> (lows, highs) true box
        self.members: Dict[SubID, Tuple[np.ndarray, np.ndarray]] = {}
        self._ids: Optional[List[SubID]] = None
        self._lo: Optional[np.ndarray] = None
        self._hi: Optional[np.ndarray] = None

    def invalidate(self) -> None:
        self._ids = None

    def stacked(self) -> Tuple[List[SubID], np.ndarray, np.ndarray]:
        """Member ids + bounds as arrays (cached until mutation)."""
        if self._ids is None:
            self._ids = list(self.members.keys())
            self._lo = np.stack([self.members[s][0] for s in self._ids])
            self._hi = np.stack([self.members[s][1] for s in self._ids])
        return self._ids, self._lo, self._hi  # type: ignore[return-value]


class CoveringStore:
    """Drop-in ``BoxStore`` front adding covering + merge aggregation.

    ``merge_max_waste`` bounds the false-positive volume of a merge: a
    candidate aggregate is joined only when ``vol(union) /
    max(vol(aggregate), vol(new))`` ≤ ``1 + merge_max_waste`` (computed
    per dimension so ±inf domains behave).  ``0`` admits only exact
    covering.
    """

    def __init__(self, base: BoxStore, merge_max_waste: float = 0.5) -> None:
        if merge_max_waste < 0:
            raise ValueError("merge_max_waste must be non-negative")
        self.base = base
        self.dims = base.dims
        self.merge_max_waste = float(merge_max_waste)
        self._aggregates: Dict[SubID, _Aggregate] = {}
        self._group_of: Dict[SubID, _Aggregate] = {}
        self._next_gid = 0

    # -- BoxStore surface ----------------------------------------------
    def __len__(self) -> int:
        return len(self._group_of)

    def index_size(self) -> int:
        """Physical boxes in the wrapped index (aggregates)."""
        return len(self.base)

    def __contains__(self, subid: SubID) -> bool:
        return subid in self._group_of

    def subids(self) -> Iterator[SubID]:
        return iter(self._group_of.keys())

    def get_box(self, subid: SubID) -> Tuple[np.ndarray, np.ndarray]:
        lows, highs = self._group_of[subid].members[subid]
        return lows.copy(), highs.copy()

    def bounding_box(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        return self.base.bounding_box()

    # ------------------------------------------------------------------
    def put(self, subid: SubID, lows, highs) -> None:
        lows = np.asarray(lows, dtype=np.float64).copy()
        highs = np.asarray(highs, dtype=np.float64).copy()
        if lows.shape != (self.dims,) or highs.shape != (self.dims,):
            raise ValueError(f"box must have shape ({self.dims},)")
        if np.isnan(lows).any() or np.isnan(highs).any():
            raise ValueError("box bounds must not contain NaN")
        if np.any(highs < lows):
            raise ValueError("box has negative extent")
        if subid in self._group_of:
            self.remove(subid)
        agg = self._find_aggregate(lows, highs)
        grew = True  # new or widened aggregate boxes warrant a fuse pass
        if agg is None:
            gid = SubID(_AGG_NID, self._next_gid)
            self._next_gid += 1
            agg = _Aggregate(gid, lows.copy(), highs.copy())
            self._aggregates[gid] = agg
            self.base.put(gid, agg.lows, agg.highs)
        else:
            u_lo = np.minimum(agg.lows, lows)
            u_hi = np.maximum(agg.highs, highs)
            grew = bool(np.any(u_lo < agg.lows) or np.any(u_hi > agg.highs))
            if grew:
                agg.lows, agg.highs = u_lo, u_hi
                self.base.put(agg.gid, u_lo, u_hi)
        agg.members[subid] = (lows, highs)
        agg.invalidate()
        self._group_of[subid] = agg
        if grew:
            self._try_fuse(agg)

    def _try_fuse(self, agg: _Aggregate) -> None:
        """Fuse sibling aggregates that became merge-profitable.

        One-at-a-time covering leaves compression on the table: a batch
        of sibling subscriptions may be merge-profitable as a *group*
        even though no single pair was when each arrived, and a wide
        aggregate (a surrogate-subscription box) may fully contain many
        small ones that registered earlier.  Whenever ``agg``'s box
        grows, enumerate the aggregates overlapping it (one vectorised
        ``match_box``) and absorb every one whose union stays within the
        waste bound -- repeating while the fused box keeps qualifying,
        so clusters snowball into one aggregate entry.
        """
        limit = 1.0 + self.merge_max_waste
        fused = True
        while fused:
            fused = False
            a_w = _widths(agg.lows, agg.highs)
            for gid in self.base.match_box(agg.lows, agg.highs):
                if gid == agg.gid or gid not in self._aggregates:
                    continue
                other = self._aggregates[gid]
                u_lo = np.minimum(agg.lows, other.lows)
                u_hi = np.maximum(agg.highs, other.highs)
                m_w = np.maximum(a_w, _widths(other.lows, other.highs))
                with np.errstate(invalid="ignore"):  # inf/inf dims -> NaN
                    ratio = (u_hi - u_lo + _EPS) / (m_w + _EPS)
                ratio = np.where(np.isfinite(ratio), ratio, 1.0)
                if float(np.prod(ratio)) > limit:
                    continue
                # Absorb ``other`` into ``agg``.
                for sid, box in other.members.items():
                    agg.members[sid] = box
                    self._group_of[sid] = agg
                del self._aggregates[other.gid]
                self.base.remove(other.gid)
                if np.any(u_lo < agg.lows) or np.any(u_hi > agg.highs):
                    agg.lows, agg.highs = u_lo, u_hi
                    self.base.put(agg.gid, u_lo, u_hi)
                    fused = True  # wider box: re-enumerate overlaps
                agg.invalidate()
                a_w = _widths(agg.lows, agg.highs)

    def _find_aggregate(self, lows: np.ndarray, highs: np.ndarray) -> Optional[_Aggregate]:
        """Best merge-profitable aggregate for this box, or ``None``.

        Candidates are the aggregates whose box contains the new box's
        centre or one of its corners (≤ 3 index point-queries; an
        aggregate overlapping none of them would force a large union
        anyway); exact covering is the factor-1 special case, so one
        criterion handles both paths.
        """
        if not self._aggregates:
            return None
        with np.errstate(invalid="ignore"):  # -inf + inf dims -> NaN
            centre = (lows + highs) * 0.5
        bad = ~np.isfinite(centre)
        if bad.any():  # half/fully unbounded dims: any finite edge works
            fallback = np.where(np.isfinite(lows), lows, np.where(np.isfinite(highs), highs, 0.0))
            centre = np.where(bad, fallback, centre)
        limit = 1.0 + self.merge_max_waste
        best: Optional[_Aggregate] = None
        best_factor = np.inf
        new_w = _widths(lows, highs)
        seen: set = set()
        for probe in (centre, lows, highs):
            if not np.isfinite(probe).all():
                continue
            for gid in self.base.match_point(probe):
                if gid in seen:
                    continue
                seen.add(gid)
                agg = self._aggregates[gid]
                u_w = _widths(np.minimum(agg.lows, lows), np.maximum(agg.highs, highs))
                m_w = np.maximum(_widths(agg.lows, agg.highs), new_w)
                with np.errstate(invalid="ignore"):  # inf/inf dims -> NaN
                    ratio = (u_w + _EPS) / (m_w + _EPS)
                ratio = np.where(np.isfinite(ratio), ratio, 1.0)  # inf/inf dims
                factor = float(np.prod(ratio))
                if factor <= limit and factor < best_factor:
                    best, best_factor = agg, factor
                    if factor <= 1.0:  # exact covering: no better candidate
                        return best
        return best

    # ------------------------------------------------------------------
    def _drop_member(self, subid: SubID) -> Tuple[np.ndarray, np.ndarray]:
        agg = self._group_of.pop(subid)
        lows, highs = agg.members.pop(subid)
        agg.invalidate()
        if not agg.members:
            del self._aggregates[agg.gid]
            self.base.remove(agg.gid)
            return lows, highs
        # Shrink the aggregate box to the remaining members so the
        # summary filter (bounding box over the index) can tighten.
        _ids, lo, hi = agg.stacked()
        t_lo, t_hi = lo.min(axis=0), hi.max(axis=0)
        if np.any(t_lo > agg.lows) or np.any(t_hi < agg.highs):
            agg.lows, agg.highs = t_lo, t_hi
            self.base.put(agg.gid, t_lo, t_hi)
        return lows, highs

    def remove(self, subid: SubID) -> None:
        if subid not in self._group_of:
            raise KeyError(subid)
        self._drop_member(subid)

    def pop_matching(self, predicate) -> List[Tuple[SubID, np.ndarray, np.ndarray]]:
        picked = [sid for sid in self._group_of if predicate(sid)]
        out = []
        for sid in picked:
            lows, highs = self._drop_member(sid)
            out.append((sid, lows, highs))
        return out

    # ------------------------------------------------------------------
    def match_point(self, point: np.ndarray) -> List[SubID]:
        """Exact member resolution: aggregate hit -> member box check."""
        if not self._group_of:
            return []
        point = np.asarray(point, dtype=np.float64)
        out: List[SubID] = []
        for gid in self.base.match_point(point):
            ids, lo, hi = self._aggregates[gid].stacked()
            inside = np.all(lo <= point, axis=1) & np.all(point <= hi, axis=1)
            out.extend(ids[i] for i in np.nonzero(inside)[0])
        return out
