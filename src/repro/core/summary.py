"""Summary filters (Section 3.3).

"Each content zone cz maintains a summary filter sf which is defined as
the smallest hypercuboid that can exactly cover all subscriptions
registered in cz.  If level(cz) < m, sf is then subdivided to fit in
with the child content zones of cz.  For each subdivision sf_i, the
surrogate node registers it to the corresponding child content zone
... as a surrogate subscription."

These helpers are pure box arithmetic; the cascade itself (who sends
which registration where) lives in :mod:`repro.core.node`.  A box here
is a pair of tuples of Python floats, ``(lows, highs)``: the registrar
reads one off a subscription (``Subscription.box``) or makes one from a
transfer payload where the box enters it (:func:`as_box`), and every
step after that -- merge, split, compare, the ``ps_register`` payload
-- works on the tuples.  Each operation is the same IEEE operation the
NumPy forms in ``tests/geometry_reference.py`` perform, so the bounds
agree bit for bit.
"""

from __future__ import annotations

import operator
from typing import Dict, Iterable, Optional, Tuple

Box = Tuple[Tuple[float, ...], Tuple[float, ...]]


def as_box(lows: Iterable, highs: Iterable) -> Box:
    """``(lows, highs)`` as a box of float tuples.  Float64 arrays
    need only ``tolist``, which is exact; any
    other array goes through ``tolist`` and then ``float``, anything
    else through ``float``."""
    if hasattr(lows, "tolist") and hasattr(highs, "tolist"):
        if lows.dtype.char == "d" == highs.dtype.char:
            return tuple(lows.tolist()), tuple(highs.tolist())
        lows, highs = lows.tolist(), highs.tolist()
    return tuple(map(float, lows)), tuple(map(float, highs))


def merge_box(current: Optional[Box], addition: Box) -> Tuple[Box, bool]:
    """Grow ``current`` to also cover ``addition``.

    Returns ``(merged, changed)``.  Per bound this is ``np.minimum`` /
    ``np.maximum`` of ``(current, addition)``: on a tie -- ``0.0``
    against ``-0.0`` included -- the addition's bound is kept.
    Installing only ever grows a filter: merging a fresh box into a
    tight filter, or a replacement that :func:`contains` the box it
    replaces, gives the tight filter again.  Removals and replacements
    that shrank recompute it from the store
    (``PubSubNodeMixin._refresh_summary``), not through here.
    """
    if current is None:
        return addition, True
    cur_lows, cur_highs = current
    add_lows, add_highs = addition
    new_lows = tuple([a if a < b else b for a, b in zip(cur_lows, add_lows)])
    new_highs = tuple([a if a > b else b for a, b in zip(cur_highs, add_highs)])
    # ``!=`` on tuples is element-wise ``==``: a bound that only
    # changed the sign of a zero did not grow the filter.
    changed = new_lows != cur_lows or new_highs != cur_highs
    return (new_lows, new_highs), changed


def contains(outer: Box, inner: Box) -> bool:
    """Does ``outer`` cover ``inner`` on every bound?"""
    return all(map(operator.le, outer[0], inner[0])) and all(
        map(operator.ge, outer[1], inner[1])
    )


def boxes_equal(a: Optional[Box], b: Optional[Box]) -> bool:
    """Same bounds, element for element (-0.0 equals 0.0, lengths must
    agree); ``None`` equals only ``None``.  Boxes never hold NaN
    (``BoxStore.put`` refuses it)."""
    if a is None or b is None:
        return a is b
    return a[0] == b[0] and a[1] == b[1]


def split_pieces(
    sf: Box, j_full: int, edge: float, width: float, base: int
) -> Dict[int, Box]:
    """Subdivide a zone's summary filter to fit its child zones: child
    ``digit`` owns ``[edge + digit * width, edge + (digit + 1) * width]``
    of full dimension ``j_full`` (:meth:`ContentZone.split_segment`).

    Returns ``{child digit: sf ∩ child segment}`` for non-empty pieces;
    a piece shares every bound tuple the cut leaves as it was.
    Closed-interval intersection may produce a measure-zero sliver on a
    shared boundary; that only costs a spurious surrogate registration,
    never a missed delivery.
    """
    sf_lows, sf_highs = sf
    lo = sf_lows[j_full]
    hi = sf_highs[j_full]
    after = j_full + 1
    out: Dict[int, Box] = {}
    for digit in range(base):
        seg_lo = edge + digit * width
        seg_hi = seg_lo + width
        if lo > seg_hi or hi < seg_lo:
            continue
        piece_lows = sf_lows
        piece_highs = sf_highs
        if seg_lo > lo:
            piece_lows = sf_lows[:j_full] + (seg_lo,) + sf_lows[after:]
        if seg_hi < hi:
            piece_highs = sf_highs[:j_full] + (seg_hi,) + sf_highs[after:]
        out[digit] = (piece_lows, piece_highs)
    return out
