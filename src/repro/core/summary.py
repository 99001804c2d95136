"""Summary filters (Section 3.3).

"Each content zone cz maintains a summary filter sf which is defined as
the smallest hypercuboid that can exactly cover all subscriptions
registered in cz.  If level(cz) < m, sf is then subdivided to fit in
with the child content zones of cz.  For each subdivision sf_i, the
surrogate node registers it to the corresponding child content zone
... as a surrogate subscription."

These helpers are pure box arithmetic; the cascade itself (who sends
which registration where) lives in :mod:`repro.core.node`.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.zones import ContentZone

Box = Tuple[np.ndarray, np.ndarray]


def merge_box(current: Optional[Box], addition: Box) -> Tuple[Box, bool]:
    """Grow ``current`` to also cover ``addition``.

    Returns ``(merged, changed)``.  Summary filters only ever grow
    (subscription removal shrinks load, not filters -- a conservative,
    still-correct over-approximation, and what keeps filter maintenance
    "light-weight").
    """
    add_lows, add_highs = addition
    if current is None:
        return (np.array(add_lows, dtype=np.float64), np.array(add_highs, dtype=np.float64)), True
    cur_lows, cur_highs = current
    new_lows = np.minimum(cur_lows, add_lows)
    new_highs = np.maximum(cur_highs, add_highs)
    changed = bool(np.any(new_lows < cur_lows) or np.any(new_highs > cur_highs))
    return (new_lows, new_highs), changed


def boxes_equal(a: Optional[Box], b: Optional[Box]) -> bool:
    """Same bounds, element for element (``np.array_equal`` on each side:
    -0.0 equals 0.0, NaN equals nothing, shapes must agree); ``None``
    equals only ``None``."""
    if a is None or b is None:
        return a is b
    return a[0].tolist() == b[0].tolist() and a[1].tolist() == b[1].tolist()


def child_pieces(
    zone: ContentZone,
    sf: Box,
    zone_box_projected: Box,
    entity_dims,
) -> Dict[int, Box]:
    """Subdivide a zone's summary filter to fit its child zones.

    Boxes stored in repositories (and therefore ``sf``) live in the
    *full* scheme space so events can be matched on every attribute,
    but the zone tree of a subscheme entity only partitions the
    entity's own dimensions.  ``zone_box_projected`` is the zone's
    hyper-rectangle in the entity's projected space; children split
    projected dimension ``zone.level mod k`` which corresponds to full
    dimension ``entity_dims[that]``.

    Returns ``{child digit: sf ∩ child_box}`` for non-empty pieces.
    Closed-interval intersection may produce a measure-zero sliver on a
    shared boundary; that only costs a spurious surrogate registration,
    never a missed delivery.
    """
    base = zone.geometry.base
    j_proj = zone.split_dimension(len(entity_dims))
    edge = float(zone_box_projected[0][j_proj])
    width = (float(zone_box_projected[1][j_proj]) - edge) / base
    return split_pieces(sf, int(entity_dims[j_proj]), edge, width, base)


def split_pieces(
    sf: Box, j_full: int, edge: float, width: float, base: int
) -> Dict[int, Box]:
    """:func:`child_pieces` given the split itself: child ``digit`` owns
    ``[edge + digit * width, edge + (digit + 1) * width]`` of full
    dimension ``j_full`` (:meth:`ContentZone.split_segment`)."""
    sf_lows, sf_highs = sf
    lo = float(sf_lows[j_full])
    hi = float(sf_highs[j_full])
    out: Dict[int, Box] = {}
    for digit in range(base):
        seg_lo = edge + digit * width
        seg_hi = seg_lo + width
        if lo > seg_hi or hi < seg_lo:
            continue
        piece_lows = sf_lows.copy()
        piece_highs = sf_highs.copy()
        if seg_lo > lo:
            piece_lows[j_full] = seg_lo
        if seg_hi < hi:
            piece_highs[j_full] = seg_hi
        out[digit] = (piece_lows, piece_highs)
    return out
