"""The NumPy forms of the zone geometry and the summary-filter box
arithmetic, kept as references.

``src/repro/core`` runs these on Python floats and float tuples; the
forms below run them on NumPy scalars inside float64 arrays, one IEEE
operation per line in the same order.  The property tests require the
two to agree bit for bit (``(code, level)`` for the hashes, every bound
for the boxes) and to reject the same inputs under the same messages.
"""

from typing import Dict, List, Tuple

import numpy as np

from repro.core.zones import ContentZone, ZoneGeometry

Box = Tuple[np.ndarray, np.ndarray]


def digits(code: int, level: int, base: int) -> List[int]:
    out = []
    for _ in range(level):
        out.append(code % base)
        code //= base
    return out[::-1]


def zone_box(zone: ContentZone, domain_lows, domain_highs) -> Box:
    lows = np.array(domain_lows, dtype=np.float64)
    highs = np.array(domain_highs, dtype=np.float64)
    d = len(lows)
    for i, digit in enumerate(digits(zone.code, zone.level, zone.geometry.base)):
        j = i % d
        width = (highs[j] - lows[j]) / zone.geometry.base
        lows[j] = lows[j] + digit * width
        highs[j] = lows[j] + width
    return lows, highs


def lph_box(sub_lows, sub_highs, domain_lows, domain_highs, geometry: ZoneGeometry):
    """``(code, level)`` of the smallest zone covering the box."""
    d = len(domain_lows)
    lows = np.array(domain_lows, dtype=np.float64)
    highs = np.array(domain_highs, dtype=np.float64)
    if np.any(sub_lows < lows) or np.any(sub_highs > highs):
        raise ValueError("box lies outside the content space")
    if np.any(sub_highs < sub_lows):
        raise ValueError("box has negative extent")
    base = geometry.base
    code = 0
    level = 0
    for i in range(geometry.max_level):
        j = i % d
        width = (highs[j] - lows[j]) / base
        p = min(int((sub_lows[j] - lows[j]) / width), base - 1)
        seg_lo = lows[j] + p * width
        seg_hi = seg_lo + width
        covers = sub_lows[j] >= seg_lo and (
            sub_highs[j] < seg_hi or seg_hi >= domain_highs[j]
        )
        if not covers:
            break
        lows[j] = seg_lo
        highs[j] = seg_hi
        code = code * base + p
        level += 1
    return code, level


def lph_point(point, domain_lows, domain_highs, geometry: ZoneGeometry):
    """``(code, level)`` of the leaf zone holding the point."""
    d = len(domain_lows)
    lows = np.array(domain_lows, dtype=np.float64)
    highs = np.array(domain_highs, dtype=np.float64)
    if np.any(point < lows) or np.any(point > highs):
        raise ValueError("point lies outside the content space")
    base = geometry.base
    code = 0
    for i in range(geometry.max_level):
        j = i % d
        width = (highs[j] - lows[j]) / base
        p = min(int((point[j] - lows[j]) / width), base - 1)
        lows[j] = lows[j] + p * width
        highs[j] = lows[j] + width
        code = code * base + p
    return code, geometry.max_level


def child_pieces(zone: ContentZone, sf: Box, zone_box_projected: Box, entity_dims) -> Dict[int, Box]:
    """``{child digit: sf ∩ child box}`` from the zone's whole box."""
    k = len(entity_dims)
    j_proj = zone.level % k
    j_full = int(entity_dims[j_proj])
    z_lows, z_highs = zone_box_projected
    base = zone.geometry.base
    width = (z_highs[j_proj] - z_lows[j_proj]) / base
    out: Dict[int, Box] = {}
    for digit in range(base):
        seg_lo = z_lows[j_proj] + digit * width
        seg_hi = seg_lo + width
        if sf[0][j_full] > seg_hi or sf[1][j_full] < seg_lo:
            continue
        piece_lows = sf[0].copy()
        piece_highs = sf[1].copy()
        piece_lows[j_full] = max(piece_lows[j_full], seg_lo)
        piece_highs[j_full] = min(piece_highs[j_full], seg_hi)
        out[digit] = (piece_lows, piece_highs)
    return out


# ----------------------------------------------------------------------
# Summary filters (repro.core.summary, BoxStore.bounding_box)
# ----------------------------------------------------------------------


def merge_box(current, addition):
    """``(merged, changed)``: ``np.minimum`` / ``np.maximum`` per bound."""
    add_lows, add_highs = addition
    if current is None:
        return (np.array(add_lows, dtype=np.float64), np.array(add_highs, dtype=np.float64)), True
    cur_lows, cur_highs = current
    new_lows = np.minimum(cur_lows, add_lows)
    new_highs = np.maximum(cur_highs, add_highs)
    changed = bool(np.any(new_lows < cur_lows) or np.any(new_highs > cur_highs))
    return (new_lows, new_highs), changed


def boxes_equal(a, b) -> bool:
    """``np.array_equal`` on each side; ``None`` equals only ``None``."""
    if a is None or b is None:
        return a is b
    return bool(np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1]))


def split_pieces(sf: Box, j_full: int, edge: float, width: float, base: int) -> Dict[int, Box]:
    """``{child digit: sf ∩ [edge + digit * width, + width]}`` on ``j_full``."""
    sf_lows, sf_highs = np.asarray(sf[0], dtype=np.float64), np.asarray(sf[1], dtype=np.float64)
    lo = sf_lows[j_full]
    hi = sf_highs[j_full]
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


def bounding_box(cols: np.ndarray) -> Box:
    """The bounding box of a ``BoxStore``'s ``[lows; -highs]`` columns
    (tombstones are NaN): ``fmin`` along each row, the highs negated
    back.  Which of two tied zeros survives is ``fmin``'s call, so the
    reference reduces the store's own columns."""
    dims = cols.shape[0] // 2
    mins = np.fmin.reduce(cols, axis=1)
    return mins[:dims], -mins[dims:]
