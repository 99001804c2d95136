"""The NumPy digit-replay forms of the zone geometry, kept as references.

``src/repro/core`` runs these loops on Python floats; the forms below
run them on NumPy scalars inside float64 arrays, one IEEE operation per
line in the same order.  The property tests require the two to agree
bit for bit (``(code, level)`` for the hashes, every bound for the
boxes) and to reject the same inputs under the same messages.
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
