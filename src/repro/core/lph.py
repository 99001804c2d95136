"""Locality-preserving hashing (Algorithm 1).

Maps a subscription (box) to the smallest content zone that completely
covers it, and an event (point) to the m-level leaf zone containing it.

Boundary convention
-------------------

Each division splits the current range of one dimension into ``base``
equal segments.  Points lying exactly on an internal segment boundary
belong to the *right* segment; the topmost segment additionally owns the
domain's upper bound.  A segment "completely covers" a sub-range only if
the sub-range's upper bound stays strictly below the segment's upper
boundary (or the segment touches the domain top).  This pairing
guarantees the delivery invariant the whole system rests on:

    for every point p inside subscription s, the leaf zone of p is a
    descendant of (or equal to) the zone s is mapped to,

so the chain of surrogate subscriptions built at installation time
always leads an event from its rendezvous leaf to every subscription
that matches it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.zones import ContentZone, ZoneGeometry, as_floats


def lph_box(
    sub_lows: np.ndarray,
    sub_highs: np.ndarray,
    domain_lows: np.ndarray,
    domain_highs: np.ndarray,
    geometry: ZoneGeometry,
) -> ContentZone:
    """Smallest zone completely covering the box (Algorithm 1 for
    subscriptions), from arrays: :func:`lph_box_floats` on their
    floats."""
    return lph_box_floats(
        as_floats(sub_lows),
        as_floats(sub_highs),
        as_floats(domain_lows),
        as_floats(domain_highs),
        geometry,
    )


def lph_box_floats(
    sub_lo: Sequence[float],
    sub_hi: Sequence[float],
    domain_lo: Sequence[float],
    domain_hi: Sequence[float],
    geometry: ZoneGeometry,
) -> ContentZone:
    """Smallest zone completely covering the box (Algorithm 1 for
    subscriptions); every bound is a Python float.

    The same IEEE double operations and the same ``int()`` truncation
    as NumPy scalars, without their per-operation cost
    (``tests/geometry_reference.py`` keeps the array form).  The domain
    sequences are read, never written.
    """
    d = len(domain_lo)
    if len(sub_lo) != d or len(sub_hi) != d:
        raise ValueError("box and content space differ in dimensions")
    for j in range(d):
        if sub_lo[j] < domain_lo[j] or sub_hi[j] > domain_hi[j]:
            raise ValueError("box lies outside the content space")
    for j in range(d):
        if sub_hi[j] < sub_lo[j]:
            raise ValueError("box has negative extent")
    lows = list(domain_lo)
    highs = list(domain_hi)
    base = geometry.base
    last = base - 1
    code = 0
    level = 0
    for i in range(geometry.max_level):
        j = i % d
        lo = lows[j]
        width = (highs[j] - lo) / base
        # Segment of the box's lower bound (clamp handles the domain top).
        p = int((sub_lo[j] - lo) / width)
        if p > last:
            p = last
        seg_lo = lo + p * width
        seg_hi = seg_lo + width
        covers = sub_lo[j] >= seg_lo and (
            sub_hi[j] < seg_hi or seg_hi >= domain_hi[j]
        )
        if not covers:
            break
        lows[j] = seg_lo
        highs[j] = seg_hi
        code = code * base + p
        level += 1
    return ContentZone(code, level, geometry)


def lph_point(
    point: np.ndarray,
    domain_lows: np.ndarray,
    domain_highs: np.ndarray,
    geometry: ZoneGeometry,
) -> ContentZone:
    """The m-level leaf zone holding the point (Algorithm 1 for events);
    on Python floats, like :func:`lph_box_floats`."""
    pt = as_floats(point)
    lows, highs = as_floats(domain_lows), as_floats(domain_highs)
    d = len(lows)
    if len(pt) != d:
        raise ValueError("point and content space differ in dimensions")
    for j in range(d):
        if pt[j] < lows[j] or pt[j] > highs[j]:
            raise ValueError("point lies outside the content space")
    base = geometry.base
    last = base - 1
    code = 0
    for i in range(geometry.max_level):
        j = i % d
        lo = lows[j]
        width = (highs[j] - lo) / base
        p = min(int((pt[j] - lo) / width), last)
        lo = lo + p * width
        lows[j] = lo
        highs[j] = lo + width
        code = code * base + p
    return ContentZone(code, geometry.max_level, geometry)
