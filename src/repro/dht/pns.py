"""Proximity Neighbour Selection (PNS) for Chord fingers.

The paper simulates "Chord-PNS (Chord with proximity neighbor selection
[8]): each node chooses physically closest nodes from the valid
candidates as routing entries, thus to reduce the lookup latency."

Following Dabek et al. (NSDI'04), the *valid candidates* for finger
``i`` of node ``x`` are the nodes whose identifiers fall in
``[x + 2^i, x + 2^(i+1))``: any of them makes the same worst-case
routing progress, so the physically closest one is chosen.  p2psim
samples a bounded number of candidates (PNS(16)); we do the same.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, Hashable, List, Sequence, Tuple

import numpy as np

from repro.dht.idspace import ID_MASK
from repro.dht.ring import SortedRing
from repro.sim.topology import Topology

#: Candidates sampled per span before the closest is chosen: PNS(16).
#: Pastry's proximity-chosen routing-table cells use the same bound.
PROXIMITY_SAMPLES = 16


def build_finger_table(
    node_id: int,
    addr: int,
    ring: SortedRing,
    topology: Topology,
    *,
    pns: bool,
    rng: np.random.Generator,
) -> Dict[int, Tuple[int, int]]:
    """Compute ``{finger_index: (id, addr)}`` for ``node_id``, a member
    of ``ring``.

    Without PNS the entry for span ``i`` is the span's first node
    (classic Chord, ``successor(x + 2^i)`` restricted to the span).
    With PNS it is the lowest-RTT node among up to
    :data:`PROXIMITY_SAMPLES` candidates of the span
    (:func:`closest_in_spans`).  Spans holding no node produce no entry;
    the successor list covers those keys.

    Only the occupied spans are visited -- about ``log2 n`` of the 64,
    in clockwise order from the successor.  A span is a run of positions
    in ``ring.ids``: the first occupied one is the bit length of the
    distance to the successor, and each span's end, found by one bisect,
    is where the next occupied span starts.  Positions are unrolled past
    the end of the list and read through a negative index, so a span
    that wraps past identifier 0 needs no second slice.
    """
    ids = ring.ids
    n = len(ids)
    start = bisect_right(ids, node_id)  # the successor's position (n: wraps)
    last = start + n - 1  # the node's own position, unrolled
    spans: List[Tuple[int, int, int]] = []  # (finger index, first, count)
    lo = start
    while lo < last:
        i = ((ids[lo - n] - node_id) & ID_MASK).bit_length() - 1
        hi = bisect_left(ids, (node_id + (2 << i)) & ID_MASK)
        if hi < start:
            hi += n
        spans.append((i, lo - n, hi - lo))
        lo = hi
    if not pns:
        addrs = ring.addrs
        return {i: (ids[first], addrs[first]) for i, first, _count in spans}
    return closest_in_spans(addr, spans, ring, topology, rng)


def closest_in_spans(
    addr: int,
    spans: Sequence[Tuple[Hashable, int, int]],
    ring: SortedRing,
    topology: Topology,
    rng: np.random.Generator,
) -> Dict[Hashable, Tuple[int, int]]:
    """``{key: (id, addr)}`` of the node closest to ``addr`` in each span.

    A span is ``(key, first, count)``: the ``count`` nodes from position
    ``first`` of ``ring.ids`` on (``first`` may be negative, so a span
    can wrap).  A span of more than :data:`PROXIMITY_SAMPLES` nodes is
    sampled first, one ``rng.choice`` per such span in span order; the
    candidates keep ring order and a tie goes to the first of them.  All
    RTTs come from one vectorised ``rtt_many`` call -- building a
    16k-node overlay probes millions of pairs.
    """
    ids = ring.ids
    addrs = ring.addrs
    positions: List[int] = []
    ends: List[int] = []  # where each span's candidates end in ``positions``
    for _key, first, count in spans:
        if count > PROXIMITY_SAMPLES:
            picks = rng.choice(count, size=PROXIMITY_SAMPLES, replace=False)
            picks.sort()
            positions += (picks + first).tolist()
        else:
            positions += range(first, first + count)
        ends.append(len(positions))
    rtts = topology.rtt_many(
        addr, np.array([addrs[p] for p in positions], dtype=np.intp)
    ).tolist()
    out: Dict[Hashable, Tuple[int, int]] = {}
    k = 0
    for (key, _first, _count), end in zip(spans, ends):
        local = rtts[k:end]
        p = positions[k + local.index(min(local))]
        out[key] = (ids[p], addrs[p])
        k = end
    return out
