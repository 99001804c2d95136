"""Chord-PNS finger tables the literal way: the reference the
position-walking builder (``repro.dht.pns.build_finger_table``) is
compared against.

All 64 spans ``[x + 2^i, x + 2^(i+1))`` of node ``x`` are cut out of the
sorted id list one by one, ``x`` itself is filtered out, a span of more
than ``samples`` nodes is sampled with ``rng.choice``, candidate
addresses come from the ring's dictionary, and ``np.argmin`` picks the
closest candidate per span from one ``rtt_many`` call.
"""

import bisect

import numpy as np

from repro.dht.idspace import ID_BITS, id_add


def ids_in_arc(ids, left, right):
    """Ids of the sorted list ``ids`` in the clockwise half-open arc
    ``[left, right)``; the whole ring when ``left == right``."""
    if not ids:
        return []
    if left == right:
        return list(ids)
    lo = bisect.bisect_left(ids, left)
    hi = bisect.bisect_left(ids, right)
    if left < right:
        return ids[lo:hi]
    return ids[lo:] + ids[:hi]


def reference_finger_table(node_id, addr, ring, topology, *, pns, rng, samples=16):
    """``{finger_index: (id, addr)}`` for one node, span by span."""
    spans = []  # (finger index, candidate ids)
    for i in range(ID_BITS):
        start = id_add(node_id, 1 << i)
        end = id_add(node_id, 1 << (i + 1))
        candidates = ids_in_arc(ring.ids, start, end)
        candidates = [c for c in candidates if c != node_id]
        if not candidates:
            continue
        if not pns:
            spans.append((i, [candidates[0]]))
            continue
        if len(candidates) > samples:
            picks = rng.choice(len(candidates), size=samples, replace=False)
            candidates = [candidates[int(k)] for k in sorted(picks)]
        spans.append((i, candidates))

    fingers = {}
    if not spans:
        return fingers
    all_ids = [cid for _i, cands in spans for cid in cands]
    all_addrs = np.array([ring.addr(cid) for cid in all_ids], dtype=np.intp)
    rtts = topology.rtt_many(addr, all_addrs)
    pos = 0
    for i, cands in spans:
        k = len(cands)
        best = int(np.argmin(rtts[pos : pos + k]))
        cid = cands[best]
        fingers[i] = (cid, ring.addr(cid))
        pos += k
    return fingers
