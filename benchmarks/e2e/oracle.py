"""Independent delivery oracle.

Expected deliveries are computed by brute force from the generator's
own arrays -- vectorised box containment of every event point against
every subscription that is live when the event is published -- and
compared with what the program recorded in ``system.metrics.records``.
Nothing of the program's matching, zoning or routing code is used, so a
bug there cannot hide itself.

A delivery is the pair (event index, subscription row).  The verdict
counts three kinds of failure:

* missing   -- expected, never delivered;
* duplicate -- delivered more than once (each extra copy counts);
* spurious  -- delivered although not expected (wrong match, a
  subscription that was already unsubscribed, an unknown SubID, or the
  right SubID at the wrong address).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

#: events matched per vectorised block (bounds the boolean scratch
#: matrix to ``_CHUNK x subscriptions x dims`` bytes)
_CHUNK = 128


@dataclass
class Verdict:
    ops_attempted: int   # oracle-expected deliveries
    ops_failed: int      # missing + duplicate + spurious
    missing: int
    duplicate: int
    spurious: int
    delivery_digest: str

    @property
    def failed_share(self) -> float:
        return self.ops_failed / max(self.ops_attempted, 1)


def expected_pairs(
    points: np.ndarray,
    lows: np.ndarray,
    highs: np.ndarray,
    live: np.ndarray,
) -> np.ndarray:
    """Sorted codes ``event * S + row`` of every expected delivery."""
    n_subs = len(lows)
    rows = np.nonzero(live)[0]
    lo, hi = lows[rows], highs[rows]
    out: List[np.ndarray] = []
    for start in range(0, len(points), _CHUNK):
        p = points[start : start + _CHUNK, None, :]
        inside = np.all((lo[None] <= p) & (p <= hi[None]), axis=2)
        ev, sub = np.nonzero(inside)
        out.append((ev + start).astype(np.int64) * n_subs + rows[sub])
    if not out:
        return np.zeros(0, dtype=np.int64)
    return np.sort(np.concatenate(out))


def judge(
    points: np.ndarray,
    lows: np.ndarray,
    highs: np.ndarray,
    live: np.ndarray,
    row_identity: Sequence[Tuple[int, int, int]],
    observed: Iterable[Tuple[int, int, int, int]],
) -> Verdict:
    """Compare observed deliveries with the brute-force expectation.

    ``row_identity[row]`` is the ``(nid, iid, addr)`` the program
    assigned to subscription ``row``; ``observed`` yields one
    ``(event index, nid, iid, addr)`` per delivery record.
    """
    n_subs = len(lows)
    expected = expected_pairs(points, lows, highs, live)

    row_of: Dict[Tuple[int, int, int], int] = {
        ident: row for row, ident in enumerate(row_identity) if ident is not None
    }
    observed = sorted(observed)
    digest = hashlib.sha256()
    codes = np.empty(len(observed), dtype=np.int64)
    unknown = 0
    for i, (ev, nid, iid, addr) in enumerate(observed):
        digest.update(f"{ev}|{nid}|{iid}|{addr}\n".encode())
        row = row_of.get((nid, iid, addr))
        if row is None:
            unknown += 1
            codes[i] = -1
        else:
            codes[i] = ev * n_subs + row
    known = codes[codes >= 0]
    uniq, counts = np.unique(known, return_counts=True)
    duplicate = int((counts - 1).sum())
    hit = np.isin(uniq, expected, assume_unique=True)
    spurious = int((~hit).sum()) + unknown
    missing = len(expected) - int(hit.sum())
    return Verdict(
        ops_attempted=len(expected),
        ops_failed=missing + duplicate + spurious,
        missing=missing,
        duplicate=duplicate,
        spurious=spurious,
        delivery_digest=digest.hexdigest(),
    )
