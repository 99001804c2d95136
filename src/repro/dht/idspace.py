"""64-bit circular identifier space arithmetic.

The paper: "The number of bits in the key/node identifiers in the
simulator is 64, and we use the first 20 bits to represent content
zones."  All interval logic on the Chord ring funnels through
:func:`id_in_interval` so wrap-around is handled in exactly one place.
"""

from __future__ import annotations

from typing import List

import numpy as np

#: Width of node/key identifiers.
ID_BITS = 64
#: Size of the identifier space (2**64).
ID_SPACE = 1 << ID_BITS
#: Mask for reducing arithmetic into the space.
ID_MASK = ID_SPACE - 1


def id_add(a: int, b: int) -> int:
    """``(a + b) mod 2**64``."""
    return (a + b) & ID_MASK


def id_sub(a: int, b: int) -> int:
    """``(a - b) mod 2**64``."""
    return (a - b) & ID_MASK


def cw_distance(frm: int, to: int) -> int:
    """Clockwise distance from ``frm`` to ``to`` around the ring."""
    return id_sub(to, frm)


def id_in_interval(
    x: int,
    left: int,
    right: int,
    *,
    incl_left: bool = False,
    incl_right: bool = False,
) -> bool:
    """Membership of ``x`` in the clockwise arc from ``left`` to ``right``.

    With ``left == right`` the open arc is the whole ring minus the
    endpoint -- the standard single-node Chord convention, where a node
    that is its own successor owns every key.
    """
    if left == right:
        if x == left:
            return incl_left or incl_right
        return True
    dx = cw_distance(left, x)
    dr = cw_distance(left, right)
    if x == left:
        return incl_left
    if x == right:
        return incl_right
    return 0 < dx < dr


def random_ids(n: int, seed: int) -> List[int]:
    """``n`` distinct uniform 64-bit identifiers, deterministic in ``seed``.

    Collisions in a 64-bit space are vanishingly unlikely but the
    function still guarantees distinctness (a duplicate would make two
    overlay nodes indistinguishable and corrupt successor logic).
    """
    rng = np.random.default_rng(seed)
    ids: set[int] = set()
    while len(ids) < n:
        draw = rng.integers(0, ID_SPACE, size=n - len(ids), dtype=np.uint64)
        ids.update(int(v) for v in draw)
    out = sorted(ids)
    # Shuffle so the i-th network address is not correlated with id rank.
    order = rng.permutation(n)
    return [out[i] for i in order]


def consistent_hash_64(data: bytes) -> int:
    """SHA-1-based consistent hash onto the identifier space.

    Section 4: "The randomness of phi for each scheme/subscheme can be
    achieved by hashing (with consistent hash function, e.g. SHA) the
    name of the corresponding scheme/subscheme."  SHA gives uniform
    offsets even for near-identical names, where FNV-1a's weak
    avalanche would cluster them a few thousand ids apart.
    """
    import hashlib

    digest = hashlib.sha1(data).digest()
    return int.from_bytes(digest[:8], "big")
