"""Content zones: the k-d-tree-style partition of the content space.

Section 3.2: the content space is recursively divided; the i-th division
splits dimension ``(i-1) mod d`` into ``base`` equal parts.  A zone at
level ``l`` is identified by an ``l``-digit base-``base`` code; its key
pads the code with ``(base-1)`` digits up to ``m`` digits, i.e.::

    key(cz) = (code(cz) + 1) * base**(m - level) - 1

The paper's simulator uses 64-bit identifiers with "the first 20 bits"
for zone codes; :class:`ZoneGeometry` generalises that: ``code_bits``
top bits hold the zone key, the remaining low bits are padded with ones
so the key is the highest identifier in the zone's arc of the ring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.dht.idspace import ID_BITS


@dataclass(frozen=True)
class ZoneGeometry:
    """How the content space maps into the identifier space.

    ``base`` must be a power of two and ``code_bits`` a multiple of
    ``log2(base)`` so a whole number of digits fits in the code field.
    The paper compares base 2 / 20 levels against base 4 / 10 levels,
    both using 20 code bits.
    """

    base: int = 2
    code_bits: int = 20
    #: log2(base); derived, so not part of equality or the hash
    bits_per_digit: int = field(init=False, repr=False, compare=False)
    #: m: the number of digits in a full zone code (derived likewise)
    max_level: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.base < 2 or self.base & (self.base - 1):
            raise ValueError("base must be a power of two >= 2")
        bits_per_digit = self.base.bit_length() - 1
        if self.code_bits % bits_per_digit:
            raise ValueError(
                f"code_bits ({self.code_bits}) not divisible by digit width "
                f"({bits_per_digit})"
            )
        if not 0 < self.code_bits <= ID_BITS:
            raise ValueError("code_bits must be in (0, 64]")
        object.__setattr__(self, "bits_per_digit", bits_per_digit)
        object.__setattr__(self, "max_level", self.code_bits // bits_per_digit)


def as_floats(values) -> List[float]:
    """``values`` as Python floats (float64 round-trips exactly): the
    geometry loops run on these, not on NumPy scalars."""
    return np.asarray(values, dtype=np.float64).tolist()


def zone_key(code: int, level: int, geometry: ZoneGeometry) -> int:
    """64-bit identifier-space key of zone ``(code, level)``.

    Code digits are padded with ``base-1`` digits to ``m`` digits, then
    the low ``64 - code_bits`` identifier bits are padded with ones:
    the key is the *last* id in the zone's contiguous ring arc, so
    ``successor(key)`` picks one deterministic surrogate per zone.
    """
    return ContentZone(code, level, geometry).key


class ContentZone:
    """A zone handle: ``(code, level)`` plus derived geometry helpers."""

    __slots__ = ("code", "level", "geometry")

    def __init__(self, code: int, level: int, geometry: ZoneGeometry) -> None:
        if not 0 <= level <= geometry.max_level:
            raise ValueError(f"level {level} outside [0, {geometry.max_level}]")
        if code < 0 or code >> (geometry.bits_per_digit * level):
            raise ValueError(f"code {code} invalid for level {level}")
        self.code = code
        self.level = level
        self.geometry = geometry

    # ------------------------------------------------------------------
    @classmethod
    def root(cls, geometry: ZoneGeometry) -> "ContentZone":
        return cls(0, 0, geometry)

    @property
    def key(self) -> int:
        """:func:`zone_key` of a zone the constructor has validated."""
        geometry = self.geometry
        # base**(m - level) as a shift: base is a power of two
        shift = geometry.bits_per_digit * (geometry.max_level - self.level)
        code_padded = ((self.code + 1) << shift) - 1
        low_bits = ID_BITS - geometry.code_bits
        return (code_padded << low_bits) | ((1 << low_bits) - 1)

    @property
    def is_leaf(self) -> bool:
        return self.level == self.geometry.max_level

    def digits(self) -> List[int]:
        """The code as a list of base-``base`` digits, most significant first."""
        out = []
        c = self.code
        for _ in range(self.level):
            out.append(c % self.geometry.base)
            c //= self.geometry.base
        return out[::-1]

    def parent(self) -> Optional["ContentZone"]:
        if self.level == 0:
            return None
        return ContentZone(
            self.code // self.geometry.base, self.level - 1, self.geometry
        )

    def child(self, digit: int) -> "ContentZone":
        if self.is_leaf:
            raise ValueError("leaf zones have no children")
        if not 0 <= digit < self.geometry.base:
            raise ValueError(f"digit {digit} outside [0, {self.geometry.base})")
        return ContentZone(
            self.code * self.geometry.base + digit, self.level + 1, self.geometry
        )

    def children(self) -> Iterator["ContentZone"]:
        for d in range(self.geometry.base):
            yield self.child(d)

    def split_dimension(self, dims: int) -> int:
        """The dimension the *next* division (into children) splits."""
        return self.level % dims

    def split_segment(
        self, domain_lows: Sequence[float], domain_highs: Sequence[float]
    ) -> Tuple[float, float]:
        """``(edge, width)`` of the next division: child ``digit`` covers
        ``[edge + digit * width, edge + (digit + 1) * width]`` on
        dimension ``split_dimension(d)``.

        The part of the zone's box the summary-filter cascade reads.
        Only the divisions of the split dimension are replayed (the
        others never touch it): division ``i`` splits dimension
        ``i mod d`` into ``base`` equal parts and keeps the part named
        by the i-th code digit, so ``edge`` is the box's lower bound
        there and ``width`` its extent over ``base``, bit for bit
        (``tests/geometry_reference.py`` replays the whole box).  The
        domain bounds are Python floats.
        """
        d = len(domain_lows)
        j = self.split_dimension(d)
        base = self.geometry.base
        bits = self.geometry.bits_per_digit
        lo, hi = domain_lows[j], domain_highs[j]
        for i in range(j, self.level, d):
            digit = (self.code >> (bits * (self.level - 1 - i))) & (base - 1)
            width = (hi - lo) / base
            lo = lo + digit * width
            hi = lo + width
        return lo, (hi - lo) / base

    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ContentZone)
            and self.code == other.code
            and self.level == other.level
            and self.geometry == other.geometry
        )

    def __hash__(self) -> int:
        return hash((self.code, self.level, self.geometry))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        digs = "".join(str(d) for d in self.digits()) or "<root>"
        return f"ContentZone({digs}, level={self.level})"
