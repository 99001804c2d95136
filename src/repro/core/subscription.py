"""Subscriptions: conjunctions of range predicates (hyper-rectangles).

"A subscription is a conjunction of predicates on one or more
attributes, where each predicate specifies a constant value or a range
for an attribute. ... If a subscription does not specify any range over
an attribute, the boundary of the domain of this attribute is
considered as the interested range."  (Section 3.1)

A subscription with several predicates on the same attribute is split
into several subscriptions (:func:`normalize_predicates`), exactly as
the paper prescribes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.event import Event
from repro.core.scheme import Scheme, string_prefix_to_range


@dataclass(frozen=True)
class Predicate:
    """``low <= attribute <= high``; equality is ``low == high``."""

    attr: str
    low: float
    high: float

    def __post_init__(self) -> None:
        # NaN compares False everywhere, so it would pass every check
        # below and fail later without a name; ±inf is a legal bound
        # (clipped to the attribute's domain).
        if self.low != self.low or self.high != self.high:
            raise ValueError(f"predicate on {self.attr!r}: bound is NaN")
        if self.high < self.low:
            raise ValueError(
                f"predicate on {self.attr!r}: high ({self.high}) < low ({self.low})"
            )

    @classmethod
    def eq(cls, attr: str, value: float) -> "Predicate":
        return cls(attr, float(value), float(value))

    @classmethod
    def string_prefix(cls, attr: str, prefix: str) -> "Predicate":
        """Prefix predicate converted to a numeric range (Section 3.1)."""
        low, high = string_prefix_to_range(prefix)
        return cls(attr, low, high)


@dataclass(frozen=True, order=True, slots=True)
class SubID:
    """Global subscription identifier: (subscriber nodeID, internal ID).

    The paper sizes this at 9 bytes on the wire (8B node id + 1B iid);
    rendezvous entries use ``iid = None`` ("the subid list is
    initialized as {(key(cz), NULL)}").
    """

    nid: int
    iid: Optional[int]


class _BoxStructs(dict):
    """``struct.Struct`` of ``2 * d`` native float64s, by ``d``."""

    def __missing__(self, d: int) -> struct.Struct:
        packer = self[d] = struct.Struct(f"@{2 * d}d")
        return packer


_STRUCTS = _BoxStructs()


class Subscription:
    """A hyper-rectangle over a scheme's content space.

    Packed, so that a subscription costs its bytes: ``bounds`` is one
    ``bytes`` value holding the ``d`` lows and then the ``d`` highs as
    native float64s (``lows.tobytes() + highs.tobytes()``), and
    ``specified_bits`` has bit ``i`` set when attribute ``i`` carries a
    predicate.  ``lows``, ``highs`` and ``specified`` read these back
    as fresh read-only arrays; ``box`` reads the bounds as float tuples
    in one unpack.
    """

    __slots__ = ("scheme_name", "bounds", "specified_bits")

    def __init__(self, scheme: Scheme, predicates: Sequence[Predicate]) -> None:
        seen: Dict[str, Predicate] = {}
        for p in predicates:
            if p.attr in seen:
                raise ValueError(
                    f"multiple predicates on {p.attr!r}: split the subscription "
                    "first (see normalize_predicates)"
                )
            seen[p.attr] = p
        attributes = scheme.attributes
        lows = [a.low for a in attributes]
        highs = [a.high for a in attributes]
        bits = 0
        for name, p in seen.items():
            i = scheme.attr_index(name)
            attr = attributes[i]
            lo = max(p.low, attr.low)
            hi = min(p.high, attr.high)
            if hi < lo:
                raise ValueError(
                    f"predicate on {name!r} lies outside the attribute domain"
                )
            lows[i] = lo
            highs[i] = hi
            bits |= 1 << i
        self.scheme_name = scheme.name
        self.bounds = _STRUCTS[len(attributes)].pack(*lows, *highs)
        self.specified_bits = bits

    # ------------------------------------------------------------------
    @classmethod
    def from_box(
        cls,
        scheme: Scheme,
        lows: Sequence[float],
        highs: Sequence[float],
    ) -> "Subscription":
        """Construct directly from per-dimension bounds (workload path)."""
        preds = [
            Predicate(a.name, float(lo), float(hi))
            for a, lo, hi in zip(scheme.attributes, lows, highs)
        ]
        return cls(scheme, preds)

    @property
    def box(self) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
        """``(lows, highs)`` as float tuples."""
        bounds = self.bounds
        d = len(bounds) >> 4
        values = _STRUCTS[d].unpack(bounds)
        return values[:d], values[d:]

    @property
    def lows(self) -> np.ndarray:
        return np.frombuffer(self.bounds, np.float64, len(self.bounds) >> 4)

    @property
    def highs(self) -> np.ndarray:
        half = len(self.bounds) >> 1
        return np.frombuffer(self.bounds, np.float64, offset=half)

    @property
    def specified(self) -> np.ndarray:
        bits = self.specified_bits
        out = np.array(
            [bits >> i & 1 for i in range(len(self.bounds) >> 4)], dtype=bool
        )
        out.setflags(write=False)
        return out

    def matches(self, event: Event) -> bool:
        """Does the event point fall inside this hyper-rectangle?"""
        return event.scheme_name == self.scheme_name and self.contains(event.point)

    def contains(self, point: Sequence[float]) -> bool:
        """Does ``point`` (one value per dimension) lie inside the box,
        bounds included?"""
        lows, highs = self.box
        return all(lo <= x <= hi for lo, x, hi in zip(lows, point, highs))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"[{lo:g},{hi:g}]" for lo, hi in zip(*self.box))
        return f"Subscription({self.scheme_name!r}: {parts})"

    def __eq__(self, other) -> bool:
        # By value, so -0.0 equals 0.0 although their bytes differ.
        return (
            isinstance(other, Subscription)
            and self.scheme_name == other.scheme_name
            and (self.bounds == other.bounds or self.box == other.box)
        )

    def __hash__(self) -> int:
        bounds = self.bounds
        half = len(bounds) >> 1
        return hash((self.scheme_name, bounds[:half], bounds[half:]))


def normalize_predicates(
    scheme: Scheme, predicates: Iterable[Predicate]
) -> List[Subscription]:
    """Split a predicate list into single-range-per-attribute subscriptions.

    "A subscription that needs to specify multiple predicates on the same
    attribute can be divided into multiple subscriptions."  Disjoint
    ranges on an attribute become the cross product of alternatives;
    overlapping ranges on the same attribute are intersected first.
    """
    by_attr: Dict[str, List[Predicate]] = {}
    for p in predicates:
        by_attr.setdefault(p.attr, []).append(p)

    # Merge overlapping ranges per attribute into disjoint alternatives.
    alternatives: List[List[Predicate]] = []
    for attr, plist in by_attr.items():
        plist = sorted(plist, key=lambda p: (p.low, p.high))
        merged: List[Predicate] = []
        for p in plist:
            if merged and p.low <= merged[-1].high:
                last = merged.pop()
                merged.append(Predicate(attr, last.low, max(last.high, p.high)))
            else:
                merged.append(p)
        alternatives.append(merged)

    subs: List[Subscription] = [Subscription(scheme, [])]
    for alts in alternatives:
        subs = [
            Subscription(
                scheme,
                _preds_of(existing, scheme) + [alt],
            )
            for existing in subs
            for alt in alts
        ]
    return subs


def _preds_of(sub: Subscription, scheme: Scheme) -> List[Predicate]:
    """Recover the specified predicates of a subscription."""
    lows, highs = sub.box
    specified = sub.specified
    return [
        Predicate(a.name, lows[i], highs[i])
        for i, a in enumerate(scheme.attributes)
        if specified[i]
    ]
