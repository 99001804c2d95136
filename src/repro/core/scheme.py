"""Pub/sub schemes (Section 3.1, after Fabret et al.).

A scheme is an ordered set of attributes; each attribute has a name, a
type and a numeric domain.  Events assign a value to *every* attribute;
subscriptions constrain a subset of them.  String prefix/suffix
predicates are supported by mapping strings into numeric ranges
("the prefix and suffix predicates on string type attributes can be
converted to numerical ranges").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: Number of leading characters used when embedding strings numerically.
#: Six bytes keep every embedded value below 256**6 < 2**53, so each is
#: exactly representable in a float64 and prefix-range boundaries are
#: exact (no two distinct 6-byte prefixes collide after rounding).
_STRING_EMBED_CHARS = 6
#: Alphabet size for the embedding (full byte range).
_STRING_RADIX = 256
#: Top of the numeric domain used for string-typed attributes.
STRING_DOMAIN_HIGH = float(_STRING_RADIX**_STRING_EMBED_CHARS)


def string_to_point(s: str) -> float:
    """Embed a string as a number preserving lexicographic order.

    Only the first ``_STRING_EMBED_CHARS`` bytes participate, which is
    enough to discriminate realistic key spaces (stock symbols, topic
    names) while staying exact in a float64.
    """
    raw = s.encode("utf-8", "replace")[:_STRING_EMBED_CHARS]
    value = 0
    for b in raw:
        value = value * _STRING_RADIX + b
    value *= _STRING_RADIX ** (_STRING_EMBED_CHARS - len(raw))
    return float(value)


def string_prefix_to_range(prefix: str) -> Tuple[float, float]:
    """Numeric ``[low, high]`` range equivalent to ``startswith(prefix)``."""
    low = string_to_point(prefix)
    raw = prefix.encode("utf-8", "replace")[:_STRING_EMBED_CHARS]
    span = float(_STRING_RADIX ** (_STRING_EMBED_CHARS - len(raw)))
    return low, low + span - 1.0


@dataclass(frozen=True)
class Attribute:
    """One dimension of a scheme's content space."""

    name: str
    low: float = 0.0
    high: float = 1.0
    type: str = "float"  # "float" | "int" | "string"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("attribute name must be non-empty")
        if self.type not in ("float", "int", "string"):
            raise ValueError(f"unknown attribute type {self.type!r}")
        if self.high <= self.low:
            raise ValueError(
                f"attribute {self.name!r}: high ({self.high}) must exceed "
                f"low ({self.low})"
            )

    @classmethod
    def string(cls, name: str) -> "Attribute":
        """A string-typed attribute over the full embedded domain."""
        return cls(name=name, low=0.0, high=STRING_DOMAIN_HIGH, type="string")

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high

    def to_value(self, raw) -> float:
        """Coerce a user-supplied value into the numeric domain."""
        if self.type == "string":
            if not isinstance(raw, str):
                raise TypeError(f"attribute {self.name!r} expects a string")
            value = string_to_point(raw)
        else:
            value = float(raw)
        if not self.contains(value):
            raise ValueError(
                f"value {raw!r} outside domain [{self.low}, {self.high}] "
                f"of attribute {self.name!r}"
            )
        return value


class Scheme:
    """An ordered attribute set; the content space is their product.

    HyperSub "can simultaneously support any numbers of pub/sub schemes
    with different number of attributes"; a :class:`Scheme` instance is
    the unit registered with the system.
    """

    def __init__(self, name: str, attributes: Sequence[Attribute]) -> None:
        if not name:
            raise ValueError("scheme name must be non-empty")
        if not attributes:
            raise ValueError("scheme needs at least one attribute")
        names = [a.name for a in attributes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate attribute names in scheme {name!r}")
        self.name = name
        self.attributes: Tuple[Attribute, ...] = tuple(attributes)
        self._index: Dict[str, int] = {a.name: i for i, a in enumerate(attributes)}

    # ------------------------------------------------------------------
    @property
    def dimensions(self) -> int:
        return len(self.attributes)

    def attr_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(
                f"scheme {self.name!r} has no attribute {name!r}"
            ) from None

    def domain_lows(self) -> np.ndarray:
        return np.array([a.low for a in self.attributes], dtype=np.float64)

    def domain_highs(self) -> np.ndarray:
        return np.array([a.high for a in self.attributes], dtype=np.float64)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        attrs = ", ".join(a.name for a in self.attributes)
        return f"Scheme({self.name!r}: {attrs})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Scheme)
            and self.name == other.name
            and self.attributes == other.attributes
        )

    def __hash__(self) -> int:
        return hash((self.name, self.attributes))
