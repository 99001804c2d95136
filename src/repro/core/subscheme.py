"""Subscheme splitting (Section 3.5, "Improvement").

Subscriptions that leave attributes unspecified cover the full domain
on those dimensions, so they hash to large, shallow content zones --
concentrating load and defeating locality.  The fix: "we divide a
pub/sub scheme S into several subschemes based on the investigation of
subscribers' behavior.  Each subscheme S_i consists of several
attributes of S and functions as an individual entity.  Subscription
installation is performed on the subscheme, while each event has one
corresponding rendezvous zone for each subscheme."

:class:`PubSubEntity` is the unit the rest of the system works with:
an *entity* is either a whole scheme or one subscheme.  Each entity has
its own zone tree (over its projected dimensions) and its own rotation
offset phi (Section 4, zone-mapping rotation).  A subscription is
installed under exactly one entity -- the one covering the most of its
specified attributes -- so no event is delivered twice; events carry
one rendezvous entry per entity of their scheme.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.lph import lph_box_floats, lph_point
from repro.core.scheme import Scheme
from repro.core.subscription import Subscription
from repro.core.zones import ContentZone, ZoneGeometry
from repro.dht.idspace import ID_SPACE, consistent_hash_64


class PubSubEntity:
    """One scheme or subscheme: a zone tree over a dimension subset."""

    def __init__(
        self,
        key: str,
        scheme: Scheme,
        dims: Sequence[int],
        geometry: ZoneGeometry,
        rotation: int = 0,
    ) -> None:
        if not dims:
            raise ValueError("entity needs at least one dimension")
        if len(set(dims)) != len(dims):
            raise ValueError("duplicate dimensions in entity")
        for d in dims:
            if not 0 <= d < scheme.dimensions:
                raise ValueError(f"dimension {d} outside scheme")
        self.key = key
        self.scheme = scheme
        self.dims = np.array(sorted(dims), dtype=np.intp)
        self.geometry = geometry
        self.rotation = rotation % ID_SPACE
        self.domain_lows = scheme.domain_lows()[self.dims]
        self.domain_highs = scheme.domain_highs()[self.dims]
        #: the same three as plain Python values, for scalar geometry
        self.full_dims: List[int] = self.dims.tolist()
        self._domain_lo: List[float] = self.domain_lows.tolist()
        self._domain_hi: List[float] = self.domain_highs.tolist()
        #: the dimensions as a bitmask over the scheme's (bit ``i`` for
        #: dimension ``i``, as ``Subscription.specified_bits``)
        self._dims_bits = sum(1 << d for d in self.full_dims)
        #: whether boxes over the scheme's dimensions need projecting
        self._projects = len(self.full_dims) != scheme.dimensions
        #: every ``child_split`` answer, by value: zones that differ only
        #: along the other dimensions divide alike, so a few hundred
        #: tuples serve every repository of the entity
        self._splits: Dict[Tuple[float, float], Tuple[float, float]] = {}

    # ------------------------------------------------------------------
    def zone_of_box(
        self, lows: Sequence[float], highs: Sequence[float]
    ) -> ContentZone:
        """Smallest covering zone of a box's projection; the bounds are
        float sequences over every dimension of the scheme
        (``Subscription.box``)."""
        if self._projects:
            dims = self.full_dims
            lows = [lows[j] for j in dims]
            highs = [highs[j] for j in dims]
        return lph_box_floats(
            lows, highs, self._domain_lo, self._domain_hi, self.geometry
        )

    def zone_of_point(self, point: np.ndarray) -> ContentZone:
        """Leaf rendezvous zone of an event's projection."""
        return lph_point(
            np.asarray(point)[self.dims],
            self.domain_lows,
            self.domain_highs,
            self.geometry,
        )

    def rotated_key(self, zone: ContentZone) -> int:
        """Zone key shifted by the entity's rotation offset phi."""
        return (zone.key + self.rotation) % ID_SPACE

    def child_split(self, zone: ContentZone) -> Tuple[float, float]:
        """``(edge, width)`` of the zone's division into children, on
        full dimension ``full_dims[zone.level % len(full_dims)]``: the
        part of the zone's box the summary cascade reads
        (``ContentZone.split_segment``).  Equal answers are one shared
        tuple."""
        split = zone.split_segment(self._domain_lo, self._domain_hi)
        return self._splits.setdefault(split, split)

    def specified_count(self, sub: Subscription) -> int:
        """How many of this entity's dimensions the subscription pins."""
        return (sub.specified_bits & self._dims_bits).bit_count()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PubSubEntity({self.key!r}, dims={list(self.dims)})"


def build_entities(
    scheme: Scheme,
    geometry: ZoneGeometry,
    subschemes: Optional[Sequence[Sequence[str]]] = None,
    rotation: bool = True,
) -> List[PubSubEntity]:
    """Create the entity list for a scheme.

    ``subschemes`` is a partition of attribute names; ``None`` keeps the
    scheme whole (a single entity).  Rotation offsets come from hashing
    the entity key, matching the paper's consistent-hash construction.
    """
    if subschemes is None:
        groups = [[a.name for a in scheme.attributes]]
    else:
        groups = [list(g) for g in subschemes]
        flat = [name for g in groups for name in g]
        expected = [a.name for a in scheme.attributes]
        if sorted(flat) != sorted(expected):
            raise ValueError(
                "subschemes must partition the scheme's attributes exactly; "
                f"got {sorted(flat)}, expected {sorted(expected)}"
            )
        if any(not g for g in groups):
            raise ValueError("empty subscheme group")

    entities: List[PubSubEntity] = []
    for i, group in enumerate(groups):
        key = scheme.name if len(groups) == 1 else f"{scheme.name}/{i}"
        dims = [scheme.attr_index(name) for name in group]
        phi = consistent_hash_64(key.encode()) if rotation else 0
        entities.append(PubSubEntity(key, scheme, dims, geometry, rotation=phi))
    return entities


def entity_for_subscription(
    entities: Sequence[PubSubEntity], sub: Subscription
) -> PubSubEntity:
    """Pick the installation entity: most specified dimensions wins.

    Installing under exactly one entity keeps deliveries exactly-once;
    the chosen entity maximises zone depth (hence locality) for this
    subscription.  Ties resolve to the first entity for determinism; a
    scheme kept whole has one entity, which decides without counting.
    """
    if len(entities) == 1:
        return entities[0]
    best = entities[0]
    best_count = -1
    for ent in entities:
        c = ent.specified_count(sub)
        if c > best_count:
            best = ent
            best_count = c
    return best
