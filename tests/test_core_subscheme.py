"""Tests for subscheme splitting and entity selection."""

import numpy as np
import pytest

from repro.core.scheme import Attribute, Scheme
from repro.core.subscription import Predicate, Subscription
from repro.core.summary import as_box
from repro.core.subscheme import (
    PubSubEntity,
    build_entities,
    entity_for_subscription,
)
from repro.core.zones import ZoneGeometry


@pytest.fixture
def scheme():
    return Scheme("s", [Attribute(n, 0, 100) for n in "abcd"])


G = ZoneGeometry(base=2, code_bits=12)


class TestBuildEntities:
    def test_whole_scheme_single_entity(self, scheme):
        ents = build_entities(scheme, G)
        assert len(ents) == 1
        assert ents[0].key == "s"
        assert list(ents[0].dims) == [0, 1, 2, 3]

    def test_partition(self, scheme):
        ents = build_entities(scheme, G, subschemes=[["a", "b"], ["c", "d"]])
        assert [e.key for e in ents] == ["s/0", "s/1"]
        assert list(ents[0].dims) == [0, 1]
        assert list(ents[1].dims) == [2, 3]

    def test_incomplete_partition_rejected(self, scheme):
        with pytest.raises(ValueError):
            build_entities(scheme, G, subschemes=[["a", "b"]])

    def test_overlapping_partition_rejected(self, scheme):
        with pytest.raises(ValueError):
            build_entities(scheme, G, subschemes=[["a", "b"], ["b", "c", "d"]])

    def test_rotation_offsets_differ(self, scheme):
        ents = build_entities(scheme, G, subschemes=[["a", "b"], ["c", "d"]])
        assert ents[0].rotation != ents[1].rotation
        assert all(e.rotation != 0 for e in ents)

    def test_rotation_disabled(self, scheme):
        ents = build_entities(scheme, G, rotation=False)
        assert ents[0].rotation == 0

    def test_rotation_deterministic(self, scheme):
        a = build_entities(scheme, G)[0].rotation
        b = build_entities(scheme, G)[0].rotation
        assert a == b


class TestEntityGeometry:
    def test_projected_domain(self, scheme):
        ent = build_entities(scheme, G, subschemes=[["a", "b"], ["c", "d"]])[1]
        assert list(ent.domain_lows) == [0, 0]
        assert list(ent.domain_highs) == [100, 100]

    def test_zone_of_subscription_projects(self, scheme):
        """A subscription unbounded on a subscheme's dims maps to the
        root of that subscheme -- and deep in the other."""
        ents = build_entities(scheme, G, subschemes=[["a", "b"], ["c", "d"]])
        sub = Subscription(
            scheme, [Predicate("a", 10, 11), Predicate("b", 10, 11)]
        )
        z0 = ents[0].zone_of_box(*as_box(sub.lows, sub.highs))
        z1 = ents[1].zone_of_box(*as_box(sub.lows, sub.highs))
        assert z0.level > 5
        assert z1.level == 0

    def test_zone_of_point_is_leaf(self, scheme):
        ent = build_entities(scheme, G)[0]
        z = ent.zone_of_point(np.array([1.0, 2.0, 3.0, 4.0]))
        assert z.is_leaf

    def test_rotated_key_shifts(self, scheme):
        ent_rot = build_entities(scheme, G, rotation=True)[0]
        ent_plain = build_entities(scheme, G, rotation=False)[0]
        z = ent_plain.zone_of_point(np.array([1.0, 2.0, 3.0, 4.0]))
        assert ent_rot.rotated_key(z) == (z.key + ent_rot.rotation) % (1 << 64)
        assert ent_plain.rotated_key(z) == z.key

    def test_specified_count(self, scheme):
        ents = build_entities(scheme, G, subschemes=[["a", "b"], ["c", "d"]])
        sub = Subscription(scheme, [Predicate("a", 1, 2), Predicate("c", 1, 2)])
        assert ents[0].specified_count(sub) == 1
        assert ents[1].specified_count(sub) == 1

    def test_invalid_entity_construction(self, scheme):
        with pytest.raises(ValueError):
            PubSubEntity("x", scheme, [], G)
        with pytest.raises(ValueError):
            PubSubEntity("x", scheme, [0, 0], G)
        with pytest.raises(ValueError):
            PubSubEntity("x", scheme, [9], G)


class TestEntitySelection:
    def test_picks_most_specified(self, scheme):
        ents = build_entities(scheme, G, subschemes=[["a", "b"], ["c", "d"]])
        sub = Subscription(
            scheme, [Predicate("c", 1, 2), Predicate("d", 1, 2)]
        )
        assert entity_for_subscription(ents, sub).key == "s/1"

    def test_tie_goes_to_first(self, scheme):
        ents = build_entities(scheme, G, subschemes=[["a", "b"], ["c", "d"]])
        sub = Subscription(scheme, [Predicate("a", 1, 2), Predicate("c", 1, 2)])
        assert entity_for_subscription(ents, sub).key == "s/0"

    def test_single_entity_always_selected(self, scheme):
        ents = build_entities(scheme, G)
        sub = Subscription(scheme, [])
        assert entity_for_subscription(ents, sub) is ents[0]
