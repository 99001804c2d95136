"""Tests for events and subscriptions (the point/box data model)."""

import copy
import pickle
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HyperSubConfig, HyperSubSystem
from repro.core.event import Event
from repro.core.scheme import Attribute, Scheme
from repro.core.subscription import (
    Predicate,
    SubID,
    Subscription,
    normalize_predicates,
)
from repro.core.summary import as_box


@pytest.fixture
def scheme():
    return Scheme(
        "s",
        [Attribute("x", 0, 100), Attribute("y", -50, 50), Attribute("z", 0, 10)],
    )


class TestEvent:
    def test_from_mapping(self, scheme):
        e = Event(scheme, {"x": 10, "y": 0, "z": 5})
        assert list(e.point) == [10.0, 0.0, 5.0]

    def test_from_sequence(self, scheme):
        e = Event(scheme, [10, 0, 5])
        assert e.value(scheme, "y") == 0.0

    def test_missing_attribute_rejected(self, scheme):
        with pytest.raises(ValueError, match="missing"):
            Event(scheme, {"x": 1, "y": 2})

    def test_unknown_attribute_rejected(self, scheme):
        with pytest.raises(ValueError, match="unknown"):
            Event(scheme, {"x": 1, "y": 2, "z": 3, "w": 4})

    def test_wrong_arity_rejected(self, scheme):
        with pytest.raises(ValueError):
            Event(scheme, [1, 2])

    def test_out_of_domain_rejected(self, scheme):
        with pytest.raises(ValueError):
            Event(scheme, {"x": 101, "y": 0, "z": 0})

    def test_point_is_immutable(self, scheme):
        e = Event(scheme, [1, 2, 3])
        with pytest.raises(ValueError):
            e.point[0] = 9

    def test_as_dict_roundtrip(self, scheme):
        e = Event(scheme, {"x": 10, "y": -5, "z": 1})
        assert e.as_dict(scheme) == {"x": 10.0, "y": -5.0, "z": 1.0}

    def test_equality_and_hash(self, scheme):
        a = Event(scheme, [1, 2, 3])
        b = Event(scheme, [1, 2, 3])
        assert a == b and hash(a) == hash(b)
        assert a != Event(scheme, [1, 2, 4])


class TestPredicate:
    def test_eq_constructor(self):
        p = Predicate.eq("x", 5)
        assert p.low == p.high == 5.0

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            Predicate("x", 5, 1)

    def test_string_prefix_predicate(self):
        p = Predicate.string_prefix("sym", "AB")
        assert p.low < p.high

    @pytest.mark.parametrize(
        "low, high",
        [(float("nan"), 5.0), (1.0, float("nan")), (float("nan"), float("nan"))],
    )
    def test_nan_bound_rejected_by_name(self, low, high):
        with pytest.raises(ValueError, match=r"predicate on 'x': bound is NaN"):
            Predicate("x", low, high)

    def test_infinite_bounds_are_clipped_to_the_domain(self, scheme):
        """±inf stays legal: the subscription spans the whole attribute
        and installs like any other box."""
        sub = Subscription(scheme, [Predicate("y", -np.inf, np.inf)])
        assert (sub.lows[1], sub.highs[1]) == (-50.0, 50.0)
        system = HyperSubSystem(
            num_nodes=8, config=HyperSubConfig(seed=1, code_bits=8)
        )
        system.add_scheme(scheme)
        system.subscribe(0, sub)


class TestSubscription:
    def test_unspecified_attrs_default_to_domain(self, scheme):
        s = Subscription(scheme, [Predicate("x", 10, 20)])
        assert list(s.lows) == [10.0, -50.0, 0.0]
        assert list(s.highs) == [20.0, 50.0, 10.0]
        assert s.specified.tolist() == [True, False, False]

    def test_matches_inclusive_bounds(self, scheme):
        s = Subscription(scheme, [Predicate("x", 10, 20)])
        assert s.matches(Event(scheme, {"x": 10, "y": 0, "z": 0}))
        assert s.matches(Event(scheme, {"x": 20, "y": 0, "z": 0}))
        assert not s.matches(Event(scheme, {"x": 21, "y": 0, "z": 0}))

    def test_cross_scheme_never_matches(self, scheme):
        other = Scheme("t", [Attribute("x", 0, 100)])
        s = Subscription(scheme, [])
        assert not s.matches(Event(other, {"x": 5}))

    def test_predicate_clipped_to_domain(self, scheme):
        s = Subscription(scheme, [Predicate("x", -5, 200)])
        assert s.lows[0] == 0 and s.highs[0] == 100

    def test_predicate_fully_outside_domain_rejected(self, scheme):
        with pytest.raises(ValueError):
            Subscription(scheme, [Predicate("x", 200, 300)])

    def test_duplicate_attr_predicates_rejected(self, scheme):
        with pytest.raises(ValueError, match="multiple predicates"):
            Subscription(scheme, [Predicate("x", 0, 1), Predicate("x", 2, 3)])

    def test_from_box(self, scheme):
        s = Subscription.from_box(scheme, [0, -10, 0], [50, 10, 5])
        assert s.matches(Event(scheme, {"x": 25, "y": 0, "z": 2}))

    def test_equality_and_hash(self, scheme):
        a = Subscription(scheme, [Predicate("x", 1, 2)])
        b = Subscription(scheme, [Predicate("x", 1, 2)])
        assert a == b and hash(a) == hash(b)


class TestSubID:
    def test_ordering_and_hash(self):
        assert SubID(1, 2) == SubID(1, 2)
        assert len({SubID(1, 2), SubID(1, 2), SubID(1, 3)}) == 2


class TestNormalizePredicates:
    def test_single_subscription_passthrough(self, scheme):
        subs = normalize_predicates(scheme, [Predicate("x", 1, 2)])
        assert len(subs) == 1
        assert subs[0].lows[0] == 1

    def test_disjoint_ranges_split(self, scheme):
        subs = normalize_predicates(
            scheme, [Predicate("x", 0, 10), Predicate("x", 20, 30)]
        )
        assert len(subs) == 2
        covered = sorted((s.lows[0], s.highs[0]) for s in subs)
        assert covered == [(0, 10), (20, 30)]

    def test_overlapping_ranges_merged(self, scheme):
        subs = normalize_predicates(
            scheme, [Predicate("x", 0, 15), Predicate("x", 10, 30)]
        )
        assert len(subs) == 1
        assert (subs[0].lows[0], subs[0].highs[0]) == (0, 30)

    def test_cross_product_of_attributes(self, scheme):
        subs = normalize_predicates(
            scheme,
            [
                Predicate("x", 0, 1),
                Predicate("x", 5, 6),
                Predicate("y", 0, 1),
                Predicate("y", 5, 6),
            ],
        )
        assert len(subs) == 4

    def test_match_semantics_preserved(self, scheme):
        """The union of split subscriptions matches exactly the events the
        original disjunction would."""
        preds = [Predicate("x", 0, 10), Predicate("x", 20, 30), Predicate("y", -10, 10)]
        subs = normalize_predicates(scheme, preds)
        for x, expected in [(5, True), (15, False), (25, True), (35, False)]:
            e = Event(scheme, {"x": x, "y": 0, "z": 0})
            assert any(s.matches(e) for s in subs) == expected


# ----------------------------------------------------------------------
# The packed layout against the three-array one it replaced
# ----------------------------------------------------------------------
def three_arrays(scheme, predicates):
    """``(lows, highs, specified)`` as the three-array ``Subscription``
    built them: the domain as float64 arrays, each predicate clipped
    to its attribute and written over it."""
    lows, highs = scheme.domain_lows(), scheme.domain_highs()
    specified = np.zeros(scheme.dimensions, dtype=bool)
    for p in predicates:
        i = scheme.attr_index(p.attr)
        attr = scheme.attributes[i]
        lows[i] = max(p.low, attr.low)
        highs[i] = min(p.high, attr.high)
        specified[i] = True
    return lows, highs, specified


@st.composite
def schemes_and_predicates(draw):
    """A scheme of 1-6 attributes with integer or float domains, and a
    subset of them constrained: bounds are domain edges, signed zeros,
    infinities, values outside the domain (clipped) or inside it."""
    d = draw(st.integers(1, 6))
    attributes = []
    for j in range(d):
        low = draw(st.sampled_from([0, -0.0, 0.0, -50, -1.5, 3]))
        high = low + draw(st.sampled_from([1, 10, 100.0, 2.5e6]))
        attributes.append(Attribute(f"a{j}", low, high))
    scheme = Scheme("s", attributes)
    preds = []
    for a in attributes:
        if not draw(st.booleans()):
            continue  # unspecified: the full domain
        edges = [a.low, a.high, -0.0, 0.0, -np.inf, np.inf, a.low - 7, a.high + 7]
        inside = st.floats(a.low, a.high, allow_nan=False)
        lo, hi = sorted(
            draw(st.one_of(st.sampled_from(edges), inside)) for _ in range(2)
        )
        if max(lo, a.low) <= min(hi, a.high):  # else nothing is left after clipping
            preds.append(Predicate(a.name, lo, hi))
    return scheme, draw(st.permutations(preds))


def same_bits(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


@given(case=schemes_and_predicates(), flip=st.booleans())
@settings(max_examples=300, deadline=None)
def test_packed_subscription_reads_as_the_three_arrays(case, flip):
    scheme, preds = case
    sub = Subscription(scheme, preds)
    lows, highs, specified = three_arrays(scheme, preds)
    assert same_bits(sub.lows, lows) and same_bits(sub.highs, highs)
    assert same_bits(sub.specified, specified)
    for array in (sub.lows, sub.highs, sub.specified):
        assert not array.flags.writeable
    assert sub.box == as_box(lows, highs)
    assert repr(sub.box) == repr(as_box(lows, highs))  # the sign of zero
    # The hash reads the bytes with every signed zero made +0.0.
    assert hash(sub) == hash(
        (scheme.name, (lows + 0.0).tobytes(), (highs + 0.0).tobytes())
    )

    # A twin whose zero bounds may carry the other sign: equal by value.
    twin_preds = [
        Predicate(p.attr, -p.low if flip and p.low == 0 else p.low, p.high)
        for p in preds
    ]
    twin = Subscription(scheme, twin_preds)
    twin_lows, twin_highs, _ = three_arrays(scheme, twin_preds)
    assert (sub == twin) == (
        np.array_equal(lows, twin_lows) and np.array_equal(highs, twin_highs)
    )
    if sub == twin:
        assert hash(sub) == hash(twin)
    assert sub != Subscription(Scheme("t", scheme.attributes), preds)

    for copy_ in (pickle.loads(pickle.dumps(sub)), copy.deepcopy(sub)):
        assert copy_ == sub and hash(copy_) == hash(sub)
        assert (copy_.bounds, copy_.specified_bits) == (sub.bounds, sub.specified_bits)


def test_signed_zero_twins_hash_equal():
    scheme = Scheme("s", [Attribute("x", -1.0, 1.0)])
    pos = Subscription(scheme, [Predicate("x", 0.0, 0.5)])
    neg = Subscription(scheme, [Predicate("x", -0.0, 0.5)])
    assert pos == neg and pos.bounds != neg.bounds
    assert hash(pos) == hash(neg)
    assert len({pos, neg}) == 1
    # a box without -0.0 keeps the hash of its own bytes
    half = len(pos.bounds) >> 1
    assert hash(pos) == hash(("s", pos.bounds[:half], pos.bounds[half:]))


@dataclass(frozen=True, order=True)
class DictSubID:
    """``SubID`` as it was before it had slots."""

    nid: int
    iid: Optional[int]


@given(
    ids=st.lists(
        st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 255)), max_size=12
    ),
    marker=st.integers(0, 2**64 - 1),
)
@settings(max_examples=100, deadline=None)
def test_slotted_subid_behaves_as_before(ids, marker):
    new = [SubID(*t) for t in ids] + [SubID(marker, None)]
    old = [DictSubID(*t) for t in ids] + [DictSubID(marker, None)]
    assert [hash(s) for s in new] == [hash(s) for s in old]
    assert [(s.nid, s.iid) for s in sorted(new[:-1])] == sorted(ids)
    assert [(s.nid, s.iid) for s in sorted(new[:-1])] == [
        (s.nid, s.iid) for s in sorted(old[:-1])
    ]
    for s in new:
        for copy_ in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
            assert copy_ == s and hash(copy_) == hash(s)
    assert not hasattr(new[-1], "__dict__")
