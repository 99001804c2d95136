"""Tests for summary-filter box arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.matching import BoxStore
from repro.core.node import ZoneRepo
from repro.core.scheme import Attribute, Scheme
from repro.core.subscheme import PubSubEntity
from repro.core.subscription import SubID
from repro.core.summary import as_box, boxes_equal, merge_box, split_pieces
from repro.core.zones import ContentZone, ZoneGeometry
from tests import geometry_reference as ref
from tests.box_oracle import SPECIALS, boxes, float_tuples, same_bits


B = as_box


class TestMergeBox:
    def test_first_merge_initialises(self):
        merged, changed = merge_box(None, B([1, 2], [3, 4]))
        assert changed
        assert merged == ((1.0, 2.0), (3.0, 4.0)) and float_tuples(merged)

    def test_contained_addition_is_unchanged(self):
        cur = B([0, 0], [10, 10])
        merged, changed = merge_box(cur, B([2, 2], [3, 3]))
        assert not changed
        assert boxes_equal(merged, cur)

    def test_growth_detected(self):
        merged, changed = merge_box(B([0, 0], [10, 10]), B([5, 5], [15, 15]))
        assert changed
        assert merged == ((0.0, 0.0), (15.0, 15.0)) and float_tuples(merged)

    def test_boundary_touch_is_unchanged(self):
        merged, changed = merge_box(B([0], [10]), B([10], [10]))
        assert not changed


class TestChildPieces:
    """``split_pieces`` directly, and ``ZoneRepo.child_pieces``, which
    picks the split dimension and segment for a zone of an entity."""

    G = ZoneGeometry(base=2, code_bits=8)
    SCHEME = Scheme("s", [Attribute(n, 0.0, 100.0) for n in "wxyz"])

    def pieces(self, zone, sf, dims):
        entity = PubSubEntity("s", self.SCHEME, dims, zone.geometry)
        return ZoneRepo("s", zone, store=None).child_pieces(entity, sf)

    def test_straddling_filter_splits_into_both_children(self):
        sf = B([40, 10], [60, 20])
        pieces = split_pieces(sf, 0, 0.0, 50.0, 2)
        assert pieces == {
            0: ((40.0, 10.0), (50.0, 20.0)),
            1: ((50.0, 10.0), (60.0, 20.0)),
        }
        assert all(float_tuples(p) for p in pieces.values())
        # the bounds the cut leaves alone are sf's own tuples
        assert pieces[0][0] is sf[0] and pieces[1][1] is sf[1]

    def test_one_sided_filter_yields_one_piece(self):
        pieces = split_pieces(B([10, 10], [20, 20]), 0, 0.0, 50.0, 2)
        assert set(pieces) == {0}

    def test_split_dimension_advances_with_level(self):
        zone = ContentZone.root(self.G).child(0)  # level 1: splits dim 1
        pieces = self.pieces(zone, B([10, 40, 0, 0], [20, 60, 1, 1]), [0, 1])
        assert set(pieces) == {0, 1}
        assert pieces[0][1][1] == 50  # piece 0 clipped at y = 50

    def test_subscheme_dims_map_to_full_space(self):
        """Entity over full-dims [2, 3] of a 4-dim scheme: splitting
        must clip full dimension 2, never dimension 0."""
        zone = ContentZone.root(self.G)
        sf = B([1, 2, 40, 3], [9, 8, 70, 7])  # full 4-dim filter
        pieces = self.pieces(zone, sf, [2, 3])
        assert set(pieces) == {0, 1}
        lo0, hi0 = pieces[0]
        assert hi0[2] == 50
        assert lo0[0] == 1 and hi0[0] == 9  # untouched dims pass through

    def test_base4_pieces(self):
        zone = ContentZone.root(ZoneGeometry(base=4, code_bits=8))
        pieces = self.pieces(zone, B([10, 0, 0, 0], [90, 1, 1, 1]), [0, 1])
        assert set(pieces) == {0, 1, 2, 3}
        assert pieces[1][0][0] == 25 and pieces[1][1][0] == 50


@given(
    lo=st.floats(0, 99, allow_nan=False),
    width=st.floats(0.01, 100, allow_nan=False),
)
@settings(max_examples=200)
def test_pieces_cover_filter_exactly(lo, width):
    """Union of pieces == sf (clipped to the zone box)."""
    hi = min(lo + width, 100.0)
    pieces = split_pieces(B([lo], [hi]), 0, 0.0, 25.0, 4)
    assert pieces, "non-empty filter must produce pieces"
    plo = min(p[0][0] for p in pieces.values())
    phi = max(p[1][0] for p in pieces.values())
    assert plo == pytest.approx(lo)
    assert phi == pytest.approx(hi)
    # Pieces tile without gaps: sorted boundaries line up.
    spans = sorted((p[0][0], p[1][0]) for p in pieces.values())
    for (a_lo, a_hi), (b_lo, b_hi) in zip(spans, spans[1:]):
        assert b_lo <= a_hi + 1e-9


# ----------------------------------------------------------------------
# The cascade's scalar forms == the array forms (tests/geometry_reference.py)
# ----------------------------------------------------------------------

_SCHEME = Scheme(
    "s",
    [
        Attribute("a", 0.0, 10_000.0),
        Attribute("b", 0.1, 0.7),
        Attribute("c", -3.0, 1000.0),
        Attribute("d", 0.0, 1.0),
    ],
)


@given(
    data=st.data(),
    base=st.sampled_from([2, 4]),
    dims=st.sets(st.integers(0, 3), min_size=1).map(sorted),
)
@settings(max_examples=150, deadline=None)
def test_repo_split_is_the_zone_box_on_the_split_dimension(data, base, dims):
    """Down one root-to-leaf path: at every level the (edge, width) the
    repo keeps equals the reference box on the split dimension bit for
    bit, and the pieces cut with it equal the pieces cut from the box."""
    geometry = ZoneGeometry(base=base, code_bits=12)
    entity = PubSubEntity("s", _SCHEME, dims, geometry)
    full_lo, full_hi = _SCHEME.domain_lows(), _SCHEME.domain_highs()
    code = 0
    for level in range(geometry.max_level):
        zone = ContentZone(code, level, geometry)
        zbox = ref.zone_box(zone, entity.domain_lows, entity.domain_highs)

        # a filter in the full space, overlapping the zone or not
        a = np.array([data.draw(st.floats(lo, hi)) for lo, hi in zip(full_lo, full_hi)])
        b = np.array([data.draw(st.floats(lo, hi)) for lo, hi in zip(full_lo, full_hi)])
        sf = (np.minimum(a, b), np.maximum(a, b))

        repo = ZoneRepo("s", zone, store=None)
        assert repo.split is None
        got = repo.child_pieces(entity, as_box(*sf))
        j = level % len(dims)
        edge, width = kept = repo.split
        assert type(edge) is float and type(width) is float
        assert same_bits([edge], [zbox[0][j]])
        assert same_bits([width], [(zbox[1][j] - zbox[0][j]) / base])

        want = ref.child_pieces(zone, sf, zbox, entity.dims)
        assert got.keys() == want.keys()
        for digit in want:
            assert same_bits(got[digit][0], want[digit][0])
            assert same_bits(got[digit][1], want[digit][1])
            assert float_tuples(got[digit])

        repo.child_pieces(entity, as_box(*sf))  # second cascade: nothing recomputed
        assert repo.split is kept
        # a zone that differs only along another dimension (here: in its
        # last digit) divides alike, and shares the tuple
        if level >= 1 and len(dims) > 1:
            sibling = ContentZone(code ^ 1, level, geometry)
            assert entity.child_split(sibling) is kept
        code = code * base + data.draw(st.integers(0, base - 1))


# ----------------------------------------------------------------------
# Float-tuple box arithmetic == the NumPy forms, bit for bit
# ----------------------------------------------------------------------

#: ±0.0 and ±inf come up often; equal bounds come from ``boxes``
#: drawing the same value twice.  No NaN: ``BoxStore.put`` refuses it
#: before any box reaches the summary filter.
_box2 = boxes(2)


def same_box(got, want):
    return (
        float_tuples(got) and same_bits(got[0], want[0]) and same_bits(got[1], want[1])
    )


@given(cur=st.one_of(st.none(), _box2), add=_box2)
@settings(max_examples=500)
def test_merge_box_is_minimum_maximum(cur, add):
    got, changed = merge_box(cur, add)
    want, want_changed = ref.merge_box(
        None if cur is None else tuple(np.array(side) for side in cur), add
    )
    assert same_box(got, want)
    assert changed is want_changed


@given(
    sf=boxes(3),
    j=st.integers(0, 2),
    edge=st.sampled_from(SPECIALS[1:-1]),
    width=st.sampled_from([0.5, 1.0, 2.5, 7.5]),
    base=st.sampled_from([2, 4]),
)
@settings(max_examples=500)
def test_split_pieces_is_the_array_cut(sf, j, edge, width, base):
    got = split_pieces(sf, j, edge, width, base)
    want = ref.split_pieces(sf, j, edge, width, base)
    assert got.keys() == want.keys()
    for digit in want:
        assert same_box(got[digit], want[digit])


@given(
    puts=st.lists(st.tuples(st.integers(0, 5), _box2), min_size=1, max_size=12),
    removed=st.sets(st.integers(0, 5)),
)
@settings(max_examples=300)
def test_bounding_box_is_fmin_over_the_columns(puts, removed):
    store = BoxStore(2)
    live = {}
    for k, box in puts:
        store.put(SubID(1, k), *box)
        live[k] = box
    for k in removed & set(live):
        store.remove(SubID(1, k))
        del live[k]
    if not live:
        assert store.bounding_box() is None
        return
    assert same_box(store.bounding_box(), ref.bounding_box(store._cols[:, : store._hwm]))
    assert store.bounding_box() == (
        tuple(min(lo[d] for lo, _ in live.values()) for d in range(2)),
        tuple(max(hi[d] for _, hi in live.values()) for d in range(2)),
    )
    for k, box in live.items():
        assert same_box(store.get_box(SubID(1, k)), box)


_maybe_box = st.one_of(
    st.none(), st.integers(0, 3).flatmap(boxes), st.integers(0, 3).flatmap(boxes)
)


@given(a=_maybe_box, b=_maybe_box)
@settings(max_examples=500)
def test_boxes_equal_is_array_equal_on_both_bounds(a, b):
    """-0.0 == 0.0, inf == inf, lengths must agree, and ``None`` equals
    only ``None`` -- what ``np.array_equal`` says."""
    want = ref.boxes_equal(
        *(None if x is None else tuple(np.array(side) for side in x) for x in (a, b))
    )
    assert boxes_equal(a, b) is want
    assert boxes_equal(b, a) is want
    if a is not None:
        assert boxes_equal(a, (tuple(a[0]), tuple(a[1])))
