"""Tests for summary-filter box arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.node import ZoneRepo
from repro.core.scheme import Attribute, Scheme
from repro.core.subscheme import PubSubEntity
from repro.core.summary import boxes_equal, child_pieces, merge_box
from repro.core.zones import ContentZone, ZoneGeometry
from tests import geometry_reference as ref
from tests.box_oracle import same_bits


def B(lo, hi):
    return np.array(lo, dtype=float), np.array(hi, dtype=float)


class TestMergeBox:
    def test_first_merge_initialises(self):
        merged, changed = merge_box(None, B([1, 2], [3, 4]))
        assert changed
        assert list(merged[0]) == [1, 2]

    def test_contained_addition_is_unchanged(self):
        cur = B([0, 0], [10, 10])
        merged, changed = merge_box(cur, B([2, 2], [3, 3]))
        assert not changed
        assert boxes_equal(merged, cur)

    def test_growth_detected(self):
        merged, changed = merge_box(B([0, 0], [10, 10]), B([5, 5], [15, 15]))
        assert changed
        assert list(merged[1]) == [15, 15]
        assert list(merged[0]) == [0, 0]

    def test_boundary_touch_is_unchanged(self):
        merged, changed = merge_box(B([0], [10]), B([10], [10]))
        assert not changed


class TestChildPieces:
    G = ZoneGeometry(base=2, code_bits=8)

    def test_straddling_filter_splits_into_both_children(self):
        zone = ContentZone.root(self.G)
        zbox = B([0, 0], [100, 100])
        sf = B([40, 10], [60, 20])
        pieces = child_pieces(zone, sf, zbox, entity_dims=[0, 1])
        assert set(pieces) == {0, 1}
        lo0, hi0 = pieces[0]
        assert hi0[0] == 50 and lo0[0] == 40
        lo1, hi1 = pieces[1]
        assert lo1[0] == 50 and hi1[0] == 60
        # Non-split dimension untouched.
        assert lo0[1] == 10 and hi0[1] == 20

    def test_one_sided_filter_yields_one_piece(self):
        zone = ContentZone.root(self.G)
        pieces = child_pieces(
            zone, B([10, 10], [20, 20]), B([0, 0], [100, 100]), entity_dims=[0, 1]
        )
        assert set(pieces) == {0}

    def test_split_dimension_advances_with_level(self):
        zone = ContentZone.root(self.G).child(0)  # level 1: splits dim 1
        zbox = B([0, 0], [50, 100])
        sf = B([10, 40], [20, 60])
        pieces = child_pieces(zone, sf, zbox, entity_dims=[0, 1])
        assert set(pieces) == {0, 1}
        assert pieces[0][1][1] == 50  # piece 0 clipped at y = 50

    def test_subscheme_dims_map_to_full_space(self):
        """Entity over full-dims [2, 3] of a 4-dim scheme: splitting
        must clip full dimension 2, never dimension 0."""
        zone = ContentZone.root(self.G)
        zbox = B([0, 0], [100, 100])  # projected space of dims (2, 3)
        sf = B([1, 2, 40, 3], [9, 8, 70, 7])  # full 4-dim filter
        pieces = child_pieces(zone, sf, zbox, entity_dims=[2, 3])
        assert set(pieces) == {0, 1}
        lo0, hi0 = pieces[0]
        assert hi0[2] == 50
        assert lo0[0] == 1 and hi0[0] == 9  # untouched dims pass through

    def test_base4_pieces(self):
        g4 = ZoneGeometry(base=4, code_bits=8)
        zone = ContentZone.root(g4)
        pieces = child_pieces(
            zone, B([10, 0], [90, 1]), B([0, 0], [100, 1]), entity_dims=[0, 1]
        )
        assert set(pieces) == {0, 1, 2, 3}
        assert pieces[1][0][0] == 25 and pieces[1][1][0] == 50


@given(
    lo=st.floats(0, 99, allow_nan=False),
    width=st.floats(0.01, 100, allow_nan=False),
)
@settings(max_examples=200)
def test_pieces_cover_filter_exactly(lo, width):
    """Union of pieces == sf (clipped to the zone box)."""
    g = ZoneGeometry(base=4, code_bits=8)
    zone = ContentZone.root(g)
    hi = min(lo + width, 100.0)
    sf = B([lo], [hi])
    pieces = child_pieces(zone, sf, B([0.0], [100.0]), entity_dims=[0])
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
        got_box = entity.zone_box_projected(zone)
        assert same_bits(got_box[0], zbox[0]) and same_bits(got_box[1], zbox[1])

        # a filter in the full space, overlapping the zone or not
        a = np.array([data.draw(st.floats(lo, hi)) for lo, hi in zip(full_lo, full_hi)])
        b = np.array([data.draw(st.floats(lo, hi)) for lo, hi in zip(full_lo, full_hi)])
        sf = (np.minimum(a, b), np.maximum(a, b))

        repo = ZoneRepo("s", zone, store=None)
        assert repo.split is None
        got = repo.child_pieces(entity, sf)
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
            assert got[digit][0] is not sf[0] and got[digit][1] is not sf[1]
        via_box = child_pieces(zone, sf, zbox, entity.dims)
        assert via_box.keys() == want.keys()
        for digit in want:
            assert same_bits(via_box[digit][0], want[digit][0])
            assert same_bits(via_box[digit][1], want[digit][1])

        repo.child_pieces(entity, sf)  # second cascade: nothing recomputed
        assert repo.split is kept
        # a zone that differs only along another dimension (here: in its
        # last digit) divides alike, and shares the tuple
        if level >= 1 and len(dims) > 1:
            sibling = ContentZone(code ^ 1, level, geometry)
            assert entity.child_split(sibling) is kept
        code = code * base + data.draw(st.integers(0, base - 1))


_EDGE_VALUES = [-np.inf, -1.5, -0.0, 0.0, 1.5, np.inf, np.nan]
_edge_arrays = st.lists(
    st.sampled_from(_EDGE_VALUES), min_size=0, max_size=3
).map(lambda v: np.array(v, dtype=np.float64))
_maybe_box = st.one_of(st.none(), st.tuples(_edge_arrays, _edge_arrays))


@given(a=_maybe_box, b=_maybe_box)
@settings(max_examples=500)
def test_boxes_equal_is_array_equal_on_both_bounds(a, b):
    """-0.0 == 0.0, inf == inf, NaN != NaN, shapes must agree, and
    ``None`` equals only ``None`` -- what ``np.array_equal`` said."""
    if a is None or b is None:
        want = a is b
    else:
        want = bool(np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1]))
    assert boxes_equal(a, b) is want
    assert boxes_equal(b, a) is want
    if a is not None and not np.isnan(a[0]).any() and not np.isnan(a[1]).any():
        assert boxes_equal(a, (a[0].copy(), a[1].copy()))
