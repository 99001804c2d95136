"""Unit + property tests for content zones and locality-preserving hashing.

The property tests pin down the delivery invariant everything rests on:
for any point p inside a box b, ``lph_point(p)`` descends from
``lph_box(b)``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lph import lph_box, lph_box_floats, lph_point
from repro.core.scheme import Attribute, Scheme
from repro.core.subscheme import PubSubEntity
from repro.core.zones import ContentZone, ZoneGeometry, zone_key
from repro.dht.idspace import ID_SPACE
from tests import geometry_reference as ref
from tests.box_oracle import same_bits


G2 = ZoneGeometry(base=2, code_bits=20)
G4 = ZoneGeometry(base=4, code_bits=20)
G_SMALL = ZoneGeometry(base=2, code_bits=8)


class TestZoneGeometry:
    def test_paper_configurations(self):
        assert G2.max_level == 20
        assert G4.max_level == 10

    def test_non_power_of_two_base_rejected(self):
        with pytest.raises(ValueError):
            ZoneGeometry(base=3, code_bits=20)

    def test_indivisible_code_bits_rejected(self):
        with pytest.raises(ValueError):
            ZoneGeometry(base=16, code_bits=21)

    def test_bits_per_digit(self):
        assert G2.bits_per_digit == 1
        assert G4.bits_per_digit == 2


class TestZoneKey:
    def test_root_key_is_max_of_code_field(self):
        # Root: code padded entirely with (base-1)s, low bits all ones.
        assert zone_key(0, 0, G2) == ID_SPACE - 1

    def test_paper_formula(self):
        # key(cz) = (code+1) * base^(m-level) - 1, shifted to the top bits.
        for code, level in [(0, 1), (1, 1), (5, 4), (2**19 - 1, 19)]:
            expected_code = (code + 1) * 2 ** (20 - level) - 1
            assert zone_key(code, level, G2) >> 44 == expected_code

    def test_leaf_key_is_code_itself(self):
        key = zone_key(0b1010, 20, ZoneGeometry(base=2, code_bits=20))
        assert key >> 44 == 0b1010

    def test_key_is_last_id_of_zone_arc(self):
        """A zone's key must be >= the key of every descendant."""
        z = ContentZone(1, 1, G_SMALL)
        for child in z.children():
            assert child.key <= z.key

    def test_invalid_code_rejected(self):
        with pytest.raises(ValueError):
            zone_key(4, 1, G2)  # level-1 base-2 codes are 0 or 1
        with pytest.raises(ValueError):
            zone_key(0, 25, G2)


class TestContentZone:
    def test_parent_child_roundtrip(self):
        z = ContentZone(0b101, 3, G_SMALL)
        assert z.child(1).parent() == z
        assert ContentZone.root(G_SMALL).parent() is None

    def test_digits(self):
        z = ContentZone(0b101, 3, G_SMALL)
        assert z.digits() == [1, 0, 1]
        assert ContentZone.root(G_SMALL).digits() == []

    def test_leaf_has_no_children(self):
        leaf = ContentZone(0, G_SMALL.max_level, G_SMALL)
        assert leaf.is_leaf
        with pytest.raises(ValueError):
            leaf.child(0)

    def test_box_partitions_space(self):
        dom_lo = np.array([0.0, 0.0])
        dom_hi = np.array([8.0, 4.0])
        root = ContentZone.root(G_SMALL)
        # level-1 children split dimension 0 in half
        c0, c1 = root.child(0), root.child(1)
        b0 = ref.zone_box(c0, dom_lo, dom_hi)
        b1 = ref.zone_box(c1, dom_lo, dom_hi)
        assert list(b0[0]) == [0, 0] and list(b0[1]) == [4, 4]
        assert list(b1[0]) == [4, 0] and list(b1[1]) == [8, 4]

    def test_split_dimension_cycles(self):
        z = ContentZone.root(G_SMALL)
        assert z.split_dimension(3) == 0
        assert z.child(0).split_dimension(3) == 1
        assert z.child(0).child(0).split_dimension(3) == 2
        assert z.child(0).child(0).child(0).split_dimension(3) == 0


class TestLPHBasics:
    dom_lo = np.array([0.0, 0.0])
    dom_hi = np.array([100.0, 100.0])

    def test_tiny_box_goes_deep(self):
        z = lph_box(
            np.array([10.0, 10.0]),
            np.array([10.1, 10.1]),
            self.dom_lo,
            self.dom_hi,
            G_SMALL,
        )
        assert z.level == G_SMALL.max_level

    def test_straddling_box_stays_at_root(self):
        z = lph_box(
            np.array([49.0, 49.0]),
            np.array([51.0, 51.0]),
            self.dom_lo,
            self.dom_hi,
            G_SMALL,
        )
        assert z.level == 0

    def test_half_space_box(self):
        z = lph_box(
            np.array([0.0, 0.0]),
            np.array([49.0, 100.0]),
            self.dom_lo,
            self.dom_hi,
            G_SMALL,
        )
        assert z.level == 1
        assert z.digits() == [0]

    def test_domain_top_boundary_covered(self):
        """A box touching the very top of the domain must still descend."""
        z = lph_box(
            np.array([99.0, 99.0]),
            np.array([100.0, 100.0]),
            self.dom_lo,
            self.dom_hi,
            G_SMALL,
        )
        assert z.level >= 6

    def test_point_maps_to_leaf(self):
        z = lph_point(np.array([10.0, 10.0]), self.dom_lo, self.dom_hi, G_SMALL)
        assert z.is_leaf

    def test_point_at_domain_top(self):
        z = lph_point(np.array([100.0, 100.0]), self.dom_lo, self.dom_hi, G_SMALL)
        assert z.is_leaf
        assert all(d == 1 for d in z.digits())

    def test_out_of_domain_rejected(self):
        with pytest.raises(ValueError):
            lph_point(np.array([101.0, 0.0]), self.dom_lo, self.dom_hi, G_SMALL)
        with pytest.raises(ValueError):
            lph_box(
                np.array([0.0, -1.0]),
                np.array([1.0, 1.0]),
                self.dom_lo,
                self.dom_hi,
                G_SMALL,
            )

    def test_deterministic(self):
        a = lph_box(
            np.array([3.0, 7.0]), np.array([5.0, 9.0]), self.dom_lo, self.dom_hi, G2
        )
        b = lph_box(
            np.array([3.0, 7.0]), np.array([5.0, 9.0]), self.dom_lo, self.dom_hi, G2
        )
        assert a == b


# ----------------------------------------------------------------------
# Property tests
# ----------------------------------------------------------------------

coords = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False, width=64)


def _box_strategy(dims):
    return st.tuples(
        st.lists(coords, min_size=dims, max_size=dims),
        st.lists(coords, min_size=dims, max_size=dims),
    ).map(
        lambda t: (
            np.minimum(np.array(t[0]), np.array(t[1])),
            np.maximum(np.array(t[0]), np.array(t[1])),
        )
    )


@given(box=_box_strategy(3), u=st.lists(st.floats(0, 1), min_size=3, max_size=3))
@settings(max_examples=300)
def test_point_in_box_maps_into_subscription_zone(box, u):
    """THE delivery invariant: leaf(point) descends from zone(box)."""
    dom_lo = np.zeros(3)
    dom_hi = np.full(3, 1000.0)
    lows, highs = box
    point = lows + np.array(u) * (highs - lows)
    point = np.clip(point, lows, highs)
    geometry = ZoneGeometry(base=2, code_bits=12)
    sub_zone = lph_box(lows, highs, dom_lo, dom_hi, geometry)
    leaf = lph_point(point, dom_lo, dom_hi, geometry)
    while leaf.level > sub_zone.level:
        leaf = leaf.parent()
    assert leaf == sub_zone


@given(box=_box_strategy(2))
@settings(max_examples=300)
def test_zone_box_covers_subscription_box(box):
    """The mapped zone's hyper-rectangle contains the subscription."""
    dom_lo = np.zeros(2)
    dom_hi = np.full(2, 1000.0)
    lows, highs = box
    geometry = ZoneGeometry(base=4, code_bits=12)
    zone = lph_box(lows, highs, dom_lo, dom_hi, geometry)
    z_lo, z_hi = ref.zone_box(zone, dom_lo, dom_hi)
    assert np.all(z_lo <= lows + 1e-9)
    assert np.all(z_hi >= highs - 1e-9)


@given(
    u=st.lists(st.floats(0, 1), min_size=2, max_size=2),
    base_pow=st.sampled_from([2, 4, 16]),
)
@settings(max_examples=300)
def test_leaf_zones_partition_points(u, base_pow):
    """Every point maps to exactly one leaf, whose box contains it."""
    dom_lo = np.zeros(2)
    dom_hi = np.full(2, 1000.0)
    point = np.array(u) * 1000.0
    geometry = ZoneGeometry(base=base_pow, code_bits=12)
    leaf = lph_point(point, dom_lo, dom_hi, geometry)
    z_lo, z_hi = ref.zone_box(leaf, dom_lo, dom_hi)
    assert np.all(z_lo <= point + 1e-9)
    assert np.all(point <= z_hi + 1e-9)


@given(box=_box_strategy(2))
@settings(max_examples=200)
def test_zone_is_smallest_cover(box):
    """No child of the mapped zone also covers the box (minimality)."""
    dom_lo = np.zeros(2)
    dom_hi = np.full(2, 1000.0)
    lows, highs = box
    geometry = ZoneGeometry(base=2, code_bits=10)
    zone = lph_box(lows, highs, dom_lo, dom_hi, geometry)
    if zone.is_leaf:
        return
    for child in zone.children():
        c_lo, c_hi = ref.zone_box(child, dom_lo, dom_hi)
        j = zone.split_dimension(2)
        # "covers" uses the strict-upper-bound convention of lph_box.
        covers = lows[j] >= c_lo[j] and (
            highs[j] < c_hi[j] or c_hi[j] >= dom_hi[j]
        )
        assert not covers, "lph_box returned a non-minimal zone"


@given(codes=st.integers(min_value=0, max_value=2**8 - 1))
@settings(max_examples=200)
def test_keys_unique_per_level(codes):
    """Distinct zones at the same level get distinct keys."""
    g = ZoneGeometry(base=2, code_bits=8)
    other = (codes + 1) % 2**8
    assert zone_key(codes, 8, g) != zone_key(other, 8, g)


# ----------------------------------------------------------------------
# Float arithmetic == the NumPy digit replay (tests/geometry_reference.py)
# ----------------------------------------------------------------------

#: domains whose segment edges are exact in binary, and ones where every
#: division rounds
DOMAINS = [(0.0, 10_000.0), (0.0, 1.0), (0.1, 0.7), (-3.0, 1000.0), (-1e-3, 1e9)]


@st.composite
def spaces(draw):
    """(geometry, domain_lows, domain_highs) for base 2/4 and 1-4 dims."""
    base = draw(st.sampled_from([2, 4]))
    digits = draw(st.integers(1, 10))
    geometry = ZoneGeometry(base=base, code_bits=digits * geometry_bits(base))
    dims = draw(st.integers(1, 4))
    bounds = [draw(st.sampled_from(DOMAINS)) for _ in range(dims)]
    dom_lo = np.array([b[0] for b in bounds])
    dom_hi = np.array([b[1] for b in bounds])
    return geometry, dom_lo, dom_hi


def geometry_bits(base):
    return base.bit_length() - 1


@st.composite
def zones_in(draw, geometry, max_level=None):
    level = draw(st.integers(0, geometry.max_level if max_level is None else max_level))
    code = draw(st.integers(0, geometry.base**level - 1))
    return ContentZone(code, level, geometry)


@st.composite
def coordinates(draw, geometry, dom_lo, dom_hi):
    """One coordinate per dimension: anywhere in the domain, exactly on
    a segment boundary of some zone, or on the domain top."""
    edges = ref.zone_box(draw(zones_in(geometry)), dom_lo, dom_hi)
    out = []
    for j in range(len(dom_lo)):
        out.append(
            draw(
                st.one_of(
                    st.floats(dom_lo[j], dom_hi[j]),
                    st.sampled_from(
                        [edges[0][j], edges[1][j], dom_lo[j], dom_hi[j]]
                    ),
                )
            )
        )
    return np.array(out)


@given(data=st.data(), space=spaces())
@settings(max_examples=300, deadline=None)
def test_split_segment_is_the_box_on_the_split_dimension(data, space):
    geometry, dom_lo, dom_hi = space
    zone = data.draw(zones_in(geometry, max_level=geometry.max_level - 1))
    z_lo, z_hi = ref.zone_box(zone, dom_lo, dom_hi)
    j = zone.split_dimension(len(dom_lo))
    edge, width = zone.split_segment(dom_lo.tolist(), dom_hi.tolist())
    assert type(edge) is float and type(width) is float
    assert same_bits([edge], [z_lo[j]])
    assert same_bits([width], [(z_hi[j] - z_lo[j]) / geometry.base])


@given(data=st.data(), space=spaces())
@settings(max_examples=400, deadline=None)
def test_lph_point_equals_numpy_replay(data, space):
    geometry, dom_lo, dom_hi = space
    point = data.draw(coordinates(geometry, dom_lo, dom_hi))
    zone = lph_point(point, dom_lo, dom_hi, geometry)
    assert (zone.code, zone.level) == ref.lph_point(point, dom_lo, dom_hi, geometry)


@st.composite
def boxes(draw, geometry, dom_lo, dom_hi):
    """``(lows, highs)`` arrays from two drawn coordinates; one draw in
    four is zero-width (a point box)."""
    a = draw(coordinates(geometry, dom_lo, dom_hi))
    b = a if draw(st.integers(0, 3)) == 0 else draw(coordinates(geometry, dom_lo, dom_hi))
    return np.minimum(a, b), np.maximum(a, b)


def float_tuples(*arrays):
    return [tuple(a.tolist()) for a in arrays]


@given(data=st.data(), space=spaces())
@settings(max_examples=400, deadline=None)
def test_lph_box_equals_numpy_replay(data, space):
    """The array entry point and the float loop behind it agree with
    the NumPy replay."""
    geometry, dom_lo, dom_hi = space
    lows, highs = data.draw(boxes(geometry, dom_lo, dom_hi))
    want = ref.lph_box(lows, highs, dom_lo, dom_hi, geometry)
    zone = lph_box(lows, highs, dom_lo, dom_hi, geometry)
    assert (zone.code, zone.level) == want
    zone = lph_box_floats(*float_tuples(lows, highs, dom_lo, dom_hi), geometry)
    assert (zone.code, zone.level) == want


@st.composite
def entities(draw):
    """``(entity, scheme domain lows, highs)``: a scheme of 1-5
    dimensions and an entity over a drawn subset of them -- every
    dimension (no projection) or a proper subscheme."""
    base = draw(st.sampled_from([2, 4]))
    digits = draw(st.integers(1, 10))
    geometry = ZoneGeometry(base=base, code_bits=digits * geometry_bits(base))
    n = draw(st.integers(1, 5))
    bounds = [draw(st.sampled_from(DOMAINS)) for _ in range(n)]
    scheme = Scheme("s", [Attribute(f"a{j}", lo, hi) for j, (lo, hi) in enumerate(bounds)])
    dims = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    entity = PubSubEntity("s", scheme, dims, geometry)
    return entity, scheme.domain_lows(), scheme.domain_highs()


@given(data=st.data(), drawn=entities())
@settings(max_examples=300, deadline=None)
def test_entity_zone_of_box_equals_numpy_replay_on_its_dims(data, drawn):
    """``PubSubEntity.zone_of_box`` takes a box over every dimension of
    the scheme and hashes its projection onto the entity's dimensions:
    the same ``(code, level)`` as the replay of the projected arrays, or
    the same named error."""
    entity, dom_lo, dom_hi = drawn
    dims = entity.dims
    geometry = entity.geometry
    lows, highs = data.draw(boxes(geometry, dom_lo[dims], dom_hi[dims]))
    # the other dimensions hold anything in their domain
    full_lo, full_hi = dom_lo.copy(), dom_hi.copy()
    full_lo[dims], full_hi[dims] = lows, highs
    nudge = data.draw(st.sampled_from(["none", "none", "below", "above", "inverted"]))
    j = int(dims[data.draw(st.integers(0, len(dims) - 1))])
    if nudge == "below":
        full_lo[j] = np.nextafter(dom_lo[j], -np.inf)
    elif nudge == "above":
        full_hi[j] = np.nextafter(dom_hi[j], np.inf)
    elif nudge == "inverted":
        full_lo[j], full_hi[j] = dom_hi[j], dom_lo[j]
    want = _error_of(
        ref.lph_box, full_lo[dims], full_hi[dims], dom_lo[dims], dom_hi[dims], geometry
    ) or ref.lph_box(full_lo[dims], full_hi[dims], dom_lo[dims], dom_hi[dims], geometry)
    got = _error_of(entity.zone_of_box, *float_tuples(full_lo, full_hi))
    if got is None:
        zone = entity.zone_of_box(*float_tuples(full_lo, full_hi))
        got = (zone.code, zone.level)
    assert got == want


G4_SHORT = ZoneGeometry(base=4, code_bits=8)


@pytest.mark.parametrize(
    "geometry, dom, lows, highs",
    [
        # zero width, on an internal segment edge (owned by the right segment)
        (G_SMALL, [(0.0, 100.0)] * 2, [50.0, 25.0], [50.0, 25.0]),
        # zero width on the domain top: the top segment owns it at every level
        (G_SMALL, [(0.0, 100.0)] * 2, [100.0, 100.0], [100.0, 100.0]),
        # a box ending exactly on a segment edge stays above it
        (G_SMALL, [(0.0, 100.0)] * 2, [0.0, 0.0], [50.0, 25.0]),
        # a box ending on the domain top still descends
        (G_SMALL, [(0.0, 100.0)] * 2, [75.0, 87.5], [100.0, 100.0]),
        # non-dyadic domains: every division rounds
        (G_SMALL, [(0.1, 0.7), (-3.0, 1000.0)], [0.4, 496.5], [0.4, 496.5]),
        (G_SMALL, [(0.1, 0.7), (-1e-3, 1e9)], [0.1, -1e-3], [0.25, 5e8]),
        # base 4: edges at quarters, the top quarter owns the domain top
        (G4_SHORT, [(0.0, 100.0)] * 2, [25.0, 75.0], [25.0, 75.0]),
        (G4_SHORT, [(0.0, 100.0)] * 2, [75.0, 75.0], [100.0, 100.0]),
        (G4_SHORT, [(0.1, 0.7), (0.0, 1.0)], [0.25, 0.5], [0.4, 0.75]),
        # named errors: outside the space, negative extent, wrong arity
        (G_SMALL, [(0.0, 100.0)] * 2, [-1.0, 0.0], [1.0, 1.0]),
        (G4_SHORT, [(0.0, 100.0)] * 2, [5.0, 0.0], [4.0, 1.0]),
        (G_SMALL, [(0.0, 100.0)] * 2, [1.0], [2.0]),
    ],
)
def test_lph_box_floats_edge_cases_match_the_reference(geometry, dom, lows, highs):
    dom_lo = np.array([lo for lo, _hi in dom])
    dom_hi = np.array([hi for _lo, hi in dom])
    lows, highs = np.array(lows), np.array(highs)
    if len(lows) != len(dom_lo):
        want = "box and content space differ in dimensions"
    else:
        want = _error_of(ref.lph_box, lows, highs, dom_lo, dom_hi, geometry)
        if want is None:
            want = ref.lph_box(lows, highs, dom_lo, dom_hi, geometry)
    for fn, args in [
        (lph_box, (lows, highs, dom_lo, dom_hi)),
        (lph_box_floats, float_tuples(lows, highs, dom_lo, dom_hi)),
    ]:
        got = _error_of(fn, *args, geometry)
        if got is None:
            zone = fn(*args, geometry)
            got = (zone.code, zone.level)
        assert got == want


def _error_of(fn, *args):
    try:
        fn(*args)
    except ValueError as exc:
        return str(exc)
    return None


@given(
    data=st.data(),
    space=spaces(),
    nudge=st.sampled_from(["below", "above", "inverted", "nan", "none"]),
)
@settings(max_examples=300, deadline=None)
def test_illegal_inputs_raise_the_same_named_errors(data, space, nudge):
    """Out-of-domain and negative-extent inputs: same ValueError, same
    message, same precedence as the NumPy forms (NaN compares false
    everywhere, so it passes the range checks in both)."""
    geometry, dom_lo, dom_hi = space
    a = data.draw(coordinates(geometry, dom_lo, dom_hi))
    b = data.draw(coordinates(geometry, dom_lo, dom_hi))
    lows, highs = np.minimum(a, b), np.maximum(a, b)
    j = data.draw(st.integers(0, len(dom_lo) - 1))
    if nudge == "below":
        lows[j] = np.nextafter(dom_lo[j], -np.inf)
    elif nudge == "above":
        highs[j] = np.nextafter(dom_hi[j], np.inf)
    elif nudge == "inverted":
        lows[j], highs[j] = dom_hi[j], dom_lo[j]
    elif nudge == "nan":
        lows[j] = np.nan

    want = _error_of(ref.lph_box, lows, highs, dom_lo, dom_hi, geometry)
    assert _error_of(lph_box, lows, highs, dom_lo, dom_hi, geometry) == want
    floats = float_tuples(lows, highs, dom_lo, dom_hi)
    assert _error_of(lph_box_floats, *floats, geometry) == want
    if nudge in ("below", "above"):
        assert want == "box lies outside the content space"
    elif nudge == "inverted":
        assert want == "box has negative extent"
    elif nudge == "none":
        assert want is None

    point = highs if nudge == "above" else lows
    want = _error_of(ref.lph_point, point, dom_lo, dom_hi, geometry)
    assert _error_of(lph_point, point, dom_lo, dom_hi, geometry) == want
    if nudge in ("below", "above"):
        assert want == "point lies outside the content space"


def test_geometry_derives_its_constants_once():
    g = ZoneGeometry(base=4, code_bits=20)
    assert vars(g) == {"base": 4, "code_bits": 20, "bits_per_digit": 2, "max_level": 10}
    # derived fields take no part in identity
    assert g == ZoneGeometry(4, 20) and hash(g) == hash(ZoneGeometry(4, 20))
    assert repr(g) == "ZoneGeometry(base=4, code_bits=20)"
    with pytest.raises(TypeError):
        ZoneGeometry(4, 20, 2)
