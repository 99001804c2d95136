"""Unit + property tests for identifier-space arithmetic."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.idspace import (
    ID_SPACE,
    cw_distance,
    id_add,
    id_in_interval,
    id_sub,
    random_ids,
)

ids = st.integers(min_value=0, max_value=ID_SPACE - 1)


class TestBasicArithmetic:
    def test_add_wraps(self):
        assert id_add(ID_SPACE - 1, 1) == 0

    def test_sub_wraps(self):
        assert id_sub(0, 1) == ID_SPACE - 1

    def test_cw_distance_simple(self):
        assert cw_distance(10, 15) == 5
        assert cw_distance(15, 10) == ID_SPACE - 5
        assert cw_distance(7, 7) == 0


class TestInterval:
    def test_plain_open_interval(self):
        assert id_in_interval(5, 2, 9)
        assert not id_in_interval(2, 2, 9)
        assert not id_in_interval(9, 2, 9)

    def test_inclusive_endpoints(self):
        assert id_in_interval(2, 2, 9, incl_left=True)
        assert id_in_interval(9, 2, 9, incl_right=True)

    def test_wrapping_interval(self):
        hi = ID_SPACE - 3
        assert id_in_interval(1, hi, 5)
        assert id_in_interval(ID_SPACE - 1, hi, 5)
        assert not id_in_interval(100, hi, 5)

    def test_degenerate_full_ring(self):
        # left == right: everything except the endpoint is inside.
        assert id_in_interval(5, 9, 9)
        assert not id_in_interval(9, 9, 9)
        assert id_in_interval(9, 9, 9, incl_right=True)


@given(x=ids, left=ids, right=ids)
@settings(max_examples=300)
def test_interval_complement_property(x, left, right):
    """For left != right, (left, right] and (right, left] partition the
    ring minus nothing: every x is in exactly one of them."""
    if left == right:
        return
    in_a = id_in_interval(x, left, right, incl_right=True)
    in_b = id_in_interval(x, right, left, incl_right=True)
    assert in_a != in_b


@given(x=ids, left=ids, right=ids)
@settings(max_examples=300)
def test_interval_matches_linear_unrolling(x, left, right):
    """Cross-check circular membership against an unrolled number line."""
    if left == right:
        return
    span = cw_distance(left, right)
    offset = cw_distance(left, x)
    expected = 0 < offset < span
    assert id_in_interval(x, left, right) == expected


@given(a=ids, b=ids)
@settings(max_examples=300)
def test_cw_distance_antisymmetry(a, b):
    if a != b:
        assert cw_distance(a, b) + cw_distance(b, a) == ID_SPACE


@given(a=ids, b=ids)
@settings(max_examples=300)
def test_add_sub_roundtrip(a, b):
    assert id_sub(id_add(a, b), b) == a


class TestRandomIds:
    def test_count_and_distinct(self):
        out = random_ids(100, seed=3)
        assert len(out) == 100
        assert len(set(out)) == 100

    def test_deterministic(self):
        assert random_ids(50, seed=9) == random_ids(50, seed=9)

    def test_seed_sensitivity(self):
        assert random_ids(50, seed=9) != random_ids(50, seed=10)

    def test_in_range(self):
        for v in random_ids(200, seed=1):
            assert 0 <= v < ID_SPACE

    def test_not_sorted_by_addr(self):
        """Address order must not correlate with id rank."""
        out = random_ids(200, seed=1)
        assert out != sorted(out)
