"""Unit + property tests for the global sorted ring."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.idspace import ID_SPACE, cw_distance
from repro.dht.ring import SortedRing

small_ids = st.lists(
    st.integers(min_value=0, max_value=ID_SPACE - 1),
    min_size=1,
    max_size=30,
    unique=True,
)


def make_ring(ids):
    return SortedRing((node_id, i) for i, node_id in enumerate(ids))


class TestBasics:
    def test_add_and_lookup(self):
        ring = make_ring([10, 20, 30])
        assert len(ring) == 3
        assert 20 in ring
        assert ring.addr(20) == 1

    def test_duplicate_rejected(self):
        ring = make_ring([10])
        with pytest.raises(ValueError):
            ring.add(10, 5)

    def test_remove(self):
        ring = make_ring([10, 20])
        ring.remove(10)
        assert 10 not in ring
        with pytest.raises(KeyError):
            ring.remove(10)

    def test_addrs_follow_ids_by_position(self):
        ring = make_ring([30, 10, 20])
        assert (ring.ids, ring.addrs) == ([10, 20, 30], [1, 2, 0])
        ring.remove(20)
        ring.add(5, 7)
        assert (ring.ids, ring.addrs) == ([5, 10, 30], [7, 1, 0])

    def test_empty_queries_raise(self):
        ring = SortedRing()
        with pytest.raises(LookupError):
            ring.successor(5)
        with pytest.raises(LookupError):
            ring.predecessor(5)


class TestSuccessorPredecessor:
    def test_successor_basic(self):
        ring = make_ring([10, 20, 30])
        assert ring.successor(15) == 20
        assert ring.successor(20) == 20  # inclusive
        assert ring.successor(31) == 10  # wrap

    def test_predecessor_basic(self):
        ring = make_ring([10, 20, 30])
        assert ring.predecessor(15) == 10
        assert ring.predecessor(10) == 30  # strict, wraps
        assert ring.predecessor(5) == 30

    def test_single_node_owns_everything(self):
        ring = make_ring([100])
        assert ring.successor(0) == 100
        assert ring.successor(ID_SPACE - 1) == 100
        assert ring.predecessor(100) == 100

    def test_successor_list(self):
        ring = make_ring([10, 20, 30, 40])
        assert ring.successor_list(20, 2) == [30, 40]
        assert ring.successor_list(40, 3) == [10, 20, 30]

    def test_successor_list_excludes_self_and_caps(self):
        ring = make_ring([10, 20])
        assert ring.successor_list(10, 8) == [20]


@given(ids=small_ids, key=st.integers(min_value=0, max_value=ID_SPACE - 1))
@settings(max_examples=200)
def test_successor_is_first_cw_node(ids, key):
    """successor(key) minimises clockwise distance from key."""
    ring = make_ring(ids)
    succ = ring.successor(key)
    d = cw_distance(key, succ)
    assert all(cw_distance(key, other) >= d for other in ids)


@given(ids=small_ids, key=st.integers(min_value=0, max_value=ID_SPACE - 1))
@settings(max_examples=200)
def test_predecessor_successor_adjacency(ids, key):
    """No node lives strictly between predecessor(key) and successor(key)."""
    ring = make_ring(ids)
    succ = ring.successor(key)
    pred = ring.predecessor(key)
    if len(ids) == 1:
        assert pred == succ
        return
    for other in ids:
        if other in (pred, succ):
            continue
        # other must not lie in the clockwise arc (pred, succ)
        assert not (
            0 < cw_distance(pred, other) < cw_distance(pred, succ)
        ), (pred, other, succ)
