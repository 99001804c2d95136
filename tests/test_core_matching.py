"""Unit + property tests for the vectorised box store."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.matching import BoxStore
from repro.core.subscription import SubID
from tests.box_oracle import (
    bound,
    boxes,
    check_against_oracle,
    oracle_match_box,
    oracle_match_point,
    query_coord,
    same_bits,
)


def box(lo, hi):
    return np.array(lo, dtype=float), np.array(hi, dtype=float)


class TestBasics:
    def test_put_and_match(self):
        s = BoxStore(2)
        s.put(SubID(1, 1), *box([0, 0], [10, 10]))
        s.put(SubID(2, 1), *box([5, 5], [15, 15]))
        assert sorted(x.nid for x in s.match_point(np.array([7.0, 7.0]))) == [1, 2]
        assert [x.nid for x in s.match_point(np.array([1.0, 1.0]))] == [1]
        assert s.match_point(np.array([20.0, 20.0])) == []

    def test_bounds_are_inclusive(self):
        s = BoxStore(1)
        s.put(SubID(1, 1), *box([5], [10]))
        assert s.match_point(np.array([5.0]))
        assert s.match_point(np.array([10.0]))
        assert not s.match_point(np.array([10.0001]))

    def test_put_replaces(self):
        s = BoxStore(1)
        s.put(SubID(1, 1), *box([0], [1]))
        s.put(SubID(1, 1), *box([10], [11]))
        assert len(s) == 1
        assert not s.match_point(np.array([0.5]))
        assert s.match_point(np.array([10.5]))

    def test_remove(self):
        s = BoxStore(1)
        s.put(SubID(1, 1), *box([0], [1]))
        s.remove(SubID(1, 1))
        assert len(s) == 0
        assert not s.match_point(np.array([0.5]))
        with pytest.raises(KeyError):
            s.remove(SubID(1, 1))

    def test_slot_reuse_after_remove(self):
        s = BoxStore(1)
        for i in range(50):
            s.put(SubID(1, i), *box([i], [i + 0.5]))
        for i in range(0, 50, 2):
            s.remove(SubID(1, i))
        for i in range(100, 125):
            s.put(SubID(2, i), *box([i], [i + 0.5]))
        assert len(s) == 50
        assert s.match_point(np.array([100.2]))
        assert not s.match_point(np.array([0.2]))

    def test_growth_beyond_initial_capacity(self):
        s = BoxStore(2)
        for i in range(100):
            s.put(SubID(1, i), *box([i, i], [i + 1, i + 1]))
        assert len(s) == 100
        hits = s.match_point(np.array([50.5, 50.5]))
        assert [h.iid for h in hits] == [50]

    def test_get_box(self):
        s = BoxStore(2)
        s.put(SubID(3, 7), *box([1, 2], [3, 4]))
        lo, hi = s.get_box(SubID(3, 7))
        assert list(lo) == [1, 2] and list(hi) == [3, 4]

    def test_invalid_inputs(self):
        s = BoxStore(2)
        with pytest.raises(ValueError):
            s.put(SubID(1, 1), np.array([1.0]), np.array([2.0]))
        with pytest.raises(ValueError, match="negative extent"):
            s.put(SubID(1, 1), *box([5, 5], [1, 1]))
        with pytest.raises(ValueError):
            BoxStore(0)

    def test_bounding_box(self):
        s = BoxStore(2)
        assert s.bounding_box() is None
        s.put(SubID(1, 1), *box([0, 5], [1, 6]))
        s.put(SubID(1, 2), *box([10, 0], [11, 1]))
        lo, hi = s.bounding_box()
        assert list(lo) == [0, 0] and list(hi) == [11, 6]

    def test_bounding_box_ignores_removed(self):
        s = BoxStore(1)
        s.put(SubID(1, 1), *box([0], [1]))
        s.put(SubID(1, 2), *box([100], [101]))
        s.remove(SubID(1, 2))
        lo, hi = s.bounding_box()
        assert hi[0] == 1

    def test_nan_bounds_rejected(self):
        # NaN never compares True: a NaN box would match nothing while
        # poisoning the summary filter -- rejection must be by name.
        s = BoxStore(2)
        with pytest.raises(ValueError, match="NaN"):
            s.put(SubID(1, 1), *box([0, np.nan], [1, 1]))
        with pytest.raises(ValueError, match="NaN"):
            s.put(SubID(1, 1), *box([0, 0], [1, np.nan]))
        assert len(s) == 0
        assert s.bounding_box() is None

    def test_infinite_bounds_stay_legal(self):
        # ±inf means "unspecified dimension" -- the whole domain.
        s = BoxStore(2)
        s.put(SubID(1, 1), *box([-np.inf, 0], [np.inf, 1]))
        assert s.match_point(np.array([1e18, 0.5]))
        assert not s.match_point(np.array([0.0, 2.0]))

    def test_all_infinite_match_box_skips_tombstones(self):
        # A tombstone poisoned with +inf would satisfy ``inf <= inf``
        # and come back as a ``None`` subid.
        s = BoxStore(2)
        for i in range(5):
            s.put(SubID(i, 1), *box([i, i], [i + 1, i + 1]))
        s.remove(SubID(1, 1))
        s.remove(SubID(3, 1))
        everything = s.match_box(
            np.array([-np.inf, -np.inf]), np.array([np.inf, np.inf])
        )
        assert [x.nid for x in everything] == [0, 2, 4]

    def test_pop_matching(self):
        s = BoxStore(1)
        for i in range(10):
            s.put(SubID(i, 1), *box([i], [i + 1]))
        popped = s.pop_matching(lambda sid: sid.nid < 5)
        assert len(popped) == 5
        assert len(s) == 5
        assert all(sid.nid >= 5 for sid in s.subids())
        # The single pass must hand back the true bounds and release
        # the slots for reuse.
        assert sorted((sid.nid, lo[0], hi[0]) for sid, lo, hi in popped) == [
            (i, float(i), float(i + 1)) for i in range(5)
        ]
        s.put(SubID(99, 1), *box([50], [51]))
        assert s.match_point(np.array([50.5]))

    def test_index_size_equals_len_for_plain_store(self):
        s = BoxStore(1)
        s.put(SubID(1, 1), *box([0], [1]))
        s.put(SubID(2, 1), *box([2], [3]))
        assert s.index_size() == len(s) == 2

    def test_match_box(self):
        s = BoxStore(2)
        s.put(SubID(1, 1), *box([0, 0], [10, 10]))
        s.put(SubID(2, 1), *box([20, 20], [30, 30]))
        hits = [x.nid for x in s.match_box(np.array([9.0, 9.0]), np.array([15.0, 15.0]))]
        assert hits == [1]
        # Closed intervals: touching edges overlap.
        hits = [x.nid for x in s.match_box(np.array([10.0, 10.0]), np.array([20.0, 20.0]))]
        assert sorted(hits) == [1, 2]
        assert s.match_box(np.array([11.0, 11.0]), np.array([19.0, 19.0])) == []


# ----------------------------------------------------------------------
# Property: BoxStore.match_point === brute-force containment
# ----------------------------------------------------------------------

entries = st.lists(
    st.tuples(
        st.integers(0, 1000),  # nid
        st.lists(st.floats(0, 100, allow_nan=False), min_size=2, max_size=2),
        st.lists(st.floats(0, 100, allow_nan=False), min_size=2, max_size=2),
    ),
    min_size=0,
    max_size=40,
)


@given(
    data=entries,
    point=st.lists(st.floats(0, 100, allow_nan=False), min_size=2, max_size=2),
    removals=st.sets(st.integers(0, 39)),
)
@settings(max_examples=200)
def test_match_equals_bruteforce(data, point, removals):
    store = BoxStore(2)
    reference = {}
    for i, (nid, a, b) in enumerate(data):
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        sid = SubID(nid, i)
        store.put(sid, lo, hi)
        reference[sid] = (lo, hi)
    for i in removals:
        sid = next((s for s in reference if s.iid == i), None)
        if sid is not None:
            store.remove(sid)
            del reference[sid]
    p = np.array(point)
    expected = sorted(
        (sid for sid, (lo, hi) in reference.items() if np.all(lo <= p) and np.all(p <= hi)),
        key=lambda s: (s.nid, s.iid),
    )
    got = sorted(store.match_point(p), key=lambda s: (s.nid, s.iid))
    assert got == expected


@given(
    data=entries,
    qa=st.lists(st.floats(0, 100, allow_nan=False), min_size=2, max_size=2),
    qb=st.lists(st.floats(0, 100, allow_nan=False), min_size=2, max_size=2),
)
@settings(max_examples=200)
def test_match_box_equals_bruteforce(data, qa, qb):
    store = BoxStore(2)
    reference = {}
    for i, (nid, a, b) in enumerate(data):
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        sid = SubID(nid, i)
        store.put(sid, lo, hi)
        reference[sid] = (lo, hi)
    qlo = np.minimum(qa, qb)
    qhi = np.maximum(qa, qb)
    expected = sorted(
        (
            sid
            for sid, (lo, hi) in reference.items()
            if np.all(lo <= qhi) and np.all(qlo <= hi)
        ),
        key=lambda s: (s.nid, s.iid),
    )
    got = sorted(store.match_box(qlo, qhi), key=lambda s: (s.nid, s.iid))
    assert got == expected


# ----------------------------------------------------------------------
# State machine: BoxStore === the pure-Python dict-of-boxes oracle of
# tests/box_oracle.py under any interleaving of put / replace / remove /
# pop_matching, growth and slot recycling included.
# ----------------------------------------------------------------------
class BoxStoreMachine(RuleBasedStateMachine):
    DIMS = 2

    def __init__(self):
        super().__init__()
        self.store = BoxStore(self.DIMS)
        self.oracle = {}
        # Independent model of slot allocation: the most recently freed
        # slot is reused first, otherwise the next never-used one.  The
        # order of every packet's entries (and so every digest) rests
        # on it.
        self.slot = {}
        self.freed = []
        self.fresh = 0

    def release(self, sid):
        del self.oracle[sid]
        self.freed.append(self.slot.pop(sid))

    def in_slot_order(self, sids):
        return sorted(sids, key=self.slot.__getitem__)

    # Several boxes per step, so runs outgrow the initial capacity of 8.
    @rule(
        items=st.lists(
            st.tuples(st.integers(0, 23), boxes(DIMS)), min_size=1, max_size=8
        )
    )
    def put(self, items):
        for key, b in items:
            sid = SubID(key, 0)
            self.store.put(sid, np.array(b[0]), np.array(b[1]))
            if sid not in self.oracle:
                if self.freed:
                    self.slot[sid] = self.freed.pop()
                else:
                    self.slot[sid] = self.fresh
                    self.fresh += 1
            self.oracle[sid] = b

    @rule(key=st.integers(0, 23), b=boxes(DIMS), dim=st.integers(0, DIMS - 1),
          flaw=st.sampled_from(["nan-low", "nan-high", "inverted", "shape"]))
    def rejected_put_changes_nothing(self, key, b, dim, flaw):
        lo, hi = list(b[0]), list(b[1])
        if flaw == "nan-low":
            lo[dim], message = math.nan, "NaN"
        elif flaw == "nan-high":
            hi[dim], message = math.nan, "NaN"
        elif flaw == "inverted":
            lo[dim], hi[dim], message = 3.0, 2.0, "negative extent"
        else:
            lo, message = lo + [0.0], "shape"
        with pytest.raises(ValueError, match=message):
            self.store.put(SubID(key, 0), np.array(lo), np.array(hi))

    @rule(key=st.integers(0, 23))
    def remove(self, key):
        sid = SubID(key, 0)
        if sid in self.oracle:
            self.store.remove(sid)
            self.release(sid)
        else:
            with pytest.raises(KeyError):
                self.store.remove(sid)

    @rule(modulus=st.integers(1, 4), residue=st.integers(0, 3))
    def pop_matching(self, modulus, residue):
        popped = self.store.pop_matching(lambda s: s.nid % modulus == residue)
        expected = [s for s in self.oracle if s.nid % modulus == residue]
        assert [sid for sid, _, _ in popped] == expected  # insertion order
        for sid, lo, hi in popped:
            assert same_bits(lo, self.oracle[sid][0])
            assert same_bits(hi, self.oracle[sid][1])
            self.release(sid)

    @rule(point=st.tuples(*[query_coord] * DIMS))
    def match_point(self, point):
        got = self.store.match_point(np.array(point))
        assert got == self.in_slot_order(oracle_match_point(self.oracle, point))

    @rule(a=st.tuples(*[bound] * DIMS), b=st.tuples(*[bound] * DIMS))
    def match_box(self, a, b):
        qlo, qhi = np.minimum(a, b), np.maximum(a, b)
        got = self.store.match_box(qlo, qhi)
        assert got == self.in_slot_order(
            oracle_match_box(self.oracle, qlo, qhi)
        )

    @rule()
    def match_everything(self):
        inf = np.full(self.DIMS, np.inf)
        assert self.store.match_box(-inf, inf) == self.in_slot_order(
            self.oracle
        )

    @invariant()
    def agrees_with_oracle(self):
        check_against_oracle(self.store, self.oracle)


BoxStoreMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
TestBoxStoreMachine = BoxStoreMachine.TestCase
