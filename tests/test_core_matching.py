"""Unit + property tests for the vectorised box store."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.covering import CoveringStore
from repro.core.indexing import BandIndex, GridIndex
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

    def test_costs_what_it_holds(self):
        """One column to start with, doubled on demand; no free list
        before the first removal; slots handed out newest tombstone
        first, then fresh ones ascending -- the order hits come in."""
        s = BoxStore(2)
        assert s._cols.shape == (4, 1) and s._subids == [] and s._free is None
        everything = box([-np.inf] * 2, [np.inf] * 2)
        capacities = []
        for i in range(33):
            s.put(SubID(1, i), *box([i, -i], [i + 1, 0]))
            capacities.append(s._cols.shape[1])
        assert sorted(set(capacities)) == [1, 2, 4, 8, 16, 32, 64]
        assert s._free is None and len(s._subids) == 33
        for i in (3, 20, 7):
            s.remove(SubID(1, i))
        assert s._free == [3, 20, 7]
        for i in (100, 101, 102, 103):
            s.put(SubID(2, i), *box([i, i], [i, i]))
        assert s._free == [] and s._cols.shape[1] == 64
        assert [s._slot_of[SubID(2, i)] for i in (100, 101, 102, 103)] == [7, 20, 3, 33]
        hits = s.match_box(*everything)
        assert [s._slot_of[h] for h in hits] == list(range(34))
        lo, hi = s.bounding_box()
        assert lo.tolist() == [0.0, -32.0] and hi.tolist() == [103.0, 103.0]
        popped = s.pop_matching(lambda sid: sid.nid == 2)
        assert [sid.iid for sid, _, _ in popped] == [100, 101, 102, 103]
        assert s._free == [7, 20, 3, 33]

    def test_stores_of_one_width_share_the_query_column(self):
        a, b, wide = BoxStore(2), BandIndex(2), BoxStore(3)
        assert a._query is b._query is not wide._query
        a.put(SubID(1, 1), *box([0, 0], [1, 1]))
        b.put(SubID(2, 2), *box([5, 5], [6, 6]))
        wide.put(SubID(3, 3), *box([0, 0, 0], [9, 9, 9]))
        for _ in range(2):
            assert a.match_point(np.array([0.5, 0.5])) == [SubID(1, 1)]
            assert b.match_point(np.array([0.5, 0.5])) == []
            assert wide.match_point(np.array([5.5, 5.5, 5.5])) == [SubID(3, 3)]
            assert b.match_point(np.array([5.5, 5.5])) == [SubID(2, 2)]
            assert a.match_box(*box([1, 1], [5, 5])) == [SubID(1, 1)]

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
# State machine: a store === the pure-Python dict-of-boxes oracle of
# tests/box_oracle.py under any interleaving of put / replace / remove /
# pop_matching, growth from one column and slot recycling included.
# Run over BoxStore, over the two indexes that inherit its layout and
# over the CoveringStore that wraps one.
# ----------------------------------------------------------------------
class BoxStoreMachine(RuleBasedStateMachine):
    DIMS = 2
    #: hits and ``pop_matching`` come in slot / insertion order (else
    #: the same ids in an order the store's own structures decide)
    POINT_HITS_ORDERED = True
    POPS_ORDERED = True
    HAS_MATCH_BOX = True

    @classmethod
    def make_store(cls):
        return BoxStore(cls.DIMS)

    def __init__(self):
        super().__init__()
        self.store = self.make_store()
        self.oracle = {}
        # Independent model of slot allocation: the most recently freed
        # slot is reused first, otherwise the next never-used one.  The
        # order of every packet's entries (and so every digest) rests
        # on it.
        self.slot = {}
        self.freed = []
        self.fresh = 0
        # A second store of the same width, only ever put to (so its
        # slots are its insertion order): same-width stores share one
        # query column, and a query on one must not leak into the other.
        self.twin = self.make_store()
        self.twin_oracle = {}

    def release(self, sid):
        del self.oracle[sid]
        self.freed.append(self.slot.pop(sid))

    def in_slot_order(self, sids):
        return sorted(sids, key=self.slot.__getitem__)

    def expect_hits(self, got, expected, ordered):
        if ordered:
            assert got == self.in_slot_order(expected)
        else:
            assert len(got) == len(expected) and set(got) == expected

    # Up to two dozen boxes per step: runs pass 16 live slots, four
    # doublings of the one column a store starts with, and a fifth.
    @rule(
        items=st.lists(
            st.tuples(st.integers(0, 23), boxes(DIMS)), min_size=1, max_size=24
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

    @rule(key=st.integers(0, 23), b=boxes(DIMS))
    def put_twin(self, key, b):
        self.twin.put(SubID(key, 1), np.array(b[0]), np.array(b[1]))
        self.twin_oracle[SubID(key, 1)] = b

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

    @rule(key=st.integers(0, 23), b=boxes(DIMS))
    def remove_then_put_again(self, key, b):
        """Recycling: the id comes back in the slot the model says --
        the newest tombstone -- which the ordered queries then see."""
        if SubID(key, 0) in self.oracle:
            self.remove(key)
        self.put([(key, b)])

    @rule(modulus=st.integers(1, 4), residue=st.integers(0, 3))
    def pop_matching(self, modulus, residue):
        popped = self.store.pop_matching(lambda s: s.nid % modulus == residue)
        expected = [s for s in self.oracle if s.nid % modulus == residue]
        got = [sid for sid, _, _ in popped]
        if self.POPS_ORDERED:
            assert got == expected  # insertion order
        else:
            assert sorted(got) == sorted(expected)
        for sid, lo, hi in popped:
            assert same_bits(lo, self.oracle[sid][0])
            assert same_bits(hi, self.oracle[sid][1])
            self.release(sid)

    @rule(
        point=st.tuples(*[query_coord] * DIMS),
        twin_point=st.tuples(*[query_coord] * DIMS),
    )
    def match_point(self, point, twin_point):
        twin_before = self.twin.match_point(np.array(twin_point))
        got = self.store.match_point(np.array(point))
        assert self.twin.match_point(np.array(twin_point)) == twin_before
        self.expect_hits(
            got, oracle_match_point(self.oracle, point), self.POINT_HITS_ORDERED
        )
        twin_expected = oracle_match_point(self.twin_oracle, twin_point)
        if self.POINT_HITS_ORDERED:
            assert twin_before == [s for s in self.twin_oracle if s in twin_expected]
        else:
            assert set(twin_before) == twin_expected

    @precondition(lambda self: self.HAS_MATCH_BOX)
    @rule(a=st.tuples(*[bound] * DIMS), b=st.tuples(*[bound] * DIMS))
    def match_box(self, a, b):
        qlo, qhi = np.minimum(a, b), np.maximum(a, b)
        got = self.store.match_box(qlo, qhi)
        assert got == self.in_slot_order(
            oracle_match_box(self.oracle, qlo, qhi)
        )

    @precondition(lambda self: self.HAS_MATCH_BOX)
    @rule()
    def match_everything(self):
        inf = np.full(self.DIMS, np.inf)
        assert self.store.match_box(-inf, inf) == self.in_slot_order(
            self.oracle
        )

    @invariant()
    def agrees_with_oracle(self):
        check_against_oracle(self.store, self.oracle)


class EagerBandIndex(BandIndex):
    _MIN_INDEXED = 4  # build the bitsets at the sizes the machine reaches


class BandIndexMachine(BoxStoreMachine):
    @classmethod
    def make_store(cls):
        return EagerBandIndex(cls.DIMS)


class GridIndexMachine(BoxStoreMachine):
    POINT_HITS_ORDERED = False  # candidates come out of a set

    @classmethod
    def make_store(cls):
        return GridIndex(
            cls.DIMS, [-10.0] * cls.DIMS, [10.0] * cls.DIMS, cells_per_dim=4
        )


class CoveringStoreMachine(BoxStoreMachine):
    # Hits come aggregate by aggregate, a replaced id moves to the back,
    # and there is no box query.
    POINT_HITS_ORDERED = False
    POPS_ORDERED = False
    HAS_MATCH_BOX = False

    @classmethod
    def make_store(cls):
        return CoveringStore(BoxStore(cls.DIMS), merge_max_waste=0.5)


_machine_settings = settings(max_examples=150, stateful_step_count=40, deadline=None)
for _machine in (
    BoxStoreMachine, BandIndexMachine, GridIndexMachine, CoveringStoreMachine
):
    _machine.TestCase.settings = _machine_settings
TestBoxStoreMachine = BoxStoreMachine.TestCase
TestBandIndexMachine = BandIndexMachine.TestCase
TestGridIndexMachine = GridIndexMachine.TestCase
TestCoveringStoreMachine = CoveringStoreMachine.TestCase
