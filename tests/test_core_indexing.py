"""Tests for the grid and band matching indexes (equivalence with the
linear store and with the pure-Python oracle of tests/box_oracle.py)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.indexing import BandIndex, GridIndex
from repro.core.matching import BoxStore
from repro.core.subscription import SubID
from tests.box_oracle import boxes, check_against_oracle, oracle_match_point

DOM_LO = np.array([0.0, 0.0, 0.0])
DOM_HI = np.array([100.0, 100.0, 100.0])


def grid(cells=8):
    return GridIndex(3, DOM_LO, DOM_HI, cells_per_dim=cells)


class TestBasics:
    def test_put_and_match(self):
        g = grid()
        g.put(SubID(1, 1), np.array([0.0, 0.0, 0.0]), np.array([10.0, 10.0, 10.0]))
        g.put(SubID(2, 1), np.array([50.0, 50.0, 0.0]), np.array([60.0, 60.0, 100.0]))
        assert [s.nid for s in g.match_point(np.array([5.0, 5.0, 5.0]))] == [1]
        assert [s.nid for s in g.match_point(np.array([55.0, 55.0, 99.0]))] == [2]
        assert g.match_point(np.array([90.0, 90.0, 90.0])) == []

    def test_replace_moves_buckets(self):
        g = grid()
        g.put(SubID(1, 1), np.array([0.0, 0.0, 0.0]), np.array([5.0, 5.0, 5.0]))
        g.put(SubID(1, 1), np.array([90.0, 90.0, 0.0]), np.array([99.0, 99.0, 5.0]))
        assert not g.match_point(np.array([2.0, 2.0, 2.0]))
        assert g.match_point(np.array([95.0, 95.0, 2.0]))
        assert len(g) == 1

    def test_remove_clears_buckets(self):
        g = grid()
        g.put(SubID(1, 1), np.array([0.0, 0.0, 0.0]), np.array([99.0, 99.0, 99.0]))
        g.remove(SubID(1, 1))
        assert g.match_point(np.array([50.0, 50.0, 50.0])) == []
        assert not g._buckets  # no leaked bucket entries

    def test_bounding_box_inherited(self):
        g = grid()
        g.put(SubID(1, 1), np.array([10.0, 20.0, 30.0]), np.array([11.0, 21.0, 31.0]))
        lo, hi = g.bounding_box()
        assert list(lo) == [10, 20, 30]

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            GridIndex(2, [0.0, 0.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            GridIndex(2, [0.0], [1.0])
        with pytest.raises(ValueError):
            GridIndex(2, [0.0, 0.0], [1.0, 1.0], cells_per_dim=0)

    def test_one_dimensional_grid(self):
        g = GridIndex(1, [0.0], [10.0], cells_per_dim=4)
        g.put(SubID(1, 1), np.array([2.0]), np.array([3.0]))
        assert g.match_point(np.array([2.5]))
        assert not g.match_point(np.array([9.0]))

    def test_query_at_domain_boundaries(self):
        g = grid()
        g.put(SubID(1, 1), np.array([95.0, 95.0, 0.0]), np.array([100.0, 100.0, 100.0]))
        assert g.match_point(np.array([100.0, 100.0, 50.0]))

    def test_infinite_bounds_are_legal(self):
        # Regression: ``int(inf)`` in ``_cell_of`` raised OverflowError
        # on the "unspecified dimension" boxes BoxStore.put documents.
        g = GridIndex(2, [0.0, 0.0], [10.0, 10.0], cells_per_dim=4)
        g.put(SubID(1, 1), np.array([-np.inf, 0.0]), np.array([np.inf, 5.0]))
        g.put(SubID(2, 1), np.array([6.0, 6.0]), np.array([np.inf, np.inf]))
        assert [s.nid for s in g.match_point(np.array([0.5, 2.0]))] == [1]
        assert [s.nid for s in g.match_point(np.array([9.5, 2.0]))] == [1]
        assert [s.nid for s in g.match_point(np.array([1e9, 1e9]))] == [2]
        assert g.match_point(np.array([3.0, 7.0])) == []
        g.remove(SubID(1, 1))
        g.remove(SubID(2, 1))
        assert not g._buckets


@pytest.mark.parametrize("kind", ["linear", "grid", "bands"])
def test_nan_coordinate_matches_nothing(kind):
    # Regression: GridIndex raised ValueError (int(nan)) where the
    # linear store answered [].
    if kind == "grid":
        store = grid()
    else:
        store = {"linear": BoxStore, "bands": BandIndex}[kind](3)
    for i in range(80):  # enough for the band index to build
        store.put(SubID(i, 1), np.full(3, -np.inf), np.full(3, np.inf))
    assert len(store.match_point(np.array([1.0, 2.0, 3.0]))) == 80
    for d in range(3):
        p = np.array([1.0, 2.0, 3.0])
        p[d] = np.nan
        assert store.match_point(p) == []


class TestBands:
    def test_unbounded_dimensions(self):
        b = BandIndex(2)
        b.put(SubID(1, 1), np.array([-np.inf, 0.0]), np.array([np.inf, 10.0]))
        b.put(SubID(2, 1), np.array([0.0, -np.inf]), np.array([5.0, np.inf]))
        hits = sorted(s.nid for s in b.match_point(np.array([1.0, 1.0])))
        assert hits == [1, 2]
        assert [s.nid for s in b.match_point(np.array([50.0, 5.0]))] == [1]

    def test_churn_rebuild_consistency(self):
        # Enough mutations to push the index through its lazy-rebuild
        # and delta-scan phases repeatedly; answers must track linear.
        rng = np.random.default_rng(2)
        linear, bands = BoxStore(3), BandIndex(3)
        live = []
        for i in range(600):
            if live and rng.random() < 0.35:
                sid = live.pop(int(rng.integers(len(live))))
                linear.remove(sid)
                bands.remove(sid)
            else:
                sid = SubID(int(rng.integers(1000)), i)
                lo = rng.uniform(0, 90, 3)
                hi = lo + rng.uniform(0, 20, 3)
                linear.put(sid, lo, hi)
                bands.put(sid, lo, hi)
                live.append(sid)
            if i % 7 == 0:
                p = rng.uniform(0, 100, 3)
                key = lambda s: (s.nid, s.iid)  # noqa: E731
                assert sorted(bands.match_point(p), key=key) == sorted(
                    linear.match_point(p), key=key
                )
        assert len(bands) == len(linear)

    def test_pop_matching_keeps_index_consistent(self):
        b = BandIndex(2)
        for i in range(40):
            b.put(SubID(i, 1), np.array([i, 0.0]), np.array([i + 0.5, 1.0]))
        popped = b.pop_matching(lambda sid: sid.nid % 2 == 0)
        assert len(popped) == 20
        assert not b.match_point(np.array([10.2, 0.5]))
        assert b.match_point(np.array([11.2, 0.5]))


class TestFactory:
    def test_linear(self):
        # the one kind a zone repository holds
        from repro.core import Attribute, HyperSubConfig, HyperSubSystem, Scheme

        system = HyperSubSystem(num_nodes=4, config=HyperSubConfig(code_bits=8))
        (entity,) = system.add_scheme(
            Scheme("f", [Attribute(n, 0, 10) for n in "abcd"])
        )
        s = system.make_store(entity)
        assert type(s) is BoxStore and s.dims == 4

    # No config selects the index classes; they stay drop-in BoxStores
    # because the benchmarks build them by name.
    def test_bands(self):
        assert isinstance(BandIndex(3), BoxStore)

    def test_grid(self):
        assert isinstance(grid(), BoxStore)

    def test_grid_needs_bounds(self):
        with pytest.raises(ValueError, match="one entry per dim"):
            GridIndex(3, DOM_LO[:2], DOM_HI)


# ----------------------------------------------------------------------
# Property: every store kind === the pure-Python oracle (and hence one
# another) under any operation sequence
# ----------------------------------------------------------------------
coord = st.one_of(
    st.floats(0, 100, width=32),
    st.sampled_from([-math.inf, -0.0, 0.0, 100.0, math.inf]),
)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, 11), boxes(3, coord)),
        st.tuples(st.just("remove"), st.integers(0, 11)),
        st.tuples(st.just("pop"), st.integers(2, 4)),
        st.tuples(
            st.just("query"),
            st.tuples(*[st.one_of(coord, st.just(math.nan))] * 3),
        ),
    ),
    min_size=1,
    max_size=50,
)


@pytest.mark.parametrize("kind", ["grid", "bands"])
@given(operations=ops)
@settings(max_examples=200, deadline=None)
def test_index_equals_linear_under_any_sequence(kind, operations):
    linear = BoxStore(3)
    indexed = grid(cells=5) if kind == "grid" else BandIndex(3)
    # Let a dozen boxes build the band index, so the bitset, delta and
    # stale-slot paths all run (the default threshold is 64 entries).
    indexed._MIN_INDEXED = 4
    oracle = {}
    for op in operations:
        if op[0] == "put":
            _tag, key, (lo, hi) = op
            sid = SubID(key, 0)
            for store in (linear, indexed):
                store.put(sid, np.array(lo), np.array(hi))
            oracle[sid] = (lo, hi)
        elif op[0] == "remove":
            sid = SubID(op[1], 0)
            if sid in oracle:
                linear.remove(sid)
                indexed.remove(sid)
                del oracle[sid]
        elif op[0] == "pop":
            gone = {s for s in oracle if s.nid % op[1] == 0}
            for store in (linear, indexed):
                popped = store.pop_matching(lambda s: s.nid % op[1] == 0)
                assert {s for s, _, _ in popped} == gone
            for sid in gone:
                del oracle[sid]
        else:
            p = np.array(op[1])
            expected = oracle_match_point(oracle, op[1])
            for store in (linear, indexed):
                got = store.match_point(p)
                assert len(got) == len(set(got))
                assert set(got) == expected
    check_against_oracle(linear, oracle)
    check_against_oracle(indexed, oracle)
