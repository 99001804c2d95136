"""Tests for the subscription covering/aggregation store and for
summary filters at system level.

Unit coverage of :class:`repro.core.covering.CoveringStore` (refcounted
memberships, merge profitability, fusion, shrink-on-remove) and a
Hypothesis equivalence property against the naive :class:`BoxStore`
under arbitrary put/remove/pop interleavings -- the class is
store-level only, no config selects it.  At system level, on the
default configuration: an injected index kind delivers exactly what the
``BoxStore`` does, and after unsubscribes shrink the summary filters
deliveries are exactly the brute-force match set.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.covering import CoveringStore
from repro.core.matching import BoxStore
from repro.core.subscription import SubID


def cov(waste=0.5, dims=2):
    return CoveringStore(BoxStore(dims), merge_max_waste=waste)


def box(lo, hi):
    return np.array(lo, dtype=float), np.array(hi, dtype=float)


class TestAggregation:
    def test_covered_box_adds_no_physical_entry(self):
        s = cov()
        s.put(SubID(1, 1), *box([0, 0], [10, 10]))
        s.put(SubID(2, 1), *box([2, 2], [8, 8]))
        assert len(s) == 2
        assert s.index_size() == 1

    def test_disjoint_boxes_stay_separate(self):
        s = cov()
        s.put(SubID(1, 1), *box([0, 0], [1, 1]))
        s.put(SubID(2, 1), *box([50, 50], [51, 51]))
        assert s.index_size() == 2

    def test_merge_profitable_union(self):
        # Near-identical boxes: union expansion well under 1.5.
        s = cov(waste=0.5)
        s.put(SubID(1, 1), *box([0, 0], [10, 10]))
        s.put(SubID(2, 1), *box([1, 1], [11, 11]))
        assert s.index_size() == 1
        lo, hi = s.bounding_box()
        assert list(lo) == [0, 0] and list(hi) == [11, 11]

    def test_zero_waste_admits_only_exact_covering(self):
        s = cov(waste=0.0)
        s.put(SubID(1, 1), *box([0, 0], [10, 10]))
        s.put(SubID(2, 1), *box([1, 1], [11, 11]))  # would need growth
        assert s.index_size() == 2
        s.put(SubID(3, 1), *box([2, 2], [3, 3]))  # exactly covered
        assert s.index_size() == 2
        assert len(s) == 3

    def test_wide_box_fuses_earlier_small_aggregates(self):
        # A surrogate-subscription-shaped wide box arrives after many
        # contained boxes: match_box fusion must collapse them into it.
        s = cov(waste=0.5)
        for i in range(8):
            s.put(SubID(1, i), *box([i, i], [i + 0.5, i + 0.5]))
        assert s.index_size() == 8
        s.put(SubID(2, 0), *box([-1, -1], [9, 9]))
        assert len(s) == 9
        assert s.index_size() == 1

    def test_get_box_returns_true_member_box(self):
        s = cov()
        s.put(SubID(1, 1), *box([0, 0], [10, 10]))
        s.put(SubID(2, 1), *box([2, 2], [8, 8]))
        lo, hi = s.get_box(SubID(2, 1))
        assert list(lo) == [2, 2] and list(hi) == [8, 8]

    def test_match_resolves_members_exactly(self):
        s = cov()
        s.put(SubID(1, 1), *box([0, 0], [10, 10]))
        s.put(SubID(2, 1), *box([2, 2], [4, 4]))
        hits = sorted(x.nid for x in s.match_point(np.array([3.0, 3.0])))
        assert hits == [1, 2]
        # Inside the aggregate box but outside member 2's true box.
        assert [x.nid for x in s.match_point(np.array([9.0, 9.0]))] == [1]

    def test_unbounded_dimensions(self):
        s = cov()
        s.put(SubID(1, 1), *box([-np.inf, 0], [np.inf, 10]))
        s.put(SubID(2, 1), *box([0, -np.inf], [10, np.inf]))
        hits = sorted(x.nid for x in s.match_point(np.array([5.0, 5.0])))
        assert hits == [1, 2]
        assert [x.nid for x in s.match_point(np.array([1e9, 5.0]))] == [1]


class TestMutation:
    def test_remove_keeps_other_members(self):
        s = cov()
        s.put(SubID(1, 1), *box([0, 0], [10, 10]))
        s.put(SubID(2, 1), *box([2, 2], [8, 8]))
        s.remove(SubID(1, 1))
        assert len(s) == 1
        assert [x.nid for x in s.match_point(np.array([3.0, 3.0]))] == [2]

    def test_remove_missing_raises(self):
        s = cov()
        with pytest.raises(KeyError):
            s.remove(SubID(9, 9))

    def test_remove_shrinks_aggregate_box(self):
        # Summary filters are bounding boxes over the index: dropping
        # the wide member must tighten what bounding_box reports.
        s = cov()
        s.put(SubID(1, 1), *box([0, 0], [100, 100]))
        s.put(SubID(2, 1), *box([1, 1], [2, 2]))
        s.remove(SubID(1, 1))
        lo, hi = s.bounding_box()
        assert list(lo) == [1, 1] and list(hi) == [2, 2]

    def test_put_replaces_existing_id(self):
        s = cov()
        s.put(SubID(1, 1), *box([0, 0], [1, 1]))
        s.put(SubID(1, 1), *box([50, 50], [51, 51]))
        assert len(s) == 1
        assert not s.match_point(np.array([0.5, 0.5]))
        assert s.match_point(np.array([50.5, 50.5]))

    def test_pop_matching_returns_true_boxes(self):
        s = cov()
        s.put(SubID(1, 1), *box([0, 0], [10, 10]))
        s.put(SubID(2, 1), *box([2, 2], [8, 8]))
        popped = s.pop_matching(lambda sid: sid.nid == 2)
        assert len(popped) == 1
        sid, lo, hi = popped[0]
        assert sid == SubID(2, 1)
        assert list(lo) == [2, 2] and list(hi) == [8, 8]
        assert len(s) == 1 and SubID(1, 1) in s

    def test_invalid_inputs(self):
        s = cov()
        with pytest.raises(ValueError, match="NaN"):
            s.put(SubID(1, 1), *box([0, np.nan], [1, 1]))
        with pytest.raises(ValueError, match="extent"):
            s.put(SubID(1, 1), *box([5, 5], [1, 1]))
        with pytest.raises(ValueError, match="shape"):
            s.put(SubID(1, 1), np.zeros(3), np.ones(3))
        with pytest.raises(ValueError, match="non-negative"):
            CoveringStore(BoxStore(2), merge_max_waste=-0.1)
        assert len(s) == 0


# ----------------------------------------------------------------------
# Property: CoveringStore === naive BoxStore under any interleaving
# ----------------------------------------------------------------------
coord = st.one_of(
    st.floats(0, 100, allow_nan=False, width=32).map(float),
    st.sampled_from([float("-inf"), float("inf")]),
)
ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("put"),
            st.integers(0, 11),
            st.tuples(coord, coord),
            st.tuples(coord, coord),
        ),
        st.tuples(st.just("remove"), st.integers(0, 11)),
        st.tuples(st.just("pop"), st.integers(0, 3)),
        st.tuples(
            st.just("query"),
            st.tuples(
                st.floats(0, 100, allow_nan=False),
                st.floats(0, 100, allow_nan=False),
            ),
        ),
    ),
    min_size=1,
    max_size=60,
)


@pytest.mark.parametrize("waste", [0.0, 0.5, 4.0])
@given(operations=ops)
@settings(max_examples=150, deadline=None)
def test_covering_equals_naive_under_any_sequence(waste, operations):
    naive = BoxStore(2)
    layered = cov(waste=waste)
    for op in operations:
        if op[0] == "put":
            _tag, key, xs, ys = op
            lo = np.array([min(xs), min(ys)])
            hi = np.array([max(xs), max(ys)])
            sid = SubID(key, 0)
            naive.put(sid, lo, hi)
            layered.put(sid, lo, hi)
        elif op[0] == "remove":
            sid = SubID(op[1], 0)
            if sid in naive:
                naive.remove(sid)
                layered.remove(sid)
        elif op[0] == "pop":
            residue = op[1]
            a = naive.pop_matching(lambda s: s.nid % 4 == residue)
            b = layered.pop_matching(lambda s: s.nid % 4 == residue)
            key_of = lambda t: (t[0].nid, t[0].iid)  # noqa: E731
            a, b = sorted(a, key=key_of), sorted(b, key=key_of)
            assert [t[0] for t in a] == [t[0] for t in b]
            for (_, alo, ahi), (_, blo, bhi) in zip(a, b):
                assert np.array_equal(alo, blo) and np.array_equal(ahi, bhi)
        else:
            p = np.array(op[1])
            got = sorted(layered.match_point(p), key=lambda s: (s.nid, s.iid))
            want = sorted(naive.match_point(p), key=lambda s: (s.nid, s.iid))
            assert got == want
    assert len(naive) == len(layered)
    assert layered.index_size() <= max(1, len(naive))
    assert sorted(naive.subids()) == sorted(layered.subids())


# ----------------------------------------------------------------------
# System level: summary filters and an injected index kind, judged on
# the default configuration (no config field selects covering)
# ----------------------------------------------------------------------
def _populated_system(make_store=None):
    from repro.core.config import HyperSubConfig
    from repro.core.system import HyperSubSystem
    from repro.workloads import WorkloadGenerator, default_paper_spec

    system = HyperSubSystem(num_nodes=40, config=HyperSubConfig(seed=1))
    if make_store is not None:
        system.make_store = make_store
    gen = WorkloadGenerator(default_paper_spec(subs_per_node=5), seed=7)
    system.add_scheme(gen.scheme)
    installed = gen.populate(system)
    system.finish_setup()
    return system, gen, installed


def _run_delivery_system(**kwargs):
    system, gen, _installed = _populated_system(**kwargs)
    gen.schedule_events(system, count=60)
    system.run_until_idle()
    deliveries = sorted(
        (eid, sid.nid, sid.iid, addr)
        for eid, rec in system.metrics.records.items()
        for sid, addr, _hops, _lat in rec.deliveries
    )
    return system, deliveries


class TestSystemParity:
    @pytest.mark.parametrize("kind", ["grid"])
    def test_matching_index_preserves_every_delivery(self, kind):
        from repro.core.indexing import GridIndex

        def grid_store(entity):  # no config selects the grid: inject it
            s = entity.scheme
            return GridIndex(s.dimensions, s.domain_lows(), s.domain_highs())

        _, base = _run_delivery_system()
        system, got = _run_delivery_system(make_store=grid_store)
        repos = [r for n in system.nodes for r in n.zone_repos.values()]
        assert all(type(r.store) is GridIndex for r in repos)
        assert got == base
        assert base  # the workload actually delivered something

    def test_grow_only_ablation_same_deliveries(self):
        # Filters always shrink, so there is no never-shrink run to
        # compare with: the judge is the brute-force match set, after
        # unsubscribes have tightened filters and withdrawn markers.
        system, gen, installed = _populated_system()

        def markers():
            return sum(n.stored_subscription_count("marker") for n in system.nodes)

        before = markers()
        for i in range(0, len(installed), 3):
            system.unsubscribe(i // 5, installed[i][1])  # populate(): 5 per node
        live = [pair for i, pair in enumerate(installed) if i % 3]
        system.run_until_idle()
        assert markers() < before
        delivered = 0
        for i in range(60):
            ev = gen.event()
            eid = system.publish(i % 40, ev)
            system.run_until_idle()
            got = {d[0] for d in system.metrics.records[eid].deliveries}
            assert got == {sid for sub, sid in live if sub.matches(ev)}
            assert len(got) == len(system.metrics.records[eid].deliveries)
            delivered += len(got)
        assert delivered > 0

    def test_summary_filters_cover_live_boxes(self):
        # Shrink mode recomputes sf after removals; correctness bar: sf
        # must always contain the bounding box of what is registered.
        system, _ = _run_delivery_system()
        checked = 0
        for node in system.nodes:
            for repo in node.zone_repos.values():
                bb = repo.store.bounding_box()
                if bb is None or repo.sf is None:
                    continue
                lo, hi = bb
                assert np.all(repo.sf[0] <= lo) and np.all(hi <= repo.sf[1])
                checked += 1
        assert checked > 0
