"""Tests for the latency models, including King-like calibration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.topology import (
    LATENCY_MEMO_PER_NODE,
    ConstantTopology,
    ExplicitTopology,
    KingLikeTopology,
    _pair_jitter,
    _pair_jitter_vec,
)


class TestConstantTopology:
    def test_rtt_is_constant_off_diagonal(self):
        topo = ConstantTopology(5, rtt=42.0)
        assert topo.rtt_ms(0, 1) == 42.0
        assert topo.rtt_ms(4, 2) == 42.0

    def test_self_rtt_zero(self):
        topo = ConstantTopology(5, rtt=42.0)
        assert topo.rtt_ms(3, 3) == 0.0

    def test_latency_is_half_rtt(self):
        topo = ConstantTopology(5, rtt=42.0)
        assert topo.latency_ms(0, 1) == 21.0

    def test_out_of_range_rejected(self):
        topo = ConstantTopology(3)
        with pytest.raises(IndexError):
            topo.rtt_ms(0, 3)

    def test_rtt_many(self):
        topo = ConstantTopology(4, rtt=10.0)
        out = topo.rtt_many(1, [0, 1, 2, 3])
        assert list(out) == [10.0, 0.0, 10.0, 10.0]


class TestLatencyMemo:
    """``latency_ms`` memoises ``rtt_ms / 2`` per link (unordered pair)."""

    def test_bit_identical_to_half_rtt_and_symmetric(self):
        topo = KingLikeTopology(60, seed=5)
        for a in range(0, 60, 7):
            for b in range(60):
                first = topo.latency_ms(a, b)
                expected = 0.0 if a == b else topo.rtt_ms(a, b) / 2.0
                # == on floats: the memo must return the same bits,
                # cold, warm, and from the opposite direction
                assert first == expected
                assert topo.latency_ms(a, b) == expected
                assert topo.latency_ms(b, a) == expected
                assert type(first) is float

    def test_warm_lookup_skips_rtt(self):
        """One entry per link: the reverse direction hits the entry the
        forward one made, and a different link misses."""
        topo = ConstantTopology(4, rtt=42.0)
        assert topo.latency_ms(0, 1) == 21.0
        topo._rtt = 999.0  # a pure-function violation only a miss would see
        assert topo.latency_ms(0, 1) == 21.0
        assert topo.latency_ms(1, 0) == 21.0
        assert topo.latency_ms(2, 1) == 499.5
        assert topo.latency_ms(1, 2) == 499.5
        # one int per link, ``hi * hi + lo``
        assert sorted(topo._latency_memo) == [1 * 1 + 0, 2 * 2 + 1]

    def test_every_link_has_its_own_memo_key(self):
        n = 30  # 435 links, under the memo's bound of 16 per node
        topo = ConstantTopology(n, rtt=10.0)
        for a in range(n):
            for b in range(n):
                topo.latency_ms(a, b)
        assert len(topo._latency_memo) == n * (n - 1) // 2

    def test_memo_is_bounded(self):
        topo = ConstantTopology(6, rtt=10.0)
        for _ in range(3):
            for a in range(6):
                for b in range(6):
                    assert topo.latency_ms(a, b) == (0.0 if a == b else 5.0)
                    assert len(topo._latency_memo) <= LATENCY_MEMO_PER_NODE * 6


class TestExplicitTopology:
    def test_round_trip_values(self):
        m = np.array([[0.0, 5.0], [5.0, 0.0]])
        topo = ExplicitTopology(m)
        assert topo.rtt_ms(0, 1) == 5.0
        assert topo.size == 2

    def test_asymmetric_rejected(self):
        m = np.array([[0.0, 5.0], [6.0, 0.0]])
        with pytest.raises(ValueError):
            ExplicitTopology(m)

    def test_one_ulp_off_symmetric_rejected(self):
        """Symmetry is exact: the link memo would otherwise make a
        latency depend on which direction was asked first."""
        m = np.array([[0.0, 5.0], [np.nextafter(5.0, np.inf), 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            ExplicitTopology(m)

    def test_nonzero_diagonal_rejected(self):
        m = np.array([[1.0, 5.0], [5.0, 0.0]])
        with pytest.raises(ValueError):
            ExplicitTopology(m)

    def test_negative_rejected(self):
        m = np.array([[0.0, -5.0], [-5.0, 0.0]])
        with pytest.raises(ValueError):
            ExplicitTopology(m)

    def test_rtt_many_matches_scalar(self):
        rng = np.random.default_rng(0)
        half = rng.uniform(1, 100, size=(6, 6))
        m = np.triu(half, 1)
        m = m + m.T
        topo = ExplicitTopology(m)
        vec = topo.rtt_many(2, [0, 3, 5])
        assert vec == pytest.approx([m[2, 0], m[2, 3], m[2, 5]])


class TestKingLikeTopology:
    @given(
        seed=st.integers(1, 10_000),
        pairs=st.lists(st.tuples(st.integers(0, 199), st.integers(0, 199)), min_size=1),
    )
    @settings(max_examples=50, deadline=None)
    def test_rtt_is_bit_symmetric(self, seed, pairs):
        """``rtt_ms(a, b)`` and ``rtt_ms(b, a)`` are the same float --
        what lets the latency memo keep one entry per link."""
        topo = KingLikeTopology(200, seed=seed)
        for a, b in pairs:
            ab, ba = topo.rtt_ms(a, b), topo.rtt_ms(b, a)
            assert ab.hex() == ba.hex()
            assert topo.latency_ms(b, a) == topo.latency_ms(a, b) == ab / 2.0

    def test_mean_rtt_calibrated_to_target(self):
        topo = KingLikeTopology(500, seed=11, target_mean_rtt_ms=180.0)
        assert topo.mean_rtt(20_000) == pytest.approx(180.0, rel=0.08)

    def test_alternate_target(self):
        topo = KingLikeTopology(300, seed=11, target_mean_rtt_ms=80.0)
        assert topo.mean_rtt(20_000) == pytest.approx(80.0, rel=0.08)

    def test_symmetry(self):
        topo = KingLikeTopology(100, seed=5)
        for a, b in [(0, 1), (10, 90), (42, 17)]:
            assert topo.rtt_ms(a, b) == pytest.approx(topo.rtt_ms(b, a))

    def test_self_rtt_zero(self):
        topo = KingLikeTopology(50, seed=5)
        assert topo.rtt_ms(7, 7) == 0.0

    def test_deterministic_in_seed(self):
        a = KingLikeTopology(100, seed=9)
        b = KingLikeTopology(100, seed=9)
        assert a.rtt_ms(3, 77) == b.rtt_ms(3, 77)

    def test_different_seeds_differ(self):
        a = KingLikeTopology(100, seed=9)
        b = KingLikeTopology(100, seed=10)
        assert a.rtt_ms(3, 77) != b.rtt_ms(3, 77)

    def test_rtt_positive_for_distinct_pairs(self):
        topo = KingLikeTopology(200, seed=2)
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = rng.integers(0, 200, size=2)
            if a != b:
                assert topo.rtt_ms(int(a), int(b)) > 0

    def test_rtt_many_matches_scalar(self):
        topo = KingLikeTopology(120, seed=4)
        others = list(range(0, 120, 7))
        vec = topo.rtt_many(13, others)
        scalars = [topo.rtt_ms(13, b) for b in others]
        assert vec == pytest.approx(scalars)

    def test_clustering_means_neighbors_are_closer(self):
        """Within-cluster RTTs must be far smaller than the global mean,
        otherwise PNS would have nothing to exploit."""
        topo = KingLikeTopology(1000, seed=6)
        same, diff = [], []
        for a in range(0, 1000, 11):
            for b in range(1, 1000, 13):
                if a == b:
                    continue
                (same if topo.cluster_of[a] == topo.cluster_of[b] else diff).append(
                    topo.rtt_ms(a, b)
                )
        assert np.mean(same) < 0.4 * np.mean(diff)

    def test_single_node_topology(self):
        topo = KingLikeTopology(1, seed=1)
        assert topo.size == 1
        assert topo.rtt_ms(0, 0) == 0.0
        assert topo.mean_rtt() == 0.0


class TestJitter:
    def test_scalar_symmetric(self):
        assert _pair_jitter(3, 9, 0.2) == _pair_jitter(9, 3, 0.2)

    def test_scalar_within_band(self):
        for a in range(20):
            for b in range(20):
                j = _pair_jitter(a, b, 0.15)
                assert 0.85 <= j <= 1.15

    def test_vector_matches_scalar(self):
        idx = np.arange(0, 500, 3)
        vec = _pair_jitter_vec(42, idx, 0.15)
        scalars = [_pair_jitter(42, int(b), 0.15) for b in idx]
        assert vec == pytest.approx(scalars)

    def test_jitter_varies_across_pairs(self):
        vals = {_pair_jitter(0, b, 0.15) for b in range(1, 50)}
        assert len(vals) > 40


class TestMaxRtt:
    @pytest.mark.parametrize("n, seed", [(2, 1), (16, 4), (40, 9)])
    def test_king_like_max_is_the_largest_pair(self, n, seed):
        topo = KingLikeTopology(n, seed=seed)
        rows = max(float(topo.rtt_many(a, range(n)).max()) for a in range(n))
        assert topo.max_rtt_ms() == rows
        every = max(topo.rtt_ms(a, b) for a in range(n) for b in range(n))
        assert topo.max_rtt_ms() == every

    @pytest.mark.parametrize("n, seed", [(40, 1), (40, 2), (400, 3), (1_740, 1)])
    def test_scalar_and_vector_rtts_are_bit_equal(self, n, seed):
        """PNS ranks candidates by ``rtt_many`` and packets are delayed
        by ``rtt_ms``: both must give the same float for every pair."""
        topo = KingLikeTopology(n, seed=seed)
        step = max(1, n // 60)  # every pair at 40 nodes, a sample of rows above
        for a in range(0, n, step):
            row = topo.rtt_many(a, range(n)).tolist()
            assert row == [topo.rtt_ms(a, b) for b in range(n)], a

    def test_explicit_and_constant(self):
        m = np.array([[0.0, 5.0, 9.5], [5.0, 0.0, 2.0], [9.5, 2.0, 0.0]])
        assert ExplicitTopology(m).max_rtt_ms() == 9.5
        assert ConstantTopology(4, rtt=42.0).max_rtt_ms() == 42.0
        assert ConstantTopology(1).max_rtt_ms() == 0.0

    def test_computed_once(self, monkeypatch):
        topo = KingLikeTopology(12, seed=3)
        first = topo.max_rtt_ms()
        monkeypatch.setattr(topo, "rtt_many", None)  # a second pass would fail
        assert topo.max_rtt_ms() == first
