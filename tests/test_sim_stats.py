"""Tests for counters and distribution summaries."""

import numpy as np
import pytest

from repro.sim.stats import Distribution, NetworkStats, rank_desc


class TestNetworkStats:
    def test_record_send_updates_both_sides(self):
        s = NetworkStats(3)
        s.record_send(0, 2, "k", 50)
        assert s.out_bytes[0] == 50
        assert s.in_bytes[2] == 50
        assert s.msgs_by_kind["k"] == 1

    def test_per_node_views_keep_dtype_shape_and_reset(self):
        s = NetworkStats(4)
        s.record_send(0, 2, "k", 50)
        s.record_send(0, 3, "k", 7)
        s.record_send(3, 0, "j", 1)
        views = {
            "in_bytes": (np.float64, [1.0, 0.0, 50.0, 7.0]),
            "out_bytes": (np.float64, [57.0, 0.0, 0.0, 1.0]),
        }
        for name, (dtype, expected) in views.items():
            arr = getattr(s, name)
            assert isinstance(arr, np.ndarray), name
            assert arr.dtype == dtype and arr.shape == (4,), name
            assert arr.tolist() == expected, name
        assert s.total_bytes == 58.0 and isinstance(s.total_bytes, float)
        assert s.total_msgs == 3 and isinstance(s.total_msgs, int)
        assert s.bytes_by_kind == {"k": 57.0, "j": 1.0}
        assert s.msgs_by_kind == {"k": 2, "j": 1}
        s.reset()
        for name, (dtype, _expected) in views.items():
            arr = getattr(s, name)
            assert arr.dtype == dtype and arr.shape == (4,), name
            assert not arr.any(), name
        assert s.total_bytes == 0.0 and s.total_msgs == 0
        s.record_send(1, 2, "k", 5)  # accumulates again after a reset
        assert s.out_bytes.tolist() == [0.0, 5.0, 0.0, 0.0]

    def test_unroutable_is_counted_summarised_and_reset(self):
        s = NetworkStats(3)
        assert s.unroutable == 0
        s.unroutable += 1
        s.unroutable += 1
        assert s.unroutable == 2
        assert s.counts()["transport.unroutable"] == 2
        s.reset()
        assert s.unroutable == 0
        assert s.counts()["transport.unroutable"] == 0

    def test_counts_name_every_count_as_the_manifest_does(self):
        from repro.telemetry import REQUIRED_METRICS

        s = NetworkStats(3)
        s.retransmissions += 2
        s.record_give_up("ttl", 4)
        s.record_drop("loss")
        s.record_durable("appends", 3)
        counts = s.counts()
        assert len(counts) == 29
        assert all(type(n) is int for n in counts.values())
        assert counts["transport.retransmissions"] == 2
        assert counts["transport.gave_up"] == counts["transport.gave_up.ttl"] == 1
        assert counts["transport.gave_up_subids"] == 4
        assert counts["net.dropped"] == counts["net.dropped.loss"] == 1
        assert counts["durable.appends"] == 3
        assert sum(counts.values()) == 2 + 1 + 1 + 4 + 1 + 1 + 3
        # every required counter a network owns is among them
        owned = ("transport.", "net.", "faults.", "durable.")
        assert {n for n in REQUIRED_METRICS if n.startswith(owned)} <= set(counts)

    def test_cause_dicts_keep_keys_and_order_and_a_kept_one_survives_reset(self):
        from repro.sim.stats import DROP_CAUSES, GIVE_UP_CAUSES

        s = NetworkStats(3)
        kept = s.dropped_by_cause
        s.record_drop("overflow")
        assert kept["overflow"] == 1  # a live attribute, not a copy
        s.reset()
        assert kept["overflow"] == 1
        assert list(s.dropped_by_cause.items()) == [(c, 0) for c in DROP_CAUSES]
        assert list(s.gave_up_by_cause) == list(GIVE_UP_CAUSES)
        assert list(s.durable_counts) == [
            "appends", "acked", "redelivered", "truncated", "reorder_overflow"
        ]

    def test_reset_zeroes_transport_counters(self):
        s = NetworkStats(3)
        s.record_send(0, 2, "k", 50)
        s.retransmissions += 3
        s.reset()
        assert s.retransmissions == 0
        assert s.total_bytes == 0.0
        assert s.msgs_by_kind == {}


class TestDistribution:
    def test_summary_fields(self):
        d = Distribution.from_values([1, 2, 3, 4, 5])
        assert d.n == 5
        assert d.mean == 3.0
        assert d.min == 1.0
        assert d.max == 5.0
        assert d.percentile(50) == 3.0

    def test_values_are_sorted(self):
        d = Distribution.from_values([5, 1, 3])
        assert list(d.values) == [1.0, 3.0, 5.0]

    def test_cdf_monotone_and_ends_at_one(self):
        d = Distribution.from_values(np.random.default_rng(0).uniform(0, 10, 500))
        xs, fs = d.cdf(50)
        assert len(xs) == 50
        assert np.all(np.diff(fs) >= 0)
        assert fs[-1] == 1.0

    def test_cdf_is_correct_ecdf(self):
        d = Distribution.from_values([1, 1, 2, 4])
        xs, fs = d.cdf(4)
        # at x=1: 2/4 of mass; at x=4: all of it.
        assert fs[0] == pytest.approx(0.5)
        assert fs[-1] == 1.0

    def test_empty_distribution(self):
        d = Distribution.from_values([])
        assert d.n == 0
        assert d.mean == 0.0
        xs, fs = d.cdf()
        assert len(xs) == 0

    def test_cdf_single_value_is_one_point_step(self):
        # Regression: np.linspace over a zero-width range used to
        # return the same x 100 times, each with F(x)=1.
        d = Distribution.from_values([7.0])
        xs, fs = d.cdf()
        assert list(xs) == [7.0]
        assert list(fs) == [1.0]

    def test_cdf_all_equal_values_is_one_point_step(self):
        d = Distribution.from_values([3.0, 3.0, 3.0])
        xs, fs = d.cdf(50)
        assert list(xs) == [3.0]
        assert list(fs) == [1.0]

    def test_summary_dict(self):
        d = Distribution.from_values(range(101))
        s = d.summary()
        assert s["n"] == 101
        assert s["p50"] == 50
        assert s["max"] == 100


def test_rank_desc():
    assert rank_desc([3, 1, 2]) == [3.0, 2.0, 1.0]
    assert rank_desc([3, 1, 2], top=2) == [3.0, 2.0]
    assert rank_desc([]) == []
