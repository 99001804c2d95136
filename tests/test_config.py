"""Tests for HyperSubConfig validation and derived values."""

import pytest

from repro.core.config import HyperSubConfig
from repro.dht.chord import DEFAULT_SUCC_LIST
from repro.telemetry import TelemetrySession


class TestDefaults:
    def test_paper_defaults(self):
        cfg = HyperSubConfig()
        assert cfg.base == 2
        assert cfg.code_bits == 20
        assert cfg.max_level == 20
        assert cfg.pns
        assert cfg.rotation
        assert cfg.migration_delta == 0.1
        assert cfg.migration_probe_level == 1
        assert cfg.replication_factor == 1
        assert not cfg.piggyback_maintenance

    def test_base4_levels(self):
        assert HyperSubConfig(base=4).max_level == 10

    def test_base16_levels(self):
        assert HyperSubConfig(base=16).max_level == 5


class TestValidation:
    def test_unknown_overlay(self):
        # HyperSub runs on Chord only: there is no overlay to choose
        with pytest.raises(TypeError, match="overlay"):
            HyperSubConfig(overlay="chord")

    def test_bad_base(self):
        with pytest.raises(ValueError):
            HyperSubConfig(base=3)

    def test_indivisible_code_bits(self):
        with pytest.raises(ValueError):
            HyperSubConfig(base=16, code_bits=22)

    def test_probe_level(self):
        with pytest.raises(ValueError):
            HyperSubConfig(migration_probe_level=3)

    def test_negative_delta(self):
        with pytest.raises(ValueError):
            HyperSubConfig(migration_delta=-0.1)

    def test_acceptors(self):
        with pytest.raises(ValueError):
            HyperSubConfig(migration_max_acceptors=0)

    @pytest.mark.parametrize("interval", [0.0, -1.0])
    def test_migration_interval_positive(self, interval):
        # 0 would freeze simulated time (each tick reschedules itself at
        # zero delay); a negative one would fail mid-run in schedule()
        with pytest.raises(ValueError, match="migration_interval_ms"):
            HyperSubConfig(migration_interval_ms=interval)

    def test_negative_direct_levels(self):
        with pytest.raises(ValueError):
            HyperSubConfig(direct_rendezvous_levels=-1)

    def test_replication_bounds(self):
        with pytest.raises(ValueError):
            HyperSubConfig(replication_factor=0)
        HyperSubConfig(replication_factor=4)
        # standbys sit on the successor list: a factor past its length
        # + 1 would be cut silently, so it is refused by name
        HyperSubConfig(replication_factor=DEFAULT_SUCC_LIST + 1)
        with pytest.raises(ValueError, match="replication_factor"):
            HyperSubConfig(replication_factor=DEFAULT_SUCC_LIST + 2)


class TestGuaranteeKnobs:
    def test_defaults(self):
        cfg = HyperSubConfig()
        assert cfg.delivery_mode == "best_effort"
        assert cfg.ordering == "none"
        assert cfg.durable_redelivery_ms == 5_000.0
        assert cfg.durable_rejoin_grace_ms == 10_000.0

    def test_unknown_delivery_mode(self):
        with pytest.raises(ValueError):
            HyperSubConfig(delivery_mode="at_most_once")

    def test_unknown_ordering(self):
        with pytest.raises(ValueError):
            HyperSubConfig(ordering="total")

    def test_durable_requires_reliable_transport(self):
        with pytest.raises(ValueError):
            HyperSubConfig(delivery_mode="durable", reliable_delivery=False)
        HyperSubConfig(delivery_mode="durable", reliable_delivery=True)

    def test_ordering_requires_durable(self):
        with pytest.raises(ValueError):
            HyperSubConfig(ordering="fifo", reliable_delivery=True)
        with pytest.raises(ValueError):
            HyperSubConfig(ordering="causal", reliable_delivery=True)

    def test_ordering_requires_fully_direct_topology(self):
        # default direct_rendezvous_levels (8) <= max_level (20): marker
        # relays would interleave per-publisher streams.
        with pytest.raises(ValueError):
            HyperSubConfig(
                delivery_mode="durable",
                reliable_delivery=True,
                ordering="fifo",
            )
        for ordering in ("fifo", "causal"):
            cfg = HyperSubConfig(
                delivery_mode="durable",
                reliable_delivery=True,
                ordering=ordering,
                direct_rendezvous_levels=21,
            )
            assert cfg.ordering == ordering

    def test_redelivery_period_positive(self):
        with pytest.raises(ValueError):
            HyperSubConfig(durable_redelivery_ms=0.0)
        with pytest.raises(ValueError):
            HyperSubConfig(durable_redelivery_ms=-1.0)

    def test_rejoin_grace_non_negative(self):
        with pytest.raises(ValueError):
            HyperSubConfig(durable_rejoin_grace_ms=-1.0)
        HyperSubConfig(durable_rejoin_grace_ms=0.0)  # grace may be off


class TestMatchingKnobs:
    def test_defaults(self):
        # covering is retired: the old default is rejected by name too
        with pytest.raises(TypeError, match="covering"):
            HyperSubConfig(covering=False)

    def test_unknown_matching_index(self):
        # every repository holds a BoxStore: there is no kind to choose
        with pytest.raises(TypeError, match="matching_index"):
            HyperSubConfig(matching_index="linear")

    def test_matching_cells_bounds(self):
        # retired with the grid kind: the old default is rejected too
        with pytest.raises(TypeError, match="matching_cells"):
            HyperSubConfig(matching_cells=16)

    def test_merge_max_waste_non_negative(self):
        # retired with covering: CoveringStore takes its bound directly
        with pytest.raises(TypeError, match="merge_max_waste"):
            HyperSubConfig(merge_max_waste=0.5)

    def test_filter_flush_positive(self):
        # retired with covering's deferred cascade: every install pushes
        # its pieces at once (Algorithm 3)
        with pytest.raises(TypeError, match="filter_flush_ms"):
            HyperSubConfig(filter_flush_ms=100.0)

    def test_unknown_summary_mode(self):
        # summary filters shrink, unconditionally: every mode is unknown
        with pytest.raises(TypeError, match="summary_mode"):
            HyperSubConfig(summary_mode="shrink")


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: HyperSubConfig(route_cache=False), "route_cache"),
        (lambda: HyperSubConfig(dynamic_migration=True), "dynamic_migration"),
        (lambda: TelemetrySession("unused", profiling=False), "profiling"),
    ],
    ids=["route_cache", "dynamic_migration", "profiling"],
)
def test_retired_selector_is_rejected_by_name(build, name):
    with pytest.raises(TypeError, match=name):
        build()
