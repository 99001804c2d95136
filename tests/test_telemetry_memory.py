"""Tests for the memory-accounting walk (repro.telemetry.memory)."""

import numpy as np
import pytest

from repro.core import (
    Attribute,
    Event,
    HyperSubConfig,
    HyperSubSystem,
    Predicate,
    Scheme,
    Subscription,
)
from repro.telemetry import (
    REQUIRED_METRICS,
    deep_sizeof,
    measure_system,
    publish_memory,
    rss_bytes,
    telemetry_session,
)
from repro.telemetry.memory import (
    DEFAULT_MAX_OBJECTS,
    NODE_COMPONENTS,
    _sample_indices,
    _Walk,
)
from repro.telemetry.registry import MetricsRegistry


def make_scheme():
    return Scheme(
        "s",
        [Attribute("x", 0.0, 10_000.0), Attribute("y", 0.0, 10_000.0)],
    )


def make_system(num_nodes=40, subs=60, seed=3):
    system = HyperSubSystem(
        num_nodes=num_nodes, config=HyperSubConfig(seed=seed)
    )
    scheme = make_scheme()
    system.add_scheme(scheme)
    rng = np.random.default_rng(seed)
    for i in range(subs):
        low = rng.uniform(0, 9_000, 2)
        high = low + rng.uniform(10, 900, 2)
        system.subscribe(
            int(rng.integers(0, num_nodes)),
            Subscription(
                scheme,
                [
                    Predicate(f, float(lo), float(hi))
                    for f, lo, hi in zip(("x", "y"), low, high)
                ],
            ),
        )
    system.finish_setup()
    return system


# ---------------------------------------------------------------------------
# deep_sizeof
# ---------------------------------------------------------------------------
class TestDeepSizeof:
    def test_container_costs_more_than_its_shell(self):
        import sys

        payload = [list(range(100)) for _ in range(10)]
        assert deep_sizeof(payload) > sys.getsizeof(payload)

    def test_shared_objects_are_charged_once(self):
        big = list(range(10_000))
        walk = _Walk(DEFAULT_MAX_OBJECTS)
        first = deep_sizeof([big], walk)
        second = deep_sizeof([big], walk)
        # The second wrapper list is new, but ``big`` is already seen.
        assert second < first / 10

    def test_cycles_terminate(self):
        a = {}
        b = {"a": a}
        a["b"] = b
        assert deep_sizeof(a) > 0

    def test_numpy_views_charge_the_buffer(self):
        base = np.zeros(100_000, dtype=np.float64)
        view = base[10:]
        assert deep_sizeof(view) >= view.nbytes

    def test_budget_truncates_and_flags(self):
        walk = _Walk(max_objects=10)
        deep_sizeof([list(range(50)) for _ in range(50)], walk)
        assert walk.truncated

    def test_slots_objects_are_entered(self):
        class Slotted:
            __slots__ = ("table",)

            def __init__(self):
                self.table = list(range(1_000))

        import sys

        assert deep_sizeof(Slotted()) > sys.getsizeof(list(range(1_000)))


    def test_zone_repo_split_is_attributed(self):
        """The (edge, width) a repo keeps after its first cascade is one
        tuple of two floats in one slot; the ``zones`` walk enters the
        slot and charges it once however many repos share it."""
        import sys

        from repro.core.node import ZoneRepo
        from repro.core.subscheme import PubSubEntity
        from repro.core.zones import ContentZone, ZoneGeometry

        geometry = ZoneGeometry(base=2, code_bits=12)
        entity = PubSubEntity("s", make_scheme(), [0, 1], geometry)
        repo = ZoneRepo("s", ContentZone(5, 3, geometry), store=None)
        abreast = ZoneRepo("s", ContentZone(4, 3, geometry), store=None)
        before = deep_sizeof([repo, abreast])
        sf = (np.zeros(2), np.full(2, 1000.0))
        repo.child_pieces(entity, sf)
        abreast.child_pieces(entity, sf)
        assert abreast.split is repo.split
        split_bytes = sys.getsizeof((1.5, 2.5)) + 2 * sys.getsizeof(1.5)
        assert deep_sizeof([repo, abreast]) - before == split_bytes


# ---------------------------------------------------------------------------
# _sample_indices
# ---------------------------------------------------------------------------
class TestSampleIndices:
    def test_small_populations_take_everything(self):
        assert _sample_indices(5, 128) == [0, 1, 2, 3, 4]

    def test_large_populations_are_capped_and_spread(self):
        idx = _sample_indices(10_000, 128)
        assert len(idx) == 128
        assert idx == sorted(idx)
        assert idx[0] == 0 and idx[-1] >= 9_000

    def test_indices_are_unique(self):
        idx = _sample_indices(130, 128)
        assert len(idx) == len(set(idx))


# ---------------------------------------------------------------------------
# measure_system / publish_memory
# ---------------------------------------------------------------------------
class TestMeasureSystem:
    def test_report_covers_every_component(self):
        system = make_system()
        report = measure_system(system)
        for name in NODE_COMPONENTS:
            assert name in report.components
        for name in ("sim_queue", "ingress_queues", "network_stats"):
            assert name in report.components
        assert report.total_bytes == sum(report.components.values())
        assert report.bytes_per_node > 0
        assert not report.truncated

    def test_pending_packets_do_not_drag_the_lane_in(self):
        """A pending reliable packet references its retransmission
        timer, the timer its lane, the lane every other node's timers:
        the walk must stop at the lane, bill a node's ``transport`` only
        its own pending state, and count the waiting timers once, under
        ``sim_queue``."""
        scheme = make_scheme()
        system = HyperSubSystem(
            num_nodes=30, config=HyperSubConfig(seed=3, reliable_delivery=True)
        )
        system.add_scheme(scheme)
        sub = Subscription(
            scheme, [Predicate("x", 0.0, 9_000.0), Predicate("y", 0.0, 9_000.0)]
        )
        for addr in range(30):
            system.subscribe(addr, sub)
        system.finish_setup()
        idle = measure_system(system)
        for i in range(20):
            system.publish(i, Event(scheme, [100.0 + i, 200.0]))
        system.run(until=system.sim.now + 40.0)  # packets in flight, unacked
        lane = system.retransmit_lane
        assert lane.backlog > 20
        busy = measure_system(system)
        one_node = measure_system(system, node_sample=1)
        assert busy.components["sim_queue"] > idle.components["sim_queue"]
        assert busy.components["transport"] > idle.components["transport"]
        # sampling one node scales one node's share; it does not find
        # the fleet's timers behind that node's first pending packet
        assert one_node.components["transport"] < 3 * busy.components["transport"]
        assert not busy.truncated
        system.run_until_idle()

    def test_subscription_tables_dominate_an_installed_system(self):
        system = make_system(subs=200)
        report = measure_system(system)
        # Zones hold the rendezvous copies of every subscription: an
        # installed, idle system's footprint must be visibly there.
        assert report.components["zones"] > 0
        assert report.components["subscriptions"] > 0

    def test_sampling_reports_how_many_nodes_it_walked(self):
        system = make_system(num_nodes=40)
        full = measure_system(system)
        sampled = measure_system(system, node_sample=10)
        assert full.sampled_nodes == 40
        assert sampled.sampled_nodes == 10
        # Scaled estimate stays in the same ballpark as the full walk.
        assert sampled.total_bytes > 0

    def test_as_dict_is_json_safe(self):
        import json

        report = measure_system(make_system(num_nodes=20, subs=20))
        json.dumps(report.as_dict())

    def test_publish_memory_sets_the_gauges(self):
        system = make_system(num_nodes=20, subs=20)
        registry = MetricsRegistry()
        report = publish_memory(system, registry)
        assert registry.value("mem.bytes_per_node") == pytest.approx(
            report.bytes_per_node
        )
        assert registry.value("mem.total_bytes") == float(report.total_bytes)
        assert registry.value("mem.zones") == float(
            report.components["zones"]
        )

    def test_publish_memory_without_registry_or_session_raises(self):
        system = make_system(num_nodes=20, subs=20)
        assert system.telemetry is None
        with pytest.raises(ValueError):
            publish_memory(system)


class TestSessionIntegration:
    def test_sample_memory_is_a_noop_without_a_session(self):
        system = make_system(num_nodes=20, subs=20)
        assert system.sample_memory() is None

    def test_manifest_carries_bytes_per_node(self, tmp_path):
        from repro.telemetry.manifest import load_manifest, validate_manifest

        from repro.core import Event

        with telemetry_session(tmp_path, label="mem") as tel:
            system = make_system(num_nodes=20, subs=20)
            system.publish(
                0, Event(system.schemes["s"], {"x": 5.0, "y": 5.0})
            )
            system.run_until_idle()
            report = system.sample_memory()
            assert report is not None
        manifest = load_manifest(tmp_path / "manifest.json")
        assert validate_manifest(manifest) == []
        gauges = manifest["metrics"]["gauges"]
        assert gauges["mem.bytes_per_node"] > 0
        assert "mem.bytes_per_node" in REQUIRED_METRICS
        # finish_setup armed a sim-time series point too.
        assert tel.registry.series["mem.bytes_per_node"]


def test_rss_bytes_reports_something_plausible():
    rss = rss_bytes()
    assert rss is None or rss > 1_000_000  # a python process is >1MB
