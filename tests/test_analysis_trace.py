"""Tests for event-dissemination tracing."""

import numpy as np
import pytest

from repro.analysis.trace import render_dissemination_tree, tree_stats
from repro.core import (
    Attribute,
    Event,
    HyperSubConfig,
    HyperSubSystem,
    Scheme,
    Subscription,
)


@pytest.fixture
def traced_run():
    system = HyperSubSystem(
        num_nodes=40, config=HyperSubConfig(seed=3, code_bits=12)
    )
    scheme = Scheme("s", [Attribute(n, 0, 10000) for n in "abcd"])
    system.add_scheme(scheme)
    rng = np.random.default_rng(2)
    for _ in range(150):
        lows, highs = [], []
        for _ in range(4):
            c = float(rng.normal(3000, 300) % 10000)
            w = float(rng.uniform(100, 700))
            lows.append(max(0.0, c - w))
            highs.append(min(10000.0, c + w))
        system.subscribe(
            int(rng.integers(0, 40)), Subscription.from_box(scheme, lows, highs)
        )
    system.finish_setup()
    system.tracing = True
    ev = Event(scheme, list(rng.normal(3000, 300, 4) % 10000))
    eid = system.publish(7, ev)
    system.run_until_idle()
    return system, system.metrics.records[eid]


def test_edges_recorded_only_when_tracing(traced_run):
    system, record = traced_run
    assert record.edges, "tracing on: edges must be captured"
    system.tracing = False
    eid2 = system.publish(3, Event(system.scheme("s"), [1, 1, 1, 1]))
    system.run_until_idle()
    assert system.metrics.records[eid2].edges == []


def test_edge_count_matches_message_count(traced_run):
    _system, record = traced_run
    assert len(record.edges) == record.messages


def test_render_contains_publisher_and_deliveries(traced_run):
    _system, record = traced_run
    out = render_dissemination_tree(record)
    assert f"node {record.publisher_addr} (publisher)" in out
    assert out.count("deliver") >= 1
    assert f"{record.matched} deliveries" in out


def test_tree_reaches_every_delivering_node(traced_run):
    _system, record = traced_run
    touched = {record.publisher_addr}
    for src, dst, _n in record.edges:
        touched.add(src)
        touched.add(dst)
    for _subid, addr, _hops, _lat in record.deliveries:
        assert addr in touched


def test_tree_stats(traced_run):
    _system, record = traced_run
    stats = tree_stats(record)
    assert stats["nodes_touched"] >= 2
    assert stats["relay_nodes"] >= 1
    assert stats["max_fanout"] >= 1
    assert 0 < stats["mean_fanout"] <= stats["max_fanout"]


def test_render_empty_record():
    from repro.core.system import EventRecord

    rec = EventRecord(event_id=5, scheme="s", publisher_addr=0, publish_time=0.0)
    assert "no traffic" in render_dissemination_tree(rec)


def test_render_is_deterministic_under_edge_reordering(traced_run):
    """Sibling order is sorted by destination address, so the rendering
    is independent of packet interleaving in the edge log."""
    import copy

    _system, record = traced_run
    out = render_dissemination_tree(record)
    shuffled = copy.copy(record)
    shuffled.edges = list(reversed(record.edges))
    assert render_dissemination_tree(shuffled) == out


def test_trace_edges_match_record_edges(traced_run):
    """The exported span trace reconstructs EventRecord.edges exactly
    (same call site writes both views)."""
    from repro.telemetry import TelemetrySession, edges_from_spans, set_session

    sess = TelemetrySession("/tmp/_analysis_trace_test", label="t")
    set_session(sess)
    try:
        system = HyperSubSystem(
            num_nodes=40, config=HyperSubConfig(seed=3, code_bits=12)
        )
        scheme = Scheme("s", [Attribute(n, 0, 10000) for n in "abcd"])
        system.add_scheme(scheme)
        rng = np.random.default_rng(2)
        for _ in range(150):
            lows, highs = [], []
            for _ in range(4):
                c = float(rng.normal(3000, 300) % 10000)
                w = float(rng.uniform(100, 700))
                lows.append(max(0.0, c - w))
                highs.append(min(10000.0, c + w))
            system.subscribe(
                int(rng.integers(0, 40)),
                Subscription.from_box(scheme, lows, highs),
            )
        system.finish_setup()
        ev = Event(scheme, list(rng.normal(3000, 300, 4) % 10000))
        eid = system.publish(7, ev)
        system.run_until_idle()
        spans = [s.to_dict() for s in sess.tracer.spans]
        assert sorted(edges_from_spans(spans, eid)) == sorted(
            system.metrics.records[eid].edges
        )
    finally:
        set_session(None)
