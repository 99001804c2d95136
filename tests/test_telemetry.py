"""Tests for the telemetry subsystem: metrics registry, causal span
tracing, run manifests, and the CLI trace surface."""

import json

import numpy as np
import pytest

from repro.core import (
    Attribute,
    Event,
    HyperSubConfig,
    HyperSubSystem,
    Scheme,
    Subscription,
)
from repro.sim.engine import Simulator
from repro.telemetry import (
    MetricsRegistry,
    TelemetrySession,
    Tracer,
    current_session,
    edges_from_spans,
    load_manifest,
    read_jsonl,
    render_span_tree,
    set_session,
    validate_manifest,
)


@pytest.fixture
def session(tmp_path):
    """An ambient telemetry session, torn down even on failure."""
    sess = TelemetrySession(tmp_path / "out", label="test")
    set_session(sess)
    yield sess
    set_session(None)


def build(n=30, subs=120, seed=3, **cfg_kwargs):
    cfg_kwargs.setdefault("code_bits", 12)
    cfg = HyperSubConfig(seed=seed, **cfg_kwargs)
    system = HyperSubSystem(num_nodes=n, config=cfg)
    scheme = Scheme("s", [Attribute(x, 0, 10000) for x in "abcd"])
    system.add_scheme(scheme)
    rng = np.random.default_rng(1)
    installed, addr_of = [], {}
    for _ in range(subs):
        lows, highs = [], []
        for _ in range(4):
            c = float(rng.normal(3000, 300) % 10000)
            w = float(rng.uniform(100, 700))
            lows.append(max(0.0, c - w))
            highs.append(min(10000.0, c + w))
        sub = Subscription.from_box(scheme, lows, highs)
        addr = int(rng.integers(0, n))
        sid = system.subscribe(addr, sub)
        installed.append((sub, sid))
        addr_of[sid] = addr
    system.finish_setup()
    return system, scheme, installed, addr_of, rng


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a.b") is reg.counter("a.b")
        assert reg.gauge("g") is reg.gauge("g")

    def test_name_clash_across_kinds_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_counter_cannot_decrease(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("c").inc(-1)

    def test_sampling_builds_series(self):
        reg = MetricsRegistry()
        c = reg.counter("events")
        g = reg.gauge("load")
        c.inc(3)
        g.set(1.5)
        reg.sample_all(100.0)
        c.inc()
        g.set(2.5)
        reg.sample_all(200.0)
        assert reg.series["events"] == [(100.0, 3.0), (200.0, 4.0)]
        assert reg.series["load"] == [(100.0, 1.5), (200.0, 2.5)]

    def test_sample_unknown_name_raises(self):
        with pytest.raises(KeyError):
            MetricsRegistry().sample("nope", 0.0)


class TestSessionCounts:
    """A session counter is the sum, over the systems built under the
    session, of what each one's ``stats`` read at its last publish."""

    def test_a_share_moves_the_sum_by_its_change(self, session):
        a, b = session._new_share(), session._new_share()
        session.publish_counts(a, {"net.dropped": 5}, 3)
        session.publish_counts(b, {"net.dropped": 2}, 7)
        assert session.registry.value("net.dropped") == 7.0
        assert session.registry.value("queue.depth.peak") == 7.0
        session.publish_counts(b, {"net.dropped": 0}, 0)  # b reset
        assert session.registry.value("net.dropped") == 5.0
        assert session.registry.value("queue.depth.peak") == 3.0
        with pytest.raises(ValueError):
            session.registry.counter("net.dropped").inc(-1)

    def test_every_required_metric_is_present_once_a_system_attaches(self, session):
        from repro.telemetry import REQUIRED_METRICS

        HyperSubSystem(num_nodes=8, config=HyperSubConfig(seed=1, code_bits=12))
        summary = session.registry.summary()
        present = set(summary["counters"]) | set(summary["gauges"])
        assert set(REQUIRED_METRICS) <= present
        assert not any(summary["counters"].values())

    def test_systems_under_one_session_count_only_their_own(self, session):
        def publish_some(system, scheme, rng):
            for _ in range(8):
                pt = rng.normal(3000, 400, 4) % 10000
                system.publish(int(rng.integers(0, 20)), Event(scheme, list(pt)))
            system.run_until_idle()

        a, scheme_a, _, _, rng_a = build(n=20, subs=60, reliable_delivery=True)
        a.network.set_loss_rate(0.1, seed=1)
        publish_some(a, scheme_a, rng_a)
        sa = a.network.stats
        retrans, dropped = sa.retransmissions, sa.dropped
        assert retrans > 0 and dropped > 0
        b, scheme_b, _, _, rng_b = build(n=20, subs=60, reliable_delivery=True)
        # B's finish_setup reset its own counts, not A's share
        assert (sa.retransmissions, sa.dropped) == (retrans, dropped)
        assert session.registry.value("transport.retransmissions") == retrans
        publish_some(b, scheme_b, rng_b)
        sb = b.network.stats
        assert sb.retransmissions == 0 and sb.dropped == 0
        assert not any(sb.counts().values())
        reg = session.registry
        assert reg.value("transport.retransmissions") == retrans + sb.retransmissions
        assert reg.value("net.dropped") == dropped + sb.dropped
        assert reg.value("net.dropped.loss") == sa.dropped_by_cause["loss"]

    def test_event_counts_are_present_at_zero_from_attach(self, session):
        from repro.telemetry import REQUIRED_METRICS

        assert {"events.published", "events.delivered"} <= set(REQUIRED_METRICS)
        system = HyperSubSystem(
            num_nodes=8, config=HyperSubConfig(seed=1, code_bits=12)
        )
        assert system.metrics.counts() == {
            "events.published": 0,
            "events.delivered": 0,
        }
        assert session.registry.value("events.published") == 0.0
        assert session.registry.value("events.delivered") == 0.0

    def test_event_counts_per_system_and_never_lowered(self, session):
        def publish_some(system, scheme, rng, k):
            for _ in range(k):
                pt = rng.normal(3000, 400, 4) % 10000
                system.publish(int(rng.integers(0, 20)), Event(scheme, list(pt)))
            system.run_until_idle()

        def delivered(system):
            return sum(r.matched for r in system.metrics.records.values())

        a, scheme_a, _, _, rng_a = build(n=20, subs=60)
        publish_some(a, scheme_a, rng_a, 6)
        got_a = a.metrics.counts()
        assert got_a["events.published"] == 6
        assert got_a["events.delivered"] == delivered(a) > 0
        b, scheme_b, _, _, rng_b = build(n=20, subs=60, seed=4)
        publish_some(b, scheme_b, rng_b, 4)
        got_b = b.metrics.counts()
        assert got_b["events.published"] == 4
        assert a.metrics.counts() == got_a  # B's traffic is not A's
        reg = session.registry
        for name in ("events.published", "events.delivered"):
            assert reg.value(name) == got_a[name] + got_b[name]
        # neither dropping A's records nor a second set-up lowers them
        a.metrics.clear_events()
        a.finish_setup()
        assert a.metrics.records == {}
        assert a.metrics.counts() == got_a
        publish_some(a, scheme_a, rng_a, 2)
        assert a.metrics.counts()["events.published"] == 8
        assert a.metrics.counts()["events.delivered"] == (
            got_a["events.delivered"] + delivered(a)
        )
        for name in ("events.published", "events.delivered"):
            assert reg.value(name) == a.metrics.counts()[name] + got_b[name]

    def test_event_counts_equal_the_publish_and_deliver_spans(self, session):
        system, scheme, _, _, rng = build()
        for round_ in range(2):
            for _ in range(5):
                pt = rng.normal(3000, 400, 4) % 10000
                system.publish(int(rng.integers(0, 30)), Event(scheme, list(pt)))
            system.run_until_idle()
            if round_ == 0:
                system.metrics.clear_events()
        kinds = [s.kind for s in session.tracer.spans]
        spans = {
            "events.published": kinds.count("publish"),
            "events.delivered": kinds.count("deliver"),
        }
        assert spans["events.published"] == 10
        assert spans["events.delivered"] > 0
        assert system.metrics.counts() == spans
        for name, n in spans.items():
            assert session.registry.value(name) == n


class TestTracer:
    def test_parent_linkage_and_edges(self):
        tr = Tracer()
        root = tr.span("publish", t=0.0, node=1, event=7)
        f1 = tr.span("forward", t=1.0, node=1, event=7, parent=root,
                     src=1, dst=2, entries=3, bytes=100)
        tr.span("forward", t=2.0, node=2, event=7, parent=f1,
                src=2, dst=5, entries=1, bytes=50)
        tr.span("deliver", t=3.0, node=5, event=7, parent=f1)
        spans = [s.to_dict() for s in tr.spans]
        assert edges_from_spans(spans, 7) == [(1, 2, 3), (2, 5, 1)]
        assert tr.event_ids() == [7]
        assert len([s for s in tr.spans if s.event == 7]) == 4

    def test_cap_drops_and_counts(self):
        tr = Tracer(max_spans=2)
        assert tr.span("publish", t=0.0) is not None
        assert tr.span("forward", t=1.0) is not None
        assert tr.span("forward", t=2.0) is None
        assert tr.dropped == 1
        assert len(tr) == 2

    def test_jsonl_round_trip(self, tmp_path):
        tr = Tracer()
        root = tr.span("publish", t=0.0, node=1, event=1, scheme="s")
        tr.span("forward", t=1.5, node=1, event=1, parent=root,
                src=1, dst=2, entries=2, bytes=138)
        path = tmp_path / "trace.jsonl"
        assert tr.write_jsonl(path) == 2
        spans = read_jsonl(path)
        assert [s["kind"] for s in spans] == ["publish", "forward"]
        assert spans[1]["parent"] == root
        assert edges_from_spans(spans, 1) == [(1, 2, 2)]

    def test_render_span_tree(self, tmp_path):
        tr = Tracer()
        root = tr.span("publish", t=0.0, node=9, event=4)
        tr.span("forward", t=1.0, node=9, event=4, parent=root,
                src=9, dst=3, entries=1, bytes=129)
        path = tmp_path / "t.jsonl"
        tr.write_jsonl(path)
        out = render_span_tree(read_jsonl(path), 4)
        assert "publish @ node 9" in out
        assert "forward 9 -> 3" in out
        assert render_span_tree([], 4).startswith("event 4: no spans")


class TestScheduleEvery:
    def test_fires_until_bound_and_drains(self):
        sim = Simulator()
        fired = []
        sim.schedule_every(10.0, lambda: fired.append(sim.now), until=45.0)
        sim.run_until_idle()
        assert fired == [10.0, 20.0, 30.0, 40.0]

    def test_cancel_stops_repetition(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule_every(10.0, lambda: fired.append(sim.now))
        sim.run(until=35.0)
        sim.cancel(handle)
        sim.cancel(handle)  # idempotent
        assert sim.live == 0
        sim.run_until_idle()
        assert fired == [10.0, 20.0, 30.0]

    def test_cancel_from_inside_the_callback_ends_the_series(self):
        """The handle is one record for the whole series; cancelling it
        while its own callback runs re-arms nothing and costs no further
        dispatch."""
        sim = Simulator()
        fired = []
        live_inside = []

        def tick():
            fired.append(sim.now)
            live_inside.append(sim.live)
            if len(fired) == 2:
                sim.cancel(handle)

        handle = sim.schedule_every(10.0, tick)
        assert sim._queue[0] is handle
        assert sim.run_until_idle() == 2
        assert fired == [10.0, 20.0]
        assert live_inside == [0, 0]  # the running tick is not queued work
        assert sim.live == sim.pending == 0

    def test_a_series_past_its_bound_is_never_armed(self):
        sim = Simulator()
        handle = sim.schedule_every(10.0, lambda: None, until=5.0)
        assert sim.live == sim.pending == 0
        sim.cancel(handle)  # nothing to do, nothing to undo
        assert sim.live == 0

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            Simulator().schedule_every(0.0, lambda: None)


class TestSessionIntegration:
    def test_trace_edges_match_event_records(self, session):
        system, scheme, installed, addr_of, rng = build()
        for _ in range(10):
            pt = rng.normal(3000, 400, 4) % 10000
            system.publish(int(rng.integers(0, 30)), Event(scheme, list(pt)))
        system.run_until_idle()
        assert session.runs and session.runs[0]["num_nodes"] == 30
        checked = delivered = 0
        spans = [s.to_dict() for s in session.tracer.spans]
        for eid, rec in system.metrics.records.items():
            assert sorted(edges_from_spans(spans, eid)) == sorted(rec.edges)
            n_deliver = sum(
                1
                for s in session.tracer.spans
                if s.event == eid and s.kind == "deliver"
            )
            assert n_deliver == len(rec.deliveries)
            checked += 1
            delivered += n_deliver
        assert checked == 10
        assert delivered > 0
        assert session.registry.value("events.published") == 10.0
        assert session.registry.value("events.delivered") == float(delivered)

    def test_failover_spans_link_back_to_publish_root(self, session, monkeypatch):
        """Under a fresh crash, rerouted packets must stay causally
        attached: every failover span's ancestor chain ends at the
        publish root of its own event."""
        monkeypatch.setattr("repro.core.replication.ANTI_ENTROPY_INTERVAL_MS", 1_000.0)
        system, scheme, installed, addr_of, rng = build(
            n=40,
            subs=250,
            replication_factor=3,
            reliable_delivery=True,
            retransmit_timeout_ms=500.0,
            max_retries=1,
            hop_failover=True,
            failover_backoff_ms=500.0,
        )
        system.start_maintenance(
            stabilize_interval_ms=250.0, rpc_timeout_ms=1_000.0
        )
        system.start_anti_entropy()
        loads = [
            sum(len(r.store) for r in node.zone_repos.values())
            for node in system.nodes
        ]
        victim = int(np.argmax(loads))
        system.nodes[victim].fail()
        for _ in range(20):
            pt = rng.normal(3000, 400, 4) % 10000
            pub = int(rng.integers(0, 40))
            while pub == victim:
                pub = int(rng.integers(0, 40))
            system.publish(pub, Event(scheme, list(pt)))
            system.run(until=system.sim.now + 5_000.0)
        system.stop_maintenance()
        system.stop_anti_entropy()
        system.run_until_idle()

        by_sid = {s.sid: s for s in session.tracer.spans}
        failovers = [s for s in session.tracer.spans if s.kind == "failover"]
        assert failovers, "crash produced no failover reroutes"
        for span in failovers:
            hops = 0
            cur = span
            while cur.parent is not None:
                cur = by_sid[cur.parent]
                assert cur.event == span.event
                hops += 1
                assert hops < 10_000
            assert cur.kind == "publish"
        # The reroute is a parent in its own right: resent packets nest
        # under the failover decision.
        failover_sids = {s.sid for s in failovers}
        assert any(
            s.parent in failover_sids for s in session.tracer.spans
        ), "no span descends from a failover reroute"

    def test_profiler_sees_matching_and_routing(self, session):
        """Nothing under ``src/`` times matching or routing: wall-clock
        attribution belongs to ``benchmarks/e2e/run.py --trace``."""
        import repro.telemetry

        system, scheme, installed, addr_of, rng = build(n=20, subs=40)
        pt = rng.normal(3000, 400, 4) % 10000
        system.publish(0, Event(scheme, list(pt)))
        system.run_until_idle()
        assert "profile" not in session.finalize(command="t")
        assert not hasattr(repro.telemetry, "Profiler")
        assert not hasattr(session, "profiler")

    def test_telemetry_disabled_costs_nothing(self):
        assert current_session() is None
        system, scheme, installed, addr_of, rng = build(n=20, subs=40)
        assert system.telemetry is None
        pt = rng.normal(3000, 400, 4) % 10000
        system.publish(0, Event(scheme, list(pt)))
        system.run_until_idle()  # no spans, no crash


class TestManifest:
    def test_finalize_writes_and_validates(self, session):
        system, scheme, installed, addr_of, rng = build(n=20, subs=40)
        for _ in range(5):
            pt = rng.normal(3000, 400, 4) % 10000
            system.publish(int(rng.integers(0, 20)), Event(scheme, list(pt)))
        system.run_until_idle()
        session.record_result("mini", {"passed": True})
        session.annotate(scale="test")
        manifest = session.finalize(command="pytest")
        assert validate_manifest(manifest) == []
        on_disk = load_manifest(session.manifest_path)
        assert validate_manifest(on_disk) == []
        assert on_disk["command"] == "pytest"
        assert on_disk["label"] == "test"
        assert on_disk["results"]["mini"]["passed"] is True
        assert on_disk["extra"]["scale"] == "test"
        assert on_disk["runs"][0]["config"]["seed"] == 3
        assert on_disk["metrics"]["counters"]["events.published"] == 5.0
        assert on_disk["trace_spans"] > 0
        # the trace file it points at round-trips
        spans = read_jsonl(session.out_dir / on_disk["trace_file"])
        assert len(spans) == on_disk["trace_spans"]
        metrics = json.loads(session.metrics_path.read_text())
        assert "series" in metrics

    def test_validate_flags_missing_required_metrics(self):
        problems = validate_manifest(
            {
                "created_utc": "x", "command": None, "label": "r",
                "git_rev": None, "versions": {}, "runs": [{}],
                "metrics": {"counters": {}, "gauges": {}},
                "trace_file": "t", "trace_spans": 0,
            }
        )
        assert any("transport.retransmissions" in p for p in problems)

    def test_validate_flags_missing_keys(self):
        problems = validate_manifest({})
        assert problems


class TestTraceCLI:
    def _write_session(self, tmp_path):
        sess = TelemetrySession(tmp_path, label="cli")
        root = sess.tracer.span("publish", t=0.0, node=1, event=2)
        sess.tracer.span("forward", t=1.0, node=1, event=2, parent=root,
                         src=1, dst=4, entries=1, bytes=129)
        sess.finalize(command="test")
        return sess

    def test_trace_lists_renders_and_jsons(self, tmp_path, capsys):
        from repro.__main__ import main

        self._write_session(tmp_path)
        assert main(["trace", "--telemetry-out", str(tmp_path)]) == 0
        assert "event ids: 2" in capsys.readouterr().out
        assert (
            main(["trace", "--event", "2", "--telemetry-out", str(tmp_path)])
            == 0
        )
        assert "forward 1 -> 4" in capsys.readouterr().out
        rc = main(
            ["trace", "--event", "2", "--json", "--telemetry-out",
             str(tmp_path)]
        )
        assert rc == 0
        spans = json.loads(capsys.readouterr().out)
        assert [s["kind"] for s in spans] == ["publish", "forward"]

    def test_trace_missing_dir_fails_cleanly(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main(["trace", "--telemetry-out", str(tmp_path / "no")]) == 2

    def test_trace_unknown_event_json_exits_nonzero(self, tmp_path):
        from repro.__main__ import main

        self._write_session(tmp_path)
        rc = main(
            ["trace", "--event", "99", "--json", "--telemetry-out",
             str(tmp_path)]
        )
        assert rc == 1
