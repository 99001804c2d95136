"""Tests for streaming metric export, sweep status and ``repro top``."""

import io
import json

from repro.experiments.common import DeliveryConfig
from repro.runner import run_sweep
from repro.telemetry import (
    TelemetrySession,
    merge_manifests,
    telemetry_session,
)
from repro.telemetry.export import (
    STATUS_FILENAME,
    STREAM_FILENAME,
    SnapshotStreamer,
    _fmt_bytes,
    make_snapshot,
    merge_snapshots,
    read_snapshots,
    read_status,
    render_top,
    run_top,
    snapshot_sort_key,
    write_status,
)
from repro.telemetry.registry import MetricsRegistry


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------
class TestSnapshots:
    def test_make_snapshot_carries_registry_state(self):
        reg = MetricsRegistry()
        reg.counter("events.published").inc(7)
        reg.gauge("queue.depth").set(3.0)
        snap = make_snapshot(reg, label="x", seq=2, t_ms=10.0, kind="test")
        assert snap["counters"]["events.published"] == 7
        assert snap["gauges"]["queue.depth"] == 3.0
        assert snap["seq"] == 2 and snap["t_ms"] == 10.0
        assert snap["kind"] == "test"
        assert snap["pid"] > 0 and snap["wall"] > 0
        json.dumps(snap)  # JSON-safe

    def test_streamer_roundtrip_and_flush_per_line(self, tmp_path):
        path = tmp_path / STREAM_FILENAME
        streamer = SnapshotStreamer(path)
        streamer.emit({"wall": 1.0, "seq": 0, "pid": 1})
        # Readable *before* close: flush-per-emit is the whole point.
        assert len(read_snapshots(path)) == 1
        streamer.emit({"wall": 2.0, "seq": 1, "pid": 1})
        streamer.close()
        assert [s["seq"] for s in read_snapshots(path)] == [0, 1]

    def test_lazy_open_creates_no_file(self, tmp_path):
        streamer = SnapshotStreamer(tmp_path / "never.jsonl")
        streamer.close()
        assert not (tmp_path / "never.jsonl").exists()

    def test_reader_skips_a_torn_final_line(self, tmp_path):
        path = tmp_path / STREAM_FILENAME
        path.write_text(
            json.dumps({"wall": 1.0}) + "\n" + '{"wall": 2.0, "trunc',
            encoding="utf-8",
        )
        snaps = read_snapshots(path)
        assert len(snaps) == 1 and snaps[0]["wall"] == 1.0

    def test_reader_of_missing_file_is_empty(self, tmp_path):
        assert read_snapshots(tmp_path / "absent.jsonl") == []

    def test_merge_orders_across_processes(self):
        a = [{"wall": 1.0, "pid": 2, "seq": 0}, {"wall": 3.0, "pid": 2, "seq": 1}]
        b = [{"wall": 2.0, "pid": 1, "seq": 0}]
        merged = merge_snapshots(a, b)
        assert [s["wall"] for s in merged] == [1.0, 2.0, 3.0]
        assert merged == sorted(merged, key=snapshot_sort_key)


# ---------------------------------------------------------------------------
# Status document
# ---------------------------------------------------------------------------
class TestStatus:
    def test_write_read_roundtrip_stamps_wall(self, tmp_path):
        path = tmp_path / STATUS_FILENAME
        write_status(path, {"done": 3, "finished": False})
        doc = read_status(path)
        assert doc["done"] == 3 and doc["wall"] > 0
        assert not (tmp_path / (STATUS_FILENAME + ".tmp")).exists()

    def test_missing_or_corrupt_status_reads_none(self, tmp_path):
        assert read_status(tmp_path / "absent.json") is None
        bad = tmp_path / "bad.json"
        bad.write_text("{torn", encoding="utf-8")
        assert read_status(bad) is None


# ---------------------------------------------------------------------------
# Worker-manifest merge (the sweep's snapshot/gauge channel)
# ---------------------------------------------------------------------------
def _worker_manifest(tmp_path, name, published, mem_bpn, wall):
    session = TelemetrySession(tmp_path / name, label=name, tracing=False)
    session.registry.counter("events.published").inc(published)
    session.registry.gauge("mem.bytes_per_node").set(mem_bpn)
    session.registry.gauge("queue.depth.peak").set(mem_bpn / 1000)
    snap = session.stream_snapshot(kind="delivery", point=name)
    snap["wall"] = wall  # deterministic ordering for the assertion
    return session.build_manifest(command=name)


class TestManifestMerge:
    def test_two_worker_merge_semantics(self, tmp_path):
        m1 = _worker_manifest(tmp_path, "w1", published=10, mem_bpn=500.0, wall=2.0)
        m2 = _worker_manifest(tmp_path, "w2", published=32, mem_bpn=900.0, wall=1.0)
        merged = merge_manifests([m1, m2])
        # counters sum, gauges max
        assert merged["metrics"]["counters"]["events.published"] == 42
        assert merged["metrics"]["gauges"]["mem.bytes_per_node"] == 900.0
        assert merged["metrics"]["gauges"]["queue.depth.peak"] == 0.9
        # snapshot streams concatenate in time order
        assert [s["wall"] for s in merged["snapshots"]] == [1.0, 2.0]
        assert merged["workers"] == 2

    def test_merge_child_manifest_folds_snapshots_into_parent(self, tmp_path):
        child = _worker_manifest(tmp_path, "w1", 5, 100.0, wall=0.5)
        parent = TelemetrySession(tmp_path / "parent", label="parent", tracing=False)
        parent.stream_snapshot(kind="sweep")
        parent.merge_child_manifest(child)
        assert len(parent.snapshots) == 2
        assert parent.registry.value("events.published") == 5
        assert parent.registry.value("mem.bytes_per_node") == 100.0
        # The child's snapshot reached the parent's on-disk stream too.
        assert len(read_snapshots(parent.stream_path)) == 2


class TestSweepLiveArtifacts:
    def test_parallel_sweep_streams_and_finishes_status(self, tmp_path):
        cfgs = [
            DeliveryConfig(num_nodes=50, num_events=30, subs_per_node=4, seed=s)
            for s in (1, 2)
        ]
        with telemetry_session(tmp_path / "tel", label="sweep") as tel:
            outcome = run_sweep(cfgs, jobs=2, label="live-test")
            assert not outcome.failures
        status = read_status(tmp_path / "tel" / STATUS_FILENAME)
        assert status["finished"] is True
        assert status["done"] == status["points_total"] == 2
        assert status["executed"] == 2
        assert status["events_per_sec"] > 0
        assert status["workers"]  # at least one worker reported
        snaps = read_snapshots(tmp_path / "tel" / STREAM_FILENAME)
        kinds = {s.get("kind") for s in snaps}
        assert "sweep" in kinds and "delivery" in kinds
        # The on-disk stream is append-only (completion order); the
        # *manifest* carries the time-ordered merge.
        from repro.telemetry.manifest import load_manifest

        manifest = load_manifest(tmp_path / "tel" / "manifest.json")
        ordered = manifest["snapshots"]
        assert len(ordered) == len(snaps)
        assert ordered == sorted(ordered, key=snapshot_sort_key)
        # Merged worker gauges made it into the parent registry.
        assert tel.registry.value("mem.bytes_per_node") > 0


# ---------------------------------------------------------------------------
# repro top
# ---------------------------------------------------------------------------
class TestTop:
    def test_empty_directory_renders_a_hint_and_exits_2(self, tmp_path):
        out = io.StringIO()
        assert run_top(tmp_path, stream=out) == 2
        assert "no live artifacts" in out.getvalue()

    def test_panel_renders_status_and_latest_snapshot(self, tmp_path):
        write_status(
            tmp_path / STATUS_FILENAME,
            {
                "label": "fig5", "pid": 1, "jobs": 2, "points_total": 4,
                "done": 2, "executed": 1, "store_hits": 1, "memo_hits": 0,
                "failed": 0, "retried": 0, "events_per_sec": 123.0,
                "elapsed_seconds": 5.0, "rss_bytes": 2 ** 20,
                "workers": {"worker-9": {"points": 1, "wall_seconds": 1.0,
                                          "last_done_wall": 0.0}},
                "finished": False,
            },
        )
        reg = MetricsRegistry()
        reg.counter("events.published").inc(99)
        reg.gauge("mem.bytes_per_node").set(2048.0)
        SnapshotStreamer(tmp_path / STREAM_FILENAME).emit(
            make_snapshot(reg, label="fig5", t_ms=1000.0)
        )
        text = render_top(tmp_path)
        assert "2/4 points" in text
        assert "events/s 123.0" in text
        assert "worker-9" in text
        assert "events.published=99" in text
        assert "mem.bytes_per_node=2.0 KB" in text

    def test_live_mode_stops_when_status_finishes(self, tmp_path):
        write_status(tmp_path / STATUS_FILENAME, {"finished": True,
                                                  "points_total": 1,
                                                  "done": 1})
        out = io.StringIO()
        assert run_top(tmp_path, live=True, interval=0.01, stream=out) == 0

    def test_live_mode_honours_max_refreshes(self, tmp_path):
        write_status(tmp_path / STATUS_FILENAME, {"finished": False,
                                                  "points_total": 1,
                                                  "done": 0})
        out = io.StringIO()
        rc = run_top(
            tmp_path, live=True, interval=0.0, max_refreshes=3, stream=out
        )
        assert rc == 0
        assert out.getvalue().count("repro top --") == 3


def test_fmt_bytes():
    assert _fmt_bytes(None) == "?"
    assert _fmt_bytes(512) == "512 B"
    assert _fmt_bytes(2048) == "2.0 KB"
    assert _fmt_bytes(3 * 1024 ** 3) == "3.0 GB"
