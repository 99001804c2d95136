"""``repro.telemetry`` -- observability for every experiment.

Three pieces, one session:

* :class:`MetricsRegistry` -- named counters / gauges / histograms with
  sim-time series sampling (``repro.telemetry.registry``);
* :class:`Tracer` -- causal span tracing of publish -> forward ->
  match -> deliver chains, JSONL export (``repro.telemetry.tracing``);
* the run **manifest** -- config, seed, git rev, workload, metric
  summaries written next to every output (``repro.telemetry.manifest``).

See docs/OBSERVABILITY.md for the metric catalogue and trace schema.
"""

from repro.telemetry.export import (
    SnapshotStreamer,
    make_snapshot,
    merge_snapshots,
    read_snapshots,
    render_top,
)
from repro.telemetry.manifest import (
    REQUIRED_METRICS,
    load_manifest,
    merge_manifests,
    validate_manifest,
    write_manifest,
)
from repro.telemetry.memory import (
    MemoryReport,
    deep_sizeof,
    measure_system,
    publish_memory,
    rss_bytes,
)
from repro.telemetry.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry.session import (
    TelemetrySession,
    current_session,
    set_session,
    telemetry_session,
)
from repro.telemetry.tracing import (
    Span,
    Tracer,
    edges_from_spans,
    read_jsonl,
    render_span_tree,
    spans_for_event,
)

__all__ = [
    "REQUIRED_METRICS",
    "Counter",
    "Gauge",
    "Histogram",
    "MemoryReport",
    "MetricsRegistry",
    "SnapshotStreamer",
    "Span",
    "TelemetrySession",
    "Tracer",
    "current_session",
    "deep_sizeof",
    "edges_from_spans",
    "load_manifest",
    "make_snapshot",
    "measure_system",
    "merge_manifests",
    "merge_snapshots",
    "publish_memory",
    "read_jsonl",
    "read_snapshots",
    "render_span_tree",
    "render_top",
    "rss_bytes",
    "set_session",
    "spans_for_event",
    "telemetry_session",
    "validate_manifest",
    "write_manifest",
]
