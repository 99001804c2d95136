"""The telemetry session: one registry + tracer + manifest.

A session is *ambient*: ``python -m repro <exp> --telemetry-out DIR``
installs one with :func:`set_session`, and every
:class:`~repro.core.system.HyperSubSystem` built while it is active
attaches itself automatically -- experiments need no plumbing changes
to become observable.  ``finalize()`` writes the three artifacts::

    DIR/trace.jsonl     one span per line (causal event traces)
    DIR/metrics.json    full registry dump (values + sampled series)
    DIR/manifest.json   run provenance (see repro.telemetry.manifest)

Library code can also scope a session explicitly::

    with telemetry_session("out/run1") as sess:
        system = HyperSubSystem(...)   # attaches to sess
        ...
    # artifacts are on disk here
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

from repro.telemetry.manifest import git_revision, versions, write_manifest
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.tracing import Tracer


class TelemetrySession:
    """Collects everything one observable invocation produces."""

    def __init__(
        self,
        out_dir,
        label: str = "run",
        tracing: bool = True,
        max_spans: int = 2_000_000,
    ) -> None:
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.label = label
        #: span recording on/off (counters are independent)
        self.tracing = tracing
        self.registry = MetricsRegistry()
        self.tracer = Tracer(max_spans=max_spans)
        #: one entry per system built under this session
        self.runs: List[Dict[str, Any]] = []
        #: per share (an attached system, by attach index, or a merged
        #: worker manifest): its counts at its last publish, and its
        #: ``queue.depth.peak``
        self._shares: List[Dict[str, float]] = []
        self._peaks: List[float] = []
        #: per-experiment result summaries (record_result)
        self.results: Dict[str, Dict[str, Any]] = {}
        #: free-form provenance (workload spec, scale, ...)
        self.extra: Dict[str, Any] = {}
        #: streamed metric snapshots, in time order (repro.telemetry.export);
        #: worker sessions ship theirs back via the manifest and
        #: :meth:`merge_child_manifest` folds them in here
        self.snapshots: List[Dict[str, Any]] = []
        self._snap_seq = 0
        self._streamer = None
        #: invoking command line, stamped by the CLI before finalize
        self.command: Optional[str] = None
        self._t0 = time.time()
        self._finalized = False

    # -- paths ------------------------------------------------------------
    @property
    def trace_path(self) -> Path:
        return self.out_dir / "trace.jsonl"

    @property
    def metrics_path(self) -> Path:
        return self.out_dir / "metrics.json"

    @property
    def manifest_path(self) -> Path:
        return self.out_dir / "manifest.json"

    @property
    def stream_path(self) -> Path:
        from repro.telemetry.export import STREAM_FILENAME

        return self.out_dir / STREAM_FILENAME

    # -- population --------------------------------------------------------
    def attach_system(self, system) -> int:
        """Record one system's provenance and publish its counts, so
        every ``REQUIRED_METRICS`` name is present from here on; returns
        the attach index the system publishes under (called by
        HyperSubSystem)."""
        self.runs.append(
            {
                "num_nodes": len(system.nodes),
                "seed": system.config.seed,
                "config": asdict(system.config),
            }
        )
        index = self._new_share()
        stats = system.network.stats
        self.publish_counts(index, stats.counts(), stats.queue_peak)
        self.registry.counter("events.published")
        for name in ("queue.depth", "repair.bytes", "node.load_imbalance",
                     "zone.occupancy", "mem.bytes_per_node"):
            self.registry.gauge(name)
        return index

    def _new_share(self) -> int:
        self._shares.append({})
        self._peaks.append(0.0)
        return len(self._shares) - 1

    def publish_counts(
        self, index: int, counts: Dict[str, float], queue_peak: float
    ) -> None:
        """Make ``counts`` share ``index``'s part of each counter.

        A session counter is the sum over shares of what each published
        last, so its value moves by the change in this share -- down,
        after the system reset its stats.  ``queue.depth.peak`` is the
        maximum over shares."""
        share = self._shares[index]
        for name, n in counts.items():
            self.registry.counter(name).value += n - share.get(name, 0)
        share.update(counts)
        self._peaks[index] = queue_peak
        self.registry.gauge("queue.depth.peak").set(max(self._peaks))

    def record_result(self, name: str, summary: Dict[str, Any]) -> None:
        """Attach one experiment's headline numbers to the manifest."""
        self.results[name] = dict(summary)

    def annotate(self, **info: Any) -> None:
        """Merge free-form provenance (workload spec, scale, ...)."""
        for key, value in info.items():
            if is_dataclass(value) and not isinstance(value, type):
                value = asdict(value)
            self.extra[key] = value

    def stream_snapshot(self, t_ms: Optional[float] = None, **extra: Any):
        """Emit one live metric snapshot (see ``repro.telemetry.export``).

        The snapshot is appended to :attr:`snapshots` (and therefore to
        the manifest), and written+flushed to ``metrics_stream.jsonl``
        so an external ``repro top`` sees it while the run is in
        flight.  Returns the snapshot dict.
        """
        from repro.telemetry.export import SnapshotStreamer, make_snapshot

        snap = make_snapshot(
            self.registry,
            label=self.label,
            seq=self._snap_seq,
            t_ms=t_ms,
            **extra,
        )
        self._snap_seq += 1
        self.snapshots.append(snap)
        if self._streamer is None:
            self._streamer = SnapshotStreamer(self.stream_path)
        self._streamer.emit(snap)
        return snap

    def merge_child_manifest(self, manifest: Dict[str, Any]) -> None:
        """Absorb one worker session's manifest (parallel sweeps).

        The child's systems join ``runs``, its result summaries join
        ``results`` (child keys win only where the parent has none),
        its counters become one more share of this session's sums
        (:meth:`publish_counts`), its gauges are folded in with max and
        its snapshot stream concatenated in time order -- so a sweep
        fanned out over a process pool still produces one parent
        manifest carrying the aggregate ``events.published``, drop
        counters, worst ``mem.*`` footprint and the full snapshot
        timeline.
        """
        self.runs.extend(manifest.get("runs", []))
        for name, summary in manifest.get("results", {}).items():
            self.results.setdefault(name, dict(summary))
        metrics = manifest.get("metrics", {})
        gauges = metrics.get("gauges", {})
        self.publish_counts(
            self._new_share(),
            {name: float(v) for name, v in metrics.get("counters", {}).items()},
            float(gauges.get("queue.depth.peak", 0.0)),
        )
        for name, value in gauges.items():
            gauge = self.registry.gauge(name)
            gauge.set(max(gauge.value, float(value)))
        child_snaps = manifest.get("snapshots", [])
        if child_snaps:
            from repro.telemetry.export import (
                SnapshotStreamer,
                merge_snapshots,
            )

            if self._streamer is None:
                self._streamer = SnapshotStreamer(self.stream_path)
            for snap in child_snaps:
                self._streamer.emit(snap)
            self.snapshots = merge_snapshots(self.snapshots, child_snaps)

    # -- output ------------------------------------------------------------
    def build_manifest(self, command: Optional[str] = None) -> Dict[str, Any]:
        import os

        command = command if command is not None else self.command
        return {
            "created_utc": time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime(self._t0)
            ),
            "label": self.label,
            "command": command,
            "git_rev": git_revision(),
            "versions": versions(),
            "pid": os.getpid(),
            "snapshots": list(self.snapshots),
            "wall_seconds": time.time() - self._t0,
            "runs": self.runs,
            "results": self.results,
            "extra": self.extra,
            "metrics": self.registry.summary(),
            "trace_file": self.trace_path.name,
            "trace_spans": len(self.tracer),
            "trace_spans_dropped": self.tracer.dropped,
            "trace_events": len(self.tracer.event_ids()),
        }

    def finalize(self, command: Optional[str] = None) -> Dict[str, Any]:
        """Write trace.jsonl, metrics.json and manifest.json (idempotent)."""
        self._finalized = True
        if self._streamer is not None:
            self._streamer.close()
            self._streamer = None
        self.tracer.write_jsonl(self.trace_path)
        import json

        self.metrics_path.write_text(
            json.dumps(self.registry.as_dict(), indent=2, sort_keys=True)
            + "\n",
            encoding="utf-8",
        )
        manifest = self.build_manifest(command=command)
        write_manifest(self.manifest_path, manifest)
        return manifest


# ----------------------------------------------------------------------
# Ambient session
# ----------------------------------------------------------------------
_current: Optional[TelemetrySession] = None


def current_session() -> Optional[TelemetrySession]:
    """The active session, or None when telemetry is disabled."""
    return _current


def set_session(session: Optional[TelemetrySession]) -> None:
    global _current
    _current = session


@contextmanager
def telemetry_session(out_dir, **kwargs) -> Iterator[TelemetrySession]:
    """Scope an ambient session; finalizes (writes artifacts) on exit."""
    session = TelemetrySession(out_dir, **kwargs)
    previous = current_session()
    set_session(session)
    try:
        yield session
    finally:
        set_session(previous)
        session.finalize()
