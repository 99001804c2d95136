"""Run provenance: the manifest written next to every experiment's output.

A number without its provenance is a rumor.  The manifest records
everything needed to reproduce and interpret one telemetry-enabled
invocation: the command line, git revision, library versions, every
system configuration built during the run, the workload specification,
final counter and gauge values, per-experiment result summaries, and
where the span trace lives.  A parallel sweep's worker manifests are
folded into the parent's by
:meth:`repro.telemetry.session.TelemetrySession.merge_child_manifest`.

``validate_manifest`` is the CI gate: it returns a list of problems
(empty = good) so a workflow step can assert a fresh manifest parses
and carries the metrics the observability layer promises.
"""

from __future__ import annotations

import json
import platform
import subprocess
from pathlib import Path
from typing import Any, Dict, List, Optional

#: Metric names every telemetry-enabled pub/sub run must publish.
#: (Presence is asserted, not values: a healthy run may well have zero
#: retransmissions.)
REQUIRED_METRICS = (
    "events.published",
    "events.delivered",
    "transport.retransmissions",
    "transport.gave_up",
    "transport.gave_up.retries",
    "transport.gave_up.failover",
    "transport.gave_up.ttl",
    "transport.gave_up.shed",
    "repair.bytes",
    "node.load_imbalance",
    "zone.occupancy",
    "net.dropped",
    "net.shed",
    "queue.depth",
    "queue.depth.peak",
    "mem.bytes_per_node",
    "durable.appends",
    "durable.acked",
    "durable.redelivered",
    "durable.truncated",
    "durable.reorder_overflow",
)

#: Top-level keys ``validate_manifest`` insists on.
REQUIRED_KEYS = (
    "created_utc",
    "command",
    "label",
    "git_rev",
    "versions",
    "runs",
    "metrics",
    "trace_file",
    "trace_spans",
)


def git_revision(cwd: Optional[str] = None) -> Optional[str]:
    """Current git commit hash, or None outside a repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def versions() -> Dict[str, Any]:
    import os

    import numpy

    # machine/cpu_count/python_version make runs from different
    # environments comparable (or visibly incomparable).
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def write_manifest(path, manifest: Dict[str, Any]) -> None:
    Path(path).write_text(
        json.dumps(manifest, indent=2, sort_keys=True, default=str) + "\n",
        encoding="utf-8",
    )


def load_manifest(path) -> Dict[str, Any]:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def validate_manifest(manifest: Dict[str, Any]) -> List[str]:
    """Structural check; returns human-readable problems (empty = OK)."""
    problems: List[str] = []
    for key in REQUIRED_KEYS:
        if key not in manifest:
            problems.append(f"missing top-level key {key!r}")
    metrics = manifest.get("metrics", {})
    if not isinstance(metrics, dict):
        problems.append("metrics block is not a mapping")
        return problems
    known = set(metrics.get("counters", {})) | set(metrics.get("gauges", {}))
    if manifest.get("runs"):
        # Only pub/sub runs publish the delivery metrics; a manifest for
        # e.g. a pure-analysis command legitimately has no systems.
        for name in REQUIRED_METRICS:
            if name not in known:
                problems.append(f"required metric {name!r} absent")
    return problems
