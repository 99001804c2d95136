"""Parallel, crash-tolerant experiment runner with a persistent result store.

The paper's evaluation (Section 5) is a sweep of *independent*
:class:`~repro.experiments.common.DeliveryConfig` points -- every
figure is embarrassingly parallel and every point is deterministic
given its seeds.  This module exploits both facts:

* :class:`ResultStore` -- an on-disk cache under ``out/results/``
  (override with ``REPRO_RESULTS_DIR``; empty or ``none`` disables it).
  Each :class:`~repro.experiments.common.DeliveryResult` is serialized
  as JSON under a content hash of the frozen config, the workload
  specification and a store schema version, so Figures 2-4 share the
  same four runs across processes *and* across invocations, and a
  killed sweep resumes by skipping the points already on disk.

* :func:`run_sweep` / :func:`map_configs` -- fan independent points out
  over a :class:`~concurrent.futures.ProcessPoolExecutor` (``--jobs N``
  or ``REPRO_JOBS``).  A worker failure is retried once in the parent
  and then reported per-point instead of aborting the sweep; each
  worker runs under its own :class:`~repro.telemetry.TelemetrySession`
  whose manifest is merged back into the parent session (worker
  wall-times, per-point seeds, cache hit/miss per point).

* :func:`map_tasks` -- the same pool/retry discipline for experiment
  work that is not a ``DeliveryConfig`` (Table 2's topology
  measurements, the B1 baseline systems).

Determinism contract: a parallel sweep produces numerically identical
``DeliveryResult`` series to a serial one -- every point owns its RNG
seeds (``DeliveryConfig.seed`` / ``workload_seed``), workers share no
mutable state, and :func:`result_digest` (a hash over every numeric
series, excluding wall time) makes the equality checkable; the
property tests in ``tests/test_runner.py`` enforce it.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.experiments.common import (
    DeliveryConfig,
    DeliveryResult,
    default_paper_spec,
)
from repro.sim.stats import Distribution
from repro.telemetry import current_session
from repro.workloads.spec import WorkloadSpec

#: Bump when the serialized layout or the meaning of any stored field
#: changes; the version is hashed into every key, so old entries are
#: simply never read again (they can be deleted at leisure).
STORE_SCHEMA = 1

#: Default store location, relative to the working directory.
DEFAULT_STORE_DIR = os.path.join("out", "results")

#: ``DeliveryResult`` fields serialized as numeric arrays.  Order
#: matters: it is part of the content digest.
_DISTRIBUTION_FIELDS = (
    "matched_pct",
    "matched_counts",
    "max_hops",
    "max_latency_ms",
    "bandwidth_kb",
)
_ARRAY_FIELDS = ("in_bw_kb", "out_bw_kb", "loads", "sub_loads")
_INT_ARRAY_FIELDS = ("loads", "sub_loads")
_SCALAR_FIELDS = ("total_subscriptions", "avg_rtt_ms")


def resolve_spec(
    cfg: DeliveryConfig, spec: Optional[WorkloadSpec] = None
) -> WorkloadSpec:
    """The workload a point actually runs (explicit spec or Table 1)."""
    return spec or default_paper_spec(subs_per_node=cfg.subs_per_node)


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit argument, else ``REPRO_JOBS``, else 1."""
    if jobs is None:
        raw = os.environ.get("REPRO_JOBS")
        if raw is None:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            raise ValueError(
                f"REPRO_JOBS must be an integer, got {raw!r}"
            ) from None
        if jobs < 1:
            raise ValueError(f"REPRO_JOBS must be >= 1, got {jobs}")
        return jobs
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return int(jobs)


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------
def _canonical(obj: Any) -> str:
    """Deterministic JSON (sorted keys, no whitespace) for hashing."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def store_key(cfg: DeliveryConfig, spec: Optional[WorkloadSpec] = None) -> str:
    """Content hash identifying one point: schema + config + workload."""
    payload = {
        "schema": STORE_SCHEMA,
        "config": asdict(cfg),
        "workload": asdict(resolve_spec(cfg, spec)),
    }
    return hashlib.sha256(_canonical(payload).encode()).hexdigest()


def _series_payload(result: DeliveryResult) -> Dict[str, Any]:
    """Every numeric series of a result (wall time excluded: it is
    provenance, not data, and must not affect the content digest)."""
    out: Dict[str, Any] = {}
    for name in _DISTRIBUTION_FIELDS:
        out[name] = [float(v) for v in getattr(result, name).values]
    for name in _ARRAY_FIELDS:
        arr = getattr(result, name)
        if name in _INT_ARRAY_FIELDS:
            out[name] = [int(v) for v in arr]
        else:
            out[name] = [float(v) for v in arr]
    for name in _SCALAR_FIELDS:
        value = getattr(result, name)
        out[name] = int(value) if isinstance(value, (int, np.integer)) else float(value)
    return out


def result_digest(result: DeliveryResult) -> str:
    """Hash of every numeric series (the determinism-contract witness)."""
    payload = {
        "schema": STORE_SCHEMA,
        "config": asdict(result.config),
        "series": _series_payload(result),
    }
    return hashlib.sha256(_canonical(payload).encode()).hexdigest()


def serialize_result(
    result: DeliveryResult, spec: Optional[WorkloadSpec] = None
) -> Dict[str, Any]:
    """JSON-safe document for one stored point."""
    return {
        "schema": STORE_SCHEMA,
        "key": store_key(result.config, spec),
        "label": result.config.label,
        "digest": result_digest(result),
        "config": asdict(result.config),
        "workload": asdict(resolve_spec(result.config, spec)),
        "series": _series_payload(result),
        "meta": {
            "wall_seconds": float(result.wall_seconds),
            "created_utc": time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
            ),
            "pid": os.getpid(),
        },
    }


def _config_from_dict(doc: Dict[str, Any]) -> DeliveryConfig:
    doc = dict(doc)
    if doc.get("subschemes") is not None:
        doc["subschemes"] = tuple(tuple(g) for g in doc["subschemes"])
    return DeliveryConfig(**doc)


def deserialize_result(doc: Dict[str, Any]) -> DeliveryResult:
    """Rebuild a :class:`DeliveryResult` from :func:`serialize_result`."""
    series = doc["series"]
    kwargs: Dict[str, Any] = {"config": _config_from_dict(doc["config"])}
    for name in _DISTRIBUTION_FIELDS:
        kwargs[name] = Distribution(
            np.asarray(series[name], dtype=np.float64)
        )
    for name in _ARRAY_FIELDS:
        dtype = np.int64 if name in _INT_ARRAY_FIELDS else np.float64
        kwargs[name] = np.asarray(series[name], dtype=dtype)
    kwargs["total_subscriptions"] = int(series["total_subscriptions"])
    kwargs["avg_rtt_ms"] = float(series["avg_rtt_ms"])
    kwargs["wall_seconds"] = float(doc["meta"]["wall_seconds"])
    return DeliveryResult(**kwargs)


# ----------------------------------------------------------------------
# The persistent store
# ----------------------------------------------------------------------
class JsonDocStore:
    """Generic content-addressed JSON document cache, one file per key.

    The storage discipline every persistent cache in the repo shares:
    writes are atomic (tempfile + ``os.replace``), so a killed run never
    leaves a truncated entry; a corrupt or unreadable file is treated as
    a miss, not an error.  ``hits`` / ``misses`` count ``get_doc``
    outcomes, so callers (the chaos shrinker, the sweep manifest) can
    report how much work the cache absorbed.

    :class:`ResultStore` layers ``DeliveryResult`` (de)serialization on
    top; the chaos shrinker uses it directly to cache scenario verdicts
    keyed by a schedule hash.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def contains_key(self, key: str) -> bool:
        return self.path_for(key).exists()

    def get_doc(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored document for ``key``, or ``None`` on any miss
        (absent, unreadable, corrupt, or not a JSON object)."""
        try:
            doc = json.loads(self.path_for(key).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            self.misses += 1
            return None
        if not isinstance(doc, dict):
            self.misses += 1
            return None
        self.hits += 1
        return doc

    def put_doc(self, key: str, doc: Dict[str, Any]) -> str:
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=self.root, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, self.path_for(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return key

    def count(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))


class ResultStore(JsonDocStore):
    """On-disk ``DeliveryResult`` cache, one JSON file per content key.

    Inherits the atomic-write / corrupt-is-a-miss discipline from
    :class:`JsonDocStore`; adds the ``DeliveryConfig``-keyed API and the
    schema gate.
    """

    def contains(
        self, cfg: DeliveryConfig, spec: Optional[WorkloadSpec] = None
    ) -> bool:
        return self.contains_key(store_key(cfg, spec))

    def get(
        self, cfg: DeliveryConfig, spec: Optional[WorkloadSpec] = None
    ) -> Optional[DeliveryResult]:
        doc = self.get_doc(store_key(cfg, spec))
        if doc is None:
            return None
        if doc.get("schema") != STORE_SCHEMA:
            return None
        try:
            return deserialize_result(doc)
        except (KeyError, TypeError, ValueError):
            return None

    def put(
        self, result: DeliveryResult, spec: Optional[WorkloadSpec] = None
    ) -> str:
        doc = serialize_result(result, spec)
        return self.put_doc(doc["key"], doc)


def store_root() -> Optional[Path]:
    """Store location from ``REPRO_RESULTS_DIR`` (empty/none = disabled)."""
    raw = os.environ.get("REPRO_RESULTS_DIR", DEFAULT_STORE_DIR)
    if raw.strip().lower() in ("", "none", "off"):
        return None
    return Path(raw)


def default_store() -> Optional[ResultStore]:
    """The ambient store, or ``None`` when persistence is disabled."""
    root = store_root()
    return None if root is None else ResultStore(root)


# ----------------------------------------------------------------------
# Sweep bookkeeping
# ----------------------------------------------------------------------
@dataclass
class PointReport:
    """Provenance of one sweep point (lands in the sweep manifest)."""

    label: str
    key: str
    #: ``memo`` (in-process cache), ``store`` (disk), ``run`` (executed),
    #: or ``failed`` (both attempts errored).
    source: str
    seed: int
    workload_seed: int
    attempts: int = 0
    worker: Optional[int] = None
    wall_seconds: float = 0.0
    digest: Optional[str] = None
    error: Optional[str] = None

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)


@dataclass
class SweepOutcome:
    """Everything one sweep produced, in input-config order."""

    results: List[Optional[DeliveryResult]]
    reports: List[PointReport]
    jobs: int
    wall_seconds: float
    label: str = "sweep"

    def _count(self, source: str) -> int:
        return sum(1 for r in self.reports if r.source == source)

    @property
    def store_hits(self) -> int:
        return self._count("store")

    @property
    def memo_hits(self) -> int:
        return self._count("memo")

    @property
    def executed(self) -> int:
        return self._count("run")

    @property
    def failures(self) -> List[PointReport]:
        return [r for r in self.reports if r.source == "failed"]

    def worker_summary(self) -> Dict[str, Dict[str, Any]]:
        """Per-worker point counts and wall time (executed points only)."""
        workers: Dict[str, Dict[str, Any]] = {}
        for rep in self.reports:
            if rep.source != "run" or rep.worker is None:
                continue
            w = workers.setdefault(
                f"worker-{rep.worker}", {"points": 0, "wall_seconds": 0.0}
            )
            w["points"] += 1
            w["wall_seconds"] += rep.wall_seconds
        return workers

    def manifest_block(self) -> Dict[str, Any]:
        """The ``sweeps`` entry recorded in the parent run manifest."""
        return {
            "label": self.label,
            "jobs": self.jobs,
            "points_total": len(self.reports),
            "store_hits": self.store_hits,
            "memo_hits": self.memo_hits,
            "executed": self.executed,
            "failed": len(self.failures),
            "wall_seconds": self.wall_seconds,
            "workers": self.worker_summary(),
            "points": [r.as_dict() for r in self.reports],
        }


class _SweepMonitor:
    """Live progress of one sweep (see ``repro.telemetry.export``).

    Every resolved point updates two artifacts in the parent session's
    output directory: ``sweep_status.json`` (atomically rewritten
    progress document -- points done/failed/retried, store hits,
    events/s, RSS, per-worker lag) and one line in
    ``metrics_stream.jsonl`` (a full metric snapshot).  ``python -m
    repro top DIR`` renders both while the sweep is running.
    """

    def __init__(self, session, label: str, jobs: int, total: int) -> None:
        self.session = session
        self.label = label
        self.jobs = jobs
        self.total = total
        self.t0 = time.perf_counter()
        self.done = 0
        self.counts = {"run": 0, "store": 0, "memo": 0, "failed": 0}
        self.retried = 0
        self.events_done = 0
        self.workers: Dict[str, Dict[str, Any]] = {}

    def _status(self, finished: bool) -> Dict[str, Any]:
        from repro.telemetry.export import rss_bytes

        elapsed = time.perf_counter() - self.t0
        return {
            "label": self.label,
            "pid": os.getpid(),
            "jobs": self.jobs,
            "points_total": self.total,
            "done": self.done,
            "executed": self.counts["run"],
            "store_hits": self.counts["store"],
            "memo_hits": self.counts["memo"],
            "failed": self.counts["failed"],
            "retried": self.retried,
            "events_done": self.events_done,
            "events_per_sec": self.events_done / elapsed if elapsed > 0 else 0.0,
            "elapsed_seconds": elapsed,
            "rss_bytes": rss_bytes(),
            "workers": self.workers,
            "finished": finished,
        }

    def note(self, rep: PointReport, cfg: DeliveryConfig) -> None:
        """One point resolved (any source); refresh both live artifacts."""
        from repro.telemetry.export import STATUS_FILENAME, write_status

        self.done += 1
        self.counts[rep.source] = self.counts.get(rep.source, 0) + 1
        if rep.attempts > 1:
            self.retried += 1
        if rep.source == "run":
            self.events_done += cfg.num_events
            if rep.worker is not None:
                w = self.workers.setdefault(
                    f"worker-{rep.worker}",
                    {"points": 0, "wall_seconds": 0.0},
                )
                w["points"] += 1
                w["wall_seconds"] += rep.wall_seconds
                w["last_done_wall"] = time.time()
        write_status(
            self.session.out_dir / STATUS_FILENAME, self._status(False)
        )
        self.session.stream_snapshot(
            kind="sweep",
            point=rep.label,
            source=rep.source,
            done=self.done,
            points_total=self.total,
        )

    def finish(self) -> None:
        from repro.telemetry.export import STATUS_FILENAME, write_status

        write_status(
            self.session.out_dir / STATUS_FILENAME, self._status(True)
        )


class SweepError(RuntimeError):
    """Raised after a sweep completes with one or more failed points.

    Every other point has already been computed (and persisted when the
    store is enabled), so rerunning the same sweep resumes from the
    store and retries only the failed points.
    """

    def __init__(self, outcome: SweepOutcome) -> None:
        self.outcome = outcome
        lines = [
            f"{len(outcome.failures)} of {len(outcome.reports)} sweep "
            f"points failed (completed points are in the result store):"
        ]
        for rep in outcome.failures:
            first_line = (rep.error or "unknown error").strip().splitlines()
            lines.append(
                f"  - {rep.label} (seed={rep.seed}, attempts="
                f"{rep.attempts}): {first_line[-1] if first_line else '?'}"
            )
        super().__init__("\n".join(lines))


# ----------------------------------------------------------------------
# Worker entry points (top-level: must be picklable)
# ----------------------------------------------------------------------
def _worker_run_point(
    cfg: DeliveryConfig,
    spec: Optional[WorkloadSpec],
    results_dir: Optional[str],
) -> Dict[str, Any]:
    """Run one point in a pool worker under a private TelemetrySession.

    Returns a dict (never raises): ``{"ok": True, result, manifest,
    wall_seconds, pid}`` or ``{"ok": False, error, pid}``.  The store
    write happens inside ``run_delivery`` exactly as in a serial run.
    """
    from repro.experiments import common
    from repro.telemetry.session import TelemetrySession, set_session

    if results_dir is not None:
        os.environ["REPRO_RESULTS_DIR"] = results_dir
    tmp = tempfile.mkdtemp(prefix="repro-worker-")
    session = TelemetrySession(tmp, label=f"worker-{os.getpid()}", tracing=False)
    previous = current_session()
    set_session(session)
    t0 = time.perf_counter()
    try:
        result = common.run_delivery(cfg, spec=spec)
        manifest = session.build_manifest(
            command=f"runner-worker pid={os.getpid()}"
        )
        return {
            "ok": True,
            "result": result,
            "manifest": manifest,
            "wall_seconds": time.perf_counter() - t0,
            "pid": os.getpid(),
        }
    except Exception:
        return {
            "ok": False,
            "error": traceback.format_exc(),
            "pid": os.getpid(),
        }
    finally:
        set_session(previous)
        shutil.rmtree(tmp, ignore_errors=True)


def _worker_run_task(fn: Callable, item: Any) -> Dict[str, Any]:
    """Generic pool worker for :func:`map_tasks` (never raises)."""
    t0 = time.perf_counter()
    try:
        return {
            "ok": True,
            "result": fn(item),
            "wall_seconds": time.perf_counter() - t0,
            "pid": os.getpid(),
        }
    except Exception:
        return {
            "ok": False,
            "error": traceback.format_exc(),
            "pid": os.getpid(),
        }


# ----------------------------------------------------------------------
# The sweep runner
# ----------------------------------------------------------------------
def run_sweep(
    configs: Sequence[DeliveryConfig],
    spec: Optional[WorkloadSpec] = None,
    jobs: Optional[int] = None,
    label: str = "sweep",
) -> SweepOutcome:
    """Compute every config's :class:`DeliveryResult`, in input order.

    Resolution order per point: in-process memo, then the persistent
    store (resume semantics), then execution -- in parallel when
    ``jobs > 1``.  Failures are retried once in the parent process (so
    a crashed *worker* cannot take the sweep down with it) and then
    recorded per-point; the caller sees them as a :class:`SweepError`
    raised by :func:`map_configs` after every other point finished.
    """
    from repro.experiments import common

    jobs = resolve_jobs(jobs)
    t_start = time.perf_counter()
    store = default_store()
    results_dir = str(store.root) if store is not None else None

    # Order-preserving dedupe: sweeps legitimately repeat a config
    # (e.g. the ablation's PNS-on point equals its R=8 point).
    unique: List[DeliveryConfig] = []
    seen: Dict[DeliveryConfig, int] = {}
    for cfg in configs:
        if cfg not in seen:
            seen[cfg] = len(unique)
            unique.append(cfg)

    by_cfg: Dict[DeliveryConfig, DeliveryResult] = {}
    reports: Dict[DeliveryConfig, PointReport] = {}
    pending: List[DeliveryConfig] = []
    session = current_session()
    monitor = (
        _SweepMonitor(session, label, jobs, len(unique))
        if session is not None
        else None
    )

    def _report(cfg: DeliveryConfig, source: str, **kw) -> PointReport:
        rep = PointReport(
            label=cfg.label,
            key=store_key(cfg, spec),
            source=source,
            seed=cfg.seed,
            workload_seed=cfg.workload_seed,
            **kw,
        )
        reports[cfg] = rep
        if monitor is not None:
            monitor.note(rep, cfg)
        return rep

    # -- phase 1: resolve from memo and store (the resume path) --------
    for cfg in unique:
        if spec is None and cfg in common._memo:
            by_cfg[cfg] = common._memo[cfg]
            _report(cfg, "memo", digest=result_digest(by_cfg[cfg]))
            continue
        if store is not None:
            hit = store.get(cfg, spec)
            if hit is not None:
                by_cfg[cfg] = hit
                if spec is None:
                    common._memo[cfg] = hit
                _report(cfg, "store", digest=result_digest(hit))
                continue
        pending.append(cfg)

    # -- phase 2: execute the remainder --------------------------------
    def _run_in_parent(cfg: DeliveryConfig, attempts_before: int) -> None:
        t0 = time.perf_counter()
        try:
            result = common.run_delivery(cfg, spec=spec)
        except Exception:
            _report(
                cfg, "failed",
                attempts=attempts_before + 1,
                error=traceback.format_exc(),
            )
            return
        by_cfg[cfg] = result
        _report(
            cfg, "run",
            attempts=attempts_before + 1,
            worker=os.getpid(),
            wall_seconds=time.perf_counter() - t0,
            digest=result_digest(result),
        )

    if pending and (jobs == 1 or len(pending) == 1):
        for cfg in pending:
            _run_in_parent(cfg, attempts_before=0)
    elif pending:
        workers = min(jobs, len(pending))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(_worker_run_point, cfg, spec, results_dir): cfg
                for cfg in pending
            }
            not_done = set(futures)
            while not_done:
                done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                for fut in done:
                    cfg = futures[fut]
                    try:
                        payload = fut.result()
                    except Exception:
                        # The pool itself broke (worker killed/OOMed):
                        # retry this point serially in the parent.
                        _run_in_parent(cfg, attempts_before=1)
                        continue
                    if payload["ok"]:
                        result = payload["result"]
                        by_cfg[cfg] = result
                        if session is not None:
                            # Merge immediately (not at sweep end) so the
                            # parent registry -- and therefore the status
                            # panel and snapshot stream -- grows live.
                            session.merge_child_manifest(payload["manifest"])
                        _report(
                            cfg, "run",
                            attempts=1,
                            worker=payload["pid"],
                            wall_seconds=payload["wall_seconds"],
                            digest=result_digest(result),
                        )
                        if store is not None and not store.contains(cfg, spec):
                            # Belt and braces: the worker normally saved
                            # it already (run_delivery writes through).
                            store.put(result, spec)
                    else:
                        _run_in_parent(cfg, attempts_before=1)

    # Parent memo absorbs everything so fig3/fig4 reuse fig2's points.
    if spec is None:
        for cfg, result in by_cfg.items():
            common._memo.setdefault(cfg, result)

    outcome = SweepOutcome(
        results=[by_cfg.get(cfg) for cfg in configs],
        reports=[reports[cfg] for cfg in configs],
        jobs=jobs,
        wall_seconds=time.perf_counter() - t_start,
        label=label,
    )
    if monitor is not None:
        monitor.finish()
    _record_sweep_telemetry(outcome)
    return outcome


def _record_sweep_telemetry(outcome: SweepOutcome) -> None:
    """Record the sweep block in the parent session.

    Worker manifests are merged *inline* as each point completes (see
    ``run_sweep``'s completion loop) so the live view tracks the sweep;
    this epilogue only adds the store counters and the ``sweeps`` entry.
    """
    session = current_session()
    if session is None:
        return
    session.registry.counter("store.hits").inc(outcome.store_hits)
    session.registry.counter("store.misses").inc(outcome.executed)
    session.extra.setdefault("sweeps", []).append(outcome.manifest_block())


def map_configs(
    configs: Sequence[DeliveryConfig],
    spec: Optional[WorkloadSpec] = None,
    jobs: Optional[int] = None,
    label: str = "sweep",
) -> List[DeliveryResult]:
    """The drivers' entry point: results in input order, or
    :class:`SweepError` after the whole sweep finished if any point
    failed both attempts."""
    outcome = run_sweep(configs, spec=spec, jobs=jobs, label=label)
    if outcome.failures:
        raise SweepError(outcome)
    return [r for r in outcome.results if r is not None]


# ----------------------------------------------------------------------
# Generic parallel map (non-DeliveryConfig experiment work)
# ----------------------------------------------------------------------
def map_tasks(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    jobs: Optional[int] = None,
    label: str = "tasks",
) -> List[Any]:
    """Ordered parallel map with the sweep's retry-once discipline.

    ``fn`` must be a top-level (picklable) callable.  There is no
    result store here -- use it for cheap, self-contained measurements
    (Table 2's per-size RTT estimate, the B1 baseline systems).
    """
    jobs = resolve_jobs(jobs)
    items = list(items)
    if jobs == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    results: List[Any] = [None] * len(items)
    errors: List[str] = []
    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        futures = {
            pool.submit(_worker_run_task, fn, item): idx
            for idx, item in enumerate(items)
        }
        for fut in list(futures):
            idx = futures[fut]
            try:
                payload = fut.result()
            except Exception:
                payload = {"ok": False, "error": traceback.format_exc()}
            if payload["ok"]:
                results[idx] = payload["result"]
            else:
                # Retry once in the parent; a second failure is fatal
                # for a generic task (there is nothing to resume from).
                try:
                    results[idx] = fn(items[idx])
                except Exception:
                    errors.append(
                        f"{label}[{idx}] failed twice:\n"
                        + traceback.format_exc()
                    )
    if errors:
        raise RuntimeError("\n".join(errors))
    return results
