"""Memory accounting: per-subsystem footprints of a live system.

ROADMAP item 1 (10^5-10^6 simulated nodes) gates on one number nothing
previously measured: **bytes per node**.  This module walks a live
:class:`~repro.core.system.HyperSubSystem` and attributes its heap
footprint to the subsystems that own it -- subscription tables, zone
repositories, overlay routing state, the reliable transport, the route
cache, durable custody logs, the simulator's event queue and the
network fabric -- so a scale PR can see *which* table is the ceiling,
not just that the process grew.

Two entry points:

* :func:`measure_system` -- one :class:`MemoryReport` (pure, no
  telemetry needed);
* :func:`publish_memory` -- measure and publish every component as a
  registry gauge (``mem.bytes_per_node``, ``mem.total_bytes``,
  ``mem.<component>``, ``proc.rss_bytes``), which is how the number
  reaches run manifests and the streaming exporter.

The perf ledger (``python -m repro bench``) pins the ``zones``
component of :func:`measure_system` on a fixed run.

Accounting is a deterministic deep ``sys.getsizeof`` walk with a
shared seen-set (an object referenced from two tables is charged to
whichever component reaches it first, never twice).  On deployments
larger than ``node_sample`` nodes the per-node tables of an evenly
spaced node sample are measured and scaled -- the walk stays O(sample)
while the report stays honest about it (``sampled_nodes``).
"""

from __future__ import annotations

import sys
import types
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set

import numpy as np

#: Leaf types: sized, never entered.
_ATOMIC = (
    type(None), bool, int, float, complex, str, bytes, bytearray, range,
)

#: Callable / definition objects: traversing them would pull in module
#: globals and class dicts -- charge their own size and stop.
_OPAQUE = (
    types.FunctionType,
    types.BuiltinFunctionType,
    types.MethodType,
    types.ModuleType,
    types.GeneratorType,
    type,
)

#: Default cap on per-node table sampling (see module docstring).
DEFAULT_NODE_SAMPLE = 128

#: Safety valve on total objects visited by one measurement; a report
#: that hits it is flagged ``truncated`` rather than hanging a sweep.
DEFAULT_MAX_OBJECTS = 4_000_000

#: Node attributes making up each per-node component.  Missing
#: attributes are skipped, so the table stays tolerant of overlay
#: refactors.
NODE_COMPONENTS: Dict[str, tuple] = {
    #: the user's own subscription table
    "subscriptions": ("own_subs",),
    #: rendezvous zone repositories + replicas + migration stores
    "zones": (
        "zone_repos",
        "rendezvous_index",
        "marker_origin",
        "migrated",
        "standby_repos",
        "standby_rendezvous",
        "standby_markers",
    ),
    #: overlay routing state (fingers/successors/snapshots/leaf sets)
    "overlay": (
        "fingers",
        "successors",
        "predecessor",
        "_snap_rot",
        "_snap_entries",
        "_neigh_cache",
        "leaf_set",
        "routing_table",
        "_pending_lookups",
    ),
    #: reliable transport + ordering buffers
    "transport": (
        "_rel_pending",
        "_rel_seen",
        "_delivered",
        "_pb_last_sent",
        "_dur_parks",
        "_dur_sub_parks",
        "_seq_blocked",
    ),
    #: epoch-keyed next-hop cache (perf extension)
    "route_cache": ("_rc",),
    #: custody-transfer write-ahead state (delivery guarantees)
    "durable_log": ("durable",),
}


def rss_bytes() -> Optional[int]:
    """Resident set size of this process in bytes (None if unknown).

    Reads ``/proc/self/status`` (Linux); falls back to the peak RSS
    from :func:`resource.getrusage` elsewhere.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    except Exception:
        return None


class _Walk:
    """One measurement's traversal state: shared seen-set + budget."""

    __slots__ = ("seen", "budget", "truncated")

    def __init__(self, max_objects: int) -> None:
        self.seen: Set[int] = set()
        self.budget = max_objects
        self.truncated = False

    def exclude(self, objs: Iterable[Any]) -> None:
        """Pre-seed the seen-set: these objects are never entered."""
        for obj in objs:
            self.seen.add(id(obj))


def deep_sizeof(obj: Any, walk: Optional[_Walk] = None) -> int:
    """Deep, shared-aware size of ``obj`` in bytes.

    Iterative (no recursion limit), cycle-safe, deterministic.  Numpy
    arrays are charged their buffer (views included); callables,
    modules and classes are charged their own size but never entered;
    objects already seen by ``walk`` cost nothing (pass one
    :class:`_Walk` across several calls to share double-count
    protection).
    """
    if walk is None:
        walk = _Walk(DEFAULT_MAX_OBJECTS)
    total = 0
    stack: List[Any] = [obj]
    seen = walk.seen
    while stack:
        o = stack.pop()
        oid = id(o)
        if oid in seen:
            continue
        seen.add(oid)
        if walk.budget <= 0:
            walk.truncated = True
            break
        walk.budget -= 1
        try:
            total += sys.getsizeof(o)
        except TypeError:  # pragma: no cover - exotic C objects
            continue
        if isinstance(o, _ATOMIC):
            continue
        if isinstance(o, np.ndarray):
            if o.base is not None:
                # A view: getsizeof misses the shared buffer; charge it
                # (the owning array, if also walked, is then a dup --
                # acceptable for views, which are rare in these tables).
                total += int(o.nbytes)
            continue
        if isinstance(o, _OPAQUE):
            continue
        if isinstance(o, dict):
            stack.extend(o.keys())
            stack.extend(o.values())
            continue
        if isinstance(o, (list, tuple, set, frozenset, deque)):
            stack.extend(o)
            continue
        d = getattr(o, "__dict__", None)
        if d is not None:
            stack.append(d)
        for cls in type(o).__mro__:
            for slot in cls.__dict__.get("__slots__", ()):
                if slot in ("__dict__", "__weakref__"):
                    continue
                try:
                    stack.append(getattr(o, slot))
                except AttributeError:
                    continue
    return total


@dataclass
class MemoryReport:
    """Per-subsystem heap footprint of one live system."""

    num_nodes: int
    alive_nodes: int
    #: nodes whose tables were actually walked (< alive_nodes means the
    #: per-node components were measured on a sample and scaled)
    sampled_nodes: int
    #: component name -> estimated bytes
    components: Dict[str, int] = field(default_factory=dict)
    total_bytes: int = 0
    bytes_per_node: float = 0.0
    rss_bytes: Optional[int] = None
    #: the object budget ran out; totals are a lower bound
    truncated: bool = False

    def as_dict(self) -> Dict[str, Any]:
        return {
            "num_nodes": self.num_nodes,
            "alive_nodes": self.alive_nodes,
            "sampled_nodes": self.sampled_nodes,
            "components": dict(sorted(self.components.items())),
            "total_bytes": self.total_bytes,
            "bytes_per_node": self.bytes_per_node,
            "rss_bytes": self.rss_bytes,
            "truncated": self.truncated,
        }


def _sample_indices(n: int, sample: int) -> List[int]:
    """``sample`` evenly spaced indices into ``range(n)`` (all if n<=sample)."""
    if n <= sample:
        return list(range(n))
    step = n / sample
    return sorted({int(i * step) for i in range(sample)})


def measure_system(
    system,
    node_sample: int = DEFAULT_NODE_SAMPLE,
    max_objects: int = DEFAULT_MAX_OBJECTS,
) -> MemoryReport:
    """Walk ``system`` and attribute its footprint per subsystem.

    Components (see :data:`NODE_COMPONENTS` for the per-node ones):
    ``subscriptions``, ``zones``, ``overlay``, ``transport``,
    ``route_cache``, ``durable_log`` (scaled from the node sample),
    plus ``sim_queue`` (the scheduler's live heap, messages included,
    and the timers waiting in its timeout lanes),
    ``ingress_queues`` (finite-service backlogs; a node that never
    queued has none), ``dispatch`` (the message-handler tables: one
    per distinct registration history, so normally one for the fleet)
    and ``network_stats`` (the fabric's per-node byte/message arrays),
    measured in full.
    """
    walk = _Walk(max_objects)
    # Never wander into the wiring: every node holds system/network/sim
    # back-references, and the telemetry session must not bill itself.
    walk.exclude([system, system.network, system.sim, system.topology])
    # A pending packet holds its retransmission timer, and the timer its
    # lane: without this the first node walked would be billed the
    # whole fleet's timers.
    walk.exclude(system.sim.lanes)
    walk.exclude(system.nodes)
    walk.exclude(system.schemes.values())
    # Every zone points at its scheme's geometry, configuration like the
    # scheme.  Its ``__dict__`` also changes size with the number of
    # geometries the process has built: charged, it would make the first
    # bucket to walk a zone depend on process history.
    walk.exclude(
        entity.geometry
        for name in system.schemes
        for entity in system.entities_of(name)
    )
    if getattr(system, "telemetry", None) is not None:
        walk.exclude([system.telemetry])

    alive = [n for n in system.nodes if n.alive()]
    picked = [alive[i] for i in _sample_indices(len(alive), node_sample)]
    scale = (len(alive) / len(picked)) if picked else 1.0

    components: Dict[str, int] = {}
    for name, attrs in NODE_COMPONENTS.items():
        measured = 0
        for node in picked:
            for attr in attrs:
                value = getattr(node, attr, None)
                if value is not None:
                    measured += deep_sizeof(value, walk)
        components[name] = int(measured * scale)

    # Global structures: measured in full, never scaled.
    components["sim_queue"] = deep_sizeof(system.sim._queue, walk) + sum(
        deep_sizeof(lane._waiting, walk) for lane in system.sim.lanes
    )
    components["ingress_queues"] = sum(
        deep_sizeof(queue, walk)
        for node in alive
        for queue in (node._ingress_hi, node._ingress_lo)
        if queue is not None
    )
    # The seen-set charges a table shared by many nodes once.
    components["dispatch"] = sum(deep_sizeof(node._handlers, walk) for node in alive)
    stats = system.network.stats
    components["network_stats"] = sum(
        deep_sizeof(part, walk)
        for part in (
            stats._in_bytes,
            stats._out_bytes,
            stats.bytes_by_kind,
            stats.msgs_by_kind,
        )
    )

    total = int(sum(components.values()))
    n_alive = len(alive)
    return MemoryReport(
        num_nodes=len(system.nodes),
        alive_nodes=n_alive,
        sampled_nodes=len(picked),
        components=components,
        total_bytes=total,
        bytes_per_node=total / n_alive if n_alive else 0.0,
        rss_bytes=rss_bytes(),
        truncated=walk.truncated,
    )


def publish_memory(
    system,
    registry=None,
    node_sample: int = DEFAULT_NODE_SAMPLE,
) -> MemoryReport:
    """Measure ``system`` and publish the report as registry gauges.

    Gauge names: ``mem.bytes_per_node`` (the headline floor tracked by
    the perf trajectory, which also gets a sim-time series point),
    ``mem.total_bytes``, ``mem.<component>`` for every component, and
    ``proc.rss_bytes``.  Gauges merge with *max* across parallel
    workers (``TelemetrySession.merge_child_manifest``), so a sweep's
    parent manifest reports the worst footprint any worker saw.
    """
    if registry is None:
        session = getattr(system, "telemetry", None)
        if session is None:
            raise ValueError(
                "publish_memory needs a registry or an attached session"
            )
        registry = session.registry
    report = measure_system(system, node_sample=node_sample)
    registry.gauge("mem.bytes_per_node").set(report.bytes_per_node)
    registry.gauge("mem.total_bytes").set(float(report.total_bytes))
    for name, value in report.components.items():
        registry.gauge(f"mem.{name}").set(float(value))
    if report.rss_bytes is not None:
        registry.gauge("proc.rss_bytes").set(float(report.rss_bytes))
    registry.sample("mem.bytes_per_node", system.sim.now)
    return report
