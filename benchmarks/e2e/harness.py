"""Drives the program through its public API for one benchmark run.

One run = generate inputs -> set the system up -> timed phase ->
oracle.  With tracing asked for, a second system is set up under the
span wrappers and the same timed phase is run again; the untraced pass
gives every end-to-end number and the ratio of the two timed walls is
the tracing overhead.

The surface used is listed in ``README.md``; this file and
``layers.py`` are the only places that touch the program.
"""

from __future__ import annotations

import gc
import resource
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time
from typing import Any, Dict, List, Optional

import numpy as np

import oracle
import workloads
from reference import ReferenceKernel, reference_seconds
from tracing import Recorder

_SRC = Path(__file__).resolve().parents[2] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.core.config import HyperSubConfig  # noqa: E402
from repro.core.event import Event  # noqa: E402
from repro.core.scheme import Attribute, Scheme  # noqa: E402
from repro.core.subscription import Subscription  # noqa: E402
from repro.core.system import HyperSubSystem  # noqa: E402

#: the timed phase is run as this many spans of simulated time plus
#: the drain, with a reading of the reference kernel after each
SLICES = 10


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Objects:
    """The generated inputs as the program's own value types."""

    scheme: Scheme
    subs: List[Subscription]
    sub_addr: List[int]
    events: List[Event]
    ev_addr: List[int]


def make_objects(inputs: workloads.Inputs) -> Objects:
    scheme = Scheme(
        workloads.SCHEME_NAME,
        [
            Attribute(f"d{i}", workloads.DOMAIN_LOW, workloads.DOMAIN_HIGH)
            for i in range(workloads.DIMS)
        ],
    )
    return Objects(
        scheme=scheme,
        subs=[
            Subscription.from_box(scheme, lo, hi)
            for lo, hi in zip(inputs.sub_lows.tolist(), inputs.sub_highs.tolist())
        ],
        sub_addr=inputs.sub_addr.tolist(),
        events=[Event(scheme, p) for p in inputs.ev_point.tolist()],
        ev_addr=inputs.ev_addr.tolist(),
    )


@dataclass
class Phase:
    """Host cost of one phase: wall-clock seconds of this process, next
    to CPU seconds so that a descheduled repeat is recognisable."""

    wall_s: float
    cpu_s: float


# ---------------------------------------------------------------------------
def set_up(w: workloads.Workload, inputs: workloads.Inputs, objs: Objects):
    """Build + add_scheme + install the initial subscriptions +
    finish_setup.  Returns ``(system, subids, phase)``; ``subids[row]``
    is filled for the installed rows."""
    subids: List[Any] = [None] * len(objs.subs)
    w0, c0 = perf_counter(), process_time()
    system = HyperSubSystem(num_nodes=w.nodes, config=HyperSubConfig(**w.config))
    system.add_scheme(objs.scheme)
    subscribe = system.subscribe
    for row in range(inputs.n_initial):
        subids[row] = subscribe(objs.sub_addr[row], objs.subs[row])
    system.finish_setup()
    return system, subids, Phase(perf_counter() - w0, process_time() - c0)


def _schedule_events(system, objs: Objects, inputs: workloads.Inputs, eids: List[int]):
    """Queue every publish at its generated time; returns the simulated
    time of the last one.  Bookkeeping only -- runs outside the timed
    phase."""
    base = system.sim.now
    publish = system.publish
    events, addrs = objs.events, objs.ev_addr

    def publish_one(k: int) -> None:
        eids[k] = publish(addrs[k], events[k])

    times = (base + inputs.ev_offset_ms).tolist()
    schedule_at = system.sim.schedule_at
    for k, t in enumerate(times):
        schedule_at(t, publish_one, k)
    return times[-1] if times else base


def _schedule_churn(system, objs: Objects, inputs: workloads.Inputs, subids: List[Any]):
    base = system.sim.now
    subs, addrs = objs.subs, objs.sub_addr
    subscribe, unsubscribe = system.subscribe, system.unsubscribe

    def subscribe_row(row: int) -> None:
        subids[row] = subscribe(addrs[row], subs[row])

    def unsubscribe_row(row: int) -> None:
        unsubscribe(addrs[row], subids[row])

    times = (base + inputs.op_offset_ms).tolist()
    schedule_at = system.sim.schedule_at
    for t, is_sub, row in zip(times, inputs.op_is_sub.tolist(), inputs.op_row.tolist()):
        schedule_at(t, subscribe_row if is_sub else unsubscribe_row, row)
    return times[-1]


@dataclass
class PassResult:
    system: Any
    subids: List[Any]
    eids: List[int]
    timed: Phase
    #: the reference kernel's readings inside and after the timed
    #: phase: how fast the host runs this process (``reference.py``)
    kernel_s: List[float]
    probe_wall_s: Optional[float]
    #: simulated wire bytes of the event phase
    event_bytes: float
    #: what the program's own public counters read when the timed
    #: phase ended (per-layer numbers that need no span)
    counters: Dict[str, float]


def run_pass(
    w: workloads.Workload,
    inputs: workloads.Inputs,
    objs: Objects,
    system,
    subids: List[Any],
    ops: int,
    kernel: Optional[ReferenceKernel] = None,
    rec: Optional[Recorder] = None,
) -> PassResult:
    """The timed phase (and, for a churn workload, the probe events
    after it) on a system that :func:`set_up` prepared.

    The timed phase is everything the scheduled operations cause, from
    the first one until the simulator is idle, the custody/redelivery
    drain of a durable workload included.  It is run as ``SLICES`` equal
    spans of the schedule's simulated time plus the drain, so that the
    reference kernel can be read after each; the clock stops for those
    readings.  All of the phase's wall time counts: a cost that falls
    in one slice or in the drain shows in full.
    """
    eids = [0] * len(objs.events)
    sim = system.sim
    stats = system.network.stats
    if w.loss_rate:
        system.network.set_loss_rate(w.loss_rate, seed=inputs.loss_seed)
    if w.config.get("delivery_mode") == "durable":
        system.start_durable_redelivery()

    start = sim.now
    if w.kind == "churn":
        last = _schedule_churn(system, objs, inputs, subids)
    else:
        last = _schedule_events(system, objs, inputs, eids)

    def drain() -> None:
        if w.drain_ms is not None:
            system.run(until=last + w.drain_ms)
            system.stop_durable_redelivery()
        system.run_until_idle()

    steps = [
        lambda t=start + (last - start) * k / SLICES: system.run(until=t)
        for k in range(1, SLICES + 1)
    ] + [drain]

    # GC stays enabled, as users run it; what set-up allocated is
    # frozen so collections inside the timed phase scan only new objects.
    gc.collect()
    gc.freeze()
    dispatched = sim.processed
    wall = cpu = 0.0
    readings: List[float] = []
    if rec is not None:
        rec.start()
    for step in steps:
        w0, c0 = perf_counter(), process_time()
        step()
        wall, cpu = wall + perf_counter() - w0, cpu + process_time() - c0
        if kernel:
            readings += kernel.read()
    if rec is not None:
        rec.stop()
    counters = _program_counters(system, sim.processed - dispatched, ops)

    probe_wall_s = None
    if w.kind == "churn":
        stats.reset()
        _schedule_events(system, objs, inputs, eids)
        w0 = perf_counter()
        system.run_until_idle()
        probe_wall_s = perf_counter() - w0
    return PassResult(
        system=system,
        subids=subids,
        eids=eids,
        timed=Phase(wall, cpu),
        kernel_s=readings,
        probe_wall_s=probe_wall_s,
        event_bytes=stats.total_bytes,
        counters=counters,
    )


# ---------------------------------------------------------------------------
def observed_deliveries(res: PassResult):
    """``(event index, nid, iid, addr)`` per delivery record."""
    records = res.system.metrics.records
    for k, eid in enumerate(res.eids):
        for subid, addr, _hops, _lat in records[eid].deliveries:
            yield (k, subid.nid, subid.iid, addr)


def judge(inputs: workloads.Inputs, objs: Objects, res: PassResult, observed=None):
    identity = [
        None if sid is None else (sid.nid, sid.iid, addr)
        for sid, addr in zip(res.subids, objs.sub_addr)
    ]
    return oracle.judge(
        inputs.ev_point,
        inputs.sub_lows,
        inputs.sub_highs,
        inputs.live_at_end,
        identity,
        observed_deliveries(res) if observed is None else observed,
    )


def end_to_end(
    ops: int, setup: Phase, res: PassResult, verdict: oracle.Verdict, peak_mb: float
) -> Dict[str, float]:
    """The end-to-end metrics of one child.  Host seconds are wall
    seconds at reference speed, by the child's kernel readings."""
    records = res.system.metrics.records
    recs = [records[eid] for eid in res.eids]
    delivered = [r for r in recs if r.deliveries]
    latency = np.array([r.max_latency_ms for r in delivered])
    hops = np.array([r.max_hops for r in delivered])
    return {
        "setup_s": reference_seconds(setup.wall_s, res.kernel_s),
        "ops_per_s": ops / reference_seconds(res.timed.wall_s, res.kernel_s),
        "peak_rss_mb": peak_mb,
        "delivered_share": 1.0 - verdict.failed_share,
        "sim_latency_ms_p50": float(np.percentile(latency, 50)),
        "sim_latency_ms_p90": float(np.percentile(latency, 90)),
        "sim_max_hops_mean": float(hops.mean()),
        "sim_kb_per_event": res.event_bytes / 1024.0 / len(recs),
    }


def _program_counters(system, dispatches: int, ops: int) -> Dict[str, float]:
    """Per-layer numbers the program itself counts (public counters)."""
    stats = system.network.stats
    traffic = system.install_traffic
    subs = traffic.get("sub", [0, 0])[0]
    sub_ops = subs + traffic.get("unregister", [0, 0])[0]
    install_bytes = sum(
        traffic.get(kind, [0, 0])[1] for kind in ("sub", "marker", "unregister")
    )
    return {
        "sim.engine.dispatches": float(dispatches),
        "sim.engine.dispatches_per_op": dispatches / ops,
        "sim.network.msgs_per_op": stats.total_msgs / ops,
        "sim.network.drops": float(stats.dropped),
        "core.node.route_cache_hit_rate": system.route_cache_stats()["hit_rate"],
        "core.node.marker_registrations_per_sub": (
            traffic.get("marker", [0, 0])[0] / subs if subs else 0.0
        ),
        "core.node.install_kb_per_sub_op": (
            install_bytes / 1024.0 / sub_ops if sub_ops else 0.0
        ),
        "core.node.retransmissions": float(stats.retransmissions),
        "core.node.gave_up": float(stats.gave_up),
        "core.durability.unretired": float(
            sum(len(n.durable.log) for n in system.nodes if n.durable is not None)
        ),
    }
