"""Tracked perf-regression harness: ``python -m repro bench``.

The micro-benchmarks under ``benchmarks/`` give statistically careful
per-operation timings, but nothing *records* them: the perf trajectory
of the hot paths was invisible across PRs.  This module is the tracked
counterpart -- it times the same hot paths (scheduler dispatch, Chord
next-hop routing, local matching), runs one fig2-shaped macro delivery,
and writes everything to ``BENCH_hotpath.json`` (see
docs/PERFORMANCE.md for how to read it).

CI's ``bench-smoke`` job runs ``python -m repro bench --quick``,
uploads the JSON as an artifact and fails the build when a floor check
fails -- so a routing or scheduler regression shows up as a red build,
not as a mysteriously slower ``fig5`` three PRs later.

The **trajectory** turns single snapshots into history: every bench run
appends one point (git rev, environment fingerprint, the floor
metrics including ``mem.bytes_per_node``) to the committed
``BENCH_trajectory.json``, and ``bench --compare`` diffs the fresh run
against the last committed comparable point, failing on a >20%
regression of any floor (docs/PERFORMANCE.md).
"""

from __future__ import annotations

import json
import os
import platform
import random
import sys
import tempfile
import time
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

#: Version tag for downstream readers of BENCH_hotpath.json.
SCHEMA = "repro-bench/1"

#: Version tag of the committed trajectory file.
TRAJECTORY_SCHEMA = "repro-bench-trajectory/1"

#: Where the trajectory lives (committed at the repo root).
DEFAULT_TRAJECTORY_PATH = "BENCH_trajectory.json"

#: ``--compare`` fails when a floor metric regresses by more than this.
REGRESSION_TOLERANCE = 0.20

#: Conservative floor for scheduler throughput (events/sec).  A shared
#: CI runner is easily 5x slower than a laptop; the floor only has to
#: catch order-of-magnitude regressions (an accidental O(n) heap scan).
SCHEDULER_FLOOR_OPS = 50_000.0

#: The snapshot router must stay well ahead of the linear scan it
#: replaced (acceptance gate of the routing rework; measured ~30x).
ROUTING_SPEEDUP_FLOOR = 3.0


# ----------------------------------------------------------------------
# Micro benchmarks
# ----------------------------------------------------------------------
def _bench_scheduler(events: int = 20_000, repeat: int = 3) -> Dict[str, Any]:
    """Schedule+dispatch throughput of chained callbacks."""
    from repro.sim.engine import Simulator

    best = float("inf")
    for _ in range(repeat):
        sim = Simulator()
        remaining = [events]

        def tick() -> None:
            remaining[0] -= 1
            if remaining[0] > 0:
                sim.schedule(1.0, tick)

        t0 = perf_counter()
        sim.schedule(0.0, tick)
        sim.run()
        best = min(best, perf_counter() - t0)
    return {
        "events": events,
        "best_seconds": best,
        "ops_per_sec": events / best,
    }


def _bench_scheduler_lane(timers: int = 20_000, repeat: int = 3) -> Dict[str, Any]:
    """Retransmission-timer traffic: one timer armed per step with a
    constant delay, nine in ten cancelled 100 steps later (the ack),
    one in ten left to fire.  Timed through a ``TimeoutLane`` and, as
    the reference, through ``schedule()`` / ``Simulator.cancel``; the
    two must fire the same timers at the same times."""
    from repro.sim.engine import Simulator

    def run(use_lane: bool) -> Tuple[float, List[Tuple[float, int]]]:
        sim = Simulator()
        arm = sim.timeout_lane(1_000.0).arm if use_lane else (
            lambda fn, *args: sim.schedule(1_000.0, fn, *args)
        )
        fired: List[Tuple[float, int]] = []
        armed: List[Any] = []

        def expire(i: int) -> None:
            fired.append((sim.now, i))

        def step() -> None:
            i = len(armed)
            armed.append(arm(expire, i))
            if i >= 100 and (i - 100) % 10:
                sim.cancel(armed[i - 100])
            if i + 1 < timers:
                sim.schedule(1.0, step)

        t0 = perf_counter()
        sim.schedule(0.0, step)
        sim.run()
        return perf_counter() - t0, fired

    lane_s = ref_s = float("inf")
    agree = True
    for _ in range(repeat):
        seconds, fired = run(True)
        lane_s = min(lane_s, seconds)
        seconds, ref_fired = run(False)
        ref_s = min(ref_s, seconds)
        agree = agree and fired == ref_fired
    return {
        "timers": timers,
        "fired": len(fired),
        "agree": agree,
        "best_seconds": lane_s,
        "ops_per_sec": timers / lane_s,
        "reference_ops_per_sec": timers / ref_s,
        "speedup": ref_s / lane_s,
    }


def _bench_routing(
    ring_nodes: int = 1024,
    chain_keys: int = 200,
    point_keys: int = 20_000,
    repeat: int = 3,
) -> Dict[str, Any]:
    """Chord next-hop routing on a stabilised ring.

    Two views: per-call ``_closest_preceding`` (bisect snapshot) against
    the reference linear scan, and the end-to-end chain walk every event
    hop performs (``next_hop_addr`` until the home node answers).
    """
    from repro.dht.chord import build_chord_overlay
    from repro.sim.engine import Simulator
    from repro.sim.network import Network
    from repro.sim.topology import ConstantTopology

    sim = Simulator()
    net = Network(sim, ConstantTopology(ring_nodes, rtt=100.0))
    nodes, _ring = build_chord_overlay(net, seed=4)
    rng = random.Random(0)
    keys = [rng.getrandbits(64) for _ in range(chain_keys)]
    for node in nodes:  # steady state: snapshots warm
        node.routing_snapshot()

    # -- per-call: bisect vs reference linear scan ---------------------
    probe = nodes[0]
    pkeys = [rng.getrandbits(64) for _ in range(point_keys)]
    bisect_s = float("inf")
    linear_s = float("inf")
    for _ in range(repeat):
        t0 = perf_counter()
        for k in pkeys:
            probe._closest_preceding(k)
        bisect_s = min(bisect_s, perf_counter() - t0)
        t0 = perf_counter()
        for k in pkeys:
            probe._closest_preceding_linear(k)
        linear_s = min(linear_s, perf_counter() - t0)

    # -- end to end: chain-walk every key to its home node -------------
    def walk() -> int:
        hops = 0
        for key in keys:
            cur = nodes[0]
            while True:
                nh = cur.next_hop_addr(key)
                if nh is None:
                    break
                cur = nodes[nh]
                hops += 1
        return hops

    hops = walk()
    chain_s = float("inf")
    for _ in range(repeat):
        t0 = perf_counter()
        walk()
        chain_s = min(chain_s, perf_counter() - t0)

    return {
        "ring_nodes": ring_nodes,
        "bisect_us_per_call": bisect_s / point_keys * 1e6,
        "linear_us_per_call": linear_s / point_keys * 1e6,
        "closest_preceding_speedup": linear_s / bisect_s,
        "chain_keys": chain_keys,
        "chain_hops": hops,
        "next_hop_ops_per_sec": hops / chain_s,
    }


def _bench_store(repeat: int = 3) -> Dict[str, Any]:
    """Result-store round trip: serialize/write and read/rebuild one
    tiny ``DeliveryResult``, verifying the content digest survives.

    The store is the runner's resume mechanism (docs/RUNNER.md); a
    slow or lossy round trip would silently tax every sweep, so the
    tracked harness times it and the CI gate asserts exactness.
    """
    import shutil

    from repro.experiments.common import DeliveryConfig, run_delivery
    from repro.runner import ResultStore, result_digest

    cfg = DeliveryConfig(num_nodes=80, num_events=80, subs_per_node=5)
    result = run_delivery(cfg, use_cache=False)
    tmp = tempfile.mkdtemp(prefix="repro-bench-store-")
    try:
        store = ResultStore(tmp)
        put_s = float("inf")
        get_s = float("inf")
        for _ in range(repeat):
            t0 = perf_counter()
            key = store.put(result)
            put_s = min(put_s, perf_counter() - t0)
            t0 = perf_counter()
            loaded = store.get(cfg)
            get_s = min(get_s, perf_counter() - t0)
        roundtrip_ok = (
            loaded is not None
            and result_digest(loaded) == result_digest(result)
        )
        size_kb = store.path_for(key).stat().st_size / 1024.0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "put_ms": put_s * 1e3,
        "get_ms": get_s * 1e3,
        "entry_kb": size_kb,
        "roundtrip_ok": bool(roundtrip_ok),
    }


class _NaiveRowMajorScan:
    """The fixed baseline every matching ratio is taken against.

    This is ``BoxStore.match_point`` as it stood before the columnar
    layout, frozen here: row-major ``(capacity, dims)`` bounds at the
    power-of-two capacity the store's doubling reached, an ``_active``
    mask and two ``np.all(axis=1)`` reduces along the short axis.  The
    ``*_speedup`` floors in ``BENCH_trajectory.json`` were recorded
    against that scan, so keeping it as the denominator keeps their
    value and meaning while the real stores change underneath; it also
    makes the agreement check independent of the kernel under test.
    """

    def __init__(self, ids, lows, highs) -> None:
        import numpy as np

        self._np = np  # bench.py imports NumPy lazily; not per call
        n, dims = lows.shape
        capacity = 8
        while capacity < n:
            capacity *= 2
        self._lows = np.empty((capacity, dims), dtype=np.float64)
        self._highs = np.empty((capacity, dims), dtype=np.float64)
        self._lows[:n] = lows
        self._highs[:n] = highs
        self._active = np.zeros(capacity, dtype=bool)
        self._active[:n] = True
        self._subids = list(ids) + [None] * (capacity - n)

    def match_point(self, point) -> List[Any]:
        np = self._np
        point = np.asarray(point, dtype=np.float64)
        inside = (
            self._active
            & np.all(self._lows <= point, axis=1)
            & np.all(point <= self._highs, axis=1)
        )
        return [self._subids[i] for i in np.nonzero(inside)[0]]


def _time_matching(store, pts, repeat: int) -> float:
    """Best-of-``repeat`` seconds to match every point in ``pts``."""
    best = float("inf")
    for _ in range(repeat):
        t0 = perf_counter()
        for p in pts:
            store.match_point(p)
        best = min(best, perf_counter() - t0)
    return best


def _clustered_boxes(n: int, rng, clusters: int = 64):
    """Fig-shaped box workload: hotspot clusters over a 4-dim domain.

    Subscriptions in the paper's workloads concentrate on popular
    attribute regions; hotspot clusters reproduce that skew while the
    band index still sees a full-domain spread.
    """
    import numpy as np

    centres = rng.uniform(500, 9_500, (clusters, 4))
    which = rng.integers(0, clusters, n)
    mid = centres[which] + rng.normal(0, 200, (n, 4))
    half = rng.uniform(5, 250, (n, 4))
    lows = np.clip(mid - half, 0.0, 10_000.0)
    highs = np.clip(mid + half, 0.0, 10_000.0)
    return lows, highs


def _bench_algo5(
    full_scale: bool, points: int = 200, repeat: int = 3
) -> Dict[str, Any]:
    """``match_point`` micro across index kinds.

    Per scale (10^2..10^4 always; 10^5 unless quick) the same clustered box
    set is loaded into the linear and bands stores and the same
    query points are matched through each; every ``*_speedup`` is over
    the naive row-major scan, and answers are cross-checked against it
    so a speedup can never come from a wrong index.
    """
    import numpy as np

    from repro.core.indexing import BandIndex
    from repro.core.matching import BoxStore
    from repro.core.subscription import SubID

    rng = np.random.default_rng(11)
    # The small scales draw last: the 10^4 / 10^5 box sets the
    # trajectory floors were recorded on stay the same draws.
    scales = [10_000] + ([100_000] if full_scale else []) + [1_000, 100]
    out: Dict[str, Any] = {"scales": {}}
    for n in scales:
        lows, highs = _clustered_boxes(n, rng)
        pts = rng.uniform(0, 10_000, (points, 4))
        ids = [SubID(i, 1) for i in range(n)]
        stores = {"linear": BoxStore(4), "bands": BandIndex(4)}
        for store in stores.values():
            for i, sid in enumerate(ids):
                store.put(sid, lows[i], highs[i])
        naive = _NaiveRowMajorScan(ids, lows, highs)

        secs = {
            name: _time_matching(store, pts, repeat)
            for name, store in {**stores, "naive": naive}.items()
        }
        refs = [sorted(naive.match_point(p)) for p in pts[:50]]
        agree = all(
            sorted(s.match_point(p)) == ref
            for s in stores.values()
            for p, ref in zip(pts, refs)
        )
        entry: Dict[str, Any] = {
            "boxes": n,
            "points": points,
            "agree": bool(agree),
        }
        for name, s in secs.items():
            entry[f"{name}_us_per_call"] = s / points * 1e6
            if name != "naive":
                entry[f"{name}_speedup"] = secs["naive"] / s
        out["scales"][str(n)] = entry
    return out


def _bench_pop_matching(boxes: int = 30_000, repeat: int = 3) -> Dict[str, Any]:
    """Migration-sized ``pop_matching`` extraction vs the public-API
    reference loop it replaced (subids -> get_box -> remove), which
    re-resolves the slot dict twice per entry."""
    import numpy as np

    from repro.core.matching import BoxStore
    from repro.core.subscription import SubID

    rng = np.random.default_rng(5)
    lows = rng.uniform(0, 9_000, (boxes, 4))
    highs = lows + rng.uniform(10, 500, (boxes, 4))
    ids = [SubID(int(rng.integers(0, 1 << 32)), i) for i in range(boxes)]

    def fill() -> BoxStore:
        store = BoxStore(4)
        for i, sid in enumerate(ids):
            store.put(sid, lows[i], highs[i])
        return store

    def predicate(sid) -> bool:  # a migrated identifier arc (~1/4)
        return sid.nid % 4 == 1

    single_s = float("inf")
    reference_s = float("inf")
    popped = ref_popped = -1
    for _ in range(repeat):
        store = fill()
        t0 = perf_counter()
        got = store.pop_matching(predicate)
        single_s = min(single_s, perf_counter() - t0)
        popped = len(got)

        store = fill()
        t0 = perf_counter()
        out = []
        for sid in [s for s in store.subids() if predicate(s)]:
            lo, hi = store.get_box(sid)
            store.remove(sid)
            out.append((sid, lo, hi))
        reference_s = min(reference_s, perf_counter() - t0)
        ref_popped = len(out)
        if {s for s, _, _ in got} != {s for s, _, _ in out}:
            raise AssertionError("pop_matching disagrees with reference")
    return {
        "boxes": boxes,
        "popped": popped,
        "reference_popped": ref_popped,
        "single_pass_ms": single_s * 1e3,
        "reference_ms": reference_s * 1e3,
        "speedup": reference_s / single_s,
    }


def run_matching_smoke() -> Dict[str, Any]:
    """The CI ``matching-smoke`` gate, as one callable document.

    Runs only the matching-engine benches (no scheduler/routing/macro)
    and attaches the same floor checks ``validate_bench`` applies to
    them: index agreement, the bands floor and ``pop_matching``
    improvement.
    """
    algo5 = _bench_algo5(full_scale=False)
    pop = _bench_pop_matching()
    scale = algo5["scales"]["10000"]
    checks = {
        "matching_agreement": bool(scale["agree"]),
        "bands_floor_1e4": scale["bands_speedup"] >= 1.0,
        "pop_matching_improved": pop["speedup"] > 1.0,
    }
    return {
        "schema": SCHEMA,
        "algo5": algo5,
        "pop_matching": pop,
        "checks": checks,
    }


# ----------------------------------------------------------------------
# Subscription installation (Algorithms 1-3 through simulated lookups)
# ----------------------------------------------------------------------
def _bench_install(
    num_nodes: int = 200, ops: int = 2_000, repeat: int = 3
) -> Dict[str, Any]:
    """Subscribe/unsubscribe throughput with ``simulate_install=True``.

    A fixed schedule -- 5 subscriptions per node installed up front,
    then ``ops`` Poisson-spaced operations, 55 % subscribes of a fresh
    Table-1 box and 45 % unsubscribes of a live one -- run through LPH,
    ``lookup()``, the surrogate's registration and the summary-filter
    cascade.  Best of ``repeat`` identical runs; ``lph_box_us`` times
    Algorithm 1 alone on the schedule's boxes.
    """
    import numpy as np

    from repro.core.config import HyperSubConfig
    from repro.core.system import HyperSubSystem
    from repro.workloads import WorkloadGenerator, default_paper_spec

    best = float("inf")
    for _ in range(repeat):
        gen = WorkloadGenerator(default_paper_spec(subs_per_node=5), seed=7)
        rng = np.random.default_rng(7)
        system = HyperSubSystem(
            num_nodes=num_nodes,
            config=HyperSubConfig(simulate_install=True, seed=1),
        )
        system.add_scheme(gen.scheme)
        # populate() installs node by node, 5 each
        live = [(i // 5, subid) for i, (_sub, subid) in enumerate(gen.populate(system))]
        system.finish_setup()

        def subscribe(addr: int, sub) -> None:
            live.append((addr, system.subscribe(addr, sub)))

        def unsubscribe(j: int) -> None:
            live[j], live[-1] = live[-1], live[j]
            addr, subid = live.pop()
            system.unsubscribe(addr, subid)

        t = system.sim.now
        n_live = len(live)
        boxes = []
        for _ in range(ops):
            t += float(rng.exponential(20.0))
            if rng.random() < 0.55 or not n_live:
                sub = gen.subscription()
                boxes.append(sub)
                system.sim.schedule_at(
                    t, subscribe, int(rng.integers(0, num_nodes)), sub
                )
                n_live += 1
            else:
                system.sim.schedule_at(t, unsubscribe, int(rng.integers(0, n_live)))
                n_live -= 1
        dispatched = system.sim.processed
        t0 = perf_counter()
        system.run_until_idle()
        best = min(best, perf_counter() - t0)
        dispatches = system.sim.processed - dispatched

    entity = system.entity_for_subscription(boxes[0])
    t0 = perf_counter()
    for sub in boxes:
        entity.zone_of_subscription(sub)
    lph_us = (perf_counter() - t0) / len(boxes) * 1e6
    traffic = system.install_traffic
    return {
        "num_nodes": num_nodes,
        "ops": ops,
        "best_seconds": best,
        "ops_per_sec": ops / best,
        "dispatches_per_op": dispatches / ops,
        "marker_registrations": traffic.get("marker", [0, 0])[0],
        "live_at_end": len(live),
        "lph_box_us": lph_us,
    }


# ----------------------------------------------------------------------
# Macro benchmark (fig2-shaped delivery run)
# ----------------------------------------------------------------------
def _bench_macro(num_nodes: int, num_events: int, out_dir: str) -> Dict[str, Any]:
    from repro.core.config import HyperSubConfig
    from repro.core.system import HyperSubSystem
    from repro.telemetry import telemetry_session
    from repro.workloads import WorkloadGenerator, default_paper_spec

    with telemetry_session(
        os.path.join(out_dir, "bench-macro"), label="bench-macro", tracing=False
    ):
        t_build = perf_counter()
        system = HyperSubSystem(num_nodes=num_nodes, config=HyperSubConfig(seed=1))
        gen = WorkloadGenerator(
            default_paper_spec(subs_per_node=10), seed=7
        )
        system.add_scheme(gen.scheme)
        t_populate = perf_counter()
        gen.populate(system)
        t_finish = perf_counter()
        system.finish_setup()
        t_ready = perf_counter()
        gen.schedule_events(system, count=num_events)
        t0 = perf_counter()
        system.run_until_idle()
        wall = perf_counter() - t0
        memory = system.sample_memory()
        rc = system.route_cache_stats()
        deliveries = sum(
            r.matched for r in system.metrics.records.values()
        )
    return {
        "num_nodes": num_nodes,
        "num_events": num_events,
        #: host seconds before the timed phase, by stage
        "setup_s": {
            "build": t_populate - t_build,
            "populate": t_finish - t_populate,
            "finish_setup": t_ready - t_finish,
            "total": t_ready - t_build,
        },
        "wall_seconds": wall,
        "events_per_sec": num_events / wall,
        "deliveries": deliveries,
        "route_cache_stats": rc,
        "memory": memory.as_dict() if memory is not None else None,
    }


# ----------------------------------------------------------------------
# Validation (the CI gate)
# ----------------------------------------------------------------------
def validate_bench(data: Dict[str, Any]) -> Dict[str, bool]:
    """Floor checks; every value must be True for the build to pass."""
    micro = data["micro"]
    macro = data["macro"]
    algo5 = micro["algo5"]["scales"]
    big = algo5.get("100000")
    return {
        "scheduler_floor": (
            micro["scheduler"]["ops_per_sec"] >= SCHEDULER_FLOOR_OPS
        ),
        "scheduler_lane_agreement": bool(
            micro.get("scheduler_lane", {}).get("agree", True)
        ),
        # Acceptance gates of the matching-engine overhaul: the bands
        # index must beat the naive row-major scan (>=5x at 10^5;
        # parity floor at 10^4 where candidate verification
        # dominates) and every index kind must agree with that scan.
        "matching_agreement": all(e["agree"] for e in algo5.values()),
        "bands_floor_1e4": algo5["10000"]["bands_speedup"] >= 1.0,
        "bands_5x_1e5": big is None or big["bands_speedup"] >= 5.0,
        "pop_matching_improved": micro["pop_matching"]["speedup"] > 1.0,
        "routing_speedup": (
            micro["routing"]["closest_preceding_speedup"]
            >= ROUTING_SPEEDUP_FLOOR
        ),
        "route_cache_hits": macro["route_cache_stats"]["hit_rate"] > 0.0,
        "store_roundtrip": bool(
            micro.get("store", {}).get("roundtrip_ok", True)
        ),
        "memory_accounted": (
            (macro.get("memory") or {}).get("bytes_per_node", 0.0) > 0.0
        ),
    }


# ----------------------------------------------------------------------
# The tracked perf trajectory (``bench --compare``)
# ----------------------------------------------------------------------
#: Floor metrics tracked point-to-point.  ``direction`` says which way
#: is better; ``env`` names the environment-fingerprint fields that
#: must match between two points for the comparison to mean anything.
#: Throughput floors need the same machine/core-count/interpreter;
#: ``mem_bytes_per_node`` is machine-load independent, so only the
#: interpreter (object layouts change across minors) and architecture
#: (pointer width) gate it -- it stays comparable across CI runners.
_FULL_ENV = ("machine", "cpu_count", "python_minor")
_MEM_ENV = ("machine", "python_minor")
TRAJECTORY_FLOORS: Dict[str, Dict[str, Any]] = {
    "events_per_sec": {"direction": "higher", "env": _FULL_ENV},
    "scheduler_ops_per_sec": {"direction": "higher", "env": _FULL_ENV},
    "scheduler_lane_ops_per_sec": {"direction": "higher", "env": _FULL_ENV},
    "next_hop_ops_per_sec": {"direction": "higher", "env": _FULL_ENV},
    "routing_speedup": {"direction": "higher", "env": _FULL_ENV},
    # Both matching ratios are over the naive row-major scan
    # (``_NaiveRowMajorScan``), at 10^4 boxes.
    "matching_bands_speedup": {"direction": "higher", "env": _FULL_ENV},
    "matching_linear_speedup": {"direction": "higher", "env": _FULL_ENV},
    "pop_matching_speedup": {"direction": "higher", "env": _FULL_ENV},
    "install_ops_per_sec": {"direction": "higher", "env": _FULL_ENV},
    "mem_bytes_per_node": {"direction": "lower", "env": _MEM_ENV},
}


def _python_minor(version: str) -> str:
    return ".".join(version.split(".")[:2])


#: End-to-end metrics of ``benchmarks/e2e`` a trajectory point carries.
E2E_POINT_METRICS = ("ops_per_s", "setup_s", "peak_rss_mb")


def e2e_medians(summary: Dict[str, Any]) -> Dict[str, Any]:
    """The part of ``out/bench/summary.json`` (written by
    ``benchmarks/e2e/run.py``) a trajectory point keeps: per workload,
    the medians over the children of :data:`E2E_POINT_METRICS` -- host
    seconds there are already normalised to reference speed."""
    return {
        "seed": summary["seed"],
        "seconds": summary["seconds"],
        "smoke": summary["smoke"],
        "workloads": {
            name: {m: rec["metrics"][m]["median"] for m in E2E_POINT_METRICS}
            for name, rec in sorted(summary["a"].items())
        },
    }


def trajectory_point(
    data: Dict[str, Any],
    e2e_summary: Optional[Dict[str, Any]] = None,
    note: Optional[str] = None,
) -> Dict[str, Any]:
    """Flatten one BENCH_hotpath document into one trajectory point.

    ``e2e_summary`` is the parsed ``out/bench/summary.json`` of an
    end-to-end benchmark run of the same checkout: the point then
    carries the workloads' medians under ``"e2e"`` (recorded, not
    floor-gated).  ``note`` is free text kept with the point.
    """
    micro = data["micro"]
    macro = data["macro"]
    mem = macro.get("memory") or {}
    point: Dict[str, Any] = {
        "created_utc": data["created_utc"],
        "git_rev": data["git_rev"],
        "scale": dict(data["scale"]),
        "env": {
            "machine": data.get("machine"),
            "cpu_count": data.get("cpu_count"),
            "python": data.get("python"),
            "python_minor": _python_minor(data.get("python", "")),
        },
        "metrics": {
            "events_per_sec": macro["events_per_sec"],
            "scheduler_ops_per_sec": micro["scheduler"]["ops_per_sec"],
            "scheduler_lane_ops_per_sec": (
                micro.get("scheduler_lane", {}).get("ops_per_sec")
            ),
            "next_hop_ops_per_sec": micro["routing"]["next_hop_ops_per_sec"],
            "routing_speedup": micro["routing"]["closest_preceding_speedup"],
            "matching_bands_speedup": (
                micro["algo5"]["scales"]["10000"]["bands_speedup"]
            ),
            "matching_linear_speedup": (
                micro["algo5"]["scales"]["10000"]["linear_speedup"]
            ),
            "pop_matching_speedup": micro["pop_matching"]["speedup"],
            "install_ops_per_sec": micro.get("install", {}).get("ops_per_sec"),
            "mem_bytes_per_node": float(mem.get("bytes_per_node", 0.0)),
            "setup_s": macro.get("setup_s", {}).get("total"),
        },
    }
    if e2e_summary is not None:
        point["e2e"] = e2e_medians(e2e_summary)
    if note:
        point["note"] = note
    return point


def load_trajectory(path) -> Dict[str, Any]:
    """The committed trajectory document (fresh/empty when absent)."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return {"schema": TRAJECTORY_SCHEMA, "points": []}
    if doc.get("schema") != TRAJECTORY_SCHEMA:
        return {"schema": TRAJECTORY_SCHEMA, "points": []}
    doc.setdefault("points", [])
    return doc


def append_trajectory(path, point: Dict[str, Any]) -> Dict[str, Any]:
    """Append ``point`` to the trajectory file (created when absent)."""
    doc = load_trajectory(path)
    doc["points"].append(point)
    Path(path).write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return doc


def find_baseline(
    doc: Dict[str, Any], point: Dict[str, Any]
) -> Optional[Dict[str, Any]]:
    """The newest committed point at the same scale, or None.

    Scale identity means the same (num_nodes, num_events) pair -- a
    ``--quick`` run must never be judged against a full-scale point.
    """
    target = (
        point["scale"].get("num_nodes"),
        point["scale"].get("num_events"),
    )
    for prior in reversed(doc.get("points", [])):
        scale = prior.get("scale", {})
        if (scale.get("num_nodes"), scale.get("num_events")) == target:
            return prior
    return None


def compare_points(
    baseline: Dict[str, Any],
    point: Dict[str, Any],
    tolerance: float = REGRESSION_TOLERANCE,
) -> Tuple[List[str], List[str]]:
    """``(regressions, notes)`` between two trajectory points.

    A floor metric is compared only when every environment field it
    requires matches between the points (notes say what was skipped and
    why) -- a laptop's throughput is no baseline for a CI runner, but
    bytes/node carries across.
    """
    regressions: List[str] = []
    notes: List[str] = []
    base_env = baseline.get("env", {})
    env = point.get("env", {})
    for name, spec in TRAJECTORY_FLOORS.items():
        mismatched = [
            f for f in spec["env"] if base_env.get(f) != env.get(f)
        ]
        if mismatched:
            notes.append(
                f"{name}: skipped (env mismatch on {', '.join(mismatched)})"
            )
            continue
        base = baseline.get("metrics", {}).get(name)
        new = point.get("metrics", {}).get(name)
        if not base or new is None:
            notes.append(f"{name}: skipped (missing value)")
            continue
        if spec["direction"] == "higher":
            change = (new - base) / base
            worse = change < -tolerance
        else:
            change = (new - base) / base
            worse = change > tolerance
        arrow = f"{base:,.1f} -> {new:,.1f} ({change:+.1%})"
        if worse:
            regressions.append(f"{name}: {arrow} exceeds {tolerance:.0%}")
        else:
            notes.append(f"{name}: {arrow} ok")
    return regressions, notes


def compare_to_trajectory(
    data: Dict[str, Any],
    path=DEFAULT_TRAJECTORY_PATH,
    tolerance: float = REGRESSION_TOLERANCE,
) -> Tuple[bool, List[str]]:
    """Diff a fresh bench document against the committed trajectory.

    Returns ``(ok, report lines)``; ``ok`` is False only on a floor
    regression beyond ``tolerance``.  No comparable committed point
    (first run at a scale, or a brand-new file) passes with a note.
    """
    point = trajectory_point(data)
    doc = load_trajectory(path)
    baseline = find_baseline(doc, point)
    if baseline is None:
        return True, [
            f"trajectory: no committed point at scale "
            f"{point['scale'].get('num_nodes')}x"
            f"{point['scale'].get('num_events')} in {path}; nothing to "
            "compare (the new point becomes the baseline)"
        ]
    regressions, notes = compare_points(baseline, point, tolerance)
    lines = [
        f"trajectory: comparing against {baseline.get('git_rev', '?')[:12]} "
        f"({baseline.get('created_utc', '?')})"
    ]
    lines.extend(f"  {n}" for n in notes)
    lines.extend(f"  REGRESSION {r}" for r in regressions)
    return not regressions, lines


# ----------------------------------------------------------------------
# Entry point (``python -m repro bench``)
# ----------------------------------------------------------------------
def run_bench(
    out_path: str,
    telemetry_dir: Optional[str] = None,
    compare: bool = False,
    trajectory_path: str = DEFAULT_TRAJECTORY_PATH,
    tolerance: float = REGRESSION_TOLERANCE,
    e2e_summary_path: Optional[str] = None,
    note: Optional[str] = None,
) -> int:
    from repro.experiments.common import scale_from_env
    from repro.telemetry.manifest import git_revision

    num_nodes, num_events = scale_from_env()
    tel_dir = telemetry_dir or "out"
    print(f"bench: macro scale {num_nodes} nodes / {num_events} events")

    t_start = time.time()
    full_scale = num_nodes >= 600  # quick CI runs skip the 10^5 micro
    micro = {
        "scheduler": _bench_scheduler(),
        "scheduler_lane": _bench_scheduler_lane(),
        "routing": _bench_routing(),
        "algo5": _bench_algo5(full_scale),
        "pop_matching": _bench_pop_matching(),
        "install": _bench_install(),
        "store": _bench_store(),
    }
    macro = _bench_macro(num_nodes, num_events, tel_dir)

    data: Dict[str, Any] = {
        "schema": SCHEMA,
        "created_utc": time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime(t_start)
        ),
        "git_rev": git_revision(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "pid": os.getpid(),
        "scale": {
            "name": os.environ.get("REPRO_SCALE", "bench"),
            "num_nodes": num_nodes,
            "num_events": num_events,
        },
        "micro": micro,
        "macro": macro,
    }
    checks = validate_bench(data)
    data["checks"] = checks
    data["wall_seconds"] = time.time() - t_start

    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")

    # Compare against the *committed* trajectory first, then append the
    # fresh point -- one invocation both gates and records.
    compare_ok = True
    if compare:
        compare_ok, lines = compare_to_trajectory(
            data, trajectory_path, tolerance
        )
        print("\n".join(lines), file=sys.stderr if not compare_ok else sys.stdout)
    e2e_summary = None
    if e2e_summary_path is not None:
        e2e_summary = json.loads(
            Path(e2e_summary_path).read_text(encoding="utf-8")
        )
    append_trajectory(
        trajectory_path, trajectory_point(data, e2e_summary, note)
    )

    r = micro["routing"]
    mem = macro.get("memory") or {}
    print(
        f"scheduler     {micro['scheduler']['ops_per_sec']:12,.0f} ops/s\n"
        f"timeout lane  {micro['scheduler_lane']['ops_per_sec']:12,.0f} "
        f"timers/s armed, 90% cancelled "
        f"({micro['scheduler_lane']['speedup']:.2f}x vs schedule()/cancel)\n"
        f"next_hop      {r['next_hop_ops_per_sec']:12,.0f} hops/s "
        f"(bisect {r['bisect_us_per_call']:.2f}us vs linear "
        f"{r['linear_us_per_call']:.2f}us = "
        f"{r['closest_preceding_speedup']:.1f}x)\n"
        + "".join(
            f"match_point   {int(n):>6} boxes: scan "
            f"{e['linear_speedup']:.1f}x ({e['linear_us_per_call']:.1f}us), "
            f"bands {e['bands_speedup']:.1f}x ({e['bands_us_per_call']:.1f}us)\n"
            for n, e in sorted(
                micro["algo5"]["scales"].items(), key=lambda kv: int(kv[0])
            )
        )
        + f"pop_matching  {micro['pop_matching']['speedup']:.2f}x vs "
        f"reference loop ({micro['pop_matching']['popped']} of "
        f"{micro['pop_matching']['boxes']} boxes popped)\n"
        f"install       {micro['install']['ops_per_sec']:12,.0f} sub/unsub "
        f"ops/s through simulated lookups "
        f"({micro['install']['dispatches_per_op']:.1f} dispatches/op, "
        f"lph_box {micro['install']['lph_box_us']:.1f}us)\n"
        f"store         put {micro['store']['put_ms']:.1f}ms / get "
        f"{micro['store']['get_ms']:.1f}ms "
        f"({micro['store']['entry_kb']:.0f} KB/entry)\n"
        f"memory        {mem.get('bytes_per_node', 0.0):12,.0f} bytes/node "
        f"({mem.get('total_bytes', 0) / 1e6:.1f} MB over "
        f"{mem.get('alive_nodes', 0)} nodes)\n"
        f"setup         {macro['setup_s']['total']:.2f}s (build "
        f"{macro['setup_s']['build']:.2f} / populate "
        f"{macro['setup_s']['populate']:.2f} / finish_setup "
        f"{macro['setup_s']['finish_setup']:.2f})\n"
        f"macro         {macro['wall_seconds']:.2f}s "
        f"({macro['events_per_sec']:,.0f} events/s), route-cache hit rate "
        f"{macro['route_cache_stats']['hit_rate']:.3f}"
    )
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        print(f"BENCH CHECKS FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    if not compare_ok:
        print("BENCH TRAJECTORY REGRESSION (see above)", file=sys.stderr)
        return 1
    print(f"all checks passed; wrote {out_path}")
    return 0
