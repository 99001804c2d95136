"""The deterministic perf ledger: ``python -m repro bench``.

The paper judges HyperSub by what its simulation counts (hops, bytes
per event, stored subscriptions), never by host seconds, and so does
this module.  The **ledger** is a set of fixed scenarios, each of which
reports counters that repeat exactly on any host of the same Python
minor (and, for the memory scenario, the same NumPy major):

* calls of the program's own functions, plus the builtins they call,
  counted by ``cProfile`` (:func:`program_calls`);
* simulated messages and bytes by kind, worklist entries, scheduler
  dispatches and ``match_point`` calls;
* allocated blocks, zone bytes and subscription bytes;
* state and delivery digests.

Calls, ``match_point`` calls, blocks, zone bytes and subscription
bytes are ceilings (:data:`CEILINGS`); everything else is simulated
and exact.  ``tests/test_ledger.py`` compares every row with the
pinned table ``tests/data/ledger.json`` and shows by mutation that each
row fails on the regression it stands for.  End-to-end speed is the
business of ``benchmarks/e2e``; docs/PERFORMANCE.md says what a call
count cannot see.

``python -m repro bench`` runs the ledger and appends one point (the
ledger, the environment, the git revision, optionally the e2e medians
of a ``benchmarks/e2e/run.py`` summary and a note) to the committed
``BENCH_trajectory.json``.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import json
import os
import platform
import random
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Optional

import numpy as np

import repro
from repro.core import (
    Attribute,
    Event,
    HyperSubConfig,
    HyperSubSystem,
    Scheme,
    Subscription,
)

#: Version tag of the committed trajectory file.
TRAJECTORY_SCHEMA = "repro-bench-trajectory/1"

#: Where the trajectory lives (committed at the repo root).
DEFAULT_TRAJECTORY_PATH = "BENCH_trajectory.json"

#: Counters that are ceilings: a change may lower them.  Every other
#: counter is simulated and must not move at all.
CEILINGS = frozenset(
    {"calls", "match_point", "blocks", "zone_bytes", "subscription_bytes"}
)

#: the package's own source files are the program
_PACKAGE_DIR = os.path.dirname(repro.__file__) + os.sep


# ----------------------------------------------------------------------
# Counting
# ----------------------------------------------------------------------
def _is_program(code, also: Iterable[str]) -> bool:
    return not isinstance(code, str) and (
        code.co_filename.startswith(_PACKAGE_DIR)
        or code.co_filename == "<string>"  # generated dataclass methods
        or code.co_filename in also
    )


def program_calls(prof: cProfile.Profile, also: Iterable[str] = ()) -> int:
    """Calls of the program's own functions plus the builtins they call.

    Summed over the profiler's entries, one per code object: ``pstats``
    keys by (file, line, name) and lets every generated dataclass
    ``__init__`` ("<string>", 2) overwrite the previous one.  Frames of
    anything else -- a ``gc.callbacks`` hook some library installed, the
    profiler's own ``disable``, whatever directory the checkout sits in
    -- are not the program's.  ``also`` names further source files to
    count as the program (a test's patched-in functions).
    """
    also = tuple(also)
    calls = 0
    for entry in prof.getstats():
        if not _is_program(entry.code, also):
            continue
        calls += entry.callcount
        calls += sum(
            sub.callcount for sub in entry.calls or () if isinstance(sub.code, str)
        )
    return calls


def calls_of(prof: cProfile.Profile, name: str) -> int:
    """Calls of the program's functions named ``name``."""
    return sum(
        entry.callcount
        for entry in prof.getstats()
        if _is_program(entry.code, ()) and entry.code.co_name == name
    )


def _profiled(fn: Callable[..., Any], *args: Any):
    """``(fn(*args), the profile of that call)``."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        result = fn(*args)
    finally:
        prof.disable()
    return result, prof


def delivery_digest(system) -> str:
    """sha256 over every delivery: (event, SubID, addr, hops, latency)."""
    h = hashlib.sha256()
    for eid, rec in sorted(system.metrics.records.items()):
        for delivery in sorted(
            ((d[0].nid, d[0].iid), d[1], d[2], d[3]) for d in rec.deliveries
        ):
            h.update(repr((eid, delivery)).encode())
    return h.hexdigest()


def _traffic(system) -> Dict[str, Any]:
    """Simulated messages and bytes by kind, worklist entries (one
    route-cache lookup each), deliveries and their digest."""
    stats = system.network.stats
    rc = system.route_cache_stats()
    return {
        "msgs": dict(sorted(stats.msgs_by_kind.items())),
        "bytes": dict(sorted(stats.bytes_by_kind.items())),
        "entries": int(rc["hits"] + rc["misses"]),
        "rc_hits": int(rc["hits"]),
        "deliveries": sum(len(r.deliveries) for r in system.metrics.records.values()),
        "digest": delivery_digest(system),
    }


# ----------------------------------------------------------------------
# The fixed systems
# ----------------------------------------------------------------------
N_NODES = 80
N_SUBS = 240
N_EVENTS = 60


def fixed_system() -> HyperSubSystem:
    """Best-effort: 80 nodes, 240 clustered subscriptions installed, 60
    events scheduled and not yet run: ``run_until_idle()`` is the event
    phase."""
    system = HyperSubSystem(
        num_nodes=N_NODES, config=HyperSubConfig(seed=5, code_bits=12)
    )
    scheme = Scheme("s", [Attribute(x, 0, 10_000) for x in "abcd"])
    system.add_scheme(scheme)
    rng = np.random.default_rng(11)
    for _ in range(N_SUBS):
        centre = rng.normal(3_000, 400, size=4) % 10_000
        width = rng.uniform(200, 900, size=4)
        system.subscribe(
            int(rng.integers(0, N_NODES)),
            Subscription.from_box(
                scheme,
                np.maximum(centre - width, 0.0).tolist(),
                np.minimum(centre + width, 10_000.0).tolist(),
            ),
        )
    system.finish_setup()
    events = [
        (int(rng.integers(0, N_NODES)), Event(scheme, point.tolist()))
        for point in rng.normal(3_000, 400, size=(N_EVENTS, 4)) % 10_000
    ]
    for k, (addr, event) in enumerate(events):
        system.sim.schedule_at(system.sim.now + 50.0 * k, system.publish, addr, event)
    return system


N_DURABLE_NODES = 60
N_DURABLE_EVENTS = 120


def fixed_durable_system() -> HyperSubSystem:
    """60 nodes, one subscription each, durable + FIFO delivery under
    3 % loss, custody redelivery started and 120 events scheduled 25 ms
    apart: :func:`run_durable` is the event phase."""
    cfg = HyperSubConfig(
        seed=16, code_bits=12, reliable_delivery=True,
        retransmit_timeout_ms=1_000.0, max_retries=2,
        delivery_mode="durable", ordering="fifo",
        direct_rendezvous_levels=21, durable_redelivery_ms=2_000.0,
        durable_rejoin_grace_ms=2_000.0,
    )
    system = HyperSubSystem(num_nodes=N_DURABLE_NODES, config=cfg)
    scheme = Scheme("s", [Attribute(x, 0, 1000) for x in "ab"])
    system.add_scheme(scheme)
    for a in range(N_DURABLE_NODES):
        system.subscribe(
            a,
            Subscription.from_box(
                scheme, [13.0 * a % 700, 50.0], [13.0 * a % 700 + 250.0, 950.0]
            ),
        )
    system.finish_setup()
    system.network.set_loss_rate(0.03, seed=16)
    system.start_durable_redelivery()
    for i in range(N_DURABLE_EVENTS):
        system.sim.schedule_at(
            25.0 * i, system.publish, i % N_DURABLE_NODES,
            Event(scheme, [37.0 * i % 1000, 500.0]),
        )
    return system


def run_durable(system: HyperSubSystem) -> None:
    """The event phase of :func:`fixed_durable_system`: 40 s of traffic
    and redelivery, then drained with redelivery stopped."""
    system.run(until=40_000.0)
    system.stop_durable_redelivery()
    system.run_until_idle()


N_SCAN_NODES = 64
N_SCAN_SUBS = 200
N_SCAN_EVENTS = 80


def fixed_rendezvous_system() -> HyperSubSystem:
    """64 nodes, best-effort, the default ``direct_rendezvous_levels``
    (8, so every event visits the occupied shallow zones directly), 200
    subscriptions -- every second one leaves one attribute at the full
    domain (the paper's Section 3.5 case) -- and 80 uniform events
    scheduled: ``run_until_idle()`` is the event phase.  A shallow
    zone's key is the last id of its arc, so it shares that key with its
    rightmost descendants, and a visit to it lists them all."""
    system = HyperSubSystem(
        num_nodes=N_SCAN_NODES, config=HyperSubConfig(seed=23, code_bits=12)
    )
    scheme = Scheme("w", [Attribute(x, 0, 1_000) for x in "abc"])
    system.add_scheme(scheme)
    rng = np.random.default_rng(23)
    for k in range(N_SCAN_SUBS):
        centre = rng.uniform(0, 1_000, size=3)
        width = rng.uniform(20, 150, size=3)
        lows = np.maximum(centre - width, 0.0)
        highs = np.minimum(centre + width, 1_000.0)
        if k % 2:
            lows[k % 3], highs[k % 3] = 0.0, 1_000.0
        system.subscribe(
            int(rng.integers(0, N_SCAN_NODES)),
            Subscription.from_box(scheme, lows.tolist(), highs.tolist()),
        )
    system.finish_setup()
    for k, point in enumerate(rng.uniform(0, 1_000, size=(N_SCAN_EVENTS, 3))):
        system.sim.schedule_at(
            system.sim.now + 40.0 * k, system.publish,
            int(rng.integers(0, N_SCAN_NODES)), Event(scheme, point.tolist()),
        )
    return system


N_CHURN_NODES = 100
N_CHURN_INITIAL = 200
N_CHURN_OPS = 400


def churn_system() -> HyperSubSystem:
    """100 nodes installing through simulated lookups
    (``simulate_install=True``), 200 subscriptions installed, then 400
    subscribe / unsubscribe operations scheduled 20 ms apart and not yet
    run: ``run_until_idle()`` is the churn phase."""
    system = HyperSubSystem(
        num_nodes=N_CHURN_NODES,
        config=HyperSubConfig(seed=5, code_bits=12, simulate_install=True),
    )
    scheme = Scheme("s", [Attribute(x, 0, 10_000) for x in "abcd"])
    system.add_scheme(scheme)
    rng = np.random.default_rng(17)

    def subscription():
        centre = rng.uniform(0, 10_000, size=4)
        width = rng.uniform(100, 2_500, size=4)
        return Subscription.from_box(
            scheme,
            np.maximum(centre - width, 0.0).tolist(),
            np.minimum(centre + width, 10_000.0).tolist(),
        )

    live = []
    for _ in range(N_CHURN_INITIAL):
        addr = int(rng.integers(0, N_CHURN_NODES))
        live.append((addr, system.subscribe(addr, subscription())))
    system.finish_setup()
    for k in range(N_CHURN_OPS):
        at = system.sim.now + 20.0 * (k + 1)
        if rng.random() < 0.55 or not live:
            addr = int(rng.integers(0, N_CHURN_NODES))
            system.sim.schedule_at(at, system.subscribe, addr, subscription())
        else:
            addr, subid = live.pop(int(rng.integers(0, len(live))))
            system.sim.schedule_at(at, system.unsubscribe, addr, subid)
    return system


N_POPULATE_NODES = 64
N_POPULATE_SUBS = 1_000


def populate_plan():
    """A fixed 64-node system and the ``(addr, Subscription)`` pairs to
    install into it: half narrow boxes that hash deep and cascade, half
    boxes that pin one or two of the four attributes and leave the rest
    to the domain."""
    domain = 10_000.0
    system = HyperSubSystem(
        num_nodes=N_POPULATE_NODES, config=HyperSubConfig(seed=5, code_bits=12)
    )
    scheme = Scheme("s", [Attribute(x, 0, domain) for x in "abcd"])
    system.add_scheme(scheme)
    rng = np.random.default_rng(23)
    plan = []
    for k in range(N_POPULATE_SUBS + 1):
        centre = rng.uniform(0, domain, size=4)
        width = rng.uniform(10, 400, size=4)
        lows = np.maximum(centre - width, 0.0)
        highs = np.minimum(centre + width, domain)
        if k % 2:
            free = rng.random(4) < 0.6
            lows[free], highs[free] = 0.0, domain
        sub = Subscription.from_box(scheme, lows.tolist(), highs.tolist())
        plan.append((int(rng.integers(0, N_POPULATE_NODES)), sub))
    return system, plan


def state_digest(system) -> str:
    """Digest of every repository's key, summary filter (as ``repr``,
    so the sign of zero counts), children and stored entries in slot
    order, the rendezvous index, the iid counters and
    ``install_traffic``."""
    h = hashlib.sha256()
    for node in system.nodes:
        for key, repo in sorted(node.zone_repos.items()):
            store = repo.store
            slots = [None if s is None else store.get_box(s) for s in store._subids]
            h.update(repr((key, repr(repo.sf), sorted(repo.children.items()), slots)).encode())
        h.update(repr(sorted(node.rendezvous_index.items())).encode())
        h.update(repr((node._iid_counter, node._marker_iid_counter)).encode())
    h.update(repr(sorted(system.install_traffic.items())).encode())
    return h.hexdigest()[:16]


# ----------------------------------------------------------------------
# The scenarios: each returns one ledger row
# ----------------------------------------------------------------------
def _best_effort(also=()) -> Dict[str, Any]:
    """The event phase of :func:`fixed_system`: the per-hop cost of
    best-effort delivery."""
    system = fixed_system()
    before = system.sim.processed
    _, prof = _profiled(system.run_until_idle)
    return dict(
        _traffic(system),
        dispatches=system.sim.processed - before,
        calls=program_calls(prof, also),
    )


def _memory(also=()) -> Dict[str, Any]:
    """What the zone repositories and the subscribers' own subscriptions
    hold after set-up of :func:`fixed_system` (the ``zones`` and
    ``subscriptions`` components of ``measure_system``) and the growth
    of ``sys.getallocatedblocks()`` over its event phase.  The first run
    in a process also fills caches, so the row is the second run's."""
    from repro.telemetry.memory import measure_system

    for _ in range(2):
        system = fixed_system()
        repos = sum(len(node.zone_repos) for node in system.nodes)
        held = measure_system(system, node_sample=len(system.nodes)).components
        gc.collect()
        # The type attribute cache pins one name per address-chosen slot.
        sys._clear_type_cache()
        before = sys.getallocatedblocks()
        system.run_until_idle()
        gc.collect()
        sys._clear_type_cache()
        grown = sys.getallocatedblocks() - before
    return {
        "repositories": repos,
        "zone_bytes": held["zones"],
        "subscription_bytes": held["subscriptions"],
        "deliveries": sum(r.matched for r in system.metrics.records.values()),
        "blocks": grown,
    }


def _durable(also=()) -> Dict[str, Any]:
    """The event phase of :func:`fixed_durable_system`: every
    ``ps_event`` is a reliable packet with a retransmission record and
    custody-tagged entries, so the hop ack, the custody log and the
    subscriber acks are what the calls measure."""
    system = fixed_durable_system()
    before = system.sim.processed
    _, prof = _profiled(run_durable, system)
    stats = system.network.stats
    return dict(
        _traffic(system),
        retransmissions=stats.retransmissions,
        lost=stats.dropped_by_cause["loss"],
        appends=stats.durable_counts["appends"],
        undrained=sum(len(n.durable.log) for n in system.nodes),
        dispatches=system.sim.processed - before,
        calls=program_calls(prof, also),
    )


def _rendezvous(also=()) -> Dict[str, Any]:
    """The event phase of :func:`fixed_rendezvous_system`: the
    rendezvous loop scans only the repositories whose summary filter
    the event point hits."""
    system = fixed_rendezvous_system()
    before = system.sim.processed
    _, prof = _profiled(system.run_until_idle)
    return dict(
        _traffic(system),
        match_point=calls_of(prof, "match_point"),
        dispatches=system.sim.processed - before,
        calls=program_calls(prof, also),
    )


def _registrar(also=()) -> Dict[str, Any]:
    """The churn phase of :func:`churn_system`: Algorithms 2-3 through
    simulated lookups."""
    system = churn_system()
    before = system.sim.processed
    _, prof = _profiled(system.run_until_idle)
    by_kind = system.network.stats.msgs_by_kind
    return {
        "msgs": {
            kind: by_kind[kind]
            for kind in ("dht_lookup_reply", "dht_lookup_step", "ps_register", "ps_unregister")
        },
        "install_traffic": {
            kind: list(v) for kind, v in sorted(system.install_traffic.items())
        },
        "registrations": calls_of(prof, "_register_local"),
        "dispatches": system.sim.processed - before,
        "calls": program_calls(prof, also),
    }


def _overlay_build(also=()) -> Dict[str, Any]:
    """``build_chord_overlay`` on a fixed 400-node King-like network:
    PNS fingers from the occupied spans."""
    from repro.dht.chord import build_chord_overlay
    from repro.sim.engine import Simulator
    from repro.sim.network import Network
    from repro.sim.topology import KingLikeTopology

    net = Network(Simulator(), KingLikeTopology(400, seed=3))
    (nodes, _ring), prof = _profiled(build_chord_overlay, net, 3)
    digest = hashlib.sha256(repr([node.fingers for node in nodes]).encode())
    return {
        "spans": sum(len(node.fingers) for node in nodes),
        "digest": digest.hexdigest()[:16],
        "calls": program_calls(prof, also),
    }


def _populate(also=()) -> Dict[str, Any]:
    """Installing :func:`populate_plan` with ``simulate_install=False``:
    the set-up path every workload pays once per subscription.  One
    subscription goes in before the profiler starts: the first store of
    a width in a process also makes the query column every store of that
    width shares."""
    system, plan = populate_plan()
    subscribe = system.subscribe
    subscribe(*plan.pop())

    def install():
        for addr, sub in plan:
            subscribe(addr, sub)

    _, prof = _profiled(install)
    return {
        "subscriptions": len(plan),
        "registrations": sum(
            count for kind, (count, _bytes) in system.install_traffic.items()
            if kind != "unregister"
        ),
        "digest": state_digest(system),
        "calls": program_calls(prof, also),
    }


N_TIMERS = 20_000


def _deep_queue(also=()) -> Dict[str, Any]:
    """The scheduler with a deep heap: 20 000 timers at random times, a
    tenth of them cancelled while all are queued, and a timeout lane:
    callback ``i`` arms a lane timer when ``i % 4 == 0`` and cancels the
    newest one (an ack) when ``i % 4 == 2``."""
    from repro.sim.engine import Simulator

    sim = Simulator()
    rng = random.Random(13)
    times = [rng.uniform(0.0, 10_000.0) for _ in range(N_TIMERS)]
    lane = sim.timeout_lane(250.0)
    fired = []
    armed = []

    def expire(i):
        fired.append((sim.now, -i))

    def fire(i):
        fired.append((sim.now, i))
        if i % 4 == 0:
            armed.append(lane.arm(expire, i))
        elif i % 4 == 2 and armed:
            sim.cancel(armed.pop())

    def run():
        handles = [sim.schedule_at(t, fire, i) for i, t in enumerate(times)]
        for handle in handles[::10]:
            sim.cancel(handle)
        sim.run()

    _, prof = _profiled(run)
    return {
        "dispatches": sim.processed,
        "fired": len(fired),
        "digest": hashlib.sha256(repr(fired).encode()).hexdigest()[:16],
        "calls": program_calls(prof, also),
    }


def _chain_walk(also=()) -> Dict[str, Any]:
    """Chord next-hop routing on a stabilised 1 024-node ring: 200 keys
    walked from node 0 to their home node, the walk every event hop
    performs."""
    from repro.dht.chord import build_chord_overlay
    from repro.sim.engine import Simulator
    from repro.sim.network import Network
    from repro.sim.topology import ConstantTopology

    net = Network(Simulator(), ConstantTopology(1024, rtt=100.0))
    nodes, _ring = build_chord_overlay(net, seed=4)
    rng = random.Random(0)
    keys = [rng.getrandbits(64) for _ in range(200)]
    for node in nodes:  # steady state: snapshots warm
        node.routing_snapshot()
    path = []

    def walk():
        for key in keys:
            cur = nodes[0]
            while True:
                nh = cur.next_hop_addr(key)
                if nh is None:
                    break
                cur = nodes[nh]
                path.append(nh)

    _, prof = _profiled(walk)
    return {
        "hops": len(path),
        "digest": hashlib.sha256(repr(path).encode()).hexdigest()[:16],
        "calls": program_calls(prof, also),
    }


def _pop_matching(also=()) -> Dict[str, Any]:
    """Migration-sized ``BoxStore.pop_matching``: a quarter of 30 000
    boxes (an identifier arc) extracted in one pass."""
    from repro.core.matching import BoxStore
    from repro.core.subscription import SubID

    rng = np.random.default_rng(5)
    boxes = 30_000
    lows = rng.uniform(0, 9_000, (boxes, 4))
    highs = lows + rng.uniform(10, 500, (boxes, 4))
    store = BoxStore(4)
    for i in range(boxes):
        store.put(SubID(int(rng.integers(0, 1 << 32)), i), lows[i], highs[i])

    def predicate(sid) -> bool:  # a migrated identifier arc (~1/4)
        return sid.nid % 4 == 1

    got, prof = _profiled(store.pop_matching, predicate)
    popped = sorted(
        (s.nid, s.iid, *map(float, lo), *map(float, hi)) for s, lo, hi in got
    )
    return {
        "popped": len(got),
        "left": len(store),
        "digest": hashlib.sha256(repr(popped).encode()).hexdigest()[:16],
        "calls": program_calls(prof, also),
    }


#: name -> scenario; each takes ``also`` (see :func:`program_calls`),
#: which the memory scenario, counting no calls, ignores
SCENARIOS: Dict[str, Callable[..., Dict[str, Any]]] = {
    "best_effort": _best_effort,
    "memory": _memory,
    "durable": _durable,
    "rendezvous": _rendezvous,
    "registrar": _registrar,
    "overlay_build": _overlay_build,
    "populate": _populate,
    "deep_queue": _deep_queue,
    "chain_walk": _chain_walk,
    "pop_matching": _pop_matching,
}


def table_key(name: str) -> str:
    """The environment a scenario's row is pinned for: the Python
    minor, and for memory (object sizes and array headers) the NumPy
    major as well."""
    key = "python %d.%d" % sys.version_info[:2]
    if name == "memory":
        key += ", numpy " + np.__version__.split(".")[0]
    return key


def run_ledger() -> Dict[str, Dict[str, Any]]:
    """``{scenario: row}`` for every scenario."""
    return {name: scenario() for name, scenario in SCENARIOS.items()}


# ----------------------------------------------------------------------
# The tracked perf trajectory
# ----------------------------------------------------------------------
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
    ledger: Dict[str, Dict[str, Any]],
    e2e_summary: Optional[Dict[str, Any]] = None,
    note: Optional[str] = None,
) -> Dict[str, Any]:
    """One trajectory point: the ledger, the environment it was counted
    in and the git revision; with ``e2e_summary`` (the parsed
    ``out/bench/summary.json`` of an end-to-end run of the same
    checkout) the workloads' medians under ``"e2e"``; ``note`` is free
    text kept with the point."""
    from repro.telemetry.manifest import git_revision

    point: Dict[str, Any] = {
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_rev": git_revision(),
        "env": {
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "ledger": ledger,
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


# ----------------------------------------------------------------------
# Entry point (``python -m repro bench``)
# ----------------------------------------------------------------------
def run_bench(
    trajectory_path: str = DEFAULT_TRAJECTORY_PATH,
    e2e_summary_path: Optional[str] = None,
    note: Optional[str] = None,
) -> int:
    """Run the ledger, print it and append one trajectory point."""
    e2e_summary = None
    if e2e_summary_path is not None:
        e2e_summary = json.loads(Path(e2e_summary_path).read_text(encoding="utf-8"))
    ledger = run_ledger()
    for name, row in ledger.items():
        flat = ", ".join(
            f"{k} {v:,}" for k, v in row.items() if isinstance(v, int)
        )
        print(f"{name:14s} [{table_key(name)}] {flat}")
    append_trajectory(trajectory_path, trajectory_point(ledger, e2e_summary, note))
    print(f"appended a point to {trajectory_path}")
    return 0
