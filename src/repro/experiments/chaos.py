"""Chaos campaign driver: ``python -m repro chaos --rounds N --seed S``.

Every fault experiment before this one replayed a schedule somebody
wrote by hand, so it could only confirm failure modes already imagined.
A chaos campaign searches instead: each *round* samples a fresh random
fault schedule from the seeded :class:`~repro.faults.ChaosNemesis`
(within a :class:`~repro.faults.ChaosBudget` of safety floors), runs
the full pub/sub stack under it, and checks the invariant oracles the
repo already trusts:

* **delivery-ratio convergence** -- after every fault heals and the
  custody logs drain, every matching subscription got every event
  (durable mode; best-effort rounds *measure* the loss instead);
* **exactly-once** -- no subscription sees an event twice, even with
  the network actively duplicating packets;
* **ordering** -- per-publisher FIFO order under the live oracle
  (durable rounds run ``ordering="fifo"``);
* **no self-isolation** -- ring consistency and zone-responsibility
  coverage hold once the dust settles (the PR 6 eviction bugs were
  exactly this class).

A round that violates an oracle is written to
``out/chaos/failing-<seed>-<round>.json`` together with its
ddmin-shrunken form (:mod:`repro.faults.shrink`; verdicts cached in a
:class:`~repro.runner.JsonDocStore` so a re-shrink is nearly free) and
can be replayed bit-identically with ``--replay FILE`` -- the round
digest is a hash over simulation outcomes only, so two replays of one
schedule must produce the same digest or determinism itself broke.

Rounds are independent and fan over the parallel runner
(:func:`repro.runner.map_tasks`) in batches, streaming progress
through the PR 7 observatory (``sweep_status.json`` +
``metrics_stream.jsonl``; watch with ``python -m repro top out/``).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import HyperSubConfig
from repro.core.system import HyperSubSystem
from repro.faults import (
    ChaosBudget,
    ChaosNemesis,
    FaultSchedule,
    ring_order,
    shrink_spec,
)
from repro.oracle import RunLog, custody_left, drain_custody, judge
from repro.runner import JsonDocStore, map_tasks, resolve_jobs, store_root
from repro.telemetry.session import current_session, telemetry_session
from repro.workloads import WorkloadGenerator, default_paper_spec

#: Round-digest / failing-file schema.
CHAOS_SCHEMA = 1

#: Fleet/stream size for one round.  Rounds are deliberately small --
#: the power of a campaign is *many* schedules, not big ones -- and
#: REPRO_NODES / REPRO_EVENTS override as everywhere else.
_DEFAULT_NODES = 40
_DEFAULT_EVENTS = 80

#: Fixed publisher addresses, protected from crash/flap (their streams
#: anchor the FIFO oracle; partitions and gray faults still hit them).
_PUBLISHERS = (0, 1, 2)

#: Event stream window (faults start inside it; see the budget).
_WARMUP_MS = 2_000.0
_T_END_MS = 30_000.0
#: Fixed drain after the last disturbance, before the adaptive tail.
_DRAIN_MS = 30_000.0
#: Finite service model (always on: ``slow`` faults need a service rate
#: to degrade).  Rate is comfortable -- overload comes from faults, not
#: from the baseline load.
_SERVICE_RATE = 2.0
_QUEUE_CAPACITY = 128


def _chaos_scale() -> Tuple[int, int]:
    """(num_nodes, num_events) for one round, env-overridable."""
    def _env_int(name: str, default: int) -> int:
        raw = os.environ.get(name)
        if raw is None or not raw.strip():
            return default
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(f"{name} must be an integer, got {raw!r}") from None
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
        return value

    return _env_int("REPRO_NODES", _DEFAULT_NODES), _env_int(
        "REPRO_EVENTS", _DEFAULT_EVENTS
    )


def chaos_budget(mode: str) -> ChaosBudget:
    """The campaign's budget: what the nemesis may do per round.

    Anything within this budget must be survivable in durable mode --
    every fault heals by ``t_end`` minus a quiet tail, at most two
    crash-kind faults overlap, publishers are never crash-stopped --
    so a durable-round violation is a bug, not an over-aggressive test.
    """
    return ChaosBudget(
        t_start=_WARMUP_MS,
        t_end=_T_END_MS,
        max_faults=6,
        max_concurrent=2,
        max_crash_fraction=0.2,
        min_heal_ms=5_000.0,
        protect=_PUBLISHERS,
    )


# ----------------------------------------------------------------------
# One round
# ----------------------------------------------------------------------
def run_round(task: Dict[str, Any]) -> Dict[str, Any]:
    """One chaos round, self-contained and picklable for map_tasks.

    ``task`` keys: ``mode`` ("durable" | "best-effort"), ``seed``,
    ``round``, ``num_nodes``, ``num_events``, and optional ``spec`` (a
    declarative fault spec; ``None`` = ask the nemesis).  Runs under a
    scoped throwaway telemetry session so worker processes never write
    into the parent's artifacts.
    """
    t0 = time.time()
    with tempfile.TemporaryDirectory() as tmp:
        with telemetry_session(tmp, tracing=False):
            out = _run_round_inner(task)
    out["wall_seconds"] = time.time() - t0
    return out


def _run_round_inner(task: Dict[str, Any]) -> Dict[str, Any]:
    mode: str = task["mode"]
    seed: int = task["seed"]
    rnd: int = task["round"]
    num_nodes: int = task["num_nodes"]
    num_events: int = task["num_events"]
    durable = mode == "durable"

    kw = dict(
        seed=seed % 997,
        code_bits=12,
        reliable_delivery=True,
        retransmit_timeout_ms=1_000.0,
        max_retries=2,
        hop_failover=True,
        failover_backoff_ms=2_000.0,
        service_model=True,
        service_rate_msgs_per_ms=_SERVICE_RATE,
        ingress_queue_capacity=_QUEUE_CAPACITY,
        overload_protection=False,
    )
    if durable:
        # The guarantees tier's ordered configuration: occupancy-
        # complete directory + owner-only custody (docs/GUARANTEES.md).
        kw.update(
            delivery_mode="durable",
            ordering="fifo",
            direct_rendezvous_levels=21,
            replication_factor=1,
            durable_redelivery_ms=2_000.0,
            durable_rejoin_grace_ms=2_000.0,
        )
    else:
        kw.update(
            delivery_mode="best_effort",
            direct_rendezvous_levels=8,
            replication_factor=3,
        )
    cfg = HyperSubConfig(**kw)

    spec_src = default_paper_spec(subs_per_node=2)
    gen = WorkloadGenerator(spec_src, seed=7 + rnd)

    system = HyperSubSystem(num_nodes=num_nodes, config=cfg)
    system.add_scheme(gen.scheme)
    installed = gen.populate(system)
    system.finish_setup()

    # -- fault schedule: given, or sampled by the nemesis --------------
    fault_spec = task.get("spec")
    if fault_spec is None:
        nemesis = ChaosNemesis(
            num_nodes,
            chaos_budget(mode),
            seed=seed,
            ring=ring_order(system),
            # replica floor only binds where losing a chain loses state:
            # best-effort's k-replicated arcs.  Durable custody parks
            # until the owner returns, so k=1 is survivable by design.
            replica_k=cfg.replication_factor if not durable else 1,
        )
        fault_spec = nemesis.generate_spec(rnd)
    sched = FaultSchedule.from_spec(fault_spec)
    sched.install(system)

    system.start_maintenance(stabilize_interval_ms=500.0, rpc_timeout_ms=1_500.0)
    if not durable:
        system.start_anti_entropy()
    if durable:
        system.start_durable_redelivery()

    log = RunLog(system)
    rng = np.random.default_rng((seed, rnd, 300))
    t = _WARMUP_MS
    span = _T_END_MS - _WARMUP_MS
    for i in range(num_events):
        t = _WARMUP_MS + span * (i + 1) / (num_events + 1) + float(
            rng.uniform(0.0, span / (num_events + 1))
        )
        addr = int(_PUBLISHERS[int(rng.integers(0, len(_PUBLISHERS)))])
        system.sim.schedule_at(min(t, _T_END_MS), log.publish, addr, gen.event())

    system.run(until=_T_END_MS + _DRAIN_MS)
    if durable:
        drain_custody(system)
    system.stop_maintenance()
    if not durable:
        system.stop_anti_entropy()
    if durable:
        system.stop_durable_redelivery()
    system.run_until_idle()

    # -- oracles -------------------------------------------------------
    v = judge(log, installed)
    fifo_v = v.fifo_violations if durable else 0

    inv = system.check_invariants(check_ring=True, check_coverage=True)
    inv_violations = list(inv.violations)

    log_left = custody_left(system)

    violations: List[str] = [f"invariant: {v}" for v in inv_violations]
    # Exactly-once is unconditional: the dedup layers must absorb
    # network duplication in every mode, and nothing may reach a
    # subscription it does not match.
    if v.duplicate:
        violations.append(f"duplicate_deliveries: {v.duplicate}")
    if v.spurious:
        violations.append(f"spurious_deliveries: {v.spurious}")
    if durable:
        if v.missing:
            violations.append(
                f"delivery_incomplete: {v.delivered}/{v.expected}"
            )
        if fifo_v:
            violations.append(f"fifo_violations: {fifo_v}")
        if log_left:
            violations.append(f"custody_undrained: {log_left}")

    stats = system.network.stats
    outcome = {
        "schema": CHAOS_SCHEMA,
        "mode": mode,
        "seed": seed,
        "round": rnd,
        "num_nodes": num_nodes,
        "num_events": num_events,
        "spec": fault_spec,
        "delivered": v.delivered,
        "expected": v.expected,
        "lost": v.missing,
        "dup": v.duplicate,
        "spurious": v.spurious,
        "fifo_violations": fifo_v,
        "invariant_violations": inv_violations,
        "log_left": log_left,
        "violations": violations,
        "dropped_by_cause": dict(stats.dropped_by_cause),
        "net_duplicated": stats.duplicated,
        "net_reordered": stats.reordered,
        "gave_up_by_cause": dict(stats.gave_up_by_cause),
    }
    outcome["digest"] = round_digest(outcome)
    return outcome


def round_digest(outcome: Dict[str, Any]) -> str:
    """Hash over simulation outcomes only (no wall time, no paths):
    the witness that a replayed schedule reproduced the same run."""
    payload = {
        k: outcome[k]
        for k in (
            "schema", "mode", "seed", "round", "num_nodes", "num_events",
            "spec", "delivered", "expected", "lost", "dup",
            "fifo_violations", "invariant_violations", "log_left",
            "dropped_by_cause", "net_duplicated", "net_reordered",
            "gave_up_by_cause",
        )
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def round_fails(outcome: Dict[str, Any]) -> bool:
    """Is this round a *failure* worth shrinking?

    Durable mode promises zero violations within budget, so any
    violation fails.  Best-effort mode promises nothing about loss --
    loss is the expected, interesting outcome that proves the nemesis
    bites -- so a best-effort round "fails" when it loses deliveries
    (or breaks the unconditional oracles).
    """
    if outcome["violations"]:
        return True
    return outcome["mode"] != "durable" and outcome["lost"] > 0


# ----------------------------------------------------------------------
# Shrinking and replay
# ----------------------------------------------------------------------
def _scenario_key(task: Dict[str, Any]) -> str:
    fixed = {
        k: task[k] for k in ("mode", "seed", "round", "num_nodes", "num_events")
    }
    fixed["schema"] = CHAOS_SCHEMA
    return json.dumps(fixed, sort_keys=True, separators=(",", ":"))


def shrink_failing_round(
    outcome: Dict[str, Any], store: Optional[JsonDocStore] = None
):
    """Minimize a failing round's schedule (cached through ``store``)."""
    task = {
        k: outcome[k]
        for k in ("mode", "seed", "round", "num_nodes", "num_events")
    }

    def fails(spec: List[Dict]) -> bool:
        return round_fails(run_round({**task, "spec": spec}))

    return shrink_spec(
        outcome["spec"],
        fails,
        store=store,
        scenario_key=_scenario_key(task),
    )


def failing_path(out_dir, seed: int, rnd: int) -> Path:
    return Path(out_dir) / f"failing-{seed}-{rnd}.json"


def write_failing(
    out_dir, outcome: Dict[str, Any], shrunk, shrunk_digest: str
) -> Path:
    path = failing_path(out_dir, outcome["seed"], outcome["round"])
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "schema": CHAOS_SCHEMA,
        "mode": outcome["mode"],
        "seed": outcome["seed"],
        "round": outcome["round"],
        "num_nodes": outcome["num_nodes"],
        "num_events": outcome["num_events"],
        "violations": outcome["violations"],
        "lost": outcome["lost"],
        "digest": outcome["digest"],
        "spec": outcome["spec"],
        "shrunk_spec": shrunk.spec,
        "shrunk_digest": shrunk_digest,
        "shrink": {
            "steps": shrunk.steps,
            "tested": shrunk.tested,
            "cache_hits": shrunk.cache_hits,
            "entries": [shrunk.initial_entries, shrunk.final_entries],
        },
    }
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    os.replace(tmp, path)
    return path


def replay_failing(path, runs: int = 2) -> int:
    """Replay a failing-schedule file deterministically.

    Runs the *shrunken* schedule ``runs`` times; every run must produce
    the identical round digest (and match the stored ``shrunk_digest``
    when present).  Returns a process exit code: 0 = reproduced
    bit-identically, 1 = digest mismatch (determinism broke), 2 = the
    file is unreadable.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read failing schedule {path}: {exc}")
        return 2
    task = {
        k: doc[k] for k in ("mode", "seed", "round", "num_nodes", "num_events")
    }
    spec = doc.get("shrunk_spec") or doc["spec"]
    digests = []
    for i in range(runs):
        out = run_round({**task, "spec": spec})
        digests.append(out["digest"])
        print(
            f"replay {i + 1}/{runs}: digest {out['digest'][:16]} "
            f"lost={out['lost']} dup={out['dup']} "
            f"violations={len(out['violations'])}"
        )
    if len(set(digests)) != 1:
        print("REPLAY DIVERGED: runs of one schedule produced different digests")
        return 1
    stored = doc.get("shrunk_digest")
    if stored and stored != digests[0]:
        print(
            f"REPLAY MISMATCH: stored digest {stored[:16]} != "
            f"replayed {digests[0][:16]} (the failure's behaviour changed)"
        )
        return 1
    print(f"replay ok: {runs} identical digests ({digests[0][:16]}...)")
    return 0


# ----------------------------------------------------------------------
# The campaign
# ----------------------------------------------------------------------
def run_campaign(
    rounds: int = 25,
    seed: int = 42,
    mode: str = "durable",
    jobs: Optional[int] = None,
    out_dir: str = os.path.join("out", "chaos"),
) -> Dict[str, Any]:
    """Run ``rounds`` nemesis rounds; shrink and persist every failure.

    Returns a summary dict (also recorded in the ambient telemetry
    session's results under ``"chaos"``).
    """
    if mode not in ("durable", "best-effort"):
        raise ValueError(f"unknown chaos mode {mode!r}")
    num_nodes, num_events = _chaos_scale()
    jobs = resolve_jobs(jobs)
    t0 = time.perf_counter()

    tasks = [
        {
            "mode": mode,
            "seed": seed,
            "round": r,
            "num_nodes": num_nodes,
            "num_events": num_events,
        }
        for r in range(rounds)
    ]

    session = current_session()
    status_path = None
    if session is not None and session.out_dir is not None:
        from repro.telemetry.export import STATUS_FILENAME

        status_path = Path(session.out_dir) / STATUS_FILENAME

    def _emit_status(done: int, failing: int, finished: bool) -> None:
        if session is None or status_path is None:
            return
        from repro.telemetry.export import rss_bytes, write_status

        elapsed = time.perf_counter() - t0
        write_status(
            status_path,
            {
                "label": f"chaos[{mode}]",
                "pid": os.getpid(),
                "jobs": jobs,
                "points_total": rounds,
                "done": done,
                "executed": done,
                "store_hits": 0,
                "failed": failing,
                "events_done": done * num_events,
                "events_per_sec": (
                    done * num_events / elapsed if elapsed > 0 else 0.0
                ),
                "elapsed_seconds": elapsed,
                "rss_bytes": rss_bytes(),
                "workers": {},
                "finished": finished,
            },
        )

    # Rounds fan out in batches so the observatory sees progress while
    # the campaign runs (map_tasks itself is a single barrier).
    batch = max(jobs, 1)
    outcomes: List[Dict[str, Any]] = []
    failing: List[Dict[str, Any]] = []
    _emit_status(0, 0, False)
    for start in range(0, len(tasks), batch):
        chunk = tasks[start:start + batch]
        outcomes.extend(map_tasks(run_round, chunk, jobs=jobs, label="chaos"))
        failing = [o for o in outcomes if round_fails(o)]
        _emit_status(len(outcomes), len(failing), False)
        if session is not None:
            session.stream_snapshot(
                kind="chaos",
                done=len(outcomes),
                points_total=rounds,
                failing=len(failing),
            )

    # -- shrink + persist every failure --------------------------------
    root = store_root()
    shrink_store = (
        JsonDocStore(Path(root) / "chaos") if root is not None else None
    )
    failure_files: List[str] = []
    for out in failing:
        shrunk = shrink_failing_round(out, store=shrink_store)
        task = {
            k: out[k]
            for k in ("mode", "seed", "round", "num_nodes", "num_events")
        }
        shrunk_digest = run_round({**task, "spec": shrunk.spec})["digest"]
        path = write_failing(out_dir, out, shrunk, shrunk_digest)
        failure_files.append(str(path))
        why = "; ".join(out["violations"]) or f"lost {out['lost']}"
        print(
            f"round {out['round']}: FAILED ({why}); "
            f"shrunk {shrunk.initial_entries} -> {shrunk.final_entries} "
            f"entries in {shrunk.steps} steps "
            f"({shrunk.tested} candidates, {shrunk.cache_hits} cached) "
            f"-> {path}"
        )
    _emit_status(len(outcomes), len(failing), True)

    violations_total = sum(len(o["violations"]) for o in outcomes)
    rounds_with_loss = sum(1 for o in outcomes if o["lost"] > 0)
    summary = {
        "mode": mode,
        "seed": seed,
        "rounds": rounds,
        "num_nodes": num_nodes,
        "num_events": num_events,
        "violations_total": violations_total,
        "failing_rounds": len(failing),
        "rounds_with_loss": rounds_with_loss,
        "lost_total": sum(o["lost"] for o in outcomes),
        "dup_total": sum(o["dup"] for o in outcomes),
        "net_duplicated": sum(o["net_duplicated"] for o in outcomes),
        "net_reordered": sum(o["net_reordered"] for o in outcomes),
        "failure_files": failure_files,
        "wall_seconds": time.perf_counter() - t0,
        "outcomes": outcomes,
    }
    if session is not None:
        session.record_result(
            "chaos", {k: v for k, v in summary.items() if k != "outcomes"}
        )
    # Persist the full summary (outcomes included) next to any failing
    # schedules so a CI artifact of out_dir is self-describing.
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    (out_path / "summary.json").write_text(
        json.dumps(summary, indent=1, sort_keys=True)
    )
    return summary


def render_summary(summary: Dict[str, Any]) -> str:
    lines = [
        f"chaos campaign -- mode={summary['mode']} seed={summary['seed']} "
        f"({summary['rounds']} rounds x {summary['num_nodes']} nodes / "
        f"{summary['num_events']} events)",
        "",
        f"{'round':>5s} {'faults':>6s} {'lost':>5s} {'dup':>4s} "
        f"{'violations':>10s}  digest",
    ]
    for o in summary["outcomes"]:
        lines.append(
            f"{o['round']:5d} {len(o['spec']):6d} {o['lost']:5d} "
            f"{o['dup']:4d} {len(o['violations']):10d}  {o['digest'][:12]}"
        )
    lines.append("")
    lines.append(
        f"total: {summary['violations_total']} violations across "
        f"{summary['failing_rounds']} failing rounds; "
        f"{summary['rounds_with_loss']} rounds with loss "
        f"({summary['lost_total']} deliveries); "
        f"{summary['dup_total']} duplicate deliveries; "
        f"net duplicated {summary['net_duplicated']} / "
        f"reordered {summary['net_reordered']} packets "
        f"[{summary['wall_seconds']:.1f}s]"
    )
    if summary["failure_files"]:
        lines.append("failing schedules (shrunken, replayable with --replay):")
        lines.extend(f"  {p}" for p in summary["failure_files"])
    return "\n".join(lines)


def main(
    rounds: int = 25,
    seed: int = 42,
    mode: str = "durable",
    replay: Optional[str] = None,
    out_dir: str = os.path.join("out", "chaos"),
) -> int:
    """CLI body for ``python -m repro chaos`` (returns exit code)."""
    if replay is not None:
        return replay_failing(replay)
    summary = run_campaign(rounds=rounds, seed=seed, mode=mode, out_dir=out_dir)
    print(render_summary(summary))
    if mode == "durable" and summary["violations_total"]:
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
