#!/usr/bin/env python3
"""End-to-end benchmark of the HyperSub reproduction.

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
        [--trace [0|1]] [--repeats R] [--smoke] [--check-repeat]

For each workload (all four unless ``--workload`` names one) the
command starts ``R`` fresh child processes, one after the other.  Child
``j`` generates its own inputs from ``(seed, j)``, sets the system up,
runs a timed phase sized for ``S / R`` seconds, and checks every
delivery against the brute-force oracle.  Every end-to-end metric is
reported as the median over the children, with min and max alongside:
this box runs each process at its own speed, steady for the process's
life and +-10 % from the next one's, so only a median over processes is
steady.  ``--trace`` adds one child that repeats its timed phase under
the span recorder and reports the per-layer metrics.

With ``--workload`` the last line printed is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics, or with ``--trace 1`` the per-layer metrics -- which
is what ``BENCHMARK.json``'s command is run for.  Records go to
``out/bench/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = ROOT / "out" / "bench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
#: measured on the host clock; everything else is simulated and must
#: repeat exactly for a fixed seed
HOST_METRICS = ("setup_s", "ops_per_s", "peak_rss_mb")
DEFAULT_SEED = 7
DEFAULT_REPEATS = 3
SMOKE_SECONDS = 3


# ---------------------------------------------------------------------------
# One child: one set-up, one timed phase (two when traced), one verdict
# ---------------------------------------------------------------------------
def run_one(
    name: str, seed: int, part: int, seconds: float, trace: bool, smoke: bool
) -> Dict[str, Any]:
    import harness
    import layers
    import workloads
    from reference import ReferenceKernel
    from tracing import Recorder

    w = workloads.WORKLOADS[name]
    if smoke:
        w = workloads.smoke_variant(w)
    ops = w.ops_for(seconds)

    t0 = perf_counter()
    inputs = workloads.generate(w, seed, part, ops)
    objs = harness.make_objects(inputs)
    generator_s = perf_counter() - t0

    rss = harness.peak_rss_mb()
    kernel = ReferenceKernel()
    kernel.read()  # the first pass pays the page faults
    kernel_rss = harness.peak_rss_mb() - rss
    system, subids, setup = harness.set_up(w, inputs, objs)
    # Peak RSS less the kernel's table: what the program needed, read
    # before the oracle allocates its own scratch.
    rss_after_setup = harness.peak_rss_mb() - kernel_rss
    res = harness.run_pass(w, inputs, objs, system, subids, ops, kernel)
    rss_after_run = harness.peak_rss_mb() - kernel_rss

    t0 = perf_counter()
    verdict = harness.judge(inputs, objs, res)
    oracle_s = perf_counter() - t0
    correct = verdict.ops_failed == 0

    details: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "part": part,
        "seconds": seconds,
        "smoke": smoke,
        "ops": ops,
        "nodes": w.nodes,
        "subscriptions_installed": inputs.n_initial,
        "events": len(objs.events),
        "workload_digest": inputs.digest(),
        "delivery_digest": verdict.delivery_digest,
        "ops_attempted": verdict.ops_attempted,
        "ops_failed": verdict.ops_failed,
        "failed_share": verdict.failed_share,
        "missing": verdict.missing,
        "duplicate": verdict.duplicate,
        "spurious": verdict.spurious,
        "setup_wall_s": setup.wall_s,
        "setup_cpu_s": setup.cpu_s,
        "timed_wall_s": res.timed.wall_s,
        "timed_cpu_s": res.timed.cpu_s,
        "kernel_median_s": statistics.median(res.kernel_s),
        "probe_wall_s": res.probe_wall_s,
        "end_to_end": harness.end_to_end(ops, setup, res, verdict, rss_after_run),
    }

    if trace:
        rec = Recorder()
        layers.install(rec, system)
        # Drop the untraced system before building the traced one.
        res.system = system = None
        gc.unfreeze()
        gc.collect()
        try:
            system, subids, _phase = harness.set_up(w, inputs, objs)
            traced = harness.run_pass(w, inputs, objs, system, subids, ops, rec=rec)
        finally:
            rec.unpatch()
        traced_verdict = harness.judge(inputs, objs, traced)
        # Tracing must not change what the program does.
        same = traced_verdict.delivery_digest == verdict.delivery_digest
        correct = correct and same
        per_layer = layers.layer_metrics(rec, ops)
        per_layer.update(traced.counters)
        per_layer.update(
            {
                "mem.rss_after_setup_mb": rss_after_setup,
                "mem.rss_after_run_mb": rss_after_run,
                "bench.generator_s": generator_s,
                "bench.oracle_s": oracle_s,
                "trace.overhead_ratio": traced.timed.wall_s / res.timed.wall_s,
            }
        )
        details["per_layer"] = per_layer
        details["traced_digest_identical"] = same
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        trace_path = OUT_DIR / f"trace-{name}.json"
        dump = rec.dump()
        dump.update(workload=name, seed=seed, part=part, ops=ops, layers=per_layer)
        trace_path.write_text(json.dumps(dump), encoding="utf-8")
        details["trace_file"] = str(trace_path.relative_to(ROOT))

    details["correct"] = correct
    return details


def print_child(details: Dict[str, Any]) -> None:
    print(
        f"{details['workload']} part {details['part']}: seed {details['seed']}, "
        f"{details['nodes']} nodes, {details['subscriptions_installed']} subscriptions, "
        f"{details['ops']} ops, {details['events']} events; "
        f"set-up {details['setup_wall_s']:.3f} s, timed phase "
        f"{details['timed_wall_s']:.3f} s wall / {details['timed_cpu_s']:.3f} s cpu; "
        f"{details['ops_attempted']} expected deliveries, {details['missing']} missing, "
        f"{details['duplicate']} duplicate, {details['spurious']} spurious"
    )


# ---------------------------------------------------------------------------
# One workload: fresh children, medians over them
# ---------------------------------------------------------------------------
def run_child(name: str, seed: int, part: int, seconds: float, trace: bool,
              smoke: bool, tag: str) -> Dict[str, Any]:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUT_DIR / f"run-{name}-seed{seed}-{tag}{'trace' if trace else part}.json"
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
        "--child", str(part), "--out", str(out),
    ]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{name} part {part} exited with {proc.returncode}")
    return json.loads(out.read_text(encoding="utf-8"))


def run_workload(name: str, seed: int, seconds: float, repeats: int, trace: bool,
                 smoke: bool, tag: str) -> Dict[str, Any]:
    runs = [
        run_child(name, seed, part, seconds / repeats, False, smoke, tag)
        for part in range(repeats)
    ]
    summary: Dict[str, Any] = {
        "metrics": {
            metric: {
                "median": statistics.median(r["end_to_end"][metric] for r in runs),
                "min": min(r["end_to_end"][metric] for r in runs),
                "max": max(r["end_to_end"][metric] for r in runs),
                "unit": spec["unit"],
            }
            for metric, spec in END_TO_END.items()
        },
        "ops_attempted": sum(r["ops_attempted"] for r in runs),
        "ops_failed": sum(r["ops_failed"] for r in runs),
        "workload_digest": [r["workload_digest"] for r in runs],
        "delivery_digest": [r["delivery_digest"] for r in runs],
        "timed_wall_s": [r["timed_wall_s"] for r in runs],
        "timed_cpu_s": [r["timed_cpu_s"] for r in runs],
        "correct": all(r["correct"] for r in runs),
    }
    summary["failed_share"] = summary["ops_failed"] / max(summary["ops_attempted"], 1)
    if trace:
        traced = run_child(name, seed, 0, seconds / repeats, True, smoke, tag)
        summary["per_layer"] = traced["per_layer"]
        summary["trace_file"] = traced["trace_file"]
        summary["correct"] = summary["correct"] and traced["correct"]
    print_summary(name, summary)
    return summary


def print_summary(name: str, summary: Dict[str, Any]) -> None:
    print(f"== {name}: {summary['ops_attempted']} expected deliveries, "
          f"{summary['ops_failed']} failed (failed_share {summary['failed_share']:.6f}), "
          f"correct={summary['correct']}")
    print(f"   delivery_digest {' '.join(d[:12] for d in summary['delivery_digest'])}")
    print(f"   workload_digest {' '.join(d[:12] for d in summary['workload_digest'])}")
    print(f"   {'metric':<26s} {'median':>12s} {'min':>12s} {'max':>12s}  unit")
    for metric, v in summary["metrics"].items():
        print(f"   {metric:<26s} {v['median']:>12.4f} {v['min']:>12.4f} "
              f"{v['max']:>12.4f}  {v['unit']}")
    for metric, value in summary.get("per_layer", {}).items():
        print(f"   {metric:<40s} {value:>14.4f}  {PER_LAYER[metric]['unit']}")
    if "trace_file" in summary:
        print(f"   trace written to {summary['trace_file']}")


def contract_line(summary: Dict[str, Any], trace: bool) -> str:
    """The last line of a one-workload run: exactly what the benchmark
    contract asks."""
    if trace:
        values = {n: (summary["per_layer"][n], m["unit"]) for n, m in PER_LAYER.items()}
    else:
        values = {n: (summary["metrics"][n]["median"], m["unit"])
                  for n, m in END_TO_END.items()}
    return json.dumps(
        {
            "correct": bool(summary["correct"]),
            "attempted": int(summary["ops_attempted"]),
            "failed": int(summary["ops_failed"]),
            "metrics": {n: {"value": float(v), "unit": u} for n, (v, u) in values.items()},
        }
    )


def compare_sets(first: Dict[str, Any], second: Dict[str, Any]) -> bool:
    """Two sets of the same code: host medians within their bounds,
    everything simulated identical.  Prints the table."""
    ok = True
    print(f"{'workload':<16s} {'metric':<22s} {'first':>12s} {'second':>12s} "
          f"{'change':>8s} {'allowed':>8s}  verdict")
    for name in first:
        a, b = first[name], second[name]
        for metric, spec in END_TO_END.items():
            x = a["metrics"][metric]["median"]
            y = b["metrics"][metric]["median"]
            change = (y - x) / x
            if metric in HOST_METRICS:
                good = abs(change) <= spec["bound"]
                allowed = f"{spec['bound']:.0%}"
            else:
                good = x == y
                allowed = "equal"
            ok = ok and good
            print(f"{name:<16s} {metric:<22s} {x:>12.4f} {y:>12.4f} {change:>+8.2%} "
                  f"{allowed:>8s}  {'ok' if good else 'DIFFERS'}")
        for key in ("ops_failed", "delivery_digest", "workload_digest"):
            good = a[key] == b[key]
            ok = ok and good
            print(f"{name:<16s} {key:<22s} {'':>12s} {'':>12s} {'':>8s} "
                  f"{'equal':>8s}  {'ok' if good else 'DIFFERS'}")
    return ok


# ---------------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names, help="one workload (default: all)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured seconds per workload, shared among the children "
                         "(default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                    help="add a traced child; the last line carries the per-layer metrics")
    ap.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                    help="child processes per workload")
    ap.add_argument("--smoke", action="store_true", help="tiny sizes: seconds, not minutes")
    ap.add_argument("--check-repeat", action="store_true",
                    help="run everything twice and require the two sets to agree")
    ap.add_argument("--child", type=int, default=None, help=argparse.SUPPRESS)
    ap.add_argument("--out", type=Path, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else SPEC["run_seconds"]
    if seconds <= 0 or args.repeats < 1:
        ap.error("--seconds and --repeats must be positive")

    if args.child is not None:
        details = run_one(
            args.workload, args.seed, args.child, seconds, bool(args.trace), args.smoke
        )
        args.out.write_text(json.dumps(details, indent=1), encoding="utf-8")
        print_child(details)
        return 0

    chosen = [args.workload] if args.workload else names
    record: Dict[str, Any] = {"seed": args.seed, "seconds": seconds, "smoke": args.smoke}
    tags = ("a", "b") if args.check_repeat else ("a",)
    for tag in tags:
        record[tag] = {
            name: run_workload(
                name, args.seed, seconds, args.repeats, bool(args.trace), args.smoke, tag
            )
            for name in chosen
        }
    ok = all(s["correct"] for tag in tags for s in record[tag].values())
    if args.check_repeat:
        ok = compare_sets(record["a"], record["b"]) and ok
        print("check-repeat: " + ("the two sets agree" if ok else "the two sets DIFFER"))
    (OUT_DIR / "summary.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if args.workload:
        print(contract_line(record["a"][args.workload], bool(args.trace)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
