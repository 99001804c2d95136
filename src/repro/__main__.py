"""Command-line entry point: ``python -m repro <experiment> [options]``.

Examples::

    python -m repro fig2                 # regenerate Figure 2 tables
    python -m repro fig5 --scale quick   # fast sanity sweep
    python -m repro fig5 --jobs 4        # sweep across 4 worker processes
    python -m repro all                  # every experiment, in order
    python -m repro list                 # what's available

Sweep points are cached in a persistent result store (out/results/ by
default; see docs/RUNNER.md) -- a killed sweep resumes where it died,
and rerunning a finished sweep replays it from disk.

Observability (docs/OBSERVABILITY.md)::

    python -m repro recovery --quick --telemetry-out out/
    python -m repro trace --telemetry-out out/          # list traced events
    python -m repro trace --event 3 --telemetry-out out/  # causal span tree
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
import time

EXPERIMENTS = {
    "table1": ("repro.workloads.spec", None),  # documentation-only
    "fig2": ("repro.experiments.fig2", "Figure 2: delivery-cost CDFs"),
    "fig3": ("repro.experiments.fig3", "Figure 3: per-node bandwidth"),
    "fig4": ("repro.experiments.fig4", "Figure 4: ranked load"),
    "table2": ("repro.experiments.table2", "Table 2: networks & RTTs"),
    "fig5": ("repro.experiments.fig5", "Figure 5: scalability sweep"),
    "baselines": ("repro.experiments.baseline_cmp", "B1: vs Meghdoot & central"),
    "ablation": ("repro.experiments.ablation", "A1: design ablations"),
    "churn": ("repro.experiments.churn", "C1: delivery under churn"),
    "piggyback": ("repro.experiments.piggyback", "P1: piggybacked maintenance"),
    "dynamic": ("repro.experiments.dynamic", "D1: drifting distribution"),
    "install": ("repro.experiments.install_cost", "I1: installation cost"),
    "heterogeneous": (
        "repro.experiments.heterogeneous", "H1: heterogeneous capacities"
    ),
    "reliability": (
        "repro.experiments.reliability", "R1: delivery under message loss"
    ),
    "recovery": (
        "repro.experiments.recovery", "R2: self-healing recovery timeline"
    ),
    "overload": (
        "repro.experiments.overload", "R3: overload protection under storms"
    ),
    "guarantees": (
        "repro.experiments.guarantees",
        "G1: delivery guarantees (durable/fifo/causal) under faults",
    ),
    "chaos": (
        "repro.experiments.chaos",
        "N1: randomized nemesis campaign (--rounds/--seed/--mode/--replay)",
    ),
}

#: everything `all` runs (table1 has no driver; fig2-4 share cached runs)
RUN_ORDER = [
    "fig2", "fig3", "fig4", "table2", "fig5",
    "baselines", "ablation", "churn", "piggyback", "dynamic", "install",
    "heterogeneous", "reliability", "recovery", "overload", "guarantees",
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS)
        + ["all", "bench", "list", "top", "trace"],
        help="experiment id (see `list`), `bench` for the perf ledger, "
        "`chaos` for a randomized fault campaign, `top` to "
        "watch a running sweep, or `trace` to inspect a trace",
    )
    parser.add_argument(
        "dir",
        nargs="?",
        default=None,
        metavar="DIR",
        help="(top) telemetry directory to watch (default: "
        "--telemetry-out, else out)",
    )
    parser.add_argument(
        "--scale",
        choices=["quick", "bench", "default", "paper"],
        default=None,
        help="overrides REPRO_SCALE for this invocation",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shorthand for --scale quick (CI smoke runs)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="run independent sweep points across N worker processes "
        "(default: REPRO_JOBS, else serial); see docs/RUNNER.md",
    )
    parser.add_argument(
        "--results-dir",
        metavar="DIR",
        default=None,
        help="persistent result-store location (default: REPRO_RESULTS_DIR, "
        "else out/results; 'none' disables the store)",
    )
    parser.add_argument(
        "--telemetry-out",
        metavar="DIR",
        default=None,
        help="write manifest.json, metrics.json and trace.jsonl to DIR; "
        "for `trace`, the directory to read from (default: out)",
    )
    parser.add_argument(
        "--event",
        type=int,
        default=None,
        help="(trace) event id whose causal span tree to render",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="(trace) emit the event's raw spans as JSON",
    )
    parser.add_argument(
        "--trajectory",
        metavar="FILE",
        default=None,
        help="(bench) trajectory file to append the point to "
        "(default: BENCH_trajectory.json)",
    )
    parser.add_argument(
        "--e2e-summary",
        metavar="FILE",
        default=None,
        help="(bench) out/bench/summary.json of a benchmarks/e2e/run.py "
        "run of this checkout; its per-workload medians ride along in "
        "the trajectory point",
    )
    parser.add_argument(
        "--note",
        default=None,
        help="(bench) free text recorded with the trajectory point",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=25,
        metavar="N",
        help="(chaos) nemesis rounds to run (default: 25)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=42,
        metavar="S",
        help="(chaos) campaign seed; every round derives from it "
        "deterministically (default: 42)",
    )
    parser.add_argument(
        "--mode",
        choices=["durable", "best-effort"],
        default="durable",
        help="(chaos) durable+fifo rounds must show zero violations; "
        "best-effort rounds measure the loss the nemesis inflicts",
    )
    parser.add_argument(
        "--replay",
        metavar="FILE",
        default=None,
        help="(chaos) replay a failing-schedule JSON twice and verify "
        "the round digest reproduces bit-identically",
    )
    parser.add_argument(
        "--live",
        action="store_true",
        help="(top) keep refreshing until the sweep status reports "
        "finished (Ctrl-C to stop)",
    )
    parser.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SEC",
        help="(top) refresh period for --live (default: 2s)",
    )
    args = parser.parse_args(argv)

    if args.experiment == "trace":
        return run_trace(args)

    if args.experiment == "top":
        from repro.telemetry.export import run_top

        directory = args.dir or args.telemetry_out or "out"
        return run_top(directory, live=args.live, interval=args.interval)

    if args.quick and not args.scale:
        args.scale = "quick"
    if args.scale:
        os.environ["REPRO_SCALE"] = args.scale
    if args.jobs is not None:
        if args.jobs < 1:
            parser.error(f"--jobs must be >= 1, got {args.jobs}")
        # The drivers read REPRO_JOBS through repro.runner.resolve_jobs,
        # so one flag parallelises every sweep the invocation runs.
        os.environ["REPRO_JOBS"] = str(args.jobs)
    if args.results_dir is not None:
        os.environ["REPRO_RESULTS_DIR"] = args.results_dir

    if args.experiment == "chaos":
        from repro.experiments.chaos import main as chaos_main

        if args.rounds < 1:
            parser.error(f"--rounds must be >= 1, got {args.rounds}")
        if args.telemetry_out and not args.replay:
            from repro.telemetry import telemetry_session

            with telemetry_session(
                args.telemetry_out, label="chaos"
            ) as session:
                session.command = (
                    f"python -m repro chaos --rounds {args.rounds} "
                    f"--seed {args.seed} --mode {args.mode}"
                )
                rc = chaos_main(
                    rounds=args.rounds, seed=args.seed, mode=args.mode
                )
            print(f"[telemetry written to {args.telemetry_out}]")
            return rc
        return chaos_main(
            rounds=args.rounds,
            seed=args.seed,
            mode=args.mode,
            replay=args.replay,
        )

    if args.experiment == "bench":
        from repro.bench import DEFAULT_TRAJECTORY_PATH, run_bench

        return run_bench(
            trajectory_path=args.trajectory or DEFAULT_TRAJECTORY_PATH,
            e2e_summary_path=args.e2e_summary,
            note=args.note,
        )

    if args.experiment == "list":
        for name in RUN_ORDER:
            _mod, desc = EXPERIMENTS[name]
            print(f"  {name:10s} {desc}")
        return 0

    names = RUN_ORDER if args.experiment == "all" else [args.experiment]
    if args.experiment == "table1":
        print(
            "Table 1 is the workload specification; see "
            "repro.workloads.spec.default_paper_spec and "
            "benchmarks/bench_table1_workload.py for its calibration."
        )
        return 0

    failures = 0
    for name in names:
        mod_name, desc = EXPERIMENTS[name]
        print(f"\n===== {name}: {desc} =====")
        t0 = time.time()
        module = importlib.import_module(mod_name)
        if args.telemetry_out:
            result = _run_observed(args, name, names, module)
        else:
            result = module.run()
        print(result.render())
        print(f"[{name} finished in {time.time() - t0:.1f}s]")
        report = getattr(result, "report", None)
        if report is not None and not report.all_passed:
            failures += 1
    return 1 if failures else 0


def _run_observed(args, name: str, names, module):
    """Run one experiment inside an ambient telemetry session.

    Systems built by the experiment attach themselves (see
    ``repro.telemetry.session``); on exit the session writes
    ``manifest.json`` / ``metrics.json`` / ``trace.jsonl``.  When
    several experiments run (``all``), each gets its own subdirectory
    so artifacts never clobber each other.
    """
    from repro.telemetry import telemetry_session

    out_dir = args.telemetry_out
    if len(names) > 1:
        out_dir = os.path.join(out_dir, name)
    with telemetry_session(out_dir, label=name) as session:
        session.command = "python -m repro " + " ".join(
            [name] + (["--scale", args.scale] if args.scale else [])
        )
        session.annotate(scale=os.environ.get("REPRO_SCALE"))
        result = module.run()
        report = getattr(result, "report", None)
        # Merge, not replace: the experiment itself may already have
        # recorded a richer summary under its own name.
        summary = dict(session.results.get(name, {}))
        summary["passed"] = None if report is None else report.all_passed
        session.record_result(name, summary)
    print(f"[telemetry written to {out_dir}]")
    return result


def run_trace(args) -> int:
    """``python -m repro trace``: inspect an exported span trace."""
    import json

    from repro.telemetry.tracing import (
        read_jsonl,
        render_span_tree,
        spans_for_event,
    )

    source = args.telemetry_out or "out"
    path = source if os.path.isfile(source) else os.path.join(source, "trace.jsonl")
    if not os.path.exists(path):
        print(
            f"no trace at {path}; run an experiment with --telemetry-out "
            "first (e.g. `python -m repro recovery --quick "
            "--telemetry-out out/`)",
            file=sys.stderr,
        )
        return 2
    spans = read_jsonl(path)
    if args.event is None:
        events = sorted({s["event"] for s in spans if "event" in s})
        print(f"{len(spans)} spans across {len(events)} events in {path}")
        if events:
            head = ", ".join(str(e) for e in events[:20])
            more = " ..." if len(events) > 20 else ""
            print(f"event ids: {head}{more}")
            print("render one with --event N (add --json for raw spans)")
        return 0
    if args.json:
        ev = spans_for_event(spans, args.event)
        print(json.dumps(ev, indent=2))
        return 0 if ev else 1
    print(render_span_tree(spans, args.event))
    return 0


if __name__ == "__main__":
    sys.exit(main())
