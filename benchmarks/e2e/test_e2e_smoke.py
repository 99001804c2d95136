"""Self-test of the end-to-end benchmark (tiny ``--smoke`` sizes).

Run explicitly -- tier-1 ``testpaths`` stays ``tests/``::

    python -m pytest benchmarks/e2e/test_e2e_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import harness  # noqa: E402  (also puts src/ on the path)
import layers  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )


def test_spec_lists_what_the_code_defines():
    assert WORKLOAD_NAMES == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == layers.PER_LAYER
    assert SPEC["paths"] == ["benchmarks/e2e"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOAD_NAMES
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_every_workload_prints_every_metric(name, trace, tmp_path):
    proc = _run(
        ROOT, "--workload", name, "--seed", "3", "--seconds", "2", "--trace", trace,
        "--repeats", "2", "--smoke",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    want = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in want]
    for m in want:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        if trace == "0":
            assert got["value"] != 0, m["name"]
    if trace == "1":
        value = {k: v["value"] for k, v in result["metrics"].items()}
        assert abs(value["trace.attributed_share"] - 1.0) < 0.02
        transport = value["core.node.transport_msgs"] + value["core.durability.appends"]
        assert (transport > 0) == (name == "durable_lossy")


def test_oracle_flags_a_removed_a_repeated_and_a_misplaced_delivery():
    w = workloads.smoke_variant(workloads.WORKLOADS["paper_delivery"])
    ops = w.ops_for(1)
    inputs = workloads.generate(w, 3, 0, ops)
    objs = harness.make_objects(inputs)
    system, subids, _phase = harness.set_up(w, inputs, objs)
    res = harness.run_pass(w, inputs, objs, system, subids, ops)
    observed = list(harness.observed_deliveries(res))

    clean = harness.judge(inputs, objs, res)
    assert clean.ops_attempted == len(observed) > 0
    assert clean.ops_failed == 0 and clean.failed_share == 0.0

    removed = harness.judge(inputs, objs, res, observed[:-1])
    assert (removed.missing, removed.duplicate, removed.spurious) == (1, 0, 0)
    assert removed.failed_share > 0
    assert removed.delivery_digest != clean.delivery_digest

    repeated = harness.judge(inputs, objs, res, observed + observed[:1])
    assert (repeated.missing, repeated.duplicate, repeated.spurious) == (0, 1, 0)

    ev, nid, iid, addr = observed[0]
    misplaced = harness.judge(inputs, objs, res, [(ev, nid, iid, addr + 1)] + observed[1:])
    assert (misplaced.missing, misplaced.duplicate, misplaced.spurious) == (1, 0, 1)


def test_time_spent_only_in_the_drain_lowers_ops_per_s():
    """The whole timed phase is on the clock: a cost that falls only in
    the drain after the last publish shows in ``ops_per_s`` in full."""
    from reference import ReferenceKernel

    w = workloads.smoke_variant(workloads.WORKLOADS["durable_lossy"])
    ops = w.ops_for(1)
    inputs = workloads.generate(w, 3, 0, ops)
    objs = harness.make_objects(inputs)
    kernel = ReferenceKernel()
    delay = 1.0

    def seconds_per_op(slow_drain: bool):
        system, subids, setup = harness.set_up(w, inputs, objs)
        if slow_drain:
            stop = system.stop_durable_redelivery
            system.stop_durable_redelivery = lambda: (time.sleep(delay), stop())
        res = harness.run_pass(w, inputs, objs, system, subids, ops, kernel)
        verdict = harness.judge(inputs, objs, res)
        assert verdict.ops_failed == 0
        metrics = harness.end_to_end(ops, setup, res, verdict, 1.0)
        # (wall, reference) seconds of the timed phase
        return res.timed.wall_s, ops / metrics["ops_per_s"]

    (plain_wall, plain_ref), (slowed_wall, slowed_ref) = (
        seconds_per_op(False), seconds_per_op(True)
    )
    assert delay * 0.9 < slowed_wall - plain_wall < delay + plain_wall
    # reference seconds are the whole wall at the host's speed of the moment
    delay_ref = delay * slowed_ref / slowed_wall
    assert delay_ref * 0.7 < slowed_ref - plain_ref < delay_ref * 1.3


def test_same_seed_same_inputs_other_seed_other_inputs():
    w = workloads.smoke_variant(workloads.WORKLOADS["sub_churn"])
    a = workloads.generate(w, 5, 0, 400).digest()
    assert a == workloads.generate(w, 5, 0, 400).digest()
    assert a != workloads.generate(w, 6, 0, 400).digest()
    assert a != workloads.generate(w, 5, 1, 400).digest()


def test_no_result_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: nothing to
    measure, so a non-zero exit and no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = _run(tmp_path, "--workload", "paper_delivery", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
