"""Tests for the tracked perf trajectory (``python -m repro bench``)."""

import copy
import json

from repro.bench import (
    REGRESSION_TOLERANCE,
    TRAJECTORY_SCHEMA,
    append_trajectory,
    compare_points,
    compare_to_trajectory,
    find_baseline,
    load_trajectory,
    trajectory_point,
    validate_bench,
)


def bench_doc(events_per_sec=800.0, mem_bpn=50_000.0, python="3.11.7",
              machine="x86_64", cpu_count=4, num_nodes=150, num_events=200,
              git_rev="abc123"):
    """A synthetic BENCH_hotpath document with just the fields the
    trajectory reads (plus what validate_bench checks)."""
    return {
        "schema": "repro-bench/1",
        "created_utc": "2026-08-08T00:00:00Z",
        "git_rev": git_rev,
        "python": python,
        "machine": machine,
        "cpu_count": cpu_count,
        "scale": {"name": "quick", "num_nodes": num_nodes,
                  "num_events": num_events},
        "micro": {
            "scheduler": {"ops_per_sec": 500_000.0},
            "routing": {
                "next_hop_ops_per_sec": 400_000.0,
                "closest_preceding_speedup": 30.0,
            },
            "algo5": {"scales": {"10000": {
                "boxes": 10_000, "points": 200, "agree": True,
                "linear_speedup": 45.0,
                "bands_speedup": 50.0, "naive_us_per_call": 100.0,
                "linear_us_per_call": 2.2,
                "bands_us_per_call": 2.0,
            }}},
            "pop_matching": {"boxes": 30_000, "popped": 7_500,
                             "reference_popped": 7_500,
                             "single_pass_ms": 10.0, "reference_ms": 13.0,
                             "speedup": 1.3},
            "install": {"num_nodes": 200, "ops": 2_000, "best_seconds": 0.5,
                        "ops_per_sec": 4_000.0, "dispatches_per_op": 13.0,
                        "marker_registrations": 10_000, "live_at_end": 1_200,
                        "lph_box_us": 8.0},
            "store": {"roundtrip_ok": True},
        },
        "macro": {
            "num_nodes": num_nodes, "num_events": num_events,
            "events_per_sec": events_per_sec,
            "setup_s": {"build": 0.5, "populate": 1.0,
                        "finish_setup": 0.1, "total": 1.6},
            "wall_seconds": 1.0,
            "deliveries": 10,
            "route_cache_stats": {"hit_rate": 0.9},
            "memory": {"bytes_per_node": mem_bpn, "total_bytes": 1,
                       "alive_nodes": num_nodes},
        },
    }


class TestTrajectoryPoint:
    def test_flattens_the_floor_metrics(self):
        p = trajectory_point(bench_doc())
        assert p["metrics"]["events_per_sec"] == 800.0
        assert p["metrics"]["mem_bytes_per_node"] == 50_000.0
        assert p["metrics"]["scheduler_ops_per_sec"] == 500_000.0
        assert p["env"]["python_minor"] == "3.11"
        assert p["scale"]["num_nodes"] == 150
        json.dumps(p)

    def test_validate_bench_gates_on_memory_accounting(self):
        doc = bench_doc()
        assert validate_bench(doc)["memory_accounted"] is True
        doc["macro"]["memory"] = None
        assert validate_bench(doc)["memory_accounted"] is False

    def test_validate_bench_bands_floor_only_at_full_scale(self):
        doc = bench_doc()
        assert validate_bench(doc)["bands_5x_1e5"] is True  # absent: skip
        doc["micro"]["algo5"]["scales"]["100000"] = dict(
            doc["micro"]["algo5"]["scales"]["10000"], bands_speedup=4.0
        )
        assert validate_bench(doc)["bands_5x_1e5"] is False

    def test_trajectory_point_carries_matching_metrics(self):
        p = trajectory_point(bench_doc())
        assert p["metrics"]["matching_bands_speedup"] == 50.0
        assert p["metrics"]["matching_linear_speedup"] == 45.0
        assert p["metrics"]["pop_matching_speedup"] == 1.3
        assert p["metrics"]["install_ops_per_sec"] == 4_000.0
        assert p["metrics"]["setup_s"] == 1.6


    def test_lane_micro_is_a_floor_and_an_agreement_check(self):
        doc = bench_doc()
        # a document written before the lane micro existed: no value, no gate
        assert trajectory_point(doc)["metrics"]["scheduler_lane_ops_per_sec"] is None
        assert validate_bench(doc)["scheduler_lane_agreement"] is True
        doc["micro"]["scheduler_lane"] = {
            "timers": 20_000, "fired": 2_090, "agree": True,
            "ops_per_sec": 600_000.0, "reference_ops_per_sec": 300_000.0,
            "speedup": 2.0,
        }
        base = trajectory_point(doc)
        assert base["metrics"]["scheduler_lane_ops_per_sec"] == 600_000.0
        slow = copy.deepcopy(doc)
        slow["micro"]["scheduler_lane"]["ops_per_sec"] = 400_000.0  # -33%
        regressions, _ = compare_points(base, trajectory_point(slow))
        assert any("scheduler_lane_ops_per_sec" in r for r in regressions)
        slow["micro"]["scheduler_lane"]["agree"] = False
        assert validate_bench(slow)["scheduler_lane_agreement"] is False

    def test_lane_micro_fires_what_the_reference_fires(self):
        from repro.bench import _bench_scheduler_lane

        result = _bench_scheduler_lane(timers=1_000, repeat=1)
        assert result["agree"]
        # one timer in ten is never acked, plus the last 100 nobody got to
        assert result["fired"] == 100 + 90
        assert result["ops_per_sec"] > 0 and result["reference_ops_per_sec"] > 0

    def test_point_carries_the_e2e_medians_and_a_note(self):
        summary = {
            "seed": 7, "seconds": 12, "smoke": False,
            "a": {
                name: {
                    "metrics": {
                        m: {"median": v, "min": v - 1, "max": v + 1, "unit": "x"}
                        for m, v in (
                            ("ops_per_s", ops), ("setup_s", 1.5),
                            ("peak_rss_mb", 90.0), ("delivered_share", 1.0),
                        )
                    },
                    "correct": True,
                }
                for name, ops in (("durable_lossy", 290.0), ("sub_churn", 4_900.0))
            },
        }
        p = trajectory_point(bench_doc(), summary, note="PR 15 recorded no point")
        assert p["note"] == "PR 15 recorded no point"
        assert p["e2e"]["seed"] == 7 and p["e2e"]["seconds"] == 12
        assert p["e2e"]["workloads"] == {
            "durable_lossy": {"ops_per_s": 290.0, "setup_s": 1.5, "peak_rss_mb": 90.0},
            "sub_churn": {"ops_per_s": 4_900.0, "setup_s": 1.5, "peak_rss_mb": 90.0},
        }
        json.dumps(p)
        # without a summary the point has the shape it always had
        assert "e2e" not in trajectory_point(bench_doc())
        assert "note" not in trajectory_point(bench_doc())
        # recorded, not gated: the e2e block never enters a comparison
        regressions, notes = compare_points(p, trajectory_point(bench_doc()))
        assert regressions == [] and not any("e2e" in n for n in notes)


class TestTrajectoryFile:
    def test_load_missing_file_is_a_fresh_document(self, tmp_path):
        doc = load_trajectory(tmp_path / "absent.json")
        assert doc == {"schema": TRAJECTORY_SCHEMA, "points": []}

    def test_append_roundtrip(self, tmp_path):
        path = tmp_path / "traj.json"
        append_trajectory(path, trajectory_point(bench_doc(git_rev="a")))
        doc = append_trajectory(path, trajectory_point(bench_doc(git_rev="b")))
        assert [p["git_rev"] for p in doc["points"]] == ["a", "b"]
        assert load_trajectory(path) == doc

    def test_schema_mismatch_reads_as_fresh(self, tmp_path):
        path = tmp_path / "traj.json"
        path.write_text(json.dumps({"schema": "other/9", "points": [1]}))
        assert load_trajectory(path)["points"] == []


class TestFindBaseline:
    def test_picks_the_newest_point_at_the_same_scale(self):
        old = trajectory_point(bench_doc(events_per_sec=1.0, git_rev="old"))
        new = trajectory_point(bench_doc(events_per_sec=2.0, git_rev="new"))
        other = trajectory_point(bench_doc(num_nodes=600, git_rev="other"))
        doc = {"points": [old, new, other]}
        probe = trajectory_point(bench_doc())
        assert find_baseline(doc, probe)["git_rev"] == "new"

    def test_no_point_at_scale_means_no_baseline(self):
        doc = {"points": [trajectory_point(bench_doc(num_nodes=600))]}
        assert find_baseline(doc, trajectory_point(bench_doc())) is None


class TestComparePoints:
    def test_small_drift_passes(self):
        base = trajectory_point(bench_doc(events_per_sec=1000.0))
        new = trajectory_point(bench_doc(events_per_sec=900.0))  # -10%
        regressions, notes = compare_points(base, new)
        assert regressions == []
        assert any("events_per_sec" in n and "ok" in n for n in notes)

    def test_throughput_regression_beyond_tolerance_fails(self):
        base = trajectory_point(bench_doc(events_per_sec=1000.0))
        new = trajectory_point(bench_doc(events_per_sec=700.0))  # -30%
        regressions, _ = compare_points(base, new)
        assert any("events_per_sec" in r for r in regressions)

    def test_install_throughput_is_a_floor_and_absent_in_old_points(self):
        base = trajectory_point(bench_doc())
        slow = bench_doc()
        slow["micro"]["install"]["ops_per_sec"] = 2_800.0  # -30%
        regressions, _ = compare_points(base, trajectory_point(slow))
        assert any("install_ops_per_sec" in r for r in regressions)
        # a point recorded before the install bench existed is no baseline
        del base["metrics"]["install_ops_per_sec"]
        regressions, notes = compare_points(base, trajectory_point(slow))
        assert regressions == []
        assert "install_ops_per_sec: skipped (missing value)" in notes
        # setup_s is recorded with the point, not gated
        assert not any("setup_s" in n for n in notes)

    def test_memory_direction_is_lower_is_better(self):
        base = trajectory_point(bench_doc(mem_bpn=100_000.0))
        grew = trajectory_point(bench_doc(mem_bpn=130_000.0))  # +30%
        shrank = trajectory_point(bench_doc(mem_bpn=50_000.0))  # -50%
        assert any(
            "mem_bytes_per_node" in r for r in compare_points(base, grew)[0]
        )
        assert compare_points(base, shrank)[0] == []

    def test_env_mismatch_skips_throughput_but_keeps_memory(self):
        base = trajectory_point(bench_doc(cpu_count=8))
        new = trajectory_point(
            bench_doc(cpu_count=1, events_per_sec=1.0, mem_bpn=500_000.0)
        )
        regressions, notes = compare_points(base, new)
        # events_per_sec collapsed 800x but the cpu_count changed: skipped.
        assert not any("events_per_sec" in r for r in regressions)
        assert any("events_per_sec" in n and "skipped" in n for n in notes)
        # mem_bytes_per_node is still comparable (same machine+python).
        assert any("mem_bytes_per_node" in r for r in regressions)

    def test_interpreter_change_skips_memory_too(self):
        base = trajectory_point(bench_doc(python="3.11.7"))
        new = trajectory_point(bench_doc(python="3.12.1", mem_bpn=500_000.0))
        regressions, notes = compare_points(base, new)
        assert regressions == []
        assert any(
            "mem_bytes_per_node" in n and "skipped" in n for n in notes
        )

    def test_old_point_with_retired_metrics_compares_cleanly(self):
        """Points recorded while the macro ran twice carry
        ``wall_improvement`` and ``matching_grid_speedup``; no floor
        reads either, in either direction."""
        new = trajectory_point(bench_doc())
        assert "wall_improvement" not in new["metrics"]
        assert "matching_grid_speedup" not in new["metrics"]
        old = copy.deepcopy(new)
        old["metrics"].update(wall_improvement=1.2, matching_grid_speedup=8.0)
        for base, point in ((old, new), (new, old)):
            regressions, notes = compare_points(base, point)
            assert regressions == []
            assert not any("grid" in n or "wall_improvement" in n for n in notes)

    def test_tolerance_is_twenty_percent(self):
        assert REGRESSION_TOLERANCE == 0.20


class TestCompareToTrajectory:
    def test_no_baseline_passes_with_a_note(self, tmp_path):
        ok, lines = compare_to_trajectory(
            bench_doc(), tmp_path / "traj.json"
        )
        assert ok
        assert any("nothing to compare" in line for line in lines)

    def test_injected_regression_fails_the_compare(self, tmp_path):
        path = tmp_path / "traj.json"
        append_trajectory(path, trajectory_point(bench_doc(events_per_sec=1000.0)))
        ok, lines = compare_to_trajectory(
            bench_doc(events_per_sec=700.0), path
        )
        assert not ok
        assert any("REGRESSION" in line for line in lines)

    def test_matching_run_passes(self, tmp_path):
        path = tmp_path / "traj.json"
        append_trajectory(path, trajectory_point(bench_doc()))
        ok, _ = compare_to_trajectory(bench_doc(), path)
        assert ok


class TestCli:
    def test_bench_compare_exits_nonzero_on_regression(self, tmp_path,
                                                       monkeypatch, capsys):
        """End to end through run_bench with the heavy benches stubbed:
        a fresh run 30% below the committed floor must fail the build."""
        import os
        import platform

        import repro.bench as bench

        # The baseline must share the *real* environment fingerprint,
        # or the compare rightly skips the throughput floors.
        env = dict(
            python=platform.python_version(),
            machine=platform.machine(),
            cpu_count=os.cpu_count(),
        )
        monkeypatch.setenv("REPRO_SCALE", "quick")  # 150 nodes / 200 events
        monkeypatch.delenv("REPRO_NODES", raising=False)
        monkeypatch.delenv("REPRO_EVENTS", raising=False)
        fast = bench_doc(events_per_sec=700.0)
        monkeypatch.setattr(
            bench, "_bench_scheduler", lambda: fast["micro"]["scheduler"]
        )
        monkeypatch.setattr(
            bench, "_bench_routing",
            lambda: dict(fast["micro"]["routing"],
                         bisect_us_per_call=0.3, linear_us_per_call=9.0,
                         ring_nodes=8, chain_keys=1, chain_hops=1),
        )
        monkeypatch.setattr(
            bench, "_bench_store",
            lambda: {"put_ms": 1.0, "get_ms": 1.0, "entry_kb": 1.0,
                     "roundtrip_ok": True},
        )
        monkeypatch.setattr(
            bench, "_bench_algo5", lambda full: fast["micro"]["algo5"]
        )
        monkeypatch.setattr(
            bench, "_bench_pop_matching",
            lambda: fast["micro"]["pop_matching"],
        )
        monkeypatch.setattr(
            bench, "_bench_install", lambda: fast["micro"]["install"]
        )
        monkeypatch.setattr(
            bench, "_bench_macro", lambda n, e, d: fast["macro"]
        )
        traj = tmp_path / "traj.json"
        append_trajectory(
            traj,
            trajectory_point(bench_doc(events_per_sec=1000.0, **env)),
        )
        rc = bench.run_bench(
            str(tmp_path / "hotpath.json"),
            telemetry_dir=str(tmp_path / "tel"),
            compare=True,
            trajectory_path=str(traj),
        )
        assert rc == 1
        assert "REGRESSION" in capsys.readouterr().err
        # The failing point was still appended (history keeps the dip).
        assert len(load_trajectory(traj)["points"]) == 2
