"""Tests for the tracked perf trajectory (``python -m repro bench``)."""

import json
import pathlib

from repro.bench import (
    SCENARIOS,
    TRAJECTORY_SCHEMA,
    append_trajectory,
    load_trajectory,
    trajectory_point,
)

#: a stand-in ledger: the trajectory stores whatever rows it is given
LEDGER = {"chain_walk": {"calls": 11_376, "digest": "59bd597241d98212", "hops": 1_052}}


class TestTrajectoryPoint:
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
        p = trajectory_point(LEDGER, summary, note="PR 15 recorded no point")
        assert p["note"] == "PR 15 recorded no point"
        assert p["ledger"] == LEDGER
        assert p["e2e"]["seed"] == 7 and p["e2e"]["seconds"] == 12
        assert p["e2e"]["workloads"] == {
            "durable_lossy": {"ops_per_s": 290.0, "setup_s": 1.5, "peak_rss_mb": 90.0},
            "sub_churn": {"ops_per_s": 4_900.0, "setup_s": 1.5, "peak_rss_mb": 90.0},
        }
        assert set(p["env"]) == {"machine", "cpu_count", "python", "numpy"}
        json.dumps(p)
        # without a summary or a note the point has neither block
        assert "e2e" not in trajectory_point(LEDGER)
        assert "note" not in trajectory_point(LEDGER)


class TestTrajectoryFile:
    def test_committed_points_follow_the_recording_rule(self):
        """docs/PERFORMANCE.md, "Recording rule": from the first point
        recorded under it on, every committed point carries the e2e
        medians of every BENCHMARK.json workload, and from the first
        ledger point on, the ledger of every scenario as well.  Older
        points stay as they were recorded."""
        root = pathlib.Path(__file__).resolve().parent.parent
        points = load_trajectory(root / "BENCH_trajectory.json")["points"]
        workloads = {
            w["name"]
            for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]
        }
        first = next(
            i for i, p in enumerate(points) if "first run" in (p.get("note") or "")
        )
        for p in points[first:]:
            assert set(p["e2e"]["workloads"]) == workloads, p["git_rev"]
            assert not p["e2e"]["smoke"]
        first_ledger = next(
            (i for i, p in enumerate(points) if "ledger" in p), len(points)
        )
        for p in points[first_ledger:]:
            assert set(p["ledger"]) == set(SCENARIOS), p["git_rev"]

    def test_load_missing_file_is_a_fresh_document(self, tmp_path):
        doc = load_trajectory(tmp_path / "absent.json")
        assert doc == {"schema": TRAJECTORY_SCHEMA, "points": []}

    def test_append_roundtrip(self, tmp_path):
        path = tmp_path / "traj.json"
        append_trajectory(path, dict(trajectory_point(LEDGER), git_rev="a"))
        doc = append_trajectory(path, dict(trajectory_point(LEDGER), git_rev="b"))
        assert [p["git_rev"] for p in doc["points"]] == ["a", "b"]
        assert load_trajectory(path) == doc

    def test_schema_mismatch_reads_as_fresh(self, tmp_path):
        path = tmp_path / "traj.json"
        path.write_text(json.dumps({"schema": "other/9", "points": [1]}))
        assert load_trajectory(path)["points"] == []


class TestCli:
    def test_bench_appends_one_ledger_point(self, tmp_path, monkeypatch, capsys):
        """``python -m repro bench`` end to end with the ledger stubbed:
        one point carrying the ledger and the note, no other file."""
        import repro.bench as bench
        from repro.__main__ import main

        monkeypatch.setattr(bench, "run_ledger", lambda: LEDGER)
        monkeypatch.chdir(tmp_path)
        traj = tmp_path / "traj.json"
        assert main(["bench", "--trajectory", str(traj), "--note", "n"]) == 0
        (point,) = load_trajectory(traj)["points"]
        assert point["ledger"] == LEDGER and point["note"] == "n"
        assert "e2e" not in point
        assert [p.name for p in tmp_path.iterdir()] == ["traj.json"]
        assert "chain_walk" in capsys.readouterr().out
