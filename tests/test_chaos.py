"""Tests for the chaos nemesis generator and the campaign driver."""

import json
from pathlib import Path

import pytest

from repro.experiments.chaos import (
    chaos_budget,
    failing_path,
    main as chaos_main,
    replay_failing,
    round_digest,
    round_fails,
    run_campaign,
    run_round,
    write_failing,
)
from repro.faults import ChaosBudget, ChaosNemesis, FaultSchedule
from repro.faults.shrink import ShrinkResult

#: Small round shape shared by the sim-backed tests (a real round at
#: the default 40-node scale takes far too long for unit tests).
_SMALL = {"num_nodes": 12, "num_events": 8}


def small_task(mode="durable", seed=5, rnd=0, spec=None):
    task = {"mode": mode, "seed": seed, "round": rnd, **_SMALL}
    if spec is not None:
        task["spec"] = spec
    return task


class TestChaosBudget:
    def test_defaults_are_valid(self):
        b = ChaosBudget()
        assert b.t_end > b.t_start

    @pytest.mark.parametrize(
        "kw",
        [
            {"t_start": 5_000.0, "t_end": 5_000.0},
            {"max_faults": 0},
            {"max_concurrent": 0},
            {"max_crash_fraction": 0.0},
            {"max_crash_fraction": 1.5},
            {"min_heal_ms": -1.0},
            {"t_start": 2_000.0, "t_end": 6_000.0, "min_heal_ms": 5_000.0},
        ],
    )
    def test_invalid_budgets_rejected(self, kw):
        with pytest.raises(ValueError):
            ChaosBudget(**kw)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ChaosBudget(kind_weights=(("meteor", 1.0),))

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            ChaosBudget(kind_weights=(("crash", 0.0),))


class TestChaosNemesis:
    def test_needs_enough_nodes(self):
        with pytest.raises(ValueError):
            ChaosNemesis(3, ChaosBudget())
        with pytest.raises(ValueError):
            ChaosNemesis(4, ChaosBudget(protect=(0, 1, 2)), seed=1)

    def test_same_inputs_same_schedule(self):
        a = ChaosNemesis(20, ChaosBudget(), seed=9).generate_spec(4)
        b = ChaosNemesis(20, ChaosBudget(), seed=9).generate_spec(4)
        assert a == b

    def test_rounds_and_seeds_differ(self):
        n = ChaosNemesis(20, ChaosBudget(), seed=9)
        specs = [json.dumps(n.generate_spec(r)) for r in range(6)]
        assert len(set(specs)) > 1
        other = ChaosNemesis(20, ChaosBudget(), seed=10).generate_spec(0)
        assert json.dumps(other) != specs[0]

    def test_every_round_builds_and_heals_by_end(self):
        budget = ChaosBudget()
        nemesis = ChaosNemesis(24, budget, seed=3)
        heal_by = budget.t_end - budget.min_heal_ms
        for r in range(25):
            spec = nemesis.generate_spec(r)
            assert spec, f"round {r} drew an empty schedule"
            sched = FaultSchedule.from_spec(spec)  # must build
            assert len(spec) <= 2 * budget.max_faults
            down = set()
            for entry in spec:
                t = entry.get("at", entry.get("from"))
                assert budget.t_start <= t <= heal_by, entry
                end = entry.get("to", entry.get("at"))
                assert end <= heal_by + 1e-9, entry
                if "crash" in entry:
                    down.update(entry["crash"])
                if "rejoin" in entry:
                    down.difference_update(entry["rejoin"])
            assert not down, f"round {r} leaves {down} crashed at t_end"
            # the built schedule agrees with the declarative form
            assert sched.to_spec() == spec

    def test_protected_addrs_never_crash_or_flap(self):
        budget = ChaosBudget(protect=(0, 1, 2))
        nemesis = ChaosNemesis(20, budget, seed=11)
        for r in range(25):
            for entry in nemesis.generate_spec(r):
                if "crash" in entry:
                    assert not set(entry["crash"]) & {0, 1, 2}, entry
                if "flap" in entry:
                    assert entry["flap"]["addr"] not in (0, 1, 2), entry

    def test_replica_floor_rejects_consecutive_crashes(self):
        # With replica_k=2 no two ring-adjacent nodes may be down at
        # once; a crash-heavy mix over many rounds must respect it.
        budget = ChaosBudget(
            kind_weights=(("crash", 1.0),), max_faults=6, max_concurrent=4,
            max_crash_fraction=0.5,
        )
        ring = list(range(12))
        nemesis = ChaosNemesis(12, budget, seed=2, ring=ring, replica_k=2)
        for r in range(30):
            spec = nemesis.generate_spec(r)
            windows = []  # (addr, t0, t1)
            opened = {}
            for entry in spec:
                if "crash" in entry:
                    for a in entry["crash"]:
                        opened[a] = entry["at"]
                if "rejoin" in entry:
                    for a in entry["rejoin"]:
                        windows.append((a, opened.pop(a), entry["at"]))
            for a, t0, t1 in windows:
                for b, u0, u1 in windows:
                    if a == b or not (t0 < u1 and u0 < t1):
                        continue
                    assert abs(ring.index(a) - ring.index(b)) not in (
                        1, len(ring) - 1,
                    ), f"round {r}: adjacent {a},{b} down together"


class TestRoundOracles:
    def test_round_digest_ignores_wall_time(self):
        base = {
            k: 0
            for k in (
                "schema", "mode", "seed", "round", "num_nodes", "num_events",
                "spec", "delivered", "expected", "lost", "dup",
                "fifo_violations", "invariant_violations", "log_left",
                "dropped_by_cause", "net_duplicated", "net_reordered",
                "gave_up_by_cause",
            )
        }
        a = round_digest({**base, "wall_seconds": 1.0})
        b = round_digest({**base, "wall_seconds": 99.0})
        assert a == b
        assert round_digest({**base, "lost": 3}) != a

    def test_round_fails_semantics(self):
        ok = {"violations": [], "mode": "durable", "lost": 0}
        assert not round_fails(ok)
        assert round_fails({**ok, "violations": ["invariant: x"]})
        # best-effort: loss alone is a failure worth shrinking...
        assert round_fails({"violations": [], "mode": "best-effort", "lost": 2})
        # ...but durable loss surfaces through violations, not this path
        assert not round_fails({"violations": [], "mode": "durable", "lost": 2})

    def test_campaign_budget_protects_publishers(self):
        assert set(chaos_budget("durable").protect) == {0, 1, 2}


class TestRunRound:
    def test_durable_round_is_deterministic_and_clean(self):
        spec = [
            {"at": 3_000.0, "crash": [5]},
            {"at": 9_000.0, "rejoin": [5]},
            {"from": 4_000.0, "to": 12_000.0, "duplicate": 0.3, "seed": 7},
        ]
        a = run_round(small_task(spec=spec))
        b = run_round(small_task(spec=spec))
        assert a["digest"] == b["digest"]
        assert a["violations"] == [], a["violations"]
        assert a["dup"] == a["spurious"] == 0
        assert a["lost"] == 0
        assert a["log_left"] == 0
        assert a["net_duplicated"] > 0  # the fault actually fired

    @pytest.mark.parametrize("mode", ["durable", "best-effort"])
    def test_a_spurious_delivery_is_a_violation_in_every_mode(
        self, mode, monkeypatch
    ):
        """Like ``dup``: unconditional, and -- not being hashed -- it
        leaves every recorded round digest where it was."""
        from dataclasses import replace

        from repro.experiments import chaos

        clean = run_round(small_task(mode=mode, spec=[]))
        assert clean["violations"] == [] and clean["spurious"] == 0
        real_judge = chaos.judge
        monkeypatch.setattr(
            chaos, "judge", lambda *a: replace(real_judge(*a), spurious=1)
        )
        out = run_round(small_task(mode=mode, spec=[]))
        assert out["violations"] == ["spurious_deliveries: 1"]
        assert round_fails(out)
        assert out["digest"] == clean["digest"]

    def test_nemesis_round_samples_when_no_spec(self):
        # seed/round chosen so the tiny 12-node workload draw actually
        # has matching subscriptions (most small draws match nothing).
        out = run_round(small_task(seed=7, rnd=3))
        assert out["spec"], "nemesis should have sampled a schedule"
        assert out["expected"] > 0
        assert out["violations"] == [], out["violations"]


class TestFailingFiles:
    def _outcome(self, spec):
        return {
            "schema": 1,
            "mode": "durable",
            "seed": 5,
            "round": 0,
            **_SMALL,
            "violations": ["invariant: synthetic"],
            "lost": 0,
            "digest": "d" * 64,
            "spec": spec,
        }

    def test_write_and_replay_round_trips(self, tmp_path):
        # The stored shrunk spec replays through the real round runner;
        # digests of two replays must agree (exit code 0).
        spec = [
            {"at": 3_000.0, "crash": [5]},
            {"at": 9_000.0, "rejoin": [5]},
        ]
        true_digest = run_round(small_task(spec=spec))["digest"]
        shrunk = ShrinkResult(
            spec=spec, steps=1, tested=3, cache_hits=0,
            initial_entries=3, final_entries=2,
        )
        path = write_failing(tmp_path, self._outcome(spec), shrunk, true_digest)
        assert path == failing_path(tmp_path, 5, 0)
        doc = json.loads(path.read_text())
        assert doc["shrunk_spec"] == spec
        assert doc["shrink"]["entries"] == [3, 2]
        assert replay_failing(path) == 0

    def test_replay_detects_stale_digest(self, tmp_path):
        spec = [
            {"at": 3_000.0, "crash": [5]},
            {"at": 9_000.0, "rejoin": [5]},
        ]
        shrunk = ShrinkResult(
            spec=spec, steps=0, tested=1, cache_hits=0,
            initial_entries=2, final_entries=2,
        )
        path = write_failing(
            tmp_path, self._outcome(spec), shrunk, "0" * 64
        )
        assert replay_failing(path) == 1  # stored digest can't match

    def test_replay_unreadable_file(self, tmp_path):
        bad = tmp_path / "nope.json"
        assert replay_failing(bad) == 2
        bad.write_text("{not json")
        assert replay_failing(bad) == 2


class TestCampaign:
    def test_small_durable_campaign_is_clean(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NODES", str(_SMALL["num_nodes"]))
        monkeypatch.setenv("REPRO_EVENTS", str(_SMALL["num_events"]))
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "store"))
        summary = run_campaign(
            rounds=2, seed=5, mode="durable", jobs=1,
            out_dir=str(tmp_path / "chaos"),
        )
        assert summary["rounds"] == 2
        assert summary["violations_total"] == 0
        assert summary["failing_rounds"] == 0
        assert len(summary["outcomes"]) == 2
        assert all(o["digest"] for o in summary["outcomes"])
        # the on-disk summary mirrors the returned one (CI reads it)
        on_disk = json.loads((tmp_path / "chaos" / "summary.json").read_text())
        assert on_disk["violations_total"] == 0
        assert len(on_disk["outcomes"]) == 2

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            run_campaign(rounds=1, mode="yolo")

    def test_main_replay_path(self, tmp_path):
        assert chaos_main(replay=str(tmp_path / "missing.json")) == 2


class TestBundledFixture:
    """The historical failing schedule CI replays as a regression gate.

    The expensive digest replay runs in the chaos-smoke CI job; here we
    only pin the artifact's schema and that its shrunken spec builds.
    """

    FIXTURE = (
        Path(__file__).parent / "data" / "chaos_failing_best_effort.json"
    )

    def test_fixture_is_a_valid_failing_artifact(self):
        doc = json.loads(self.FIXTURE.read_text())
        for key in (
            "schema", "mode", "seed", "round", "num_nodes", "num_events",
            "violations", "lost", "digest", "spec", "shrunk_spec",
            "shrunk_digest", "shrink",
        ):
            assert key in doc, f"fixture missing {key!r}"
        assert doc["schema"] == 1
        assert doc["mode"] == "best-effort"
        assert doc["lost"] > 0  # it failed by losing a delivery
        assert len(doc["shrunk_spec"]) <= len(doc["spec"])
        FaultSchedule.from_spec(doc["shrunk_spec"])  # must still build
