"""The parallel experiment runner and its persistent result store.

The contracts under test (docs/RUNNER.md):

* **Round trip** -- serialize -> store -> load reproduces every numeric
  series bit-for-bit (same digest, same dtypes).
* **Determinism** -- a parallel sweep (``jobs=4``) produces numerically
  identical series and identical store keys to a serial one.
* **Resume** -- a prepopulated store satisfies a sweep with zero new
  simulation runs (the crash-recovery path).
* **Fault tolerance** -- a failing point is retried once and reported
  per-point; the rest of the sweep completes and persists.
* **Telemetry merge** -- worker manifests fold into the parent session.
"""

import json
import os

import numpy as np
import pytest

from repro import runner
from repro.experiments import common
from repro.experiments.common import DeliveryConfig, figure2_configs
from repro.runner import (
    JsonDocStore,
    ResultStore,
    SweepError,
    deserialize_result,
    map_configs,
    map_tasks,
    resolve_jobs,
    result_digest,
    run_sweep,
    serialize_result,
    store_key,
)

TINY = dict(num_nodes=60, num_events=40, subs_per_node=5)


@pytest.fixture(autouse=True)
def fresh_memo():
    common.clear_cache()
    yield
    common.clear_cache()


def tiny_result(**overrides):
    params = {**TINY, **overrides}
    return common.run_delivery(DeliveryConfig(**params), use_cache=False)


# ----------------------------------------------------------------------
# Generic JSON document cache (base of ResultStore; used directly by
# the chaos shrinker for scenario verdicts)
# ----------------------------------------------------------------------
class TestJsonDocStore:
    def test_put_get_round_trip(self, tmp_path):
        store = JsonDocStore(tmp_path / "docs")
        assert store.get_doc("k") is None  # miss on empty store
        store.put_doc("k", {"a": 1, "nested": {"b": [1, 2]}})
        assert store.get_doc("k") == {"a": 1, "nested": {"b": [1, 2]}}
        assert store.contains_key("k")
        assert not store.contains_key("other")
        assert store.count() == 1
        assert (store.hits, store.misses) == (1, 1)

    def test_corrupt_file_is_a_miss(self, tmp_path):
        store = JsonDocStore(tmp_path / "docs")
        store.put_doc("k", {"a": 1})
        store.path_for("k").write_text("{truncated", encoding="utf-8")
        assert store.get_doc("k") is None
        # a JSON scalar is not a document either
        store.path_for("k").write_text("42", encoding="utf-8")
        assert store.get_doc("k") is None
        assert store.misses == 2

    def test_atomic_write_leaves_no_temp_debris(self, tmp_path):
        store = JsonDocStore(tmp_path / "docs")
        store.put_doc("a", {"x": 1})
        store.put_doc("a", {"x": 2})  # overwrite via os.replace
        assert store.get_doc("a") == {"x": 2}
        leftovers = [
            p for p in store.root.iterdir() if p.name.startswith(".tmp-")
        ]
        assert leftovers == []
        assert store.count() == 1

    def test_count_on_missing_root(self, tmp_path):
        assert JsonDocStore(tmp_path / "never-created").count() == 0


# ----------------------------------------------------------------------
# Store: keys and round trip
# ----------------------------------------------------------------------
class TestStoreKey:
    def test_stable(self):
        cfg = DeliveryConfig(**TINY)
        assert store_key(cfg) == store_key(cfg)

    def test_config_sensitivity(self):
        base = DeliveryConfig(**TINY)
        assert store_key(base) != store_key(
            DeliveryConfig(**{**TINY, "num_events": 41})
        )
        assert store_key(base) != store_key(
            DeliveryConfig(**{**TINY, "seed": 2})
        )

    def test_spec_sensitivity(self):
        from repro.workloads import default_paper_spec

        cfg = DeliveryConfig(**TINY)
        default_key = store_key(cfg)
        # The default spec hashes identically whether implied or passed.
        assert default_key == store_key(
            cfg, default_paper_spec(subs_per_node=cfg.subs_per_node)
        )
        other = default_paper_spec(subs_per_node=cfg.subs_per_node + 1)
        assert default_key != store_key(cfg, other)


class TestRoundTrip:
    def test_exact(self, tmp_path):
        res = tiny_result()
        store = ResultStore(tmp_path)
        store.put(res)
        loaded = store.get(res.config)
        assert loaded is not None
        assert result_digest(loaded) == result_digest(res)
        for name in ("matched_pct", "matched_counts", "max_hops",
                     "max_latency_ms", "bandwidth_kb"):
            assert np.array_equal(
                getattr(loaded, name).values, getattr(res, name).values
            ), name
        for name in ("in_bw_kb", "out_bw_kb", "loads", "sub_loads"):
            a, b = getattr(loaded, name), getattr(res, name)
            assert np.array_equal(a, b) and a.dtype == b.dtype, name
        assert loaded.total_subscriptions == res.total_subscriptions
        assert loaded.avg_rtt_ms == res.avg_rtt_ms
        assert loaded.config == res.config
        assert loaded.label == res.label

    def test_serialize_is_json_safe(self):
        res = tiny_result()
        doc = serialize_result(res)
        rebuilt = deserialize_result(json.loads(json.dumps(doc)))
        assert result_digest(rebuilt) == result_digest(res)

    def test_subschemes_survive(self, tmp_path):
        res = tiny_result(subschemes=(("d0", "d1"), ("d2", "d3")))
        store = ResultStore(tmp_path)
        store.put(res)
        loaded = store.get(res.config)
        assert loaded is not None
        assert loaded.config.subschemes == (("d0", "d1"), ("d2", "d3"))

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        res = tiny_result()
        store = ResultStore(tmp_path)
        key = store.put(res)
        store.path_for(key).write_text("{ truncated", encoding="utf-8")
        assert store.get(res.config) is None

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        res = tiny_result()
        store = ResultStore(tmp_path)
        key = store.put(res)
        doc = json.loads(store.path_for(key).read_text(encoding="utf-8"))
        doc["schema"] = -1
        store.path_for(key).write_text(json.dumps(doc), encoding="utf-8")
        assert store.get(res.config) is None

    def test_wall_seconds_excluded_from_digest(self):
        res = tiny_result()
        before = result_digest(res)
        res.wall_seconds += 100.0
        assert result_digest(res) == before


class TestRunDeliveryStoreIntegration:
    def test_write_through_and_cross_process_shape(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        cfg = DeliveryConfig(**TINY)
        first = common.run_delivery(cfg)
        assert ResultStore(tmp_path).count() == 1
        # A fresh process would have an empty memo; simulate by clearing.
        common.clear_cache()
        second = common.run_delivery(cfg)
        assert second is not first  # rebuilt from disk, not the memo
        assert result_digest(second) == result_digest(first)

    def test_use_cache_false_bypasses_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        cfg = DeliveryConfig(**TINY)
        common.run_delivery(cfg, use_cache=False)
        assert ResultStore(tmp_path).count() == 0

    def test_store_disabled(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", "none")
        assert runner.default_store() is None
        cfg = DeliveryConfig(**TINY)
        common.run_delivery(cfg)  # must not write anywhere
        assert ResultStore(tmp_path).count() == 0


# ----------------------------------------------------------------------
# Sweeps: determinism, resume, failures
# ----------------------------------------------------------------------
class TestSweepDeterminism:
    def test_parallel_equals_serial(self, tmp_path, monkeypatch):
        """The ISSUE's property test: ``--jobs 4`` and serial runs agree
        on every series and produce identical store hashes."""
        configs = figure2_configs(60, 40, subs_per_node=5)

        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "par"))
        parallel = run_sweep(configs, jobs=4)
        assert [r.source for r in parallel.reports] == ["run"] * 4

        common.clear_cache()
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "ser"))
        serial = run_sweep(configs, jobs=1)
        assert [r.source for r in serial.reports] == ["run"] * 4

        for p_res, s_res in zip(parallel.results, serial.results):
            for name in ("matched_pct", "max_hops", "bandwidth_kb"):
                assert np.array_equal(
                    getattr(p_res, name).values, getattr(s_res, name).values
                ), name
        assert [r.digest for r in parallel.reports] == [
            r.digest for r in serial.reports
        ]
        par_keys = sorted(p.name for p in (tmp_path / "par").glob("*.json"))
        ser_keys = sorted(p.name for p in (tmp_path / "ser").glob("*.json"))
        assert par_keys == ser_keys and len(par_keys) == 4

    def test_duplicate_configs_dedupe(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        cfg = DeliveryConfig(**TINY)
        outcome = run_sweep([cfg, cfg, cfg], jobs=1)
        assert len(outcome.results) == 3
        # Computed once: every duplicate shares the result and report.
        assert outcome.results[0] is outcome.results[1] is outcome.results[2]
        assert outcome.reports[0] is outcome.reports[2]
        assert ResultStore(tmp_path).count() == 1


class TestResume:
    def test_full_store_means_zero_runs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        configs = figure2_configs(60, 40, subs_per_node=5)
        run_sweep(configs, jobs=1)
        common.clear_cache()  # a new invocation has an empty memo
        resumed = run_sweep(configs, jobs=1)
        assert resumed.executed == 0
        assert resumed.store_hits == 4
        assert [r.source for r in resumed.reports] == ["store"] * 4

    def test_partial_store_resumes_where_it_died(self, tmp_path, monkeypatch):
        """Kill-at-point-N recovery: only the missing points execute."""
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        configs = figure2_configs(60, 40, subs_per_node=5)
        run_sweep(configs[:2], jobs=1)  # the 'run that was killed'
        common.clear_cache()
        resumed = run_sweep(configs, jobs=1)
        assert [r.source for r in resumed.reports] == [
            "store", "store", "run", "run"
        ]

    def test_memo_still_shared_within_process(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        configs = figure2_configs(60, 40, subs_per_node=5)
        run_sweep(configs, jobs=1)
        again = run_sweep(configs, jobs=1)  # memo intact this time
        assert again.memo_hits == 4


class TestFailures:
    def test_failed_point_reported_not_fatal_to_sweep(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        good = DeliveryConfig(**TINY)
        bad = DeliveryConfig(**{**TINY, "num_nodes": 0})  # always raises
        outcome = run_sweep([good, bad], jobs=1)
        assert outcome.reports[0].source == "run"
        assert outcome.reports[1].source == "failed"
        assert outcome.reports[1].error is not None
        # The good point persisted: a rerun resumes instead of recomputing.
        assert ResultStore(tmp_path).count() == 1

    def test_map_configs_raises_sweep_error_after_completion(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        good = DeliveryConfig(**TINY)
        bad = DeliveryConfig(**{**TINY, "num_nodes": 0})
        with pytest.raises(SweepError) as exc:
            map_configs([good, bad], jobs=1)
        assert "1 of 2" in str(exc.value)
        assert bad.label in str(exc.value)
        assert ResultStore(tmp_path).count() == 1

    def test_worker_failure_retried_in_parent(self, tmp_path, monkeypatch):
        """Parallel path: the pool reports the error, the parent retries
        serially once, then records the point as failed."""
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        good = figure2_configs(60, 40, subs_per_node=5)[:2]
        bad = DeliveryConfig(**{**TINY, "num_nodes": 0})
        outcome = run_sweep(list(good) + [bad], jobs=2)
        by_label = {r.label: r for r in outcome.reports}
        assert by_label[bad.label].source == "failed"
        assert by_label[bad.label].attempts == 2
        assert sum(1 for r in outcome.reports if r.source == "run") == 2


# ----------------------------------------------------------------------
# map_tasks
# ----------------------------------------------------------------------
def _square(x):
    return x * x


def _explode(x):
    raise RuntimeError(f"boom {x}")


class TestMapTasks:
    def test_serial_order(self):
        assert map_tasks(_square, [3, 1, 2], jobs=1) == [9, 1, 4]

    def test_parallel_order(self):
        assert map_tasks(_square, list(range(8)), jobs=4) == [
            x * x for x in range(8)
        ]

    def test_failure_raises_after_retry(self):
        with pytest.raises(RuntimeError, match="failed twice"):
            map_tasks(_explode, [1, 2], jobs=2)

    def test_single_item_runs_serially(self):
        with pytest.raises(RuntimeError, match="boom 1"):
            map_tasks(_explode, [1], jobs=4)


# ----------------------------------------------------------------------
# Jobs resolution
# ----------------------------------------------------------------------
class TestResolveJobs:
    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert resolve_jobs() == 4

    def test_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert resolve_jobs(2) == 2

    @pytest.mark.parametrize("raw", ["0", "-1", "two", "1.5", ""])
    def test_invalid_env_named_in_error(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_JOBS", raw)
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            resolve_jobs()

    def test_invalid_argument(self):
        with pytest.raises(ValueError):
            resolve_jobs(0)


# ----------------------------------------------------------------------
# Telemetry merge
# ----------------------------------------------------------------------
class TestManifestMerge:
    def _fake_manifest(self, published, wall):
        return {
            "runs": [{"num_nodes": 60, "seed": 1}],
            "results": {f"r{published}": {"x": 1}},
            "wall_seconds": wall,
            "metrics": {
                "counters": {"events.published": published},
                "gauges": {"queue.depth": published / 10.0},
            },
        }

    def test_merge_two_children(self, tmp_path):
        from repro.telemetry import TelemetrySession

        session = TelemetrySession(tmp_path / "tel", tracing=False)
        session.merge_child_manifest(self._fake_manifest(10, 1.0))
        session.merge_child_manifest(self._fake_manifest(30, 2.0))
        # runs concatenate, results key-merge, counters sum, gauges max
        assert len(session.runs) == 2
        assert set(session.results) == {"r10", "r30"}
        assert session.registry.value("events.published") == 40
        assert session.registry.value("queue.depth") == 3.0

    def test_session_absorbs_child(self, tmp_path):
        from repro.telemetry import TelemetrySession

        session = TelemetrySession(tmp_path / "tel", tracing=False)
        session.registry.counter("events.published").inc(5)
        session.merge_child_manifest(self._fake_manifest(10, 1.0))
        assert session.registry.value("events.published") == 15
        assert len(session.runs) == 1

    def test_sweep_block_lands_in_parent_manifest(self, tmp_path, monkeypatch):
        from repro.telemetry import telemetry_session

        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
        configs = figure2_configs(60, 40, subs_per_node=5)[:2]
        with telemetry_session(tmp_path / "tel", label="sweep-test") as sess:
            run_sweep(configs, jobs=2, label="unit")
            manifest = sess.build_manifest(command="test")
        sweeps = manifest["extra"]["sweeps"]
        assert len(sweeps) == 1
        block = sweeps[0]
        assert block["label"] == "unit"
        assert block["jobs"] == 2
        assert block["points_total"] == 2
        assert block["executed"] == 2
        assert len(block["workers"]) >= 1
        for point in block["points"]:
            assert point["source"] == "run"
            assert point["seed"] == 1 and point["workload_seed"] == 7
            assert point["digest"]
        # Worker counters merged: the parent session never built a
        # system itself, yet carries the delivery metrics.
        assert manifest["metrics"]["counters"]["events.published"] > 0
        assert manifest["metrics"]["counters"]["store.misses"] == 2

    def test_store_hits_counted(self, tmp_path, monkeypatch):
        from repro.telemetry import telemetry_session

        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
        configs = figure2_configs(60, 40, subs_per_node=5)[:2]
        run_sweep(configs, jobs=1)
        common.clear_cache()
        with telemetry_session(tmp_path / "tel2", label="resume") as sess:
            outcome = run_sweep(configs, jobs=1)
            manifest = sess.build_manifest(command="test")
        assert outcome.store_hits == 2
        assert manifest["metrics"]["counters"]["store.hits"] == 2
        assert manifest["metrics"]["counters"]["store.misses"] == 0


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
class TestCliJobsFlag:
    def test_jobs_flag_sets_env(self, monkeypatch, tmp_path):
        from repro.__main__ import main

        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        main(["list", "--jobs", "3"])
        assert os.environ.get("REPRO_JOBS") == "3"

    def test_results_dir_flag_sets_env(self, monkeypatch, tmp_path):
        from repro.__main__ import main

        main(["list", "--results-dir", str(tmp_path / "rs")])
        assert os.environ.get("REPRO_RESULTS_DIR") == str(tmp_path / "rs")

    def test_jobs_rejects_zero(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["list", "--jobs", "0"])
