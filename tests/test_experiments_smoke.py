"""Smoke tests: every experiment driver runs end-to-end at tiny scale.

These don't assert the paper's shapes (the benchmarks do, at meaningful
scale); they assert the drivers execute, render, and return sane
structures, so a refactor can't silently break the harness.
"""

import numpy as np
import pytest

from repro.experiments import common
from repro.experiments.common import DeliveryConfig, run_delivery


@pytest.fixture(autouse=True)
def fresh_cache():
    common.clear_cache()
    yield
    common.clear_cache()


TINY = dict(num_nodes=60, num_events=60, subs_per_node=5)


class TestRunDelivery:
    def test_result_fields(self):
        res = run_delivery(DeliveryConfig(**TINY))
        assert res.matched_pct.n == 60
        assert res.loads.shape == (60,)
        assert res.sub_loads.sum() <= res.loads.sum()
        assert res.total_subscriptions == 300
        assert res.avg_rtt_ms > 0
        assert res.wall_seconds > 0

    def test_memo_cache_hits(self):
        cfg = DeliveryConfig(**TINY)
        a = run_delivery(cfg)
        b = run_delivery(cfg)
        assert a is b

    def test_cache_bypass(self):
        cfg = DeliveryConfig(**TINY)
        a = run_delivery(cfg)
        b = run_delivery(cfg, use_cache=False)
        assert a is not b
        # Determinism: identical numbers either way.
        assert a.matched_counts.mean == b.matched_counts.mean

    def test_label(self):
        assert DeliveryConfig(base=2, lb=False).label == "Base 2,level 20,no LB"
        assert DeliveryConfig(base=4, lb=True).label == "Base 4,level 10,LB"

    def test_scale_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "quick")
        assert common.scale_from_env() == (150, 200)
        monkeypatch.setenv("REPRO_NODES", "99")
        assert common.scale_from_env() == (99, 200)
        monkeypatch.setenv("REPRO_SCALE", "nope")
        with pytest.raises(ValueError):
            common.scale_from_env()


class TestDrivers:
    def test_fig2(self):
        from repro.experiments import fig2

        res = fig2.run(num_nodes=60, num_events=60)
        out = res.render()
        assert "Figure 2(a)" in out and "Figure 2(d)" in out
        assert len(res.runs) == 4

    def test_fig3_and_fig4_share_runs(self):
        from repro.experiments import fig2, fig3, fig4

        fig2.run(num_nodes=60, num_events=60)
        hits_before = len(common._memo)
        r3 = fig3.run(num_nodes=60, num_events=60)
        r4 = fig4.run(num_nodes=60, num_events=60)
        assert len(common._memo) == hits_before  # cached, no new runs
        assert "Figure 3(a)" in r3.render()
        assert "Figure 4" in r4.render()

    def test_table2(self):
        from repro.experiments import table2

        res = table2.run(sizes=[300, 600])
        assert len(res.avg_rtts) == 2
        assert res.report.all_passed

    def test_fig5(self):
        from repro.experiments import fig5

        res = fig5.run(sizes=[60, 120], num_events=50, subs_per_node=5)
        out = res.render()
        assert "Figure 5(a)" in out and "Figure 5(d)" in out

    def test_install_cost(self):
        from repro.experiments import install_cost

        res = install_cost.run(sizes=(40, 80), num_subs=40)
        assert len(res.lookup_hops) == 2
        assert res.lookup_hops[0] > 0

    def test_piggyback(self):
        from repro.experiments import piggyback

        res = piggyback.run(num_nodes=60, num_events=200)
        assert res.maintenance_bytes[True] <= res.maintenance_bytes[False]
        assert "P1" in res.render()

    def test_churn_single_seed(self):
        from repro.experiments import churn

        res = churn.run(
            num_nodes=60, num_events=40,
            fail_fractions=(0.0, 0.1), seeds=(1,),
        )
        assert res.delivery_ratios[0] == pytest.approx(1.0)
        assert len(res.replicated_ratios) == 2

    def test_baseline_cmp(self):
        from repro.experiments import baseline_cmp

        res = baseline_cmp.run(num_nodes=60, num_events=40)
        assert len(res.summaries) == 4
        names = [s.name for s in res.summaries]
        assert any("Meghdoot" in n for n in names)
        # All three systems agree on the match set.
        matched = [s.avg_matched for s in res.summaries]
        assert max(matched) - min(matched) < 0.51

    def test_heterogeneous(self):
        from repro.experiments import heterogeneous

        res = heterogeneous.run(num_nodes=60, subs_per_node=5, rounds=1)
        assert len(res.rows) == 3
        assert "H1" in res.render()

    def test_reliability(self):
        from repro.experiments import reliability

        res = reliability.run(
            num_nodes=50, num_events=30, loss_rates=(0.0, 0.1)
        )
        assert res.plain_ratio[0] == 1.0
        assert res.reliable_ratio[-1] >= 0.99
        assert "R1" in res.render()

    def test_dynamic(self, monkeypatch):
        from repro.experiments import dynamic

        judged = []
        real_judge = dynamic.judge
        monkeypatch.setattr(
            dynamic, "judge",
            lambda log, installed: judged.append(log) or real_judge(log, installed),
        )
        res = dynamic.run(
            num_nodes=60, subs_per_phase=60, phases=3, phase_ms=5_000.0
        )
        assert len(res.max_load_static) == 3
        assert "D1" in res.render()
        assert res.report.all_passed
        # Regression: the exact-delivery check used to rebuild its
        # seeded generator per iteration and publish one point 15 times.
        # They are now 15 consecutive draws of one generator (14 distinct
        # points: the hotspot distribution itself repeats one).
        from repro.workloads import WorkloadGenerator

        (log,) = judged
        gen = WorkloadGenerator(dynamic._phase_specs(3)[-1], seed=500)
        want = [tuple(gen.event().point) for _ in range(15)]
        assert [tuple(p.event.point) for p in log.published.values()] == want
        assert len(set(want)) > 10


class TestSatelliteRegressions:
    """Regression tests for the sweep-harness bugfixes (PR 5)."""

    def test_label_levels_for_every_base(self):
        """The level count is code_bits/log2(base), not a power-of-two
        table lookup: base 3 has 12 full digits in a 20-bit code."""
        import math

        expected = {2: 20, 3: 12, 4: 10, 5: 8, 6: 7, 7: 7, 8: 6}
        for base in range(2, 9):
            cfg = DeliveryConfig(base=base, lb=False)
            levels = int(cfg.code_bits / math.log2(base))
            assert levels == expected[base]
            assert cfg.label == f"Base {base},level {levels},no LB"

    @pytest.mark.parametrize("var", ["REPRO_NODES", "REPRO_EVENTS"])
    @pytest.mark.parametrize("raw", ["0", "-3", "abc", "2.5", ""])
    def test_scale_env_validated_at_parse_time(self, monkeypatch, var, raw):
        monkeypatch.setenv(var, raw)
        with pytest.raises(ValueError, match=var):
            common.scale_from_env()

    def test_fig5_sizes_env_bad_token(self, monkeypatch):
        from repro.experiments import fig5

        monkeypatch.delenv("REPRO_SCALE", raising=False)
        monkeypatch.setenv("REPRO_FIG5_SIZES", "500,10x0")
        with pytest.raises(ValueError, match="REPRO_FIG5_SIZES"):
            fig5.sweep_sizes()

    @pytest.mark.parametrize("raw", ["", " ", ",,"])
    def test_fig5_sizes_env_empty(self, monkeypatch, raw):
        from repro.experiments import fig5

        monkeypatch.delenv("REPRO_SCALE", raising=False)
        monkeypatch.setenv("REPRO_FIG5_SIZES", raw)
        with pytest.raises(ValueError, match="REPRO_FIG5_SIZES"):
            fig5.sweep_sizes()

    def test_fig5_rejects_explicit_empty_sweep(self):
        """An explicitly empty `sizes` is a misconfiguration, not a cue
        to silently fall back to the defaults (the old code crashed
        later with an IndexError)."""
        from repro.experiments import fig5

        with pytest.raises(ValueError, match="at least one network size"):
            fig5.run(sizes=[], num_events=10)

    def test_fig5_shape_checks_need_no_lb_config(self):
        """check_shapes on a sweep without an lb=False configuration
        raised a bare StopIteration; now it names the misconfiguration."""
        from repro.experiments import fig5

        with pytest.raises(ValueError, match="no LB"):
            fig5.check_shapes([60, 120], {"Base 2,level 20,LB": []})
