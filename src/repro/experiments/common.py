"""Shared experiment harness.

``run_delivery`` builds a HyperSub deployment, installs the Table-1
workload, optionally runs the dynamic load balancer, publishes a
Poisson event stream and returns every series the figures need.  Two
cache layers let Figures 2, 3 and 4 (which all read the same four
runs) share work: an in-process memo keyed on the full configuration,
backed by the persistent on-disk :class:`repro.runner.ResultStore`
(``out/results/`` by default) that also shares runs across processes
and across invocations -- a killed sweep resumes from it.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import HyperSubConfig
from repro.core.system import HyperSubSystem
from repro.sim.stats import Distribution
from repro.telemetry import current_session
from repro.workloads import WorkloadGenerator, default_paper_spec
from repro.workloads.spec import WorkloadSpec

#: Node count of the King dataset / the paper's main experiments.
PAPER_NODES = 1740
#: Event count of the paper's main experiments.
PAPER_EVENTS = 20_000

_SCALES: Dict[str, Tuple[int, int]] = {
    # name: (num_nodes, num_events)
    "paper": (PAPER_NODES, PAPER_EVENTS),
    "default": (PAPER_NODES, 2_000),
    "bench": (600, 800),
    "quick": (150, 200),
}


def _positive_int_env(name: str, default: int) -> int:
    """Parse an override env var, failing fast with the var's name.

    Zero, negative and non-integer values used to flow through and blow
    up deep inside system setup; validating at parse time turns that
    into an actionable one-line error.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{name} must be an integer, got {raw!r}"
        ) from None
    if value <= 0:
        raise ValueError(f"{name} must be a positive integer, got {value}")
    return value


def scale_from_env(default: str = "bench") -> Tuple[int, int]:
    """Resolve ``(num_nodes, num_events)`` from ``REPRO_SCALE``.

    ``REPRO_NODES`` / ``REPRO_EVENTS`` override individual values;
    both must be positive integers.
    """
    name = os.environ.get("REPRO_SCALE", default)
    if name not in _SCALES:
        raise ValueError(
            f"unknown REPRO_SCALE {name!r}; pick one of {sorted(_SCALES)}"
        )
    nodes, events = _SCALES[name]
    nodes = _positive_int_env("REPRO_NODES", nodes)
    events = _positive_int_env("REPRO_EVENTS", events)
    return nodes, events


@dataclass(frozen=True)
class DeliveryConfig:
    """One delivery-measurement run (the unit Figures 2-5 sweep over)."""

    num_nodes: int = PAPER_NODES
    num_events: int = 2_000
    subs_per_node: int = 10
    base: int = 2
    code_bits: int = 20
    lb: bool = False
    lb_rounds: int = 3
    rotation: bool = True
    pns: bool = True
    direct_rendezvous_levels: int = 8
    subschemes: Optional[Tuple[Tuple[str, ...], ...]] = None
    seed: int = 1
    workload_seed: int = 7

    @property
    def label(self) -> str:
        # Digits of base-`base` that fit in `code_bits` bits.  The old
        # `code_bits // (base.bit_length() - 1)` is only right for
        # powers of two (base 3 divided by 1 and reported level 20
        # instead of ~12); log2 handles every base >= 2.
        geometry_levels = int(self.code_bits / math.log2(self.base))
        lb = "LB" if self.lb else "no LB"
        return f"Base {self.base},level {geometry_levels},{lb}"


@dataclass
class DeliveryResult:
    """Everything the figures read from one run."""

    config: DeliveryConfig
    matched_pct: Distribution
    matched_counts: Distribution
    max_hops: Distribution
    max_latency_ms: Distribution
    bandwidth_kb: Distribution
    in_bw_kb: np.ndarray
    out_bw_kb: np.ndarray
    loads: np.ndarray
    #: per-node count of stored *real* subscriptions only (no markers)
    sub_loads: np.ndarray
    total_subscriptions: int
    avg_rtt_ms: float
    wall_seconds: float

    @property
    def label(self) -> str:
        return self.config.label


_memo: Dict[DeliveryConfig, DeliveryResult] = {}


def run_delivery(
    cfg: DeliveryConfig,
    spec: Optional[WorkloadSpec] = None,
    use_cache: bool = True,
) -> DeliveryResult:
    """Execute one full delivery experiment (or return the cached run).

    Cache resolution: the in-process memo first, then the persistent
    result store (see :mod:`repro.runner`); a fresh run is written
    through to both.  ``use_cache=False`` bypasses reads *and* writes.
    """
    if use_cache and spec is None and cfg in _memo:
        return _memo[cfg]

    # Imported here: repro.runner imports this module at load time.
    from repro import runner as _runner

    store = _runner.default_store() if use_cache else None
    if store is not None:
        cached = store.get(cfg, spec)
        if cached is not None:
            _record_delivery_telemetry(cfg, cached, cache_hit=True)
            if spec is None:
                _memo[cfg] = cached
            return cached

    t0 = time.time()
    workload = spec or default_paper_spec(subs_per_node=cfg.subs_per_node)
    gen = WorkloadGenerator(workload, seed=cfg.workload_seed)
    system_cfg = HyperSubConfig(
        base=cfg.base,
        code_bits=cfg.code_bits,
        rotation=cfg.rotation,
        pns=cfg.pns,
        direct_rendezvous_levels=cfg.direct_rendezvous_levels,
        seed=cfg.seed,
    )
    system = HyperSubSystem(num_nodes=cfg.num_nodes, config=system_cfg)
    subschemes = (
        [list(group) for group in cfg.subschemes] if cfg.subschemes else None
    )
    system.add_scheme(gen.scheme, subschemes=subschemes)
    gen.populate(system)
    system.finish_setup()

    if cfg.lb:
        system.run_migration_rounds(cfg.lb_rounds)
        system.network.stats.reset()
        system.metrics.clear_events()

    gen.schedule_events(system, count=cfg.num_events)
    system.run_until_idle()
    # Loaded-state footprint: subscription/zone tables plus whatever the
    # event phase left behind (custody logs, route cache, ...).
    system.sample_memory()

    metrics = system.metrics
    result = DeliveryResult(
        config=cfg,
        matched_pct=metrics.matched_percentages(),
        matched_counts=Distribution.from_values(
            r.matched for r in metrics.records.values()
        ),
        max_hops=metrics.max_hops(),
        max_latency_ms=metrics.max_latencies(),
        bandwidth_kb=metrics.bandwidth_per_event_kb(),
        in_bw_kb=system.in_bandwidth_kb(),
        out_bw_kb=system.out_bandwidth_kb(),
        loads=system.node_loads(),
        sub_loads=np.array(
            [n.stored_subscription_count("sub") for n in system.nodes],
            dtype=np.int64,
        ),
        total_subscriptions=metrics.total_subscriptions,
        avg_rtt_ms=system.topology.mean_rtt(20_000),
        wall_seconds=time.time() - t0,
    )
    _record_delivery_telemetry(cfg, result, cache_hit=False)
    if store is not None:
        store.put(result, spec)
    if use_cache and spec is None:
        _memo[cfg] = result
    return result


def _record_delivery_telemetry(
    cfg: DeliveryConfig, result: "DeliveryResult", cache_hit: bool
) -> None:
    """One headline block per configuration in the run manifest."""
    tel = current_session()
    if tel is None:
        return
    tel.record_result(
        f"delivery[{cfg.label}]",
        {
            "num_nodes": cfg.num_nodes,
            "num_events": cfg.num_events,
            "mean_max_hops": result.max_hops.mean,
            "mean_max_latency_ms": result.max_latency_ms.mean,
            "mean_bandwidth_kb": result.bandwidth_kb.mean,
            "total_subscriptions": result.total_subscriptions,
            "wall_seconds": result.wall_seconds,
            "from_store": cache_hit,
        },
    )
    # One live snapshot per resolved point: this is what streams out to
    # metrics_stream.jsonl and, in a parallel sweep, rides the worker's
    # manifest back to the parent (see repro.telemetry.export).
    tel.stream_snapshot(point=cfg.label, kind="delivery", from_store=cache_hit)


def clear_cache() -> None:
    _memo.clear()


def figure2_configs(num_nodes: int, num_events: int, **overrides) -> Sequence[DeliveryConfig]:
    """The four configurations Figures 2-4 sweep: base 2 / base 4, each
    with and without dynamic load balancing (probing level 1,
    delta = 0.1, per Section 5.2)."""
    out = []
    for base in (2, 4):
        for lb in (False, True):
            out.append(
                DeliveryConfig(
                    num_nodes=num_nodes,
                    num_events=num_events,
                    base=base,
                    lb=lb,
                    **overrides,
                )
            )
    return out
