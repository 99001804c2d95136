"""Workload definitions and the benchmark's own input generator.

Everything the system under test receives is made here, from ``--seed``
alone and with NumPy only: the Table-1 subscription and event
populations, the cold/wildcard subscriptions of ``selective_match``,
the subscribe/unsubscribe schedule of ``sub_churn`` and the loss seed
of ``durable_lossy``.  Nothing is taken from ``repro.workloads``, so an
edit there cannot change the load this benchmark applies.

Why each workload exists is recorded in ``BENCHMARK.json`` and in
``README.md``; the sizes are what sets each layer's share of the work.
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass, field, replace
from typing import Dict, Optional

import numpy as np

# -- the reconstructed Table 1 (4 dimensions over [0, 10000]) --------------
DIMS = 4
DOMAIN_LOW = 0.0
DOMAIN_HIGH = 10_000.0
SPAN = DOMAIN_HIGH - DOMAIN_LOW
ZIPF_LEVELS = 1024
DATA_SKEW = 1.5
DATA_HOTSPOTS = (0.10, 0.30, 0.50, 0.70)
SIZE_SKEW = 1.2
MAX_RANGE_FRAC = 0.07
SCHEME_NAME = "bench"
#: mean spacing of the probe events that follow a churn schedule
PROBE_SPACING_MS = 100.0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: population sizes plus the few
    ``HyperSubConfig`` fields that define it (everything else stays at
    its default, so a later change of defaults shows as a gain or loss)."""

    name: str
    nodes: int
    hot_subs_per_node: int
    cold_subs_per_node: int = 0
    #: operations the timed phase runs per second of ``--seconds``: the
    #: baseline's measured throughput on the box it was written on, so a
    #: run of the baseline measures for about ``--seconds``.  Work is a fixed
    #: function of (workload, seconds): simulated metrics and digests
    #: repeat exactly and a faster program finishes sooner.
    ops_per_second: float = 100.0
    #: mean spacing of operations in simulated ms
    mean_spacing_ms: float = 100.0
    config: Dict[str, object] = field(default_factory=dict)
    #: "events": the operations are published events.
    #: "churn": the operations are subscribe/unsubscribe calls and
    #: ``probe_events`` events are published afterwards as a check.
    kind: str = "events"
    probe_events: int = 0
    loss_rate: float = 0.0
    #: simulated ms the run continues after the last publish
    drain_ms: Optional[float] = None

    def ops_for(self, seconds: float) -> int:
        return max(1, int(round(self.ops_per_second * seconds)))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="paper_delivery",
            nodes=1740,
            hot_subs_per_node=10,
            ops_per_second=147.0,
        ),
        Workload(
            name="selective_match",
            nodes=128,
            hot_subs_per_node=10,
            cold_subs_per_node=300,
            ops_per_second=320.0,
        ),
        Workload(
            name="sub_churn",
            nodes=600,
            hot_subs_per_node=5,
            ops_per_second=3050.0,
            mean_spacing_ms=20.0,
            config={"simulate_install": True},
            kind="churn",
            probe_events=400,
        ),
        Workload(
            name="durable_lossy",
            nodes=400,
            hot_subs_per_node=10,
            ops_per_second=200.0,
            config={
                "reliable_delivery": True,
                "retransmit_timeout_ms": 1_000.0,
                "max_retries": 2,
                "delivery_mode": "durable",
                "ordering": "fifo",
                "direct_rendezvous_levels": 21,
                "durable_redelivery_ms": 2_000.0,
            },
            loss_rate=0.03,
            drain_ms=120_000.0,
        ),
    )
}

#: ``--smoke`` sizes: same shapes, small enough that the whole set
#: (with its traced pass) finishes in well under 30 s.
SMOKE_NODES = {
    "paper_delivery": 150,
    "selective_match": 32,
    "sub_churn": 80,
    "durable_lossy": 60,
}
SMOKE_COLD_SUBS = 40
SMOKE_PROBES = 60


def smoke_variant(w: Workload) -> Workload:
    return replace(
        w,
        nodes=SMOKE_NODES[w.name],
        cold_subs_per_node=SMOKE_COLD_SUBS if w.cold_subs_per_node else 0,
        probe_events=SMOKE_PROBES if w.probe_events else 0,
        drain_ms=30_000.0 if w.drain_ms else None,
    )


@dataclass
class Inputs:
    """Generated inputs of one run (plain arrays; no program objects).

    Subscriptions live in one table: rows ``[0, n_initial)`` are
    installed during set-up, later rows are the churn schedule's
    subscribes in issue order.  An unsubscribe names its row.
    """

    sub_addr: np.ndarray      # (S,) owner address
    sub_lows: np.ndarray      # (S, DIMS)
    sub_highs: np.ndarray     # (S, DIMS)
    n_initial: int
    ev_offset_ms: np.ndarray  # (E,) publish time after the phase start
    ev_addr: np.ndarray       # (E,)
    ev_point: np.ndarray      # (E, DIMS)
    #: churn only: per op, simulated offset, kind and the table row it
    #: subscribes or unsubscribes
    op_offset_ms: Optional[np.ndarray] = None
    op_is_sub: Optional[np.ndarray] = None
    op_row: Optional[np.ndarray] = None
    loss_seed: int = 0

    @property
    def live_at_end(self) -> np.ndarray:
        """Rows still subscribed once every scheduled op has run."""
        live = np.zeros(len(self.sub_addr), dtype=bool)
        live[: self.n_initial] = True
        if self.op_row is not None:
            live[self.op_row[self.op_is_sub]] = True
            live[self.op_row[~self.op_is_sub]] = False
        return live

    def digest(self) -> str:
        h = hashlib.sha256()
        for arr in (
            self.sub_addr, self.sub_lows, self.sub_highs,
            self.ev_offset_ms, self.ev_addr, self.ev_point,
            self.op_offset_ms, self.op_is_sub, self.op_row,
        ):
            if arr is not None:
                h.update(np.ascontiguousarray(arr).tobytes())
        h.update(f"{self.n_initial}|{self.loss_seed}".encode())
        return h.hexdigest()


# ---------------------------------------------------------------------------
# Table-1 draws
# ---------------------------------------------------------------------------
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)


def _points(rng: np.random.Generator, n: int, dims: int) -> np.ndarray:
    """``n`` points of [0, 1)^dims: a Halton sequence under a random
    shift (mod 1) drawn from the seed, in random order.

    Every seed gives other points, but each spreads over the cube as
    evenly as the next.  With independent draws, how many of a run's
    ~1500 events fall on the joint hotspot -- where one event reaches
    hundreds of subscribers -- swings by +-17 % from seed to seed, and
    the per-event costs with it; a seed would then say more about its
    luck than about the program.
    """
    out = np.empty((n, dims))
    for d in range(dims):
        base = _PRIMES[d]
        index = np.arange(1, n + 1)
        value = np.zeros(n)
        scale = 1.0
        while index.any():
            scale /= base
            value += scale * (index % base)
            index //= base
        out[:, d] = value
    out = (out + rng.random(dims)) % 1.0
    return out[rng.permutation(n)]


def _zipf_unit(u: np.ndarray, skew: float) -> np.ndarray:
    """Uniform ``u`` -> Zipf rank over ``ZIPF_LEVELS`` levels rescaled
    to [0, 1): inverse CDF over the exact harmonic weights, (k - 1) / N."""
    weights = 1.0 / np.power(np.arange(1, ZIPF_LEVELS + 1, dtype=np.float64), skew)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return np.searchsorted(cdf, u, side="right") / ZIPF_LEVELS


def _data_values(u: np.ndarray) -> np.ndarray:
    """Event-distribution points: Zipf mass shifted to each dimension's
    hotspot, wrapping inside the domain."""
    unit = _zipf_unit(u, DATA_SKEW)
    return DOMAIN_LOW + ((np.asarray(DATA_HOTSPOTS) + unit) % 1.0) * SPAN


def _boxes(centres: np.ndarray, size_u: np.ndarray):
    """Boxes around ``centres`` with Table-1 sizes: Zipf towards
    narrow, at most 7 % of the domain, clipped to it."""
    sizes = _zipf_unit(size_u, SIZE_SKEW) * MAX_RANGE_FRAC * SPAN
    lows = np.maximum(DOMAIN_LOW, centres - sizes / 2.0)
    highs = np.minimum(DOMAIN_HIGH, centres + sizes / 2.0)
    return lows, highs


def event_points(rng: np.random.Generator, n: int) -> np.ndarray:
    return _data_values(_points(rng, n, DIMS))


def hot_boxes(rng: np.random.Generator, n: int):
    """Table-1 subscriptions: data-distributed centres."""
    u = _points(rng, n, 2 * DIMS)
    return _boxes(_data_values(u[:, :DIMS]), u[:, DIMS:])


def cold_boxes(rng: np.random.Generator, n: int):
    """Uniform centres, Table-1 sizes, one random attribute left
    unspecified (the full domain) -- Section 3.5's case."""
    u = _points(rng, n, 2 * DIMS + 1)
    lows, highs = _boxes(DOMAIN_LOW + u[:, :DIMS] * SPAN, u[:, DIMS : 2 * DIMS])
    wild = (u[:, -1] * DIMS).astype(np.int64)
    rows = np.arange(n)
    lows[rows, wild] = DOMAIN_LOW
    highs[rows, wild] = DOMAIN_HIGH
    return lows, highs


def _poisson_offsets(rng: np.random.Generator, n: int, mean_ms: float) -> np.ndarray:
    return np.cumsum(rng.exponential(mean_ms, size=n))


# ---------------------------------------------------------------------------
def generate(w: Workload, seed: int, part: int, ops: int) -> Inputs:
    """All inputs of child ``part`` of a run of ``w`` with ``ops`` timed
    operations."""
    # one stream per (seed, child, workload); the sizes come from ``w``
    rng = np.random.default_rng([seed, part, zlib.crc32(w.name.encode())])

    per_node = w.hot_subs_per_node + w.cold_subs_per_node
    n_initial = w.nodes * per_node
    hot_lo, hot_hi = hot_boxes(rng, w.nodes * w.hot_subs_per_node)
    cold_lo, cold_hi = cold_boxes(rng, w.nodes * w.cold_subs_per_node)
    # node-major order: each node installs its hot then its cold subs
    lows = np.concatenate(
        [hot_lo.reshape(w.nodes, -1, DIMS), cold_lo.reshape(w.nodes, -1, DIMS)],
        axis=1,
    ).reshape(-1, DIMS)
    highs = np.concatenate(
        [hot_hi.reshape(w.nodes, -1, DIMS), cold_hi.reshape(w.nodes, -1, DIMS)],
        axis=1,
    ).reshape(-1, DIMS)
    addr = np.repeat(np.arange(w.nodes), per_node)

    if w.kind == "events":
        n_events, spacing = ops, w.mean_spacing_ms
    else:
        n_events, spacing = w.probe_events, PROBE_SPACING_MS
    inputs = Inputs(
        sub_addr=addr,
        sub_lows=lows,
        sub_highs=highs,
        n_initial=n_initial,
        ev_offset_ms=_poisson_offsets(rng, n_events, spacing),
        ev_addr=rng.integers(0, w.nodes, size=n_events),
        ev_point=event_points(rng, n_events),
        loss_seed=int(rng.integers(0, 2**31)),
    )
    if w.kind == "churn":
        _add_churn(inputs, w, rng, ops)
    return inputs


def _add_churn(inputs: Inputs, w: Workload, rng: np.random.Generator, ops: int) -> None:
    """55 % subscribe / 45 % unsubscribe of a uniformly chosen live
    subscription, Poisson-spaced."""
    want_sub = (rng.random(ops) < 0.55).tolist()
    pick = rng.random(ops).tolist()

    live = list(range(inputs.n_initial))
    is_sub = np.zeros(ops, dtype=bool)
    row = np.zeros(ops, dtype=np.int64)
    next_row = inputs.n_initial
    for i in range(ops):
        if want_sub[i] or not live:
            is_sub[i] = True
            row[i] = next_row
            live.append(next_row)
            next_row += 1
        else:
            j = int(pick[i] * len(live))
            row[i] = live[j]
            live[j] = live[-1]
            live.pop()
    n_new = next_row - inputs.n_initial
    new_lo, new_hi = hot_boxes(rng, n_new)
    inputs.sub_addr = np.concatenate(
        [inputs.sub_addr, rng.integers(0, w.nodes, size=n_new)]
    )
    inputs.sub_lows = np.concatenate([inputs.sub_lows, new_lo])
    inputs.sub_highs = np.concatenate([inputs.sub_highs, new_hi])
    inputs.op_offset_ms = _poisson_offsets(rng, ops, w.mean_spacing_ms)
    inputs.op_is_sub = is_sub
    inputs.op_row = row
