"""Chaos nemesis: seeded, budgeted random fault-schedule generation.

Hand-written fault schedules only probe failure modes someone already
imagined.  The nemesis searches fault-schedule space instead: from a
seed and a :class:`ChaosBudget` it samples valid random
:class:`~repro.faults.schedule.FaultSchedule` instances -- mixing
crashes, flaps, partitions (symmetric and one-way), loss, latency
spikes, slow nodes, duplication and reordering -- while respecting the
safety floors that keep a round *meaningful*:

* **heal-by-end**: every window closes and every crashed node rejoins
  before ``t_end``, with at least ``min_heal_ms`` of quiet tail so the
  system has simulated time to converge before invariants are checked;
* **replica floors**: never crash-overlap ``replica_k`` ring-consecutive
  nodes (which would destroy every replica of some zone's state) unless
  ``allow_full_zone_crash`` is set;
* **fleet fraction**: at most ``max_crash_fraction`` of the fleet is
  down at any instant, and ``protect`` addresses (publishers, oracles)
  are never crash-stopped or flapped.

Every schedule the nemesis emits goes through
:meth:`FaultSchedule.from_spec`, so all build-time validation applies
and the emitted spec round-trips to JSON for the campaign's
failing-schedule files and the shrinker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.faults.schedule import FaultSchedule, FaultScheduleError

#: Fault kinds the nemesis can draw, with default mix weights.  Crashy
#: kinds are weighted up because they are what the resilience stack is
#: for; gray kinds keep steady pressure on the exactly-once/ordering
#: layers.
DEFAULT_KIND_WEIGHTS: Dict[str, float] = {
    "crash": 3.0,
    "flap": 1.0,
    "partition": 1.0,
    "asym_partition": 1.0,
    "loss": 2.0,
    "latency": 1.0,
    "slow": 1.0,
    "duplicate": 1.0,
    "reorder": 1.0,
}

#: Seeds :func:`chain_safe_churn` probes before it gives up by name.
_CHURN_DRAWS = 64


@dataclass(frozen=True)
class ChaosBudget:
    """Bounds on what a generated schedule may do.

    The budget is the experiment's contract with the nemesis: anything
    within it must be survivable (durable mode) or at least checkable
    (best-effort mode), so a violation under a within-budget schedule
    is a real bug, not an over-aggressive test.
    """

    #: window in which faults may start / must have healed (ms).
    t_start: float = 2_000.0
    t_end: float = 30_000.0
    #: total faults drawn per schedule.
    max_faults: int = 6
    #: crash-kind faults whose down-windows may overlap at one instant.
    max_concurrent: int = 2
    #: fraction of the fleet allowed down at any instant.
    max_crash_fraction: float = 0.2
    #: relative draw weights per fault kind (missing kind = never drawn).
    kind_weights: Tuple[Tuple[str, float], ...] = tuple(
        sorted(DEFAULT_KIND_WEIGHTS.items())
    )
    #: quiet tail before t_end: every fault heals by t_end - min_heal_ms.
    min_heal_ms: float = 5_000.0
    #: addresses never crash-stopped or flapped (publishers, oracles).
    protect: Tuple[int, ...] = ()
    #: if False (the default safety floor), reject crash-overlaps of
    #: replica_k ring-consecutive nodes -- the schedule must never
    #: destroy every replica of a zone's state at once.
    allow_full_zone_crash: bool = False

    def __post_init__(self) -> None:
        if self.t_end <= self.t_start:
            raise ValueError("budget window must have positive length")
        if self.max_faults < 1:
            raise ValueError("max_faults must be >= 1")
        if self.max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        if not 0.0 < self.max_crash_fraction <= 1.0:
            raise ValueError("max_crash_fraction must be in (0, 1]")
        if self.min_heal_ms < 0:
            raise ValueError("min_heal_ms must be non-negative")
        if self.t_end - self.min_heal_ms <= self.t_start:
            raise ValueError(
                "heal tail leaves no room for faults "
                "(t_end - min_heal_ms <= t_start)"
            )
        weights = dict(self.kind_weights)
        unknown = set(weights) - set(DEFAULT_KIND_WEIGHTS)
        if unknown:
            raise ValueError(f"unknown fault kinds in mix: {sorted(unknown)}")
        if not weights or all(w <= 0 for w in weights.values()):
            raise ValueError("kind mix needs at least one positive weight")
        if any(w < 0 for w in weights.values()):
            raise ValueError("kind weights must be non-negative")


@dataclass
class _Interval:
    """A scheduled down-window of one node (crash or flap)."""

    addr: int
    t0: float
    t1: float


class ChaosNemesis:
    """Samples valid random fault schedules from a seed and a budget.

    Deterministic: ``ChaosNemesis(n, budget, seed).generate(r)`` is a
    pure function of ``(n, budget, seed, r, ring, replica_k)`` -- the
    property every replay and every shrink step relies on.

    ``ring`` is the fleet's addresses in ring (identifier) order when
    known; the replica-floor check rejects crash-overlaps of
    ``replica_k`` *ring-consecutive* members, because those are the
    nodes that hold all copies of some zone's state.  Without a ring,
    address order is used (still a meaningful floor for dense fleets).
    """

    def __init__(
        self,
        num_nodes: int,
        budget: ChaosBudget,
        seed: int = 0,
        ring: Optional[Iterable[int]] = None,
        replica_k: int = 1,
    ) -> None:
        if num_nodes < 4:
            raise ValueError("chaos needs at least 4 nodes")
        self.num_nodes = num_nodes
        self.budget = budget
        self.seed = seed
        self.ring: Tuple[int, ...] = (
            tuple(ring) if ring is not None else tuple(range(num_nodes))
        )
        if replica_k < 1:
            raise ValueError("replica_k must be >= 1")
        self.replica_k = replica_k
        #: position of each addr on the ring (floor check).
        self._ring_pos = {a: i for i, a in enumerate(self.ring)}
        protected = set(budget.protect)
        self._candidates = [
            a for a in range(num_nodes) if a not in protected
        ]
        if len(self._candidates) < 2:
            raise ValueError("not enough unprotected nodes for chaos")

    # ------------------------------------------------------------------
    def generate(self, round_index: int = 0) -> FaultSchedule:
        """Emit one valid random schedule for ``round_index``."""
        spec = self.generate_spec(round_index)
        return FaultSchedule.from_spec(spec)

    def generate_spec(self, round_index: int = 0) -> List[Dict]:
        """The declarative form of :meth:`generate` (what campaign
        failure files store and the shrinker mutates)."""
        b = self.budget
        rng = np.random.default_rng((self.seed, round_index))
        kinds, weights = zip(*[(k, w) for k, w in b.kind_weights if w > 0])
        p = np.asarray(weights, dtype=float)
        p /= p.sum()

        spec: List[Dict] = []
        down: List[_Interval] = []
        #: single-active window kinds already placed: kind -> [(t0, t1)].
        placed: Dict[str, List[Tuple[float, float]]] = {}
        heal_by = b.t_end - b.min_heal_ms

        n_faults = int(rng.integers(1, b.max_faults + 1))
        for _ in range(n_faults):
            kind = str(rng.choice(kinds, p=p))
            # A draw that cannot be placed (window conflict, crash
            # budget exhausted) is simply skipped: the schedule stays
            # within budget by construction rather than by rejection
            # sampling over whole schedules.
            entry = self._draw(kind, rng, down, placed, heal_by)
            if entry is not None:
                spec.append(entry)
        if not spec:
            # Degenerate draw (every sample conflicted): fall back to a
            # single crash/rejoin so a round always exercises something.
            victim = int(rng.choice(self._candidates))
            t0 = float(rng.uniform(b.t_start, (b.t_start + heal_by) / 2))
            t1 = float(rng.uniform(t0 + 500.0, heal_by))
            spec.append({"at": t0, "crash": [victim]})
            spec.append({"at": t1, "rejoin": [victim]})
        # Canonical order: by start time, then kind -- deterministic and
        # stable under JSON round-trips.
        spec = _flatten_pairs(spec)
        spec.sort(key=_spec_sort_key)
        return spec

    # ------------------------------------------------------------------
    def _window(
        self, rng, heal_by: float, min_len: float = 500.0
    ) -> Tuple[float, float]:
        b = self.budget
        t0 = float(rng.uniform(b.t_start, heal_by - min_len))
        t1 = float(rng.uniform(t0 + min_len, heal_by))
        return t0, t1

    def _free_window(
        self,
        kind: str,
        rng,
        placed: Dict[str, List[Tuple[float, float]]],
        heal_by: float,
        min_len: float = 500.0,
        tries: int = 8,
    ) -> Optional[Tuple[float, float]]:
        """A window not overlapping previously placed ``kind`` windows
        (the DSL's single-active rule), or None if the draw conflicts."""
        existing = placed.setdefault(kind, [])
        for _ in range(tries):
            t0, t1 = self._window(rng, heal_by, min_len)
            if not any(t0 < w1 and w0 < t1 for w0, w1 in existing):
                existing.append((t0, t1))
                return t0, t1
        return None

    def _crash_ok(self, addr: int, t0: float, t1: float, down: List[_Interval]) -> bool:
        """Would taking ``addr`` down over [t0, t1) stay within the crash
        budget and the replica floor?"""
        b = self.budget
        overlapping = [
            iv for iv in down if iv.t0 < t1 and t0 < iv.t1 and iv.addr != addr
        ]
        if any(iv.addr == addr for iv in down if iv.t0 < t1 and t0 < iv.t1):
            return False  # the node is already down somewhere in there
        if len(overlapping) + 1 > b.max_concurrent:
            return False
        if (len(overlapping) + 1) > max(
            1, int(b.max_crash_fraction * self.num_nodes)
        ):
            return False
        if not b.allow_full_zone_crash and self.replica_k >= 2:
            # Reject a down-set containing replica_k ring-consecutive
            # nodes: that wipes every copy of some zone's state.
            down_pos = sorted(
                self._ring_pos[iv.addr]
                for iv in overlapping
                if iv.addr in self._ring_pos
            )
            pos = self._ring_pos.get(addr)
            if pos is not None:
                down_pos = sorted(down_pos + [pos])
                if _has_consecutive_run(
                    down_pos, self.replica_k, len(self.ring)
                ):
                    return False
        return True

    def _draw(
        self,
        kind: str,
        rng,
        down: List[_Interval],
        placed: Dict[str, List[Tuple[float, float]]],
        heal_by: float,
    ) -> Optional[Dict]:
        b = self.budget
        if kind == "crash":
            addr = int(rng.choice(self._candidates))
            t0, t1 = self._window(rng, heal_by, min_len=1_000.0)
            if not self._crash_ok(addr, t0, t1, down):
                return None
            down.append(_Interval(addr, t0, t1))
            # Emitted as one crash + one rejoin entry; _spec_sort_key
            # keeps them ordered, from_spec validates the pairing.
            return {"_pair": [
                {"at": t0, "crash": [addr]},
                {"at": t1, "rejoin": [addr]},
            ]}
        if kind == "flap":
            addr = int(rng.choice(self._candidates))
            t0, t1 = self._window(rng, heal_by, min_len=2_000.0)
            if not self._crash_ok(addr, t0, t1, down):
                return None
            period = float(rng.uniform(500.0, max(600.0, (t1 - t0) / 3)))
            if t1 < t0 + period:
                return None
            down.append(_Interval(addr, t0, t1))
            return {"from": t0, "to": t1, "flap": {"addr": addr, "period": period}}
        if kind == "partition":
            w = self._free_window("partition", rng, placed, heal_by)
            if w is None:
                return None
            t0, t1 = w
            # Cut off a small random minority group.
            size = int(rng.integers(1, max(2, self.num_nodes // 4)))
            minority = rng.choice(self.num_nodes, size=size, replace=False)
            groups = {int(a): 1 for a in sorted(minority)}
            return {"from": t0, "to": t1, "partition": groups}
        if kind == "asym_partition":
            # Concurrent cuts are legal; no single-active window needed.
            t0, t1 = self._window(rng, heal_by)
            k = max(1, self.num_nodes // 8)
            picks = rng.choice(self.num_nodes, size=min(2 * k, self.num_nodes), replace=False)
            src = sorted(int(a) for a in picks[:k])
            dst = sorted(int(a) for a in picks[k:])
            if not src or not dst:
                return None
            return {
                "from": t0, "to": t1,
                "asym_partition": {"src": src, "dst": dst},
            }
        if kind == "loss":
            w = self._free_window("loss", rng, placed, heal_by)
            if w is None:
                return None
            t0, t1 = w
            return {
                "from": t0, "to": t1,
                "loss": float(rng.uniform(0.02, 0.25)),
                "seed": int(rng.integers(1, 2**31)),
            }
        if kind == "latency":
            w = self._free_window("latency", rng, placed, heal_by)
            if w is None:
                return None
            t0, t1 = w
            return {"from": t0, "to": t1, "latency": float(rng.uniform(1.5, 5.0))}
        if kind == "slow":
            t0, t1 = self._window(rng, heal_by)
            size = int(rng.integers(1, max(2, self.num_nodes // 8)))
            addrs = sorted(
                int(a) for a in rng.choice(self.num_nodes, size=size, replace=False)
            )
            # Per-addr single-active: skip the draw on any conflict.
            for a in addrs:
                key = f"slow[{a}]"
                if any(
                    t0 < w1 and w0 < t1 for w0, w1 in placed.setdefault(key, [])
                ):
                    return None
            for a in addrs:
                placed[f"slow[{a}]"].append((t0, t1))
            return {
                "from": t0, "to": t1,
                "slow": {"addrs": addrs, "factor": float(rng.uniform(0.05, 0.5))},
            }
        if kind == "duplicate":
            w = self._free_window("duplicate", rng, placed, heal_by)
            if w is None:
                return None
            t0, t1 = w
            return {
                "from": t0, "to": t1,
                "duplicate": float(rng.uniform(0.05, 0.5)),
                "seed": int(rng.integers(1, 2**31)),
            }
        if kind == "reorder":
            w = self._free_window("reorder", rng, placed, heal_by)
            if w is None:
                return None
            t0, t1 = w
            return {
                "from": t0, "to": t1,
                "reorder": float(rng.uniform(50.0, 500.0)),
                "seed": int(rng.integers(1, 2**31)),
            }
        raise FaultScheduleError(f"nemesis cannot draw kind {kind!r}")


def _spec_sort_key(entry: Dict) -> Tuple:
    t = entry.get("at", entry.get("from", 0.0))
    key = next(k for k in entry if k not in ("at", "from", "to", "seed", "_pair"))
    return (float(t), key)


def _flatten_pairs(spec: List[Dict]) -> List[Dict]:
    out: List[Dict] = []
    for entry in spec:
        if "_pair" in entry:
            out.extend(entry["_pair"])
        else:
            out.append(entry)
    return out


def ring_order(system) -> List[int]:
    """``system``'s node addresses in ring (identifier) order."""
    return sorted(range(len(system.nodes)), key=lambda a: system.nodes[a].node_id)


def chain_safe_churn(
    ring: Sequence[int],
    fail_fraction: float,
    replica_k: int,
    crash_window: tuple,
    rejoin_window: Optional[tuple] = None,
    seed: int = 0,
) -> Tuple[FaultSchedule, List[int]]:
    """:meth:`FaultSchedule.random_churn` over the fleet ``ring`` (its
    addresses in ring order), re-drawn until the victim set holds no
    whole replica chain (``replica_k`` ring-consecutive nodes).

    k-replicated state survives at most ``k - 1`` simultaneous replica
    failures, like any k-replicated store; a draw that crashes a whole
    chain measures that assumption, not the system.  Deterministic:
    seeds ``seed, seed + 1, ...`` are probed in order, so a draw that is
    already safe is the plain ``random_churn`` draw for ``seed``.
    """
    pos = {a: i for i, a in enumerate(ring)}
    for attempt in range(_CHURN_DRAWS):
        sched, victims = FaultSchedule.random_churn(
            len(ring),
            fail_fraction,
            crash_window=crash_window,
            rejoin_window=rejoin_window,
            seed=seed + attempt,
        )
        if replica_k <= 1 or not _has_consecutive_run(
            sorted(pos[v] for v in victims), replica_k, len(ring)
        ):
            return sched, victims
    raise ValueError(
        f"no churn draw of {fail_fraction:.0%} of {len(ring)} nodes in "
        f"{_CHURN_DRAWS} seeds from {seed} spares every {replica_k}-node "
        "replica chain"
    )


def _has_consecutive_run(positions: List[int], k: int, ring_len: int) -> bool:
    """Is there a run of ``k`` consecutive ring positions in ``positions``
    (wrapping)?  ``positions`` must be sorted and duplicate-free."""
    if k <= 1:
        return bool(positions)
    if len(positions) < k:
        return False
    pos = set(positions)
    for p in positions:
        if all((p + i) % ring_len in pos for i in range(k)):
            return True
    return False
