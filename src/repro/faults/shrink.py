"""Failing-schedule shrinking: ddmin plus parameter-shrinking passes.

A nemesis-found failure is only actionable once it is *small*: a
25-entry random schedule that breaks an invariant usually contains one
or two entries that matter and a pile of noise.  :func:`shrink_spec`
minimizes a failing declarative fault spec (the JSON form of
:class:`~repro.faults.schedule.FaultSchedule`) against a caller-supplied
predicate ``fails(spec) -> bool``:

1. **ddmin** over the entry list (Zeller's delta debugging): try
   dropping chunks of entries at decreasing granularity, keeping any
   reduction that still fails;
2. **parameter passes** over the surviving entries: fewer addresses per
   entry, shorter windows, lower rates/factors, longer flap periods --
   each candidate kept only if it still fails.

Entry-level dependencies (a ``rejoin`` whose ``crash`` was dropped)
make some candidates invalid schedules; the harness treats a candidate
that fails to *build* as not-failing, so ddmin routes around them --
with one structural assist: dropping a ``crash`` also drops the
``rejoin`` of the same address set (and vice versa), since the pair is
one fault.

Re-running the scenario per candidate is the expensive part, so the
shrinker memoizes verdicts through a
:class:`~repro.runner.JsonDocStore` keyed by a content hash of the
candidate spec (plus a caller-provided scenario key).  A second shrink
of the same failure -- or a shrink resumed after a crash -- replays
from the store instead of re-simulating (``store.hits`` counts it).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.faults.schedule import FaultSchedule, FaultScheduleError, parse_entry

#: Shrink-store schema (hashed into every verdict key).
SHRINK_SCHEMA = 1


def spec_hash(spec: List[Dict], scenario_key: str = "") -> str:
    """Content hash naming one candidate: schema + scenario + spec."""
    payload = {
        "schema": SHRINK_SCHEMA,
        "scenario": scenario_key,
        "spec": spec,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def spec_is_valid(spec: List[Dict]) -> bool:
    """Does ``spec`` build into a schedule at all?"""
    try:
        FaultSchedule.from_spec(spec)
    except FaultScheduleError:
        return False
    return True


@dataclass
class ShrinkResult:
    """What one shrink produced."""

    #: the minimized failing spec (== the input if nothing shrank).
    spec: List[Dict]
    #: successful reductions applied (each made the spec smaller/simpler).
    steps: int
    #: candidate evaluations requested (including cached ones).
    tested: int
    #: verdicts served from the store instead of re-running.
    cache_hits: int
    #: entries in / entries out, for reporting.
    initial_entries: int = 0
    final_entries: int = 0


class _Harness:
    """Predicate wrapper: validity gate + verdict memoization."""

    def __init__(
        self,
        fails: Callable[[List[Dict]], bool],
        store=None,
        scenario_key: str = "",
    ) -> None:
        self._fails = fails
        self._store = store
        self._scenario_key = scenario_key
        self._memo: Dict[str, bool] = {}
        self.tested = 0
        self.cache_hits = 0

    def __call__(self, spec: List[Dict]) -> bool:
        self.tested += 1
        key = spec_hash(spec, self._scenario_key)
        if key in self._memo:
            self.cache_hits += 1
            return self._memo[key]
        if self._store is not None:
            doc = self._store.get_doc(key)
            if doc is not None and "fails" in doc:
                self.cache_hits += 1
                verdict = bool(doc["fails"])
                self._memo[key] = verdict
                return verdict
        if not spec_is_valid(spec):
            # An unbuildable candidate cannot reproduce the failure.
            verdict = False
        else:
            verdict = bool(self._fails(spec))
        self._memo[key] = verdict
        if self._store is not None:
            self._store.put_doc(
                key,
                {
                    "schema": SHRINK_SCHEMA,
                    "scenario": self._scenario_key,
                    "fails": verdict,
                    "spec": spec,
                },
            )
        return verdict


# ----------------------------------------------------------------------
# Structural coupling: crash/rejoin travel as one fault
# ----------------------------------------------------------------------
def _entry_kind(entry: Dict) -> str:
    return parse_entry(entry)[0]


def _groups(spec: List[Dict]) -> List[Tuple[int, ...]]:
    """Partition entry indices into droppable units.

    A ``crash`` and the later ``rejoin`` covering the same address set
    form one unit (dropping half of the pair can only produce an
    invalid or *more* faulty schedule, never a smaller equivalent one);
    every other entry is its own unit.
    """
    units: List[Tuple[int, ...]] = []
    used = set()
    for i, entry in enumerate(spec):
        if i in used:
            continue
        kind = _entry_kind(entry)
        if kind == "crash":
            addrs = tuple(sorted(entry["crash"]))
            for j in range(i + 1, len(spec)):
                if j in used:
                    continue
                other = spec[j]
                if (
                    _entry_kind(other) == "rejoin"
                    and tuple(sorted(other["rejoin"])) == addrs
                ):
                    units.append((i, j))
                    used.update((i, j))
                    break
            else:
                units.append((i,))
                used.add(i)
        else:
            units.append((i,))
            used.add(i)
    return units


def _take(spec: List[Dict], units: List[Tuple[int, ...]]) -> List[Dict]:
    keep = sorted(i for unit in units for i in unit)
    return [spec[i] for i in keep]


# ----------------------------------------------------------------------
# Pass 1: ddmin over the unit list
# ----------------------------------------------------------------------
def _ddmin(
    spec: List[Dict], harness: _Harness
) -> Tuple[List[Dict], int]:
    """Minimal failing sub-list of units (Zeller's ddmin)."""
    units = _groups(spec)
    steps = 0
    n = 2
    while len(units) >= 2:
        chunk = max(1, len(units) // n)
        reduced = False
        start = 0
        while start < len(units):
            candidate_units = units[:start] + units[start + chunk:]
            if candidate_units and harness(_take(spec, candidate_units)):
                units = candidate_units
                steps += 1
                n = max(n - 1, 2)
                reduced = True
                # restart the scan at this granularity
                start = 0
                continue
            start += chunk
        if not reduced:
            if n >= len(units):
                break
            n = min(len(units), n * 2)
    return _take(spec, units), steps


# ----------------------------------------------------------------------
# Pass 2: parameter shrinking on the survivors
# ----------------------------------------------------------------------
def _param_candidates(entry: Dict) -> List[Dict]:
    """Simpler versions of one entry, most aggressive first."""
    kind = _entry_kind(entry)
    out: List[Dict] = []

    def with_(**patch) -> Dict:
        e = {k: (dict(v) if isinstance(v, dict) else v) for k, v in entry.items()}
        e.update(patch)
        return e

    if kind in ("crash", "rejoin"):
        addrs = list(entry[kind])
        if len(addrs) > 1:
            out.append(with_(**{kind: addrs[: len(addrs) // 2]}))
            out.append(with_(**{kind: addrs[:1]}))
    if kind == "loss":
        if entry["loss"] > 0.02:
            out.append(with_(loss=round(entry["loss"] / 2, 4)))
    if kind == "duplicate":
        if entry["duplicate"] > 0.05:
            out.append(with_(duplicate=round(entry["duplicate"] / 2, 4)))
    if kind == "reorder":
        if entry["reorder"] > 20.0:
            out.append(with_(reorder=round(entry["reorder"] / 2, 3)))
    if kind == "latency":
        if entry["latency"] > 1.5:
            out.append(with_(latency=round(1.0 + (entry["latency"] - 1.0) / 2, 3)))
    if kind == "slow":
        body = dict(entry["slow"])
        addrs = list(body["addrs"])
        if len(addrs) > 1:
            out.append(with_(slow={**body, "addrs": addrs[: len(addrs) // 2]}))
            out.append(with_(slow={**body, "addrs": addrs[:1]}))
        if body["factor"] < 0.5:
            out.append(with_(slow={**body, "factor": round(min(0.9, body["factor"] * 2), 4)}))
    if kind == "asym_partition":
        body = dict(entry["asym_partition"])
        src, dst = list(body["src"]), list(body["dst"])
        if len(src) > 1:
            out.append(with_(asym_partition={**body, "src": src[:1]}))
        if len(dst) > 1:
            out.append(with_(asym_partition={**body, "dst": dst[:1]}))
    if kind == "partition":
        groups = dict(entry["partition"])
        if len(groups) > 1:
            keys = sorted(groups)
            half = {k: groups[k] for k in keys[: len(keys) // 2]}
            out.append(with_(partition=half))
            out.append(with_(partition={keys[0]: groups[keys[0]]}))
    if kind == "flap":
        body = dict(entry["flap"])
        t0, t1 = entry["from"], entry["to"]
        if t1 - t0 > 2 * body["period"]:
            # fewer oscillations: double the period
            out.append(with_(flap={**body, "period": body["period"] * 2}))
    # window halving for every closed-window kind
    if "from" in entry and "to" in entry:
        t0, t1 = entry["from"], entry["to"]
        if t1 - t0 > 1_000.0:
            mid = round(t0 + (t1 - t0) / 2, 3)
            out.append(with_(to=mid))
    return out


def _shrink_params(
    spec: List[Dict], harness: _Harness, max_rounds: int = 8
) -> Tuple[List[Dict], int]:
    steps = 0
    for _ in range(max_rounds):
        improved = False
        for i in range(len(spec)):
            for cand_entry in _param_candidates(spec[i]):
                candidate = spec[:i] + [cand_entry] + spec[i + 1:]
                if harness(candidate):
                    spec = candidate
                    steps += 1
                    improved = True
                    break
        if not improved:
            break
    return spec, steps


# ----------------------------------------------------------------------
def shrink_spec(
    spec: List[Dict],
    fails: Callable[[List[Dict]], bool],
    store=None,
    scenario_key: str = "",
    param_rounds: int = 8,
) -> ShrinkResult:
    """Minimize a failing fault spec against ``fails``.

    ``fails(spec)`` must return True iff the scenario still exhibits
    the failure under that schedule; it is only ever called on specs
    that build (`spec_is_valid`).  ``store`` (a
    :class:`~repro.runner.JsonDocStore`) memoizes verdicts across
    candidates, shrink invocations and process restarts;
    ``scenario_key`` namespaces the verdicts so two different scenarios
    never share a cache line.

    Raises ``ValueError`` if the input spec does not fail -- a shrink
    of a passing schedule would "minimize" to the empty list and report
    garbage.
    """
    spec = [dict(e) for e in spec]
    harness = _Harness(fails, store=store, scenario_key=scenario_key)
    if not harness(spec):
        raise ValueError("shrink_spec: the input schedule does not fail")
    initial = len(spec)
    out, dd_steps = _ddmin(spec, harness)
    out, p_steps = _shrink_params(out, harness, max_rounds=param_rounds)
    return ShrinkResult(
        spec=out,
        steps=dd_steps + p_steps,
        tested=harness.tested,
        cache_hits=harness.cache_hits,
        initial_entries=initial,
        final_entries=len(out),
    )
