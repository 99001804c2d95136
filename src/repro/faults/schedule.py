"""Deterministic fault-schedule injection.

A :class:`FaultSchedule` is an ordered list of entries of the
declarative spec DSL, each pinned to simulated time: crash and rejoin
of nodes; partition, loss, latency-spike and storm windows; and the
gray failures, where a node or link is degraded rather than dead (slow
nodes, one-way cuts, duplicated or reordered packets, flapping nodes).
It is built through the fluent builders (whose docstrings say what each
fault does), from a spec (:meth:`FaultSchedule.from_spec`), or sampled
from a seed (:meth:`FaultSchedule.random_churn`, or the nemesis in
:mod:`repro.faults.chaos`), so a timeline can be reused, composed and
replayed; ``install(system)`` arms it on the system's simulator clock.

The canonical entries are the schedule's one record: ``to_spec()``
copies them; ``install``, ``describe()`` and ``len()`` expand each into
its firing steps (apply, then heal).  Every builder call and every
``from_spec`` entry takes one path: :func:`parse_entry` checks the
entry whole, the schedule checks it against the entries already taken,
and only then is it appended.  :class:`FaultScheduleError` names an
entry that would act silently-wrong at runtime -- a missing, extra or
ill-typed key, a value out of range, rejoining a node that was never
crashed, crashing a corpse, flapping through another fault of the same
node, or overlapping partition / loss / latency / slow / duplicate /
reorder windows (the network applies one at a time, so the first heal
would clobber the second window) -- and a rejected entry leaves the
schedule exactly as it was.
"""

from __future__ import annotations

import copy
from numbers import Integral, Real
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.network import Network

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.system import HyperSubSystem

_POSITIVE = ("positive", lambda x: x > 0)

#: The value each fault key takes: ``"addr"``, an address list
#: (``"addrs+"`` non-empty), an addr -> group map, a number with its
#: range, or a dict of exactly the named fields.
_SHAPES: Dict[str, object] = {
    "crash": "addrs",
    "rejoin": "addrs",
    "partition": "groups",
    "loss": ("in [0, 1)", lambda x: 0.0 <= x < 1.0),
    "latency": _POSITIVE,
    "storm": {"addr": "addr", "rate": _POSITIVE},
    "slow": {"addrs": "addrs+", "factor": ("in (0, 1)", lambda x: 0.0 < x < 1.0)},
    "asym_partition": {"src": "addrs+", "dst": "addrs+"},
    "duplicate": ("in (0, 1]", lambda x: 0.0 < x <= 1.0),
    "reorder": _POSITIVE,
    "flap": {"addr": "addr", "period": _POSITIVE},
}
#: Fault keys of the declarative DSL, one per builder.
SPEC_KEYS = tuple(_SHAPES)
#: Keys an entry carries besides its one fault key.
_TIMING = ("at", "from", "to", "seed")
#: Fault keys timed by ``at``; every other key is a ``from``/``to`` window.
_INSTANT = ("crash", "rejoin")
#: Fault keys whose network process draws from a ``seed``.
_SEEDED = ("loss", "duplicate", "reorder")
#: Window keys the network applies one at a time.
_SINGLE_ACTIVE = ("partition", "loss", "latency", "duplicate", "reorder")
#: Windows that set one network value and clear it again:
#: key -> (describe format, apply, heal name, heal).
_NET_WINDOWS = {
    "loss": ("rate={:.3f}", Network.set_loss_rate, "clear_loss", Network.clear_loss),
    "latency": ("x{:g}", Network.set_latency_factor,
                "clear_latency", Network.clear_latency_factor),
    "duplicate": ("rate={:.3f}", Network.set_duplicate,
                  "clear_duplicate", Network.clear_duplicate),
    "reorder": ("window={:g}ms", Network.set_reorder,
                "clear_reorder", Network.clear_reorder),
}


class FaultScheduleError(ValueError):
    """A schedule that would act silently-wrong at runtime, rejected at
    build time: bad parameters, impossible targets (rejoin of a node
    that was never crashed), or overlapping single-active windows."""


# -- the per-entry checker ----------------------------------------------
def _require(entry, ok: bool, why: str) -> None:
    if not ok:
        raise FaultScheduleError(f"fault spec entry {entry!r}: {why}")


def _number(entry, what: str, x) -> float:
    ok = isinstance(x, Real) and not isinstance(x, bool)
    _require(entry, ok, f"{what} must be a number, got {x!r}")
    return float(x)


def _address(entry, what: str, x) -> int:
    ok = isinstance(x, Integral) and not isinstance(x, bool)
    _require(entry, ok, f"{what} must be an integer address, got {x!r}")
    return int(x)


def _shaped(entry, what: str, shape, x):
    """``x`` checked against ``shape`` (see :data:`_SHAPES`), canonical."""
    if isinstance(shape, dict):
        ok = isinstance(x, dict) and sorted(x) == sorted(shape)
        _require(entry, ok, f"{what} takes a dict of exactly {list(shape)}, got {x!r}")
        return {k: _shaped(entry, f"{what} {k}", s, x[k]) for k, s in shape.items()}
    if shape == "addr":
        return _address(entry, what, x)
    if shape == "groups":
        _require(entry, isinstance(x, dict), f"{what} must be a dict, got {x!r}")
        # JSON object keys arrive as strings: node "3" is node 3.
        return {
            _address(entry, f"{what} node", int(a) if str(a).isdigit() else a):
            _address(entry, f"{what} group", g)
            for a, g in x.items()
        }
    if shape in ("addrs", "addrs+"):
        ok = isinstance(x, (list, tuple)) and (bool(x) or shape == "addrs")
        _require(entry, ok, f"{what} must be a list of addresses, got {x!r}")
        return [_address(entry, what, a) for a in x]
    text, in_range = shape
    value = _number(entry, what, x)
    _require(entry, in_range(value), f"{what} must be {text}, got {value}")
    return value


def _time(entry, name: str) -> float:
    t = _number(entry, repr(name), entry[name])
    _require(entry, t >= 0, f"fault times must be non-negative, got {name!r} = {t}")
    return t


def parse_entry(entry) -> Tuple[str, Dict]:
    """Check one spec entry whole; return ``(key, canonical entry)``.

    An entry has exactly one fault key of :data:`SPEC_KEYS`.  ``crash``
    and ``rejoin`` take ``at``; every other key takes ``from`` and ``to``
    (``to`` may be absent or ``None`` only for ``loss``: an open
    window); only ``loss``, ``duplicate`` and ``reorder`` take a
    non-negative integer ``seed``.  A missing, extra or ill-typed key,
    or a value out of range, raises :class:`FaultScheduleError` naming
    the entry.  The canonical entry has float times and values, int
    addresses and no zero ``seed``; it parses to itself.
    """
    _require(entry, isinstance(entry, dict), "an entry is a dict")
    keys = [k for k in entry if k not in _TIMING]
    _require(entry, len(keys) == 1, "needs exactly one fault key")
    key = keys[0]
    _require(entry, key in _SHAPES, f"unknown fault key {key!r}")
    if key in _INSTANT:
        takes = needs = ("at",)
    else:
        takes = ("from", "to") + (("seed",) if key in _SEEDED else ())
        needs = ("from",) if key == "loss" else ("from", "to")
    extra = [k for k in entry if k != key and k not in takes]
    _require(entry, not extra, f"{key} does not take {extra}")
    missing = [k for k in needs if entry.get(k) is None]
    _require(entry, not missing, f"{key} needs {missing}")
    value = _shaped(entry, key, _SHAPES[key], entry[key])
    if key in _INSTANT:
        return key, {"at": _time(entry, "at"), key: value}
    canon: Dict = {"from": _time(entry, "from")}
    if entry.get("to") is not None:
        canon["to"] = _time(entry, "to")
        ok = canon["to"] > canon["from"]
        _require(entry, ok, f"{key} window must have positive length")
    canon[key] = value
    if key == "asym_partition":
        ok = not set(value["src"]) & set(value["dst"])
        _require(entry, ok, "asym_partition src and dst sets must be disjoint")
    if key == "flap":
        ok = canon["to"] >= canon["from"] + value["period"]
        _require(entry, ok, "flap window must fit one cycle (to >= from + period)")
    seed = entry.get("seed", 0)
    ok = isinstance(seed, Integral) and not isinstance(seed, bool) and seed >= 0
    _require(entry, ok, f"seed must be a non-negative integer, got {seed!r}")
    if seed:
        canon["seed"] = int(seed)
    return key, canon


def _key(entry: Dict) -> str:
    return next(k for k in entry if k not in _TIMING)


def _overlaps(windows, t0: float, t1: Optional[float]) -> bool:
    return any(
        (w1 is None or t0 < w1) and (t1 is None or w0 < t1) for w0, w1 in windows
    )


# -- firing -------------------------------------------------------------
def _crash(system: "HyperSubSystem", addrs: Sequence[int]) -> None:
    for addr in addrs:
        system.nodes[addr].fail()


def _rejoin(system: "HyperSubSystem", addrs: Sequence[int]) -> None:
    for addr in addrs:
        system.rejoin_node(addr)


def _flap(system: "HyperSubSystem", addr: int, period: float, t0: float, t1: float):
    """Unroll one flap window: the node crashes now (at ``t0``), toggles
    every ``period`` ms, and -- whatever phase the window ends on -- is
    rejoined no later than ``t1``: a flap always heals by its end."""
    _crash(system, (addr,))
    down = True
    t = t0 + period
    while t < t1:
        system.sim.schedule_at(t, _rejoin if down else _crash, system, (addr,))
        down = not down
        t += period
    if down:
        system.sim.schedule_at(t1, _rejoin, system, (addr,))


def _expand(e: Dict, cut: int) -> List[tuple]:
    """One canonical entry as its firing steps ``(time, name, addrs,
    detail, act)``: the apply step, then its heal (a flap unrolls its
    toggles when it fires).  ``cut`` numbers an ``asym_partition``
    among the schedule's cuts."""
    key = _key(e)
    v = e[key]
    if key in _INSTANT:
        act = _crash if key == "crash" else _rejoin
        return [(e["at"], key, tuple(v), f"{v}", lambda s: act(s, v))]
    t0, t1, seed = e["from"], e.get("to"), e.get("seed", 0)
    if key == "storm":
        addr, rate = v["addr"], v["rate"]
        detail = f"addr={addr} rate={rate:g}/ms until={t1:.0f}ms"
        return [(t0, key, (addr,), detail,
                 lambda s: s.network.start_storm(addr, rate, t1))]
    if key == "flap":
        addr, period = v["addr"], v["period"]
        detail = f"addr={addr} period={period:g}ms until={t1:.0f}ms"
        return [(t0, key, (addr,), detail, lambda s: _flap(s, addr, period, t0, t1))]
    if key in _NET_WINDOWS:
        fmt, apply, heal_name, heal = _NET_WINDOWS[key]
        args = (v, seed) if key in _SEEDED else (v,)
        steps = [(t0, key, (), fmt.format(v), lambda s: apply(s.network, *args))]
        if t1 is not None:
            steps.append((t1, heal_name, (), "", lambda s: heal(s.network)))
        return steps
    if key == "partition":
        groups = dict(sorted(v.items()))
        return [
            (t0, key, (), f"{groups}", lambda s: s.network.set_partition(groups)),
            (t1, "heal_partition", (), "", lambda s: s.network.clear_partition()),
        ]
    if key == "slow":
        addrs, factor = tuple(v["addrs"]), v["factor"]
        return [
            (t0, key, addrs, f"{v['addrs']} x{factor:g}",
             lambda s: s.network.set_slow(addrs, factor)),
            (t1, "clear_slow", addrs, f"{v['addrs']}",
             lambda s: s.network.clear_slow(addrs)),
        ]
    src, dst = tuple(v["src"]), tuple(v["dst"])  # asym_partition
    return [
        (t0, key, src, f"{v['src']} -/-> {v['dst']}",
         lambda s: s.network.add_asym_cut(cut, src, dst)),
        (t1, "heal_asym_partition", (), "", lambda s: s.network.remove_asym_cut(cut)),
    ]


def _fire(system: "HyperSubSystem", name: str, addrs: Tuple[int, ...], act) -> None:
    tel = system.telemetry
    if tel is not None:
        tel.registry.counter(f"faults.{name}").inc(len(addrs) or 1)
        if tel.tracing:
            tel.tracer.span("fault", t=system.sim.now, fault=name, addrs=list(addrs))
    act(system)


class FaultSchedule:
    """An ordered, replayable list of fault spec entries.

    Builder methods return ``self`` so schedules read as timelines::

        FaultSchedule().crash(5_000, victims).rejoin(30_000, victims)

    Ties on time fire in the order the entries were taken (the
    simulator's tie-break), so a schedule is fully deterministic.
    """

    def __init__(self) -> None:
        #: the canonical spec entries, in the order they were taken
        self._spec: List[Dict] = []
        self._installed = False

    # -- the one way in: the entry whole, then against the schedule ---
    def _add(self, entry) -> "FaultSchedule":
        key, e = parse_entry(entry)
        if key in _SINGLE_ACTIVE:
            self._check_window(entry, key, e, self._taken(key))
        elif key == "slow":
            for a in e["slow"]["addrs"]:
                slows = [x for x in self._taken("slow") if a in x["slow"]["addrs"]]
                self._check_window(entry, f"slow[{a}]", e, slows)
        elif key in _INSTANT:
            t = e["at"]
            for a in e[key]:
                what = f"{key} of node {a} at t={t:g}ms"
                up = self._alive_at(a, t)
                _require(
                    entry, up == (key == "crash"),
                    f"{what}: the node is already {'up' if up else 'down'} there",
                )
                _require(
                    entry, not _overlaps(self._flap_spans(a), t, t + 1e-9),
                    f"{what} falls inside a flap window of the same node",
                )
        elif key == "flap":
            self._check_flap(entry, e["flap"]["addr"], e["from"], e["to"])
        self._spec.append(e)
        return self

    def _taken(self, key: str) -> List[Dict]:
        return [x for x in self._spec if key in x]

    @staticmethod
    def _check_window(entry, kind: str, e: Dict, taken: List[Dict]) -> None:
        """Reject overlapping windows of a single-active fault kind: the
        network applies one at a time, so the first heal would clobber
        the second window and the schedule would lie about itself."""
        t0, t1 = e["from"], e.get("to")
        spans = [(x["from"], x.get("to")) for x in taken]
        _require(
            entry, not _overlaps(spans, t0, t1),
            f"overlapping {kind} windows without an intervening heal: "
            f"[{t0:g}, {'inf' if t1 is None else format(t1, 'g')}) vs "
            f"existing {spans}",
        )

    def _toggles(self, addr: int) -> List[Tuple[float, str]]:
        """``addr``'s scheduled crashes and rejoins, by time."""
        return sorted(
            (x["at"], k) for k in _INSTANT for x in self._taken(k) if addr in x[k]
        )

    def _flap_spans(self, addr: int) -> List[Tuple[float, float]]:
        flaps = self._taken("flap")
        return [(x["from"], x["to"]) for x in flaps if x["flap"]["addr"] == addr]

    def _alive_at(self, addr: int, t: float) -> bool:
        """Scheduled life state of ``addr`` just before time ``t``
        (events strictly earlier; ties are pathological and rejected)."""
        state = True
        for when, what in self._toggles(addr):
            if when >= t:
                break
            state = what == "rejoin"
        return state

    def _check_flap(self, entry, addr: int, t0: float, t1: float) -> None:
        _require(
            entry, self._alive_at(addr, t0),
            f"flap of node {addr} at t={t0:g}ms: the node is already down there",
        )
        _require(
            entry, not _overlaps(self._flap_spans(addr), t0, t1),
            f"flap of node {addr}: overlapping flap windows",
        )
        for when, _what in self._toggles(addr):
            _require(
                entry, not t0 <= when < t1,
                f"flap window of node {addr} overlaps a scheduled crash/rejoin "
                f"of the same node at t={when:g}ms",
            )

    # -- builders ------------------------------------------------------
    def crash(self, at_ms: float, addrs: Iterable[int]) -> "FaultSchedule":
        """Crash-stop ``addrs`` at ``at_ms`` (volatile state is lost)."""
        return self._add({"at": at_ms, "crash": list(addrs)})

    def rejoin(self, at_ms: float, addrs: Iterable[int]) -> "FaultSchedule":
        """Previously crashed ``addrs`` rejoin the overlay at ``at_ms``."""
        return self._add({"at": at_ms, "rejoin": list(addrs)})

    def partition(
        self, from_ms: float, until_ms: float, groups: Dict[int, int]
    ) -> "FaultSchedule":
        """Split the network into ``groups`` during [from_ms, until_ms)."""
        return self._add({"from": from_ms, "to": until_ms, "partition": groups})

    def loss(
        self, from_ms: float, rate: float,
        until_ms: Optional[float] = None, seed: int = 0,
    ) -> "FaultSchedule":
        """Drop packets with probability ``rate`` from ``from_ms`` on;
        ``until_ms`` (exclusive) closes the window, ``None`` leaves it
        open for the rest of the run."""
        return self._add({"from": from_ms, "to": until_ms, "loss": rate, "seed": seed})

    def latency_spike(
        self, from_ms: float, until_ms: float, factor: float
    ) -> "FaultSchedule":
        """Multiply link latencies by ``factor`` during the window."""
        return self._add({"from": from_ms, "to": until_ms, "latency": factor})

    def storm(
        self, from_ms: float, until_ms: float, addr: int, rate: float
    ) -> "FaultSchedule":
        """Flood ``addr`` with ``rate`` synthetic packets per ms during
        [from_ms, until_ms).  The packets are pure load (pub/sub no-ops):
        under the finite service model they saturate the victim's ingress
        queue exactly like an event storm at a hot rendezvous zone; with
        infinite capacity (the default) they are handled instantly and
        the storm is invisible -- see docs/FAULTS.md."""
        storm = {"addr": addr, "rate": rate}
        return self._add({"from": from_ms, "to": until_ms, "storm": storm})

    def slow(
        self, from_ms: float, until_ms: float, addrs: Iterable[int], factor: float
    ) -> "FaultSchedule":
        """Gray failure: ``addrs`` stay alive but serve at ``factor`` of
        their nominal service rate during [from_ms, until_ms).  Needs
        the finite service model (like ``storm``) to be observable."""
        slow = {"addrs": list(addrs), "factor": factor}
        return self._add({"from": from_ms, "to": until_ms, "slow": slow})

    def asym_partition(
        self, from_ms: float, until_ms: float,
        src_addrs: Iterable[int], dst_addrs: Iterable[int],
    ) -> "FaultSchedule":
        """Gray failure: one-way link cut during [from_ms, until_ms) --
        packets from ``src_addrs`` to ``dst_addrs`` are dropped while
        the reverse direction still flows.  Concurrent cuts are legal
        (each window owns a token), unlike symmetric partitions."""
        cut = {"src": list(src_addrs), "dst": list(dst_addrs)}
        return self._add({"from": from_ms, "to": until_ms, "asym_partition": cut})

    def duplicate(
        self, from_ms: float, until_ms: float, rate: float, seed: int = 0
    ) -> "FaultSchedule":
        """Gray failure: during [from_ms, until_ms) every delivered
        packet is delivered a *second* time with probability ``rate``
        (deterministic per seed).  Exactly-once layers must absorb it."""
        entry = {"from": from_ms, "to": until_ms, "duplicate": rate, "seed": seed}
        return self._add(entry)

    def reorder(
        self, from_ms: float, until_ms: float, window_ms: float, seed: int = 0
    ) -> "FaultSchedule":
        """Gray failure: during [from_ms, until_ms) every packet picks
        up an adversarial extra delay uniform in [0, ``window_ms``),
        reordering otherwise-FIFO streams (deterministic per seed)."""
        entry = {"from": from_ms, "to": until_ms, "reorder": window_ms, "seed": seed}
        return self._add(entry)

    def flap(
        self, from_ms: float, until_ms: float, addr: int, period_ms: float
    ) -> "FaultSchedule":
        """Gray failure: crash/rejoin oscillation.  ``addr`` crashes at
        ``from_ms`` and toggles every ``period_ms``; whatever the phase,
        it is guaranteed alive again by ``until_ms`` (the heal-by-end
        contract every window primitive keeps)."""
        flap = {"addr": addr, "period": period_ms}
        return self._add({"from": from_ms, "to": until_ms, "flap": flap})

    # -- generators and the spec ---------------------------------------
    @classmethod
    def random_churn(
        cls, num_nodes: int, fail_fraction: float, crash_window: tuple,
        rejoin_window: Optional[tuple] = None, seed: int = 0,
        protect: Iterable[int] = (),
    ) -> tuple:
        """Sample a deterministic crash(-and-rejoin) schedule.

        ``fail_fraction`` of the ``num_nodes`` addresses (excluding
        ``protect``) crash at times uniform in ``crash_window``; when
        ``rejoin_window`` is given each victim rejoins at a time uniform
        in it.  Returns ``(schedule, victims)`` so experiments can build
        their delivery oracles from the same draw.
        """
        rng = np.random.default_rng(seed)
        protected = set(protect)
        candidates = [a for a in range(num_nodes) if a not in protected]
        n_fail = int(fail_fraction * num_nodes)
        if n_fail > len(candidates):
            raise ValueError("not enough unprotected nodes to fail")
        victims = sorted(
            int(v) for v in rng.choice(candidates, size=n_fail, replace=False)
        )
        sched = cls()
        for v in victims:
            sched.crash(float(rng.uniform(*crash_window)), [v])
        if rejoin_window is not None:
            for v in victims:
                sched.rejoin(float(rng.uniform(*rejoin_window)), [v])
        return sched, victims

    @classmethod
    def from_spec(cls, spec: Sequence[Dict]) -> "FaultSchedule":
        """Build a schedule from the declarative DSL (docs/SIMULATOR.md),
        one :func:`parse_entry` entry at a time::

            [{"at": 5000, "crash": [3, 7]},
             {"at": 30000, "rejoin": [3, 7]},
             {"from": 1000, "to": 4000, "loss": 0.1, "seed": 9},
             {"from": 2000, "to": 6000, "partition": {0: 0, 1: 1}},
             {"from": 8000, "to": 9000, "latency": 3.0},
             {"from": 2000, "to": 12000, "storm": {"addr": 4, "rate": 5.0}},
             {"from": 2000, "to": 9000, "slow": {"addrs": [1, 2], "factor": 0.25}},
             {"from": 2000, "to": 9000, "asym_partition": {"src": [0], "dst": [3]}},
             {"from": 2000, "to": 9000, "duplicate": 0.2},
             {"from": 2000, "to": 9000, "reorder": 150.0},
             {"from": 2000, "to": 12000, "flap": {"addr": 5, "period": 2500.0}}]

        The inverse is :meth:`to_spec`; the two compose to the identity
        on canonical specs (the round-trip contract the chaos shrinker
        and the failing-schedule replay files rely on).
        """
        sched = cls()
        for entry in spec:
            sched._add(entry)
        return sched

    def to_spec(self) -> List[Dict]:
        """A copy of the canonical entries: the declarative DSL that
        :meth:`from_spec` builds this schedule from again."""
        return copy.deepcopy(self._spec)

    # -- execution -----------------------------------------------------
    def _steps(self) -> List[tuple]:
        """Every entry's firing steps, stable-sorted by time."""
        steps: List[tuple] = []
        cuts = 0
        for e in self._spec:
            steps += _expand(e, cuts)
            cuts += "asym_partition" in e
        return sorted(steps, key=lambda step: step[0])

    def install(self, system: "HyperSubSystem") -> None:
        """Arm every step on the system's simulator (once per schedule)."""
        if self._installed:
            raise RuntimeError("schedule already installed")
        self._installed = True
        for t, name, addrs, _detail, act in self._steps():
            system.sim.schedule_at(t, _fire, system, name, addrs, act)

    def describe(self) -> str:
        """Human-readable timeline (sorted by firing time)."""
        lines = [
            f"t={t:.0f}ms {name} {detail}".rstrip()
            for t, name, _addrs, detail, _act in self._steps()
        ]
        return "\n".join(lines) if lines else "(empty schedule)"

    def __len__(self) -> int:
        return len(self._steps())
