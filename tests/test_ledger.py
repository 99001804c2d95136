"""The perf ledger against its pinned table, and the mutations that
show each row can fail.

Every scenario of ``repro.bench`` is counted and compared with its row
in ``tests/data/ledger.json``: a ceiling counter (``repro.bench.CEILINGS``:
program calls, ``match_point`` calls, blocks, zone and subscription
bytes) may fall, and every other counter is simulated and must match
exactly.  Rows are pinned per Python minor (memory rows per Python
minor and NumPy major); a scenario with no row for the running
interpreter is skipped.

Each mutation puts back a regression a row stands for and shows the row
fails on it, with the simulated run unchanged.  After a change that
lowers a ceiling, or moves a simulated counter on purpose, re-record the
row and say why in CHANGES.md, the rule ``tests/test_fault_pins.py``
follows::

    PYTHONPATH=src python tests/test_ledger.py --rerecord [SCENARIO ...]
"""

import json
import sys
from pathlib import Path

import pytest

import repro.bench
import repro.dht.pns
from repro.bench import CEILINGS, N_EVENTS, SCENARIOS, table_key
from repro.core import HyperSubSystem, Subscription
from repro.core import node as node_module
from repro.core.durability import DurableState
from repro.core.matching import BoxStore
from repro.core.node import PubSubNodeMixin
from repro.core.system import Metrics
from repro.dht.chord import ChordNode
from repro.sim.engine import LANE, Simulator

TABLE_PATH = Path(__file__).parent / "data" / "ledger.json"
TABLE = json.loads(TABLE_PATH.read_text(encoding="utf-8"))


def pinned(name):
    return TABLE.get(table_key(name), {}).get(name)


#: where the functions the mutations patch in live: counted as the program
MUTANTS = (__file__, str(Path(__file__).with_name("route_reference.py")))


def measure(name):
    """One count of scenario ``name``."""
    return SCENARIOS[name](also=MUTANTS)


_FIRST = {}


def measured(name):
    """The scenario's first count in this process."""
    if name not in _FIRST:
        _FIRST[name] = measure(name)
    return _FIRST[name]


def row_failures(name, row):
    """What in ``row`` breaks the pinned row of scenario ``name``."""
    pin = pinned(name)
    failures = [f"{c}: missing" for c in pin if c not in row]
    failures += [f"{c}: not pinned" for c in row if c not in pin]
    for counter in pin.keys() & row.keys():
        got, want = row[counter], pin[counter]
        if counter in CEILINGS:
            if got > want:
                failures.append(f"{counter}: {got:,} exceeds the pinned {want:,}")
        elif got != want:
            failures.append(f"{counter}: {got!r} != pinned {want!r}")
    return failures


def simulated(row):
    return {c: v for c, v in row.items() if c not in CEILINGS}


def _pinned_only(names):
    return [
        pytest.param(
            name,
            marks=pytest.mark.skipif(
                pinned(name) is None,
                reason=f"no {name} row pinned for {table_key(name)}",
            ),
        )
        for name in names
    ]


@pytest.mark.parametrize("name", _pinned_only(SCENARIOS))
def test_row(name):
    assert row_failures(name, measured(name)) == []


@pytest.mark.parametrize("name", _pinned_only(SCENARIOS))
def test_repeats_exactly(name):
    assert measure(name) == measured(name)


# ----------------------------------------------------------------------
# Mutations: (scenario, counter, patch, check(base row, mutated row))
# ----------------------------------------------------------------------
def _python_route_cache_get(monkeypatch):
    """One Python-level call per worklist entry in the loop of
    ``_process_event``: the route cache's ``get``."""
    class PythonGet(dict):
        def get(self, key, default=None):
            return dict.get(self, key, default)

    real = HyperSubSystem.finish_setup

    def finish_setup(self):
        real(self)
        for node in self.nodes:
            node._rc = PythonGet()

    monkeypatch.setattr(HyperSubSystem, "finish_setup", finish_setup)


def _tuple_per_delivery(monkeypatch):
    """Each delivery recorded as its own 4-tuple again."""

    def on_delivery(self, event_id, subid, subscriber_addr, hops, latency_ms):
        rec = self.records.get(event_id)
        if rec is not None:
            rec._d.append((subid, subscriber_addr, hops, latency_ms))

    monkeypatch.setattr(Metrics, "on_delivery", on_delivery)
    monkeypatch.setattr(
        "repro.core.system.EventRecord.matched", property(lambda rec: len(rec._d))
    )


class ThreeArraySubscription(Subscription):
    """A subscription laid out as before packing: its lows, highs and
    specified mask as three read-only arrays."""

    __slots__ = ("_lows", "_highs", "_specified")

    def __init__(self, scheme, predicates):
        packed = Subscription(scheme, predicates)
        self.scheme_name = packed.scheme_name
        self._lows, self._highs, self._specified = (
            packed.lows.copy(), packed.highs.copy(), packed.specified.copy()
        )
        for array in (self._lows, self._highs, self._specified):
            array.setflags(write=False)

    lows = property(lambda self: self._lows)
    highs = property(lambda self: self._highs)
    specified = property(lambda self: self._specified)
    bounds = property(lambda self: self._lows.tobytes() + self._highs.tobytes())
    specified_bits = property(
        lambda self: sum(1 << i for i, s in enumerate(self._specified.tolist()) if s)
    )


def _three_arrays_per_subscription(monkeypatch):
    """Every subscription of the scenario stores three arrays again."""
    monkeypatch.setattr(repro.bench, "Subscription", ThreeArraySubscription)


def _wrapper(owner, attr):
    """One pass-through Python call added to every ``owner.attr``."""

    def patch(monkeypatch):
        real = getattr(owner, attr)

        def wrapper(*args):
            return real(*args)

        monkeypatch.setattr(owner, attr, wrapper)

    return patch


def _scan_filter_excluded(monkeypatch):
    """The rendezvous filter test disabled: every bound compares as
    inside, so every repository under a visited key is scanned."""
    monkeypatch.setattr(node_module, "le", lambda a, b: True)


def _linear_route_scan(monkeypatch):
    """The linear routing-state scan in place of the bisect snapshot."""
    from tests.route_reference import closest_preceding_linear

    monkeypatch.setattr(ChordNode, "_closest_preceding", closest_preceding_linear)


def _reference_pop_matching(monkeypatch):
    """The public-API loop ``pop_matching`` replaced (subids -> get_box
    -> remove), which resolves the slot dict twice per entry."""

    def pop_matching(self, predicate):
        out = []
        for sid in [s for s in self.subids() if predicate(s)]:
            lo, hi = self.get_box(sid)
            self.remove(sid)
            out.append((sid, lo, hi))
        return out

    monkeypatch.setattr(BoxStore, "pop_matching", pop_matching)


def _scan_per_cancel(monkeypatch):
    """A Python-level O(n) search of the heap for every cancelled heap
    record (a lane timer waits outside the heap)."""
    real = Simulator.cancel

    def cancel(self, handle):
        if len(handle) <= LANE:
            any(entry is handle for entry in self._queue)
        real(self, handle)

    monkeypatch.setattr(Simulator, "cancel", cancel)


def _one_more_per(unit):
    def check(base, slow):
        assert slow["calls"] == base["calls"] + base[unit]

    return check


def _more(counter):
    def check(base, slow):
        assert slow[counter] > base[counter]

    return check


def _a_block_per_delivery(base, slow):
    # give or take a buffer per event record
    assert abs(slow["blocks"] - base["blocks"] - base["deliveries"]) <= N_EVENTS


MUTATIONS = {
    "call_per_worklist_entry": (
        "best_effort", "calls", _python_route_cache_get, _one_more_per("entries"),
    ),
    "tuple_per_delivery": (
        "memory", "blocks", _tuple_per_delivery, _a_block_per_delivery,
    ),
    "three_arrays_per_subscription": (
        "memory", "subscription_bytes", _three_arrays_per_subscription,
        _more("subscription_bytes"),
    ),
    "call_per_custody_append": (
        "durable", "calls", _wrapper(DurableState, "append"),
        _one_more_per("appends"),
    ),
    "scan_filter_excluded": (
        "rendezvous", "match_point", _scan_filter_excluded, _more("match_point"),
    ),
    "call_per_registration": (
        "registrar", "calls", _wrapper(PubSubNodeMixin, "_register_local"),
        _one_more_per("registrations"),
    ),
    "call_per_span": (
        "overlay_build", "calls", _wrapper(repro.dht.pns, "bisect_left"),
        _one_more_per("spans"),
    ),
    "call_per_subscription": (
        "populate", "calls", _wrapper(PubSubNodeMixin, "subscribe"),
        _one_more_per("subscriptions"),
    ),
    "scan_per_cancel": (
        "deep_queue", "calls", _scan_per_cancel, _more("calls"),
    ),
    "linear_route_scan": (
        "chain_walk", "calls", _linear_route_scan, _more("calls"),
    ),
    "reference_pop_matching": (
        "pop_matching", "calls", _reference_pop_matching, _more("calls"),
    ),
}


@pytest.mark.parametrize(
    "mutation",
    [
        pytest.param(
            m,
            marks=pytest.mark.skipif(
                pinned(MUTATIONS[m][0]) is None,
                reason=f"no {MUTATIONS[m][0]} row pinned for "
                f"{table_key(MUTATIONS[m][0])}",
            ),
        )
        for m in MUTATIONS
    ],
)
def test_mutation_fails_its_row(mutation, monkeypatch):
    name, counter, patch, check = MUTATIONS[mutation]
    base = measured(name)
    patch(monkeypatch)
    slow = measure(name)
    assert simulated(slow) == simulated(base), "the simulated run moved"
    check(base, slow)
    assert [f for f in row_failures(name, slow) if f.startswith(counter + ":")]


def test_every_scenario_has_a_mutation():
    assert {scenario for scenario, *_ in MUTATIONS.values()} == set(SCENARIOS)


def _rerecord(names) -> None:
    for name in names or SCENARIOS:
        TABLE.setdefault(table_key(name), {})[name] = SCENARIOS[name]()
    TABLE_PATH.write_text(
        json.dumps(TABLE, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    if "--rerecord" not in sys.argv[1:]:
        sys.exit(__doc__)
    _rerecord([a for a in sys.argv[1:] if a != "--rerecord"])
