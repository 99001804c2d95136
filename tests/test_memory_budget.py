"""The memory gate, the allocation sibling of the calls-per-message
gate (ROADMAP item 6 a): what a zone repository holds after set-up and
what a delivery leaves behind, in units the host cannot move.

Two counts of the fixed run of ``tests/fixed_run.py``: the ``zones``
component of ``measure_system`` (a deep ``sys.getsizeof`` walk) over
the repositories it covers, and the growth of
``sys.getallocatedblocks()`` over the event phase per delivery.  Both
repeat exactly, so both are gated at zero tolerance upward.  Object
sizes belong to the interpreter and array headers to NumPy, hence the
ceilings are keyed on the Python minor and the NumPy major version and
the tests are skipped on any other.
"""

import gc
import sys

import numpy as np
import pytest

from repro.core.system import Metrics
from repro.telemetry.memory import measure_system
from tests.fixed_run import N_EVENTS, fixed_system

#: (Python minor, NumPy major) -> (repositories, ``zones`` bytes,
#: deliveries, blocks the event phase left allocated).  Repositories
#: and deliveries are simulated and must not move at all; bytes and
#: blocks are ceilings.  After a change that lowers one, lower the
#: ceiling to what the failure message reports.
PINNED = {((3, 11), 2): (36, 133_724, 2517, 7312)}
ENV = (sys.version_info[:2], int(np.__version__.split(".")[0]))

pytestmark = pytest.mark.skipif(
    ENV not in PINNED,
    reason=f"memory ceilings are pinned for (Python, NumPy) in {sorted(PINNED)} only",
)


def measured_run():
    """``(repositories, zones bytes, deliveries, blocks grown)``."""
    system = fixed_system()
    repos = sum(len(node.zone_repos) for node in system.nodes)
    zones = measure_system(system, node_sample=len(system.nodes)).components["zones"]
    gc.collect()
    # The type attribute cache pins one name per address-chosen slot.
    sys._clear_type_cache()
    before = sys.getallocatedblocks()
    system.run_until_idle()
    gc.collect()
    sys._clear_type_cache()
    grown = sys.getallocatedblocks() - before
    deliveries = sum(r.matched for r in system.metrics.records.values())
    return repos, zones, deliveries, grown


def test_bytes_per_repository_and_blocks_per_delivery_stay_under_the_ceiling():
    measured_run()  # the first run in a process also fills caches
    first = measured_run()
    assert measured_run() == first, "the counts must repeat exactly"
    repos, zones, deliveries, grown = first
    pinned_repos, zones_ceiling, pinned_deliveries, blocks_ceiling = PINNED[ENV]
    assert (repos, deliveries) == (pinned_repos, pinned_deliveries), (
        "the simulated run itself moved"
    )
    assert zones <= zones_ceiling, (
        f"{zones} bytes of zone state for {repos} repositories "
        f"({zones / repos:.0f} each) exceed the pinned {zones_ceiling}"
    )
    assert grown <= blocks_ceiling, (
        f"{grown} blocks left by {deliveries} deliveries "
        f"({grown / deliveries:.3f} each) exceed the pinned {blocks_ceiling}"
    )


def test_a_tuple_per_delivery_breaks_the_ceiling(monkeypatch):
    """The gate has teeth: recording each delivery as its own 4-tuple
    again costs a block per delivery (give or take a buffer per event
    record) and lands above the ceiling."""
    measured_run()
    _repos, _zones, deliveries, grown = measured_run()

    def on_delivery(self, event_id, subid, subscriber_addr, hops, latency_ms):
        rec = self.records.get(event_id)
        if rec is not None:
            rec._d.append((subid, subscriber_addr, hops, latency_ms))

    monkeypatch.setattr(Metrics, "on_delivery", on_delivery)
    monkeypatch.setattr(
        "repro.core.system.EventRecord.matched", property(lambda rec: len(rec._d))
    )
    _repos, _zones, fat_deliveries, fat_grown = measured_run()
    assert fat_deliveries == deliveries
    assert abs(fat_grown - grown - deliveries) <= N_EVENTS
    assert fat_grown > PINNED[ENV][3]
