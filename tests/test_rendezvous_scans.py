"""The rendezvous scan gate: ``BoxStore.match_point`` calls in the event
phase of a fixed best-effort run whose shallow zones are visited
directly (``tests/fixed_run.py``).

A shallow zone's key is the last id of its arc, so a visit under that
key lists the zone and its rightmost descendants, and an event that
hits one of their summary filters need not hit the others.
``PubSubNodeMixin._handle_local_entry`` scans only the repositories
whose filter the event point hits; a scan of any other returns nothing.
The count is simulated, so it repeats exactly and is gated at zero
tolerance upward; the delivery digest and the traffic are pinned with
it, so a change that moves a delivery fails here before its count is
looked at.  Pinned for Python 3.11 like the sibling gates, skipped on
any other.
"""

import sys

import pytest

from repro.core import node as node_module
from repro.core.matching import BoxStore
from tests.fixed_run import N_SCAN_EVENTS, fixed_rendezvous_system
from tests.test_wire_identity import _delivery_digest

#: Python minor -> ``match_point`` calls of :func:`scanned_run`.  After a
#: change that lowers the count, lower the ceiling to what the failure
#: message reports.  Scanning every repository under a visited key, as
#: the rendezvous loop did before the filter test, made 854.
PINNED = {(3, 11): 249}
#: the simulated run; none of it may move
DIGEST = "52aa3bcb215e57cf65d641d8fad77c7dea4781b9a1a3d6dab2d1f44cadcb0209"
MSGS_BY_KIND = {"ps_event": 1586}
DELIVERIES = 267

pytestmark = pytest.mark.skipif(
    sys.version_info[:2] not in PINNED,
    reason=f"scan count is pinned for Python {sorted(PINNED)} only",
)


def scanned_run(monkeypatch):
    """``(match_point calls, delivery digest, msgs by kind, deliveries)``
    of the event phase of the fixed rendezvous system."""
    system = fixed_rendezvous_system()
    calls = [0]
    real = BoxStore.match_point

    def match_point(self, point):
        calls[0] += 1
        return real(self, point)

    with monkeypatch.context() as m:
        m.setattr(BoxStore, "match_point", match_point)
        system.run_until_idle()
    records = system.metrics.records.values()
    assert len(records) == N_SCAN_EVENTS
    return (
        calls[0], _delivery_digest(system),
        dict(system.network.stats.msgs_by_kind),
        sum(len(r.deliveries) for r in records),
    )


def test_scans_repeat_and_stay_under_the_ceiling(monkeypatch):
    first = scanned_run(monkeypatch)
    assert scanned_run(monkeypatch) == first, "the count must repeat exactly"
    calls, digest, msgs, deliveries = first
    assert msgs == MSGS_BY_KIND, "the simulated traffic itself moved"
    assert digest == DIGEST, "the deliveries moved"
    assert deliveries == DELIVERIES
    ceiling = PINNED[sys.version_info[:2]]
    assert calls <= ceiling, (
        f"{calls} match_point calls for {N_SCAN_EVENTS} events exceed the "
        f"pinned {ceiling}"
    )


def test_scanning_filter_excluded_repositories_breaks_the_ceiling(monkeypatch):
    """The gate has teeth: with the filter test disabled (every bound
    compares as inside) the rendezvous loop scans every repository under
    a visited key again -- more calls, the same deliveries and traffic."""
    calls, *run = scanned_run(monkeypatch)
    monkeypatch.setattr(node_module, "le", lambda a, b: True)
    slow_calls, *slow_run = scanned_run(monkeypatch)
    assert slow_run == run
    assert slow_calls > PINNED[sys.version_info[:2]] >= calls
