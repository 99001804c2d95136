"""The rendezvous guard is exact: skipping a live repository whose
summary filter excludes the event point changes no answer.

``PubSubNodeMixin._handle_local_entry`` matches a rendezvous entry only
against the repositories whose ``sf`` the point hits.  That is exact as
long as every live filter covers every box its repository holds, which
``tests/test_property_summary_tight.py`` checks after each operation
that writes a repository.  Here Hypothesis runs the same op mix
(subscribe, unsubscribe, grown / shrunk marker replacement, each
``_absorb_repo`` mode, standby promotion) and, after every step, asks
every node for every rendezvous key it indexes: the guarded answer must
equal an unguarded scan of the same repositories, hit for hit and in
the same order.  Points are drawn on filter faces, on zone edges, at
the domain top, anywhere, and with NaN coordinates.
"""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim.messages import Message
from tests.test_property_summary_tight import DOMAIN, build_system, step

#: segment edges of the first three divisions, the domain top included
EDGES = [DOMAIN * k / 8 for k in range(9)]
MSG = Message(src=0, dst=0, kind="ps_event", payload=None, size_bytes=0)


def unguarded(node, nid, point):
    """The rendezvous answer without the filter test: every live repo of
    the scheme under ``nid``, then the standby takeover if none hit."""
    matched = []
    for repo_key in node.rendezvous_index.get(nid, ()):
        repo = node.zone_repos[repo_key]
        if node.system.entity(repo.entity_key).scheme.name == "t":
            matched += [(s.nid, s.iid) for s in repo.store.match_point(point)]
    if not matched:
        for repo_key in node.standby_rendezvous.get(nid, ()):
            if repo_key not in node.zone_repos:
                repo = node.standby_repos[repo_key]
                matched += [(s.nid, s.iid) for s in repo.store.match_point(point)]
    return matched


def faces(system):
    """Every bound of every live summary filter."""
    return sorted(
        {
            v
            for node in system.nodes
            for repo in node.zone_repos.values()
            if repo.sf is not None
            for side in repo.sf
            for v in side
        }
    )


def draw_point(data, system):
    bounds = faces(system)
    coordinate = st.one_of(
        st.sampled_from(bounds or EDGES),
        st.sampled_from(EDGES),
        st.floats(0.0, DOMAIN, allow_nan=False),
        st.just(math.nan),
    )
    return data.draw(st.tuples(coordinate, coordinate))


def assert_guard_exact(system, data, when):
    for _ in range(3):
        point = np.array(draw_point(data, system), dtype=np.float64)
        for node in system.nodes:
            for nid in list(node.rendezvous_index):
                want = unguarded(node, nid, point)
                got = node._handle_local_entry(0, "t", point, nid, None, MSG)
                assert got == want, (
                    f"after {when}: node {node.addr} key {nid} point "
                    f"{point.tolist()} answered {got}, a full scan {want}"
                )


def run_sequence(data, base):
    system = build_system(base)
    live = []
    assert_guard_exact(system, data, "set-up")
    for i in range(data.draw(st.integers(1, 14))):
        name = step(system, data, live)
        assert_guard_exact(system, data, f"step {i} ({name})")
    system.run_until_idle()
    assert_guard_exact(system, data, "the drain")


@given(data=st.data())
@settings(
    max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_guarded_rendezvous_equals_a_full_scan(data):
    run_sequence(data, base=2)


@given(data=st.data())
@settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_guarded_rendezvous_equals_a_full_scan_base4(data):
    run_sequence(data, base=4)
