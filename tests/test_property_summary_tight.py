"""The invariant the registrar's merge shortcut rests on: every live
repository's summary filter is the tight one, ``store.bounding_box()``,
bit for bit, after every operation that writes a repository.

``_register_local`` merges a replacement that only grew into the filter
instead of rescanning the store; that merge is exact only when the
filter it starts from is tight.  Hypothesis runs mixed sequences of
subscribe, unsubscribe, surrogate-marker replacement (grown and
shrunk), ``_absorb_repo`` in each of its three modes (with entries
that grew or shrank) and standby promotion, and checks every live
repository of every node after each step.

The boxes hold no ``-0.0``: on a tie between ``0.0`` and ``-0.0``
``merge_box`` keeps the addition's bound and ``fmin`` the lowest
slot's, so the sign of a zero bound was never part of the invariant.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    Attribute,
    HyperSubConfig,
    HyperSubSystem,
    Scheme,
    Subscription,
)
from repro.core.node import MARKER_IID_BASE
from repro.core.subscription import SubID

DOMAIN = 100.0
N_NODES = 10

#: segment edges of the first divisions, the domain top, and anything
bound = st.one_of(
    st.sampled_from([0.0, 12.5, 25.0, 50.0, 62.5, 75.0, 100.0]),
    st.floats(0.0, DOMAIN, allow_nan=False).map(abs),
)
box = st.tuples(bound, bound, bound, bound).map(
    lambda t: (
        (min(t[0], t[1]), min(t[2], t[3])),
        (max(t[0], t[1]), max(t[2], t[3])),
    )
)
OPS = ["subscribe", "subscribe", "unsubscribe", "replace", "absorb", "promote"]


def build_system(base):
    cfg = HyperSubConfig(
        seed=11, base=base, code_bits=8, direct_rendezvous_levels=1,
        replication_factor=2,
    )
    system = HyperSubSystem(num_nodes=N_NODES, config=cfg)
    system.add_scheme(Scheme("t", [Attribute(a, 0, DOMAIN) for a in "xy"]))
    return system


def assert_tight(system, step):
    for node in system.nodes:
        for key, repo in node.zone_repos.items():
            tight = repo.store.bounding_box()
            assert repr(repo.sf) == repr(tight), (
                f"after {step}: node {node.addr} repo {key} has sf {repo.sf!r}, "
                f"its store's bounding box is {tight!r}"
            )


def live_repos(system):
    return [
        (node, repo)
        for node in system.nodes
        for _key, repo in sorted(node.zone_repos.items())
    ]


def reshaped(data, lows, highs):
    """``(lows, highs)`` grown to also cover a drawn box, or replaced by
    one that may be smaller."""
    new_lows, new_highs = data.draw(box)
    if data.draw(st.booleans()):
        new_lows = tuple(map(min, lows, new_lows))
        new_highs = tuple(map(max, highs, new_highs))
    return new_lows, new_highs


def step(system, data, live):
    """Run one drawn operation; returns its name."""
    op = data.draw(st.sampled_from(OPS))
    scheme = system.scheme("t")
    if op == "subscribe" or (op == "unsubscribe" and not live):
        addr = data.draw(st.integers(0, N_NODES - 1))
        lows, highs = data.draw(box)
        sub = Subscription.from_box(scheme, list(lows), list(highs))
        live.append((addr, system.subscribe(addr, sub)))
        return "subscribe"
    if op == "unsubscribe":
        addr, subid = live.pop(data.draw(st.integers(0, len(live) - 1)))
        system.unsubscribe(addr, subid)
        return "unsubscribe"
    repos = live_repos(system)
    if not repos:
        return "nothing"
    if op == "replace":
        markers = [
            (node, repo, sid)
            for node, repo in repos
            for sid in repo.store.subids()
            if sid.iid >= MARKER_IID_BASE
        ]
        if not markers:
            return "nothing"
        node, repo, sid = markers[data.draw(st.integers(0, len(markers) - 1))]
        lows, highs = reshaped(data, *repo.store.get_box(sid))
        entity_key, code, level = repo.key
        node._register_local(entity_key, code, level, sid, lows, highs, "marker")
        return "replace"
    if op == "absorb":
        node, repo = repos[data.draw(st.integers(0, len(repos) - 1))]
        mode = data.draw(st.sampled_from(["cascade", "standby", "verbatim"]))
        group, _bytes = repo.export()
        entries = group["entries"]
        if entries:
            k = data.draw(st.integers(0, len(entries) - 1))
            sid, lows, highs, kind = entries[k]
            entries[k] = (sid, *map(list, reshaped(data, lows, highs)), kind)
        # verbatim installs into the repository it came from, so the
        # reshaped entry replaces its own stored box
        target = node if mode == "verbatim" else system.nodes[
            data.draw(st.integers(0, N_NODES - 1))
        ]
        target._absorb_repo(group, mode)
        return f"absorb {mode}"
    node = system.nodes[data.draw(st.integers(0, N_NODES - 1))]
    node._promote_standby_keys(lambda key: True)
    return "promote"


def run_sequence(data, base):
    system = build_system(base)
    live = []
    steps = data.draw(st.integers(1, 14))
    for i in range(steps):
        name = step(system, data, live)
        assert_tight(system, f"step {i} ({name})")
    system.run_until_idle()
    assert_tight(system, "the drain")


@given(data=st.data())
@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_every_live_filter_stays_tight(data):
    run_sequence(data, base=2)


@given(data=st.data())
@settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_every_live_filter_stays_tight_base4(data):
    run_sequence(data, base=4)


def test_verbatim_absorb_of_a_shrunk_entry_tightens_the_filter():
    """The site the invariant found: a ``verbatim`` group that replaces
    a stored entry with a smaller box must not leave the filter at the
    old, wider bounds (it used to merge the smaller box in)."""
    system = build_system(2)
    scheme = system.scheme("t")
    system.subscribe(0, Subscription.from_box(scheme, [10.0, 10.0], [20.0, 20.0]))
    system.subscribe(0, Subscription.from_box(scheme, [12.0, 12.0], [14.0, 14.0]))
    node, repo = next(
        (n, r) for n, r in live_repos(system) if len(r.store) == 2
    )
    assert repo.sf == ((10.0, 10.0), (20.0, 20.0))
    group, _bytes = repo.export()
    sid, _lows, _highs, kind = group["entries"][0]
    group["entries"] = [(sid, [11.0, 11.0], [13.0, 13.0], kind)]
    node._absorb_repo(group, "verbatim")
    assert repo.store.get_box(SubID(*sid)) == ((11.0, 11.0), (13.0, 13.0))
    assert repo.sf == ((11.0, 11.0), (14.0, 14.0)) == repo.store.bounding_box()


def test_promoted_standby_carries_its_tight_filter():
    """Standby copies keep no filter; the promotion that makes one live
    gives it the store's bounding box."""
    system = build_system(2)
    scheme = system.scheme("t")
    for lows, highs in [([5.0, 5.0], [9.0, 30.0]), ([6.0, 1.0], [40.0, 8.0])]:
        system.subscribe(3, Subscription.from_box(scheme, lows, highs))
    node = next(n for n in system.nodes if n.standby_repos)
    keys = list(node.standby_repos)
    node._promote_standby_keys(lambda key: True)
    promoted = [node.zone_repos[k] for k in keys if k in node.zone_repos]
    assert promoted
    for repo in promoted:
        assert repo.sf is not None and repo.sf == repo.store.bounding_box()
