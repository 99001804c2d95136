"""Chord-PNS finger tables: the position-walking builder against the
literal span-by-span reference (``tests/finger_reference.py``).

Both build every node's table of a ring in address order from one
shared generator, as ``build_chord_overlay`` does.  The tables must be
equal down to ``repr`` (entry order and value types included) and the
generator must end in the same state: the same ``rng.choice`` draws in
the same order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.idspace import ID_SPACE, random_ids
from repro.dht.pns import PROXIMITY_SAMPLES, build_finger_table
from repro.dht.ring import SortedRing
from repro.sim.topology import ConstantTopology, ExplicitTopology, KingLikeTopology
from tests.finger_reference import ids_in_arc, reference_finger_table

TOP = ID_SPACE - 1

RINGS = {
    "one": [5],
    "two": [5, 1 << 63],
    "three": [7, 1 << 40, 1 << 62],
    "adjacent": [10, 11, 12, 13, 1 << 40, (1 << 40) + 1],
    "ends_of_the_space": [0, TOP, 1, TOP - 1, 1 << 63],
    "random_17": random_ids(17, 3),
    "random_1000": random_ids(1000, 4),
}


def explicit(n, seed):
    """A symmetric RTT matrix of small integers: plenty of ties."""
    rng = np.random.default_rng(seed)
    m = rng.integers(1, 6, size=(n, n)).astype(np.float64)
    m = np.triu(m, 1)
    return ExplicitTopology(m + m.T)


TOPOLOGIES = {
    "king": lambda n: KingLikeTopology(n, seed=2),
    "explicit": lambda n: explicit(n, 9),
    "constant": lambda n: ConstantTopology(n, rtt=50.0),  # every pair ties
}


def assert_same_tables(ids, topology, pns, seed=11):
    ring = SortedRing((node_id, addr) for addr, node_id in enumerate(ids))
    rng_new = np.random.default_rng(seed)
    rng_ref = np.random.default_rng(seed)
    for addr, node_id in enumerate(ids):
        new = build_finger_table(node_id, addr, ring, topology, pns=pns, rng=rng_new)
        ref = reference_finger_table(
            node_id, addr, ring, topology, pns=pns, rng=rng_ref,
            samples=PROXIMITY_SAMPLES,
        )
        assert repr(new) == repr(ref), f"node {addr} (id {node_id})"
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("pns", [True, False], ids=["pns", "plain"])
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@pytest.mark.parametrize("ring", list(RINGS))
def test_fingers_equal_the_span_by_span_reference(ring, topology, pns):
    ids = RINGS[ring]
    assert_same_tables(ids, TOPOLOGIES[topology](len(ids)), pns)


def test_the_cases_reach_both_sides_of_the_sampling_bound():
    """Some span of the 1 000-node ring is sampled, some is not."""
    ring = SortedRing((node_id, addr) for addr, node_id in enumerate(RINGS["random_1000"]))
    node_id = ring.ids[0]
    spans = [
        len(ids_in_arc(ring.ids, (node_id + (1 << i)) % ID_SPACE,
                       (node_id + (2 << i)) % ID_SPACE))
        for i in range(64)
    ]
    assert max(spans) > PROXIMITY_SAMPLES
    assert 0 < min(s for s in spans if s) <= PROXIMITY_SAMPLES


clustered_ids = st.lists(
    st.one_of(
        st.integers(min_value=0, max_value=ID_SPACE - 1),
        st.integers(min_value=0, max_value=64),
        st.integers(min_value=ID_SPACE - 64, max_value=ID_SPACE - 1),
    ),
    min_size=1,
    max_size=60,
    unique=True,
)


@given(ids=clustered_ids, pns=st.booleans(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_fingers_equal_the_reference_on_any_ring(ids, pns, seed):
    """Random rings with ids crowded at both ends of the space, so spans
    wrap past 0 and many small spans are occupied."""
    assert_same_tables(ids, KingLikeTopology(len(ids), seed=seed % 1000 + 1), pns, seed)
