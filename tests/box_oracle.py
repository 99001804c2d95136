"""The reference every subscription store is tested against.

A store's contents are modelled as a plain dict ``SubID -> (lows,
highs)`` of float tuples and matched by ``all(lo <= p <= hi)`` in pure
Python -- no NumPy broadcasting, no shared code with the stores -- so
the linear, grid and bands stores all answer to the same independent
oracle instead of to one another.
"""

import math

import numpy as np
from hypothesis import strategies as st

SPECIALS = [-math.inf, -7.5, -0.0, 0.0, 1.0, 2.5, 7.5, math.inf]
bound = st.one_of(st.sampled_from(SPECIALS), st.floats(-10, 10, width=32))
query_coord = st.one_of(bound, st.just(math.nan))


def boxes(dims, bound=bound):
    """(lows, highs) tuples of ``bound`` draws with ``lows <= highs``."""
    pair = st.tuples(bound, bound).map(lambda ab: (min(ab), max(ab)))
    return st.lists(pair, min_size=dims, max_size=dims).map(
        lambda pairs: (tuple(p[0] for p in pairs), tuple(p[1] for p in pairs))
    )


def same_bits(got, expected):
    got = np.asarray(got)
    expected = np.asarray(expected, dtype=np.float64)
    return np.array_equal(got, expected) and np.array_equal(
        np.signbit(got), np.signbit(expected)
    )


def float_tuples(box):
    """Is ``box`` a pair of tuples of Python floats (the registrar's
    box, which nothing can scribble on)?"""
    return all(
        type(side) is tuple and all(type(v) is float for v in side) for side in box
    )


def check_against_oracle(store, oracle):
    """``len``, ``subids``, ``get_box`` and ``bounding_box`` of ``store``
    against ``oracle`` (sid -> (lo, hi)): float tuples, bit-exact."""
    assert len(store) == len(oracle)
    assert set(store.subids()) == set(oracle)
    for sid, (lo, hi) in oracle.items():
        assert sid in store
        got = store.get_box(sid)
        assert float_tuples(got)
        assert same_bits(got[0], lo) and same_bits(got[1], hi)
    bbox = store.bounding_box()
    if not oracle:
        assert bbox is None
        return
    assert float_tuples(bbox)
    dims = len(next(iter(oracle.values()))[0])
    assert list(bbox[0]) == [
        min(lo[d] for lo, _ in oracle.values()) for d in range(dims)
    ]
    assert list(bbox[1]) == [
        max(hi[d] for _, hi in oracle.values()) for d in range(dims)
    ]


def oracle_match_point(oracle, point):
    return {
        sid
        for sid, (lo, hi) in oracle.items()
        if all(l <= p <= h for l, p, h in zip(lo, point, hi))
    }


def oracle_match_box(oracle, qlo, qhi):
    return {
        sid
        for sid, (lo, hi) in oracle.items()
        if all(l <= b and a <= h for l, h, a, b in zip(lo, hi, qlo, qhi))
    }
