"""Structured-overlay (DHT) substrates.

HyperSub is built on Chord with proximity neighbour selection
(Chord-PNS, the configuration the paper simulates).  Pastry sits behind
the same :class:`~repro.dht.base.OverlayNode` interface as the
substrate of the Scribe baseline (:mod:`repro.baselines.scribe`).
"""

from repro.dht.idspace import (
    ID_BITS,
    ID_SPACE,
    id_in_interval,
    cw_distance,
    random_ids,
)
from repro.dht.ring import SortedRing
from repro.dht.base import OverlayNode, LookupResult
from repro.dht.chord import ChordNode, build_chord_overlay
from repro.dht.pastry import PastryNode, build_pastry_overlay

__all__ = [
    "ID_BITS",
    "ID_SPACE",
    "id_in_interval",
    "cw_distance",
    "random_ids",
    "SortedRing",
    "OverlayNode",
    "LookupResult",
    "ChordNode",
    "build_chord_overlay",
    "PastryNode",
    "build_pastry_overlay",
]
