"""Network message representation and size model.

The paper models event-message sizes explicitly (Section 5.1):

    "The size of each event message is modeled in bytes as: 20 bytes for
    packet header, 100 bytes for event, and 9 bytes for each SubID
    (8 bytes for subscriber's nodeID, and 1 byte for internalID)."

Those constants live here so the core library, the baselines and the
benchmarks all charge bandwidth identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

#: Bytes charged for a packet header on every message.
HEADER_BYTES = 20
#: Bytes charged for the event body carried in a delivery message.
EVENT_BYTES = 100
#: Bytes charged per SubID carried in a delivery message (8B nodeID + 1B iid).
SUBID_BYTES = 9
#: Bytes charged for a bare control/RPC message payload (lookup step etc.).
CONTROL_BYTES = 20
#: Bytes added to an event packet when ring state rides along
#: (sender id + predecessor + successor entries; piggyback extension).
PIGGYBACK_BYTES = 24
#: Bytes charged per zone-repository summary in an anti-entropy digest
#: (repo key ~12B + entry count 4B + 8B checksum; self-healing extension).
AE_DIGEST_ENTRY_BYTES = 24
#: Bytes charged per custody-tagged entry on a durable event packet
#: (custodian addr 4B + token 8B + stream/sequence 4B; delivery-
#: guarantees extension).
DURABLE_META_BYTES = 16
#: Bytes charged per causal-dependency pair on a sequencer-bound packet
#: (publisher addr 4B + pseq 8B).
DEP_ENTRY_BYTES = 12


def event_message_bytes(num_subids: int) -> int:
    """Size of an event-delivery packet carrying ``num_subids`` SubIDs."""
    if num_subids < 0:
        raise ValueError("num_subids must be non-negative")
    return HEADER_BYTES + EVENT_BYTES + SUBID_BYTES * num_subids


def subscription_wire_bytes(dims: int) -> int:
    """Wire size of one subscription box: its SubID plus two float64
    bounds per dimension."""
    return SUBID_BYTES + 16 * dims


@dataclass(slots=True)
class Message:
    """A packet in flight between two simulated nodes.

    ``src`` / ``dst`` are *network addresses* (dense indices into the
    topology), not DHT identifiers.  ``payload`` is opaque to the network
    layer; protocols dispatch on ``kind``.
    """

    src: int
    dst: int
    kind: str
    payload: Any
    size_bytes: int
    #: hop count accumulated along an application-level dissemination path
    hops: int = 0
    #: simulation time at which the *root* request was issued
    root_time: float = 0.0
    #: telemetry span under which this packet's processing nests (set by
    #: the sender when causal tracing is active; NOT inherited by
    #: ``child`` -- each forwarded packet gets its own ``forward`` span)
    span_id: Optional[int] = None

    def child(self, src: int, dst: int, kind: str, payload: Any, size_bytes: int) -> "Message":
        """Derive a follow-on message that inherits path metadata.

        Used by recursive protocols (event delivery) where each hop
        constructs new packets but the per-path hop count must keep
        accumulating and the root time must carry over.
        """
        return Message(src, dst, kind, payload, size_bytes, self.hops, self.root_time)
