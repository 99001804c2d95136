"""Durable delivery: the custody-transfer store-and-forward log.

``delivery_mode="best_effort"`` (the PR 1-3 stack) recovers *transient*
loss -- per-hop acks, retransmission, hop-failover, standby takeover --
but a crash between the rendezvous match and the subscriber, or an
exhausted retry/failover/TTL/shed budget, loses the delivery
permanently (``transport.gave_up``).  ``delivery_mode="durable"`` closes
that gap with a custody-transfer chain, the design *SmartPubSub*
(arXiv 2207.06369) motivates with its persistent-log pull recovery:

* the **publisher** appends one :class:`CustodyEntry` per rendezvous
  target before the event packet leaves (kind ``"key"``; in causal mode
  a single ``"seq"`` entry toward the scheme's sequencer);
* every **match site** appends one entry per matched SubID it now owes
  downstream (kind ``"sub"``) *before* acking its own custodian;
* an entry is retired only by a **subscriber-level ack** (``ps_dack``),
  sent after the downstream node has fully handled the entry -- a
  delivery handed to the application, or a relay that has itself taken
  custody of everything it produced.  Packet-level ``ps_event_ack``s
  never retire custody.

Unacked entries are redelivered every ``durable_redelivery_ms`` until
acked or truncated.  Redelivery may duplicate in-flight work; the
subscriber-side ``(event_id, iid)`` delivery identity (and, in ordered
modes, the per-stream sequence watermarks) absorb duplicates and ack
them, so duplicates retire instead of re-delivering.

The log and its sequence counters model *disk*: they survive
crash-rejoin (``HyperSubSystem.rejoin_node`` carries them to the new
incarnation) and the per-key slices migrate with an arc handoff
(``export_site_state`` / ``absorb_site_state``).  Everything else on a
node remains volatile.

Truncation is never silent: appending past ``DURABLE_LOG_MAX_ENTRIES``
evicts the oldest unacked entry, counted in ``durable.truncated`` and
traced (``durable_truncate`` spans) -- a truncated delivery is
permanently lost, exactly like a best-effort give-up.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Per-node bound on retained durable-log entries (the node's
#: ``DurableState`` is built with it).  Appending past it truncates the
#: oldest unacked entry -- counted in ``durable.truncated`` and traced,
#: never silent (a truncated delivery is permanently lost, exactly like
#: best-effort give-up).
DURABLE_LOG_MAX_ENTRIES = 4096


class CustodyEntry:
    """One unacked obligation: re-send until ``ps_dack`` retires it."""

    __slots__ = (
        "tok", "kind", "event", "nid", "iid", "meta", "born", "last_sent",
        "attempts",
    )

    def __init__(
        self,
        tok: int,
        kind: str,
        event: Dict[str, Any],
        nid: int,
        iid: Optional[int],
        meta: Dict[str, Any],
        born: float,
    ) -> None:
        self.tok = tok
        #: ``"key"`` -- publisher/sequencer owes a rendezvous key a copy;
        #: ``"seq"`` -- publisher owes the causal sequencer a copy;
        #: ``"sub"`` -- a match site owes one SubID its delivery.
        self.kind = kind
        #: event-constant payload fields (event_id, scheme, point, and
        #: pub/pseq in ordered modes) reused verbatim on redelivery.
        self.event = event
        self.nid = nid
        self.iid = iid
        #: wire metadata attached to the entry: ``t`` = (custodian addr,
        #: token), plus ``s``/``k`` (stream tuple, kseq) or ``m`` (mseq)
        #: in ordered modes and ``q`` on sequencer-bound entries.
        self.meta = meta
        self.born = born
        self.last_sent = born
        self.attempts = 0

    def wire_entry(self) -> Tuple[int, Optional[int], Dict[str, Any]]:
        """The ``(nid, iid, meta)`` triple carried in event packets."""
        return (self.nid, self.iid, self.meta)


class DurableState:
    """Per-node durable-log state (modeled as surviving crash-rejoin).

    Holds both the *custodian* side (the log of unacked entries plus the
    per-stream sequence counters this node assigns) and the *site* side
    (the contiguity watermarks and per-subscriber delivery counters a
    match site / sequencer / subscriber advances as entries are
    consumed).  Both sides are write-ahead state: losing the watermarks
    while keeping the log would fork the sequence spaces after a
    rejoin, so they persist together.
    """

    def __init__(self, max_entries: int) -> None:
        self.max_entries = max_entries
        #: token -> CustodyEntry, insertion-ordered (oldest first)
        self.log: "OrderedDict[int, CustodyEntry]" = OrderedDict()
        self._next_tok = 0
        #: high-water mark of ``len(log)`` (the occupancy overhead metric)
        self.high_water = 0
        #: number of entries evicted by the budget (mirrors the counter)
        self.truncated = 0
        # -- custodian-side sequence assignment --------------------------
        #: (stream, key nid) -> last sequence number assigned
        self.kseq: Dict[Tuple[Any, int], int] = {}
        #: (stream, key nid, (sub nid, iid)) -> last mseq assigned (bumped
        #: by the node's custody intake, ``_dur_take_custody``)
        self.mseq: Dict[Tuple[Any, int, Tuple[int, int]], int] = {}
        # -- site-side contiguous consumption ----------------------------
        #: (stream, key nid) -> kseq watermark (all <= w consumed)
        self.site_w: Dict[Tuple[Any, int], int] = {}
        #: (stream, iid) -> mseq watermark at the subscriber
        self.sub_w: Dict[Tuple[Any, int], int] = {}
        # -- causal-sequencer state (only used on the sequencer node) ----
        #: publisher addr -> pseq watermark
        self.seq_w: Dict[int, int] = {}
        # -- publisher-side causal context -------------------------------
        #: publisher addr -> max pseq delivered-or-published here
        self.causal_ctx: Dict[int, int] = {}
        #: what the sequencer already knows of our context (delta deps)
        self.causal_sent: Dict[int, int] = {}
        self.pub_pseq = 0

    # ------------------------------------------------------------------
    def append(
        self,
        kind: str,
        event: Dict[str, Any],
        nid: int,
        iid: Optional[int],
        meta: Dict[str, Any],
        now: float,
    ) -> Tuple[CustodyEntry, Sequence[CustodyEntry]]:
        """Log a new obligation; returns ``(entry, evicted)``.

        ``evicted`` holds the oldest entries pushed out by the
        ``max_entries`` budget (empty while the log is within it) -- the
        caller must count and trace each one (truncation is never
        silent).
        """
        tok = self._next_tok = self._next_tok + 1
        entry = CustodyEntry(tok, kind, event, nid, iid, meta, now)
        log = self.log
        log[tok] = entry
        size = len(log)
        if size > self.high_water:
            self.high_water = size
        if size <= self.max_entries:
            return entry, ()
        evicted: List[CustodyEntry] = []
        while len(log) > self.max_entries:
            _tok, old = log.popitem(last=False)
            self.truncated += 1
            evicted.append(old)
        return entry, evicted

    def ack(self, tok: int) -> Optional[CustodyEntry]:
        """Retire one obligation (idempotent; None when already gone)."""
        return self.log.pop(tok, None)

    def due(self, now: float, interval_ms: float) -> List[CustodyEntry]:
        """Entries whose last send is at least ``interval_ms`` old."""
        return [e for e in self.log.values() if now - e.last_sent >= interval_ms]

    def next_kseq(self, stream: Any, nid: int) -> int:
        key = (stream, nid)
        self.kseq[key] = self.kseq.get(key, 0) + 1
        return self.kseq[key]

    # ------------------------------------------------------------------
    # Arc migration: the per-key slices travel with the entity
    # ------------------------------------------------------------------
    def export_site_state(self, moved_nids: set) -> Dict[str, list]:
        """Extract the site-side state of rendezvous keys leaving us.

        Watermarks and per-subscriber mseq counters for the moved keys
        are removed locally and returned for the ``ps_handoff`` payload;
        keeping them here would fork the sequence space if the key ever
        routed back.  Custody entries stay with their custodian (acks
        are addressed to it), and parked out-of-order packets are
        volatile -- their custodians redeliver to the new owner.
        """
        site_w = []
        for (stream, nid) in list(self.site_w):
            if nid in moved_nids:
                site_w.append([list(stream), nid, self.site_w.pop((stream, nid))])
        mseq = []
        for (stream, nid, subid) in list(self.mseq):
            if nid in moved_nids:
                mseq.append(
                    [list(stream), nid, list(subid),
                     self.mseq.pop((stream, nid, subid))]
                )
        return {"site_w": site_w, "mseq": mseq}

    def absorb_site_state(self, exported: Dict[str, list]) -> None:
        """Adopt site-side state shipped by ``export_site_state``.

        Max-merge: a duplicate handoff (retransmitted packet) or a
        racing local advance must never move a watermark backwards.
        """
        for stream, nid, w in exported.get("site_w", ()):
            key = (tuple(stream), nid)
            if w > self.site_w.get(key, 0):
                self.site_w[key] = w
        for stream, nid, subid, m in exported.get("mseq", ()):
            key = (tuple(stream), nid, tuple(subid))
            if m > self.mseq.get(key, 0):
                self.mseq[key] = m
