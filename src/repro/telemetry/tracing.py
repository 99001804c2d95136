"""Causal span tracing on the simulator clock.

Aggregate metrics (Figures 2-5) say *what* a run cost; spans say *why*.
Every publish opens a root span; every forwarded packet, matching
step, delivery, retransmission, failover reroute and anti-entropy
exchange records a child span with parent linkage, all timestamped on
the simulated clock.  The result is a causal tree per event that can
be exported as JSONL (one span per line), reloaded, and rendered --
``python -m repro trace --event N`` does exactly that.

Span kinds emitted by the stack:

==============  ======================================================
``publish``     root of one event's tree (node = publisher)
``forward``     one aggregated event packet on one overlay link
                (attrs: ``src``, ``dst``, ``entries``, ``bytes``)
``match``       a surrogate matched a repository against the event
                (attrs: ``entries`` = SubIDs produced)
``deliver``     a subscriber received the event (attrs: ``subid``,
                ``hops``, ``latency_ms``)
``retransmit``  the reliable transport resent an unacked packet
``failover``    retry exhaustion: SubIDs rerouted around a dead hop
                (attrs: ``dead``, ``budget``)
``give_up``     the transport abandoned a packet (attrs: ``entries``,
                ``cause`` in ``retries|failover|ttl|shed``)
``durable_redeliver``  a custody log re-sent an unacked obligation
                (attrs: ``entry_kind``, ``attempt``; delivery
                guarantees extension, docs/GUARANTEES.md)
``durable_truncate``   the custody-log budget evicted an entry -- a
                counted, permanent loss (attrs: ``entry_kind``)
``ae_digest``   anti-entropy digest offered to a standby peer
``ae_fill``     anti-entropy diff shipped back to the primary
``fault``       a :class:`~repro.faults.FaultSchedule` action fired
``shed``        admission control shed a packet from a full ingress
                queue (attrs: ``msg_kind``, ``src``)
``busy``        a sender honoured a ``ps_busy`` NACK (attrs: ``dst``,
                ``backoff_ms``)
==============  ======================================================

``forward`` spans double as the dissemination-tree edge store:
:func:`edges_from_spans` reconstructs exactly the edge set that
:class:`~repro.core.system.EventRecord` collects, because both are
written by the same call site in ``repro.core.node``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np


def _json_default(obj: Any) -> Any:
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return str(obj)


@dataclass
class Span:
    """One traced operation, pinned to the simulated clock."""

    sid: int
    kind: str
    t: float
    #: network address of the node that performed the operation
    node: Optional[int] = None
    #: event id this span belongs to (None for AE / fault spans)
    event: Optional[int] = None
    parent: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"sid": self.sid, "kind": self.kind, "t": self.t}
        if self.node is not None:
            out["node"] = self.node
        if self.event is not None:
            out["event"] = self.event
        if self.parent is not None:
            out["parent"] = self.parent
        if self.attrs:
            out["attrs"] = self.attrs
        return out


class Tracer:
    """Append-only span store for one telemetry session.

    ``max_spans`` bounds memory on huge runs: past the cap new spans
    are counted in :attr:`dropped` instead of stored (a child of a
    dropped span records ``parent=None``, which renderers treat as an
    orphan root).
    """

    def __init__(self, max_spans: int = 2_000_000) -> None:
        self.spans: List[Span] = []
        self.max_spans = max_spans
        self.dropped = 0
        self._next_sid = 0

    def span(
        self,
        kind: str,
        t: float,
        node: Optional[int] = None,
        event: Optional[int] = None,
        parent: Optional[int] = None,
        **attrs: Any,
    ) -> Optional[int]:
        """Record one span; returns its id (None once the cap is hit)."""
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return None
        self._next_sid += 1
        sid = self._next_sid
        self.spans.append(
            Span(sid=sid, kind=kind, t=float(t), node=node, event=event,
                 parent=parent, attrs=attrs)
        )
        return sid

    def __len__(self) -> int:
        return len(self.spans)

    # -- queries ----------------------------------------------------------
    def event_ids(self) -> List[int]:
        return sorted({s.event for s in self.spans if s.event is not None})

    # -- persistence -------------------------------------------------------
    def write_jsonl(self, path) -> int:
        """One span per line; returns the number of lines written."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict(), default=_json_default))
                fh.write("\n")
        return len(self.spans)


def read_jsonl(path) -> List[Dict[str, Any]]:
    """Load a trace written by :meth:`Tracer.write_jsonl` (plain dicts)."""
    out: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out


# ----------------------------------------------------------------------
# Operations over exported spans (plain dicts, as read_jsonl returns)
# ----------------------------------------------------------------------
def spans_for_event(spans: Iterable[Dict], event_id: int) -> List[Dict]:
    return [s for s in spans if s.get("event") == event_id]


def edges_from_spans(
    spans: Iterable[Dict], event_id: int
) -> List[Tuple[int, int, int]]:
    """Dissemination edges ``(src, dst, n_entries)`` of one event from
    exported spans -- the edge set :class:`EventRecord.edges` holds."""
    return [
        (s["attrs"]["src"], s["attrs"]["dst"], s["attrs"]["entries"])
        for s in spans
        if s.get("event") == event_id and s.get("kind") == "forward"
    ]


def _span_label(s: Dict) -> str:
    kind = s.get("kind", "?")
    attrs = s.get("attrs", {})
    node = s.get("node")
    t = s.get("t", 0.0)
    if kind == "publish":
        core = f"publish @ node {node}"
    elif kind == "forward":
        core = (
            f"forward {attrs.get('src')} -> {attrs.get('dst')} "
            f"[{attrs.get('entries')} subids, {attrs.get('bytes', 0)}B]"
        )
    elif kind == "match":
        core = f"match @ node {node} -> {attrs.get('entries')} subids"
    elif kind == "deliver":
        core = (
            f"deliver @ node {node} subid={tuple(attrs.get('subid', ()))} "
            f"hops={attrs.get('hops')} latency={attrs.get('latency_ms', 0):.1f}ms"
        )
    elif kind == "failover":
        core = f"failover @ node {node} around dead {attrs.get('dead')}"
    elif kind == "retransmit":
        core = f"retransmit @ node {node} -> {attrs.get('dst')}"
    elif kind == "give_up":
        core = f"give_up @ node {node} [{attrs.get('entries')} subids]"
    else:
        extra = ", ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
        core = f"{kind} @ node {node}" + (f" [{extra}]" if extra else "")
    return f"{core}  t={t:.1f}ms"


def render_span_tree(
    spans: Sequence[Dict], event_id: int, max_spans: int = 4000
) -> str:
    """ASCII rendering of one event's causal span tree.

    Children are ordered by span id (creation order, deterministic for
    a fixed seed); spans whose parent was not recorded (trace cap, or
    parent filtered out) are promoted to roots.
    """
    ev_spans = spans_for_event(spans, event_id)
    if not ev_spans:
        return f"event {event_id}: no spans in trace"
    by_sid = {s["sid"]: s for s in ev_spans}
    children: Dict[Optional[int], List[Dict]] = {}
    for s in sorted(ev_spans, key=lambda s: s["sid"]):
        parent = s.get("parent")
        if parent is not None and parent not in by_sid:
            parent = None
        children.setdefault(parent, []).append(s)

    lines = [f"event {event_id}: {len(ev_spans)} spans"]
    budget = [max_spans]

    def visit(span: Dict, prefix: str, last: bool) -> None:
        if budget[0] <= 0:
            return
        budget[0] -= 1
        connector = "`-" if last else "|-"
        lines.append(f"{prefix}{connector} {_span_label(span)}")
        kids = children.get(span["sid"], [])
        ext = "   " if last else "|  "
        for i, kid in enumerate(kids):
            visit(kid, prefix + ext, i == len(kids) - 1)

    roots = children.get(None, [])
    for i, root in enumerate(roots):
        if i == 0 and root.get("kind") == "publish":
            lines.append(_span_label(root))
            kids = children.get(root["sid"], [])
            for j, kid in enumerate(kids):
                visit(kid, "", j == len(kids) - 1)
        else:
            visit(root, "", i == len(roots) - 1)
    if budget[0] <= 0:
        lines.append(f"... truncated at {max_spans} spans")
    return "\n".join(lines)
