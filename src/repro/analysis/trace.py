"""Event-dissemination tracing.

The paper's delivery mechanism is invisible in aggregate metrics: an
event fans out through "the embedded trees in the underlying DHT".
With ``HyperSubSystem.tracing = True`` every forwarded event packet
records an edge, and :func:`render_dissemination_tree` draws the
resulting tree -- which nodes relayed, which matched, where the SubID
lists grew and shrank.  Used by ``examples/trace_event.py`` and
invaluable when a delivery test fails.

Since the telemetry subsystem landed, ``EventRecord.edges`` and the
``forward`` spans in :mod:`repro.telemetry.tracing` are written by the
same call site in ``repro.core.node`` -- an exported ``trace.jsonl``
reconstructs exactly these trees
(:func:`~repro.telemetry.tracing.edges_from_spans`), and
``python -m repro trace --event N`` renders the full causal view
(matches, retransmissions, failover reroutes included).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple


def render_dissemination_tree(record, max_depth: int = 32) -> str:
    """ASCII tree of one event's dissemination.

    ``record`` is an :class:`~repro.core.system.EventRecord` whose
    ``edges`` were captured (``system.tracing`` must have been on when
    the event was published).  Each line shows a node address, how many
    SubIDs it forwarded on that edge, and any local deliveries.
    """
    if not record.edges and not record.deliveries:
        return f"event {record.event_id}: no traffic (nothing matched)"
    children: Dict[int, List[Tuple[int, int]]] = {}
    for src, dst, n_entries in record.edges:
        children.setdefault(src, []).append((dst, n_entries))
    # Edge arrival order depends on packet interleaving; sorting each
    # sibling list by destination address makes the rendering a stable
    # artifact (diffable across runs of the same seed).
    for kids in children.values():
        kids.sort()
    delivered_at: Dict[int, int] = {}
    for _subid, addr, _hops, _lat in record.deliveries:
        delivered_at[addr] = delivered_at.get(addr, 0) + 1

    gave_up = (
        f", {record.gave_up_subids} subids abandoned"
        if getattr(record, "gave_up_subids", 0)
        else ""
    )
    lines: List[str] = [
        f"event {record.event_id} from node {record.publisher_addr} "
        f"({record.matched} deliveries, {record.messages} messages, "
        f"{record.bytes:.0f} bytes{gave_up})"
    ]
    seen: Set[int] = set()

    def visit(addr: int, entries: int, prefix: str, last: bool, depth: int) -> None:
        connector = "`-" if last else "|-"
        marks = []
        if entries:
            marks.append(f"{entries} subid{'s' if entries != 1 else ''}")
        if addr in delivered_at:
            marks.append(f"deliver x{delivered_at[addr]}")
        if addr in seen:
            marks.append("(seen)")
        label = f"node {addr}" + (f"  [{', '.join(marks)}]" if marks else "")
        lines.append(f"{prefix}{connector} {label}")
        if addr in seen or depth >= max_depth:
            return
        seen.add(addr)
        kids = children.get(addr, [])
        ext = "   " if last else "|  "
        for i, (dst, n) in enumerate(kids):
            visit(dst, n, prefix + ext, i == len(kids) - 1, depth + 1)

    root = record.publisher_addr
    seen.add(root)
    root_marks = f"  [deliver x{delivered_at[root]}]" if root in delivered_at else ""
    lines.append(f"node {root} (publisher){root_marks}")
    kids = children.get(root, [])
    for i, (dst, n) in enumerate(kids):
        visit(dst, n, "", i == len(kids) - 1, 1)
    return "\n".join(lines)


def _span_view(span) -> Tuple[str, float, int, int, int, dict]:
    """Normalise a :class:`Span` object or an exported JSONL dict."""
    if isinstance(span, dict):
        return (
            span.get("kind"),
            span.get("t", 0.0),
            span.get("sid", 0),
            span.get("node"),
            span.get("event"),
            span.get("attrs", {}),
        )
    return span.kind, span.t, span.sid, span.node, span.event, span.attrs


def _order_views(spans: Iterable) -> Tuple[dict, dict]:
    """Replay a trace into per-event publish info and per-subscriber
    delivery sequences.

    Returns ``(publishes, deliveries)``: ``publishes`` maps event id to
    ``{"pub", "t", "sid", "pseq", "deps"}`` from its ``publish`` span;
    ``deliveries`` maps ``(nid, iid)`` to the event ids delivered to
    that subscription, in delivery order (simulated time, then span id
    -- span ids are allocated in execution order, so ties within one
    simulated instant resolve to the true processing order).
    """
    publishes: Dict[int, dict] = {}
    deliveries: Dict[Tuple[int, int], List[Tuple[float, int, int]]] = {}
    for span in spans:
        kind, t, sid, node, event, attrs = _span_view(span)
        if kind == "publish":
            publishes[event] = {
                "pub": node,
                "t": t,
                "sid": sid,
                "pseq": attrs.get("pseq"),
                "deps": attrs.get("deps") or [],
            }
        elif kind == "deliver":
            subid = tuple(attrs["subid"])
            deliveries.setdefault(subid, []).append((t, sid, event))
    ordered = {
        subid: [eid for _t, _sid, eid in sorted(seq)]
        for subid, seq in deliveries.items()
    }
    return publishes, ordered


def check_fifo_order(spans: Iterable) -> List[dict]:
    """Publisher-FIFO oracle over a span trace.

    A violation is a subscription that observed two events of the same
    publisher out of publish order.  Publish order is reconstructed
    from the ``publish`` spans (time, then span id), so the oracle is
    protocol-independent: it never looks at sequence numbers the
    implementation may have assigned.
    """
    publishes, deliveries = _order_views(spans)
    index: Dict[int, Tuple[int, int]] = {}
    counters: Dict[int, int] = {}
    for eid, info in sorted(
        publishes.items(), key=lambda kv: (kv[1]["t"], kv[1]["sid"])
    ):
        pub = info["pub"]
        counters[pub] = counters.get(pub, 0) + 1
        index[eid] = (pub, counters[pub])
    violations: List[dict] = []
    for subid, seq in deliveries.items():
        high: Dict[int, Tuple[int, int]] = {}  # pub -> (index, event)
        for eid in seq:
            if eid not in index:
                continue  # delivered event published outside the trace
            pub, i = index[eid]
            prev = high.get(pub)
            if prev is not None and i < prev[0]:
                violations.append(
                    {
                        "check": "fifo",
                        "subid": list(subid),
                        "publisher": pub,
                        "event": eid,
                        "after_event": prev[1],
                    }
                )
            if prev is None or i > prev[0]:
                high[pub] = (i, eid)
    return violations


def check_causal_order(spans: Iterable) -> List[dict]:
    """Causal-order oracle over a span trace.

    Requires the publish spans to carry ``pseq``/``deps`` attributes
    (durable causal mode records them).  Checks, per subscription:

    * publisher-FIFO by ``pseq`` (causal order contains FIFO), and
    * for every delivered event ``e`` with a dependency ``(a, n)``: no
      event of publisher ``a`` with ``pseq <= n`` may be delivered
      *after* ``e`` -- the dependency happened-before ``e``, so a
      subscription receiving both must see it first.
    """
    publishes, deliveries = _order_views(spans)
    violations: List[dict] = []
    for subid, seq in deliveries.items():
        infos = [(eid, publishes.get(eid)) for eid in seq]
        high: Dict[int, Tuple[int, int]] = {}
        for eid, info in infos:
            if info is None or info["pseq"] is None:
                continue
            pub, pseq = info["pub"], info["pseq"]
            prev = high.get(pub)
            if prev is not None and pseq < prev[0]:
                violations.append(
                    {
                        "check": "causal-fifo",
                        "subid": list(subid),
                        "publisher": pub,
                        "event": eid,
                        "after_event": prev[1],
                    }
                )
            if prev is None or pseq > prev[0]:
                high[pub] = (pseq, eid)
        for i, (eid, info) in enumerate(infos):
            if info is None:
                continue
            for a, n in info["deps"]:
                for later_eid, later in infos[i + 1:]:
                    if (
                        later is not None
                        and later["pub"] == a
                        and later["pseq"] is not None
                        and later["pseq"] <= n
                    ):
                        violations.append(
                            {
                                "check": "causal-dep",
                                "subid": list(subid),
                                "event": eid,
                                "dep": [a, n],
                                "delivered_after": later_eid,
                            }
                        )
    return violations


def ordering_violations(spans: Iterable, ordering: str) -> List[dict]:
    """Dispatch to the oracle matching a run's ``config.ordering``."""
    if ordering == "fifo":
        return check_fifo_order(spans)
    if ordering == "causal":
        return check_causal_order(spans)
    return []


def tree_stats(record) -> Dict[str, float]:
    """Fan-out statistics of one event's dissemination tree."""
    children: Dict[int, int] = {}
    nodes: Set[int] = {record.publisher_addr}
    for src, dst, _n in record.edges:
        children[src] = children.get(src, 0) + 1
        nodes.add(src)
        nodes.add(dst)
    fanouts = list(children.values())
    return {
        "nodes_touched": len(nodes),
        "relay_nodes": len(children),
        "max_fanout": max(fanouts, default=0),
        "mean_fanout": sum(fanouts) / len(fanouts) if fanouts else 0.0,
    }
