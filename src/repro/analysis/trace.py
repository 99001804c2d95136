"""Event-dissemination tracing.

The paper's delivery mechanism is invisible in aggregate metrics: an
event fans out through "the embedded trees in the underlying DHT".
With ``HyperSubSystem.tracing = True`` every forwarded event packet
records an edge, and :func:`render_dissemination_tree` draws the
resulting tree -- which nodes relayed, which matched, where the SubID
lists grew and shrank.  Used by ``examples/trace_event.py`` and
invaluable when a delivery test fails.

``HyperSubSystem.tracing`` is the one switch the nodes read: under a
telemetry session the system takes the session's ``tracing`` flag when
it attaches, and the ``forward`` spans in
:mod:`repro.telemetry.tracing` are written by the same call site in
``repro.core.node`` as ``EventRecord.edges`` -- an exported ``trace.jsonl``
reconstructs exactly these trees
(:func:`~repro.telemetry.tracing.edges_from_spans`), and
``python -m repro trace --event N`` renders the full causal view
(matches, retransmissions, failover reroutes included).

Trees explain a run; they do not judge it.  Whether deliveries were
complete, exactly-once and in FIFO / causal order is decided by
:func:`repro.oracle.judge` alone.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple


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
