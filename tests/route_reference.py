"""The route decision from the tests' side: the uncached reference
the cached runs are compared against -- nodes that never remember an
answer recompute ``is_responsible`` / ``next_hop_addr`` for every
Algorithm-5 entry -- one entry driven through the inline cache, and the
linear routing-state scan Chord's bisect router answers like."""

from repro.dht.idspace import cw_distance, id_in_interval


def closest_preceding_linear(node, key):
    """``ChordNode._closest_preceding`` by a linear scan over the node's
    raw routing state (fingers first, then successors, deduplicated by
    id): the entry strictly inside ``(node, key)`` with the largest
    clockwise progress, or None."""
    seen = {}
    for ent_id, ent_addr in node._fingers.values():
        seen.setdefault(ent_id, ent_addr)
    for ent_id, ent_addr in node._successors:
        seen.setdefault(ent_id, ent_addr)
    best = None
    best_dist = -1
    for ent_id, ent_addr in seen.items():
        if id_in_interval(ent_id, node.node_id, key):
            d = cw_distance(node.node_id, ent_id)
            if d > best_dist:
                best = (ent_id, ent_addr)
                best_dist = d
    return best


class NeverRemembers(dict):
    """A route-decision cache that drops every write."""

    def __setitem__(self, key, value) -> None:
        pass


def forget_routes(system) -> None:
    """Make every entry on every node of ``system`` take ``_route_miss``."""
    for node in system.nodes:
        node._rc = NeverRemembers()


def route_once(node, key):
    """Offer one entry for ``key`` to Algorithm 5's inline route cache:
    a self-addressed one-entry packet through ``node._process_event``.
    The packet names no scheme, so wherever it ends up it matches
    nothing.  Returns the address it was forwarded to, ``None`` when it
    was not (served here, or unroutable)."""
    net = node.network
    real_send = net.send
    sent = []

    def send(msg):
        sent.append(msg.dst)
        real_send(msg)

    net.send = send
    try:
        node._process_event(
            node._local_event(
                {"event_id": -1, "scheme": "-", "point": None},
                [(key, None)], 0, 0.0, 0.0, None,
            )
        )
    finally:
        del net.send
    return sent[0] if sent else None
