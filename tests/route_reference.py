"""The uncached route decision, as the reference cached runs are
compared against: nodes that never remember an answer recompute
``is_responsible`` / ``next_hop_addr`` for every Algorithm-5 entry."""


class NeverRemembers(dict):
    """A route-decision cache that drops every write."""

    def __setitem__(self, key, value) -> None:
        pass


def forget_routes(system) -> None:
    """Make every entry on every node of ``system`` take ``_route_miss``."""
    for node in system.nodes:
        node._rc = NeverRemembers()
