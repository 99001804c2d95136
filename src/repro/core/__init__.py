"""HyperSub: content-based publish/subscribe over a DHT (the paper's core).

Public API
----------

* :class:`~repro.core.scheme.Attribute`, :class:`~repro.core.scheme.Scheme`
  -- declare a pub/sub scheme (Section 3.1).
* :class:`~repro.core.event.Event`, :class:`~repro.core.subscription.Subscription`
  -- the data model: events are points, subscriptions are hyper-rectangles.
* :class:`~repro.core.config.HyperSubConfig` -- knobs (base, code bits,
  rotation, dynamic migration, PNS, delivery guarantees).
* :class:`~repro.core.system.HyperSubSystem` -- the facade: build a
  Chord overlay, register schemes, install subscriptions, publish events,
  collect the paper's metrics.
"""

from repro.core.scheme import Attribute, Scheme, string_prefix_to_range
from repro.core.event import Event
from repro.core.subscription import Predicate, SubID, Subscription
from repro.core.zones import ContentZone, zone_key
from repro.core.lph import lph_box, lph_point
from repro.core.config import HyperSubConfig
from repro.core.system import HyperSubSystem, EventRecord

__all__ = [
    "Attribute",
    "Scheme",
    "string_prefix_to_range",
    "Event",
    "Predicate",
    "SubID",
    "Subscription",
    "ContentZone",
    "zone_key",
    "lph_box",
    "lph_point",
    "HyperSubConfig",
    "HyperSubSystem",
    "EventRecord",
]
