"""HyperSub: a large-scale, decentralized content-based publish/subscribe
infrastructure (reproduction of Yang, Zhu & Hu, ICPP 2007).

Quick tour::

    from repro import (
        Attribute, Scheme, Subscription, Predicate, Event,
        HyperSubConfig, HyperSubSystem,
    )

    system = HyperSubSystem(num_nodes=1000, config=HyperSubConfig())
    scheme = Scheme("quotes", [Attribute("price", 0, 1000)])
    system.add_scheme(scheme)
    system.subscribe(3, Subscription(scheme, [Predicate("price", 10, 20)]))
    system.finish_setup()
    system.publish(7, Event(scheme, {"price": 15}))
    system.run_until_idle()

Package map:

* :mod:`repro.core` -- the paper's contribution: locality-preserving
  hashing, content zones, subscription installation, embedded-tree
  event delivery, load balancing, the system facade.
* :mod:`repro.dht` -- Chord (with PNS), HyperSub's overlay, and Pastry,
  the Scribe baseline's.
* :mod:`repro.sim` -- the discrete-event packet-level simulator.
* :mod:`repro.workloads` -- the Table-1 Zipf workload.
* :mod:`repro.baselines` -- Meghdoot (over CAN) and a central
  rendezvous comparator.
* :mod:`repro.experiments` -- drivers that regenerate every table and
  figure of the paper's evaluation.
"""

from repro.core import (
    Attribute,
    Event,
    HyperSubConfig,
    HyperSubSystem,
    Predicate,
    Scheme,
    SubID,
    Subscription,
)

__version__ = "1.0.0"

__all__ = [
    "Attribute",
    "Event",
    "HyperSubConfig",
    "HyperSubSystem",
    "Predicate",
    "Scheme",
    "SubID",
    "Subscription",
    "__version__",
]
