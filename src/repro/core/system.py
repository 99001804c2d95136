"""System facade and measurement plumbing.

:class:`HyperSubSystem` owns the simulator, the network, the overlay
and the scheme registry, and exposes the user-level operations:
``add_scheme``, ``subscribe``, ``publish``.  :class:`Metrics` collects
exactly the quantities the paper's evaluation reports (Section 5.1):
per-event max hops / max latency / bandwidth cost and matched counts,
plus per-node load and in/out bandwidth (the latter from the network's
byte counters).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import HyperSubConfig
from repro.core.event import Event
from repro.core.matching import BoxStore
from repro.core.node import CustodyCohort, HyperSubChordNode
from repro.core.scheme import Scheme
from repro.core.subscheme import (
    PubSubEntity,
    build_entities,
    entity_for_subscription,
)
from repro.core.subscription import SubID, Subscription
from repro.core.transport import REL_EPOCH_BITS
from repro.core.zones import ContentZone
from repro.dht.chord import build_chord_overlay
from repro.dht.idspace import random_ids
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.stats import Distribution
from repro.sim.topology import KingLikeTopology, Topology
from repro.telemetry.session import current_session


@dataclass
class EventRecord:
    """Everything measured about one published event."""

    event_id: int
    scheme: str
    publisher_addr: int
    publish_time: float
    bytes: float = 0.0
    messages: int = 0
    #: (src addr, dst addr, #subids) per forwarded packet; only filled
    #: while the owning system's ``tracing`` flag is on
    edges: List[Tuple[int, int, int]] = field(default_factory=list)
    #: SubIDs abandoned by the reliable transport for this event (retry
    #: exhaustion with no surviving failover route, or a TTL drop)
    gave_up_subids: int = 0
    #: the deliveries, flat: subid, subscriber addr, hops, latency ms of
    #: the first, then of the second, ... (four slots of one list per
    #: delivery instead of a tuple each; ``Metrics.on_delivery`` writes)
    _d: list = field(default_factory=list, init=False, repr=False)

    @property
    def deliveries(self) -> List[Tuple[SubID, int, int, float]]:
        """``(subid, subscriber addr, hops, latency ms)`` per delivery,
        in arrival order."""
        d = self._d
        return list(zip(d[0::4], d[1::4], d[2::4], d[3::4]))

    @property
    def matched(self) -> int:
        return len(self._d) // 4

    @property
    def max_hops(self) -> int:
        return max(self._d[2::4], default=0)

    @property
    def max_latency_ms(self) -> float:
        return max(self._d[3::4], default=0.0)


class Metrics:
    """Run-wide collection of the paper's cost metrics."""

    def __init__(self) -> None:
        self.records: Dict[int, EventRecord] = {}
        self.subscriptions_by_scheme: Dict[str, int] = {}
        self._next_event_id = 0
        #: deliveries of the records ``clear_events`` dropped
        self._cleared_deliveries = 0

    # -- population -----------------------------------------------------
    def count_subscription(self, scheme_name: str, delta: int = 1) -> None:
        """Count an installed (``delta=1``) or withdrawn (``-1``)
        subscription of ``scheme_name``."""
        self.subscriptions_by_scheme[scheme_name] = (
            self.subscriptions_by_scheme.get(scheme_name, 0) + delta
        )

    @property
    def total_subscriptions(self) -> int:
        return sum(self.subscriptions_by_scheme.values())

    def new_event(self, event: Event, publisher_addr: int, now: float) -> int:
        self._next_event_id += 1
        eid = self._next_event_id
        self.records[eid] = EventRecord(
            event_id=eid,
            scheme=event.scheme_name,
            publisher_addr=publisher_addr,
            publish_time=now,
        )
        return eid

    def on_event_message(
        self, event_id: int, size_bytes: int, n_packets: int = 1
    ) -> None:
        """Charge ``n_packets`` packets of ``size_bytes`` bytes in all to
        the event's traffic (a hop that fans out reports its packets
        once)."""
        try:
            rec = self.records[event_id]
        except KeyError:  # records were cleared while the event was in flight
            return
        rec.bytes += size_bytes
        rec.messages += n_packets

    def on_event_edge(
        self, event_id: int, src: int, dst: int, n_entries: int
    ) -> None:
        rec = self.records.get(event_id)
        if rec is not None:
            rec.edges.append((src, dst, n_entries))

    def on_give_up(self, event_id: int, n_entries: int) -> None:
        """The transport abandoned ``n_entries`` SubIDs of this event."""
        rec = self.records.get(event_id)
        if rec is not None:
            rec.gave_up_subids += n_entries

    def on_delivery(
        self,
        event_id: int,
        subid: SubID,
        subscriber_addr: int,
        hops: int,
        latency_ms: float,
    ) -> None:
        rec = self.records.get(event_id)
        if rec is not None:
            rec._d += (subid, subscriber_addr, hops, latency_ms)

    def clear_events(self) -> None:
        """Forget event records (subscription counters and
        :meth:`counts` persist)."""
        self._cleared_deliveries = self.counts()["events.delivered"]
        self.records.clear()

    def counts(self) -> Dict[str, int]:
        """Publishes and deliveries since this system was built, under
        their manifest names (read at phase boundaries, never lowered)."""
        return {
            "events.published": self._next_event_id,
            "events.delivered": self._cleared_deliveries
            + sum(r.matched for r in self.records.values()),
        }

    # -- summaries (the series the figures plot) -------------------------
    def matched_percentages(self) -> Distribution:
        total = max(self.total_subscriptions, 1)
        return Distribution.from_values(
            100.0 * r.matched / total for r in self.records.values()
        )

    def max_hops(self) -> Distribution:
        return Distribution.from_values(r.max_hops for r in self.records.values())

    def max_latencies(self) -> Distribution:
        return Distribution.from_values(
            r.max_latency_ms for r in self.records.values()
        )

    def bandwidth_per_event_kb(self) -> Distribution:
        return Distribution.from_values(
            r.bytes / 1024.0 for r in self.records.values()
        )


class HyperSubSystem:
    """A complete HyperSub deployment inside one simulator.

    Typical use::

        system = HyperSubSystem(num_nodes=1740, config=HyperSubConfig())
        system.add_scheme(scheme)
        system.subscribe(addr, Subscription(scheme, [...]))
        system.finish_setup()          # drain installs, reset counters
        system.publish(addr, Event(scheme, {...}))
        system.run_until_idle()
        system.metrics.max_hops().summary()
    """

    def __init__(
        self,
        num_nodes: Optional[int] = None,
        config: Optional[HyperSubConfig] = None,
        topology: Optional[Topology] = None,
        target_mean_rtt_ms: Optional[float] = None,
        active_nodes: Optional[int] = None,
    ) -> None:
        """``active_nodes`` builds the overlay over just the
        first ``active_nodes`` network addresses; the remaining addresses
        are reserved for :meth:`join_node` (live membership extension)."""
        self.config = config or HyperSubConfig()
        if topology is None:
            if num_nodes is None:
                raise ValueError("provide num_nodes or a topology")
            kwargs = {}
            if target_mean_rtt_ms is not None:
                kwargs["target_mean_rtt_ms"] = target_mean_rtt_ms
            topology = KingLikeTopology(num_nodes, seed=self.config.seed, **kwargs)
        elif num_nodes is not None and num_nodes != topology.size:
            raise ValueError("num_nodes disagrees with the topology size")
        self.topology = topology
        self.sim = Simulator()
        #: ambient telemetry session (None = observability disabled; the
        #: hot paths guard on this single attribute, so a disabled run
        #: pays one attribute load per packet)
        self.telemetry = current_session()
        self.network = Network(self.sim, topology)
        #: every retransmission timer of the fleet waits the same
        #: ``retransmit_timeout_ms``, so they share one timeout lane
        self.retransmit_lane = self.sim.timeout_lane(
            self.config.retransmit_timeout_ms
        )
        self.metrics = Metrics()

        self._all_ids = random_ids(self.topology.size, self.config.seed)
        initial = (
            self._all_ids[:active_nodes]
            if active_nodes is not None
            else self._all_ids
        )
        self.nodes, self.ring = build_chord_overlay(
            self.network,
            seed=self.config.seed,
            pns=self.config.pns,
            node_factory=self._node_factory(),
            node_ids=initial,
        )

        if self.config.service_model:
            for node in self.nodes:
                self._apply_service_model(node)

        self.schemes: Dict[str, Scheme] = {}
        self._entities_by_scheme: Dict[str, List[PubSubEntity]] = {}
        self._entity_by_key: Dict[str, PubSubEntity] = {}
        #: shallow zones (level < direct_rendezvous_levels) that hold at
        #: least one registration.  With R levels there are fewer than
        #: base**R such zones per entity, so a real deployment would keep
        #: this as a tiny bitmap gossiped or piggybacked on DHT
        #: maintenance traffic (the paper's Section 6 piggybacking
        #: suggestion); the simulation models it as an oracle because its
        #: refresh traffic is negligible next to event delivery.
        #: Occupancy is monotone (never unset), like summary filters.
        self._shallow_occupied: set = set()
        #: optional application callback: fn(addr, event_id, subid)
        self.on_deliver: Optional[Callable[[int, int, SubID], None]] = None
        #: registration traffic by provenance kind ("sub"/"marker"/...):
        #: kind -> [dispatched registrations, wire bytes].  Counted in
        #: ``_dispatch_register``/``_dispatch_unregister`` on both the
        #: fast and the simulated install path, so summary-filter
        #: bytes-on-the-wire are measurable even when installation does
        #: not ride simulated messages (bench fig3 micro).
        self.install_traffic: Dict[str, List[int]] = {}
        #: causal-mode sequencer addresses, pinned per scheme (delivery-
        #: guarantees extension): ring changes must not move a sequencer
        #: mid-run or its per-publisher watermarks would fork.
        self._sequencers: Dict[str, int] = {}
        #: fleet-wide redelivery switch; rejoining nodes consult it so a
        #: crash-rejoin re-arms its (durable) custody scan.
        self._durable_redelivery = False
        #: fleet-wide anti-entropy switch, consulted the same way
        self._anti_entropy = False
        #: the one tracing switch the nodes read: record per-event
        #: dissemination edges (see repro.analysis.trace) and, under a
        #: session, spans
        self.tracing: bool = False
        if self.telemetry is not None:
            # Under a session, edge capture rides the span trace -- keep
            # EventRecord.edges in lockstep so both views agree.
            self.tracing = self.telemetry.tracing
            #: this system's share of the session's counters
            self._telemetry_index = self.telemetry.attach_system(self)

    def _apply_service_model(self, node) -> None:
        """Switch ``node`` to finite service (bounded ingress queue,
        configured service rate scaled by the node's capacity)."""
        node.service_rate = self.config.service_rate_msgs_per_ms
        node.queue_capacity = self.config.ingress_queue_capacity

    def _node_factory(self):
        def factory(addr, node_id, network, **kwargs):
            return HyperSubChordNode(addr, node_id, network, system=self, **kwargs)

        return factory

    # ------------------------------------------------------------------
    # Scheme registry
    # ------------------------------------------------------------------
    def add_scheme(
        self,
        scheme: Scheme,
        subschemes: Optional[Sequence[Sequence[str]]] = None,
    ) -> List[PubSubEntity]:
        """Register a pub/sub scheme, optionally split into subschemes."""
        if scheme.name in self.schemes:
            raise ValueError(f"scheme {scheme.name!r} already registered")
        entities = build_entities(
            scheme,
            self.config.geometry,
            subschemes=subschemes,
            rotation=self.config.rotation,
        )
        self.schemes[scheme.name] = scheme
        self._entities_by_scheme[scheme.name] = entities
        for ent in entities:
            self._entity_by_key[ent.key] = ent
        return entities

    def scheme(self, name: str) -> Scheme:
        return self.schemes[name]

    def entities_of(self, scheme_name: str) -> List[PubSubEntity]:
        return self._entities_by_scheme[scheme_name]

    def entity(self, key: str) -> PubSubEntity:
        return self._entity_by_key[key]

    def entity_for_subscription(self, sub: Subscription) -> PubSubEntity:
        return entity_for_subscription(
            self._entities_by_scheme[sub.scheme_name], sub
        )

    # ------------------------------------------------------------------
    # Key -> home resolution (global knowledge; setup/fast paths only)
    # ------------------------------------------------------------------
    def home_addr(self, key: int) -> int:
        return self.ring.addr(self.ring.successor(key))

    def node_at_home(self, key: int):
        return self.nodes[self.home_addr(key)]

    def sequencer_addr(self, scheme_name: str) -> int:
        """The scheme's causal sequencer (pinned on first resolution).

        The home of the scheme's rotated root-zone key -- a stable,
        deterministic choice every node computes identically.  Pinning
        matters: the mapping is resolved once and kept even as nodes
        join or fail, because the sequencer's per-publisher watermarks
        (``DurableState.seq_w``) must stay with one incarnation chain.
        A crashed sequencer heals by rejoining (same address, durable
        state restored), with publishers redelivering in the interim.
        """
        addr = self._sequencers.get(scheme_name)
        if addr is None:
            entity = self._entities_by_scheme[scheme_name][0]
            root = ContentZone(0, 0, entity.geometry)
            addr = self.home_addr(entity.rotated_key(root))
            self._sequencers[scheme_name] = addr
        return addr

    # ------------------------------------------------------------------
    # User operations
    # ------------------------------------------------------------------
    def subscribe(self, addr: int, sub: Subscription) -> SubID:
        if sub.scheme_name not in self.schemes:
            raise KeyError(f"unknown scheme {sub.scheme_name!r}")
        return self.nodes[addr].subscribe(sub)

    def unsubscribe(self, addr: int, subid: SubID) -> None:
        self.nodes[addr].unsubscribe(subid)

    def publish(self, addr: int, event: Event) -> int:
        if event.scheme_name not in self.schemes:
            raise KeyError(f"unknown scheme {event.scheme_name!r}")
        return self.nodes[addr].publish(event)

    def schedule_publish(self, at_ms: float, addr: int, event: Event) -> None:
        """Publish at an absolute simulated time (workload drivers)."""
        self.sim.schedule_at(at_ms, self.publish, addr, event)

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    def finish_setup(self) -> None:
        """Drain installation traffic and zero the byte counters.

        Mirrors the paper's methodology: subscriptions are initialised,
        the system stabilises, *then* events are scheduled and measured.
        """
        self.sim.run_until_idle()
        if self.config.ordering == "causal":
            # Pin every scheme's sequencer while the ring is complete
            # and stable -- later churn must not move the total order.
            for name in self.schemes:
                self.sequencer_addr(name)
        self.network.stats.reset()
        self.metrics.clear_events()
        self.sample_telemetry()
        self.sample_memory()

    def run(self, until: Optional[float] = None) -> int:
        n = self.sim.run(until=until)
        self.sample_telemetry()
        return n

    def run_until_idle(self) -> int:
        n = self.sim.run_until_idle()
        self.sample_telemetry()
        return n

    # ------------------------------------------------------------------
    # Telemetry (see repro.telemetry and docs/OBSERVABILITY.md)
    # ------------------------------------------------------------------
    def sample_telemetry(self) -> None:
        """Publish this system's counts and gauges, and snapshot every
        metric.

        Called automatically at phase boundaries (``finish_setup`` and
        whenever ``run``/``run_until_idle`` returns); experiments that
        want a denser sim-time series can arm a periodic sampler::

            system.sim.schedule_every(5_000.0, system.sample_telemetry,
                                      until=t_end)

        No-op when no telemetry session is active.
        """
        tel = self.telemetry
        if tel is None:
            return
        stats = self.network.stats
        counts = {**stats.counts(), **self.metrics.counts()}
        tel.publish_counts(self._telemetry_index, counts, stats.queue_peak)
        loads = self.node_loads()
        mean_load = float(loads.mean()) if len(loads) else 0.0
        imbalance = float(loads.max()) / mean_load if mean_load > 0 else 0.0
        occupied = 0
        chain_depth = 0
        for node in self.nodes:
            if not node.alive():
                continue
            occupied += len(node.zone_repos)
            for repo in node.zone_repos.values():
                if repo.children and repo.zone.level > chain_depth:
                    chain_depth = repo.zone.level
        gauges = {
            "node.load_imbalance": imbalance,
            # live zone repositories across the deployment
            "zone.occupancy": occupied,
            # deepest zone level that pushed surrogate subscriptions --
            # the length of the longest surrogate-subscription chain an
            # event may climb
            "surrogate.chain_depth": chain_depth,
            "repair.bytes": stats.bytes_for(("ps_ae_", "ps_handoff")),
            "event.bytes": stats.bytes_for(("ps_event",)),
            # deepest ingress backlog across alive nodes right now
            # (stays 0 under the seed's infinite-capacity delivery)
            "queue.depth": max(
                (n.ingress_depth for n in self.nodes if n.alive()), default=0
            ),
            # scheduler events still queued, net of cancelled stubs
            "sim.live_events": self.sim.live,
        }
        if self.config.delivery_mode == "durable":
            # unacked custody entries across alive nodes right now --
            # the store-and-forward backlog the durable tier carries
            gauges["durable.log_occupancy"] = sum(
                len(n.durable.log)
                for n in self.nodes
                if n.alive() and n.durable is not None
            )
        tel.publish_gauges(gauges, self.sim.now)

    def sample_memory(self, node_sample: Optional[int] = None):
        """Measure per-subsystem memory and publish it as gauges.

        Deliberately separate from :meth:`sample_telemetry`: the deep
        walk is O(node sample x table size), far too heavy for a
        per-phase hook that some tests call in a tight loop.  It runs
        at ``finish_setup`` (the steady-state footprint of the
        installed subscription/zone tables) and after experiment runs
        that want the loaded footprint.

        Returns the :class:`~repro.telemetry.memory.MemoryReport`, or
        None when no telemetry session is active.
        """
        tel = self.telemetry
        if tel is None:
            return None
        from repro.telemetry.memory import DEFAULT_NODE_SAMPLE, publish_memory

        sample = DEFAULT_NODE_SAMPLE if node_sample is None else node_sample
        return publish_memory(self, node_sample=sample)

    # ------------------------------------------------------------------
    # Load balancing entry points
    # ------------------------------------------------------------------
    def run_migration_rounds(self, rounds: int = 1, stagger_ms: float = 1.0) -> None:
        """Quiescent-phase migration: every node runs `rounds` full
        probe-and-migrate rounds (used between setup and events)."""
        from repro.core.loadbalance import run_static_rounds

        self._refuse_ordered_migration()
        run_static_rounds(self, rounds=rounds, stagger_ms=stagger_ms)

    def start_periodic_migration(self) -> None:
        from repro.core.loadbalance import start_periodic

        self._refuse_ordered_migration()
        start_periodic(self)

    def _refuse_ordered_migration(self) -> None:
        # A migration acceptor relays sub custody without the stream
        # the entry arrived on, so ordered delivery would break.
        if self.config.ordering != "none":
            raise ValueError(
                "Section-4 migration cannot run with "
                f"ordering={self.config.ordering!r}: a migration acceptor "
                "relays custody out of stream order"
            )

    # ------------------------------------------------------------------
    # Observations
    # ------------------------------------------------------------------
    def join_node(self, bootstrap_addr: int = 0):
        """Bring a reserved network address into the overlay live.

        The node runs Chord's join protocol against ``bootstrap_addr``;
        once stabilization makes it the successor of its arc, the old
        owner hands over the rendezvous repositories whose keys moved
        (``ps_handoff``).  Returns the new node's address.  The global
        ring oracle is updated immediately, so avoid fast-path
        subscribe() for keys in the joining arc until the ring settles.
        """
        addr = len(self.nodes)
        if addr >= self.topology.size:
            raise ValueError("no reserved network addresses left")
        node = self._node_factory()(addr, self._all_ids[addr], self.network)
        if self.config.service_model:
            self._apply_service_model(node)
        self.nodes.append(node)
        self.ring.add(node.node_id, addr)
        node.join(self.nodes[bootstrap_addr])
        return addr

    def rejoin_node(self, addr: int, bootstrap_addr: Optional[int] = None) -> int:
        """Bring a *crashed* node back into the overlay (self-healing).

        Crash-stop loses all volatile surrogate state (zone
        repositories, standbys, markers); the replacement process keeps
        only the durable client-side state -- the user's own
        subscription list and the two internal-id counters (subscription
        and marker ids embedded in surrogates across the network must
        never be re-issued).  The
        node re-enters through Chord's join protocol; once stabilization
        slides it back in as its successor's predecessor, the standard
        arc handoff (``ps_handoff``) returns the rendezvous
        repositories of its arc -- which anti-entropy promotion kept
        live on the takeover node -- and subsequent anti-entropy rounds
        restore its standby copies.
        """
        old = self.nodes[addr]
        if old.alive():
            raise ValueError(f"node {addr} is alive; only crashed nodes rejoin")
        self.network.unregister(addr)
        node = self._node_factory()(addr, old.node_id, self.network)
        node.own_subs = dict(old.own_subs)
        node._iid_counter = old._iid_counter
        node._marker_iid_counter = old._marker_iid_counter
        node.capacity = old.capacity
        if self.config.service_model:
            self._apply_service_model(node)
        # New transport incarnation: peers hold (addr, epoch, rseq) dedup
        # entries from the previous life; restarting rseq at 0 under the
        # same epoch would make them ack-and-discard our first packets.
        node._rel_epoch = old._rel_epoch + 1
        if node._rel_epoch >> REL_EPOCH_BITS:
            raise OverflowError(f"node {addr} is out of transport epochs")
        if old.durable is not None:
            # Durable tier: the custody log, its sequence counters and
            # watermarks, the delivered-set and the surrogate state all
            # model write-ahead *disk* -- the replacement process mounts
            # them again.  Without the delivered-set, redeliveries of
            # in-flight custody would double-deliver; without the repos
            # (no replication in ordered mode, k=1), the subscriptions
            # stored here would be gone for good.
            node.durable = old.durable
            node._delivered = old._delivered
            node.zone_repos = old.zone_repos
            node.rendezvous_index = old.rendezvous_index
            node.marker_origin = old.marker_origin
            node.migrated = old.migrated
            node.standby_repos = old.standby_repos
            node.standby_rendezvous = old.standby_rendezvous
            node.standby_markers = old.standby_markers
            # Ring state is NOT durable: until stabilization converges,
            # a stale predecessor can wrap this node's interval around
            # foreign keys -- suppress vacuous custody acks meanwhile.
            node._dur_vacuous_after = (
                self.sim.now + self.config.durable_rejoin_grace_ms
            )
        # Every rejoin gets a neighbor hint (standard Chord crash-
        # recovery practice): the last-known successor list, minus
        # ourselves.  Stale entries are harmless -- suspicion timeouts
        # evict the dead -- but without the hint a same-id rejoin can
        # capture its own join lookup and come back with no usable
        # successor at all, and nothing in the ring ever routes back to
        # a node that took over its own arc (chaos nemesis, flap
        # faults).
        node.successors = [s for s in old.successors if s[0] != node.node_id]
        if node.successors:
            # With a usable hint, stabilization can start healing
            # immediately -- the join lookup refines the picture but its
            # completion must not gate ring recovery.
            node.start_maintenance()
        node.stabilize_interval_ms = old.stabilize_interval_ms
        node.rpc_timeout_ms = old.rpc_timeout_ms
        self.nodes[addr] = node
        if bootstrap_addr is None:
            bootstrap_addr = next(
                a for a, n in enumerate(self.nodes) if n.alive() and a != addr
            )
        node.join(self.nodes[bootstrap_addr])
        # A restart wipes the volatile repositories, and the crash may
        # have been too brief for any failure detector to fire (flap
        # faults): nobody promoted a standby, nobody will hand anything
        # back.  Ask the last-known successors -- the standby holders --
        # to return what they hold.
        node.request_resync()
        if self._anti_entropy:
            node.start_anti_entropy()
        if self._durable_redelivery:
            node.start_durable_redelivery()
        return addr

    # ------------------------------------------------------------------
    # Fleet-wide maintenance / self-healing switches
    # ------------------------------------------------------------------
    def start_maintenance(
        self,
        stabilize_interval_ms: Optional[float] = None,
        rpc_timeout_ms: Optional[float] = None,
    ) -> None:
        """Start periodic overlay maintenance on every alive node.

        ``rpc_timeout_ms`` must exceed the largest RTT between two of
        the system's nodes: a shorter timeout expires on every long link
        before its reply can arrive, so live peers get suspected and
        evicted and events loop around the damaged routing state."""
        if rpc_timeout_ms is not None:
            max_rtt = self.topology.max_rtt_ms()
            if not rpc_timeout_ms > max_rtt:
                raise ValueError(
                    f"rpc_timeout_ms={rpc_timeout_ms} is not above the "
                    f"topology's largest RTT, {max_rtt:.1f} ms"
                )
        for node in self.nodes:
            if not node.alive():
                continue
            if stabilize_interval_ms is not None:
                node.stabilize_interval_ms = stabilize_interval_ms
            if rpc_timeout_ms is not None:
                node.rpc_timeout_ms = rpc_timeout_ms
            node.start_maintenance()

    def stop_maintenance(self) -> None:
        for node in self.nodes:
            node.stop_maintenance()

    def start_anti_entropy(self) -> None:
        """Start periodic anti-entropy repair on every alive node, and on
        every node that rejoins until :meth:`stop_anti_entropy`."""
        if self.config.replication_factor < 2:
            raise ValueError("anti-entropy requires replication_factor > 1")
        self._anti_entropy = True
        for node in self.nodes:
            if node.alive():
                node.start_anti_entropy()

    def stop_anti_entropy(self) -> None:
        self._anti_entropy = False
        for node in self.nodes:
            node.stop_anti_entropy()

    def start_durable_redelivery(self) -> None:
        """Arm the periodic custody-log scan on every alive node that is
        not running one: together they form one cohort, one tick."""
        if self.config.delivery_mode != "durable":
            raise ValueError("config.delivery_mode is not 'durable'")
        self._durable_redelivery = True
        cohort = [
            node for node in self.nodes
            if node.alive() and node.durable is not None
            and node._dur_cohort is None
        ]
        if cohort:
            CustodyCohort(cohort)

    def stop_durable_redelivery(self) -> None:
        self._durable_redelivery = False
        for node in self.nodes:
            node.stop_durable_redelivery()

    def check_invariants(self, **kwargs):
        """Run a mid-simulation audit; see :class:`repro.faults.InvariantChecker`."""
        from repro.faults import InvariantChecker

        return InvariantChecker(**kwargs).check(self)

    def make_store(self, entity: PubSubEntity) -> BoxStore:
        """Subscription store for one zone repo: a
        :class:`~repro.core.matching.BoxStore`."""
        return BoxStore(entity.scheme.dimensions)

    def mark_shallow_occupied(self, repo_key: Tuple[str, int, int]) -> None:
        self._shallow_occupied.add(repo_key)

    def shallow_occupied(self, repo_key: Tuple[str, int, int]) -> bool:
        return repo_key in self._shallow_occupied

    def node_loads(self) -> np.ndarray:
        """Stored-subscription count per node (Figure 4's quantity)."""
        return np.array([n.load() for n in self.nodes], dtype=np.int64)

    def notify_application(self, addr: int, event_id: int, subid: SubID) -> None:
        if self.on_deliver is not None:
            self.on_deliver(addr, event_id, subid)

    def in_bandwidth_kb(self) -> np.ndarray:
        return self.network.stats.in_bytes / 1024.0

    def out_bandwidth_kb(self) -> np.ndarray:
        return self.network.stats.out_bytes / 1024.0

    def route_cache_stats(self) -> Dict[str, float]:
        """Aggregate route-decision cache counters (perf extension).

        Every Algorithm-5 entry is one lookup, whether it ends up
        handled here or forwarded.  ``hit_rate`` is 0.0 before any
        routed entry (no division by zero); the perf ledger pins the
        hits of a fixed run (``python -m repro bench``).
        """
        hits = sum(n.rc_hits for n in self.nodes)
        misses = sum(n.rc_misses for n in self.nodes)
        total = hits + misses
        return {
            "hits": float(hits),
            "misses": float(misses),
            "hit_rate": hits / total if total else 0.0,
        }
