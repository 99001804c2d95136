"""Packet-level message fabric.

``Network.send`` charges bandwidth, looks up the one-way latency from
the topology and schedules delivery on the destination node.  Protocol
layers (DHT, pub/sub, baselines) never talk to the scheduler directly
for messaging -- everything goes through here so byte and hop
accounting stay consistent across systems being compared.

Delivery has two modes per node:

* **infinite capacity** (the seed's behaviour, and the default):
  ``handle_message`` runs the instant the packet arrives;
* **finite service** (overload extension): the packet joins the node's
  bounded ingress queue and is handled when the service loop reaches
  it, one message every ``1 / (service_rate * capacity)`` ms.  A full
  queue sheds (see :meth:`SimNode.enqueue`); every drop is counted by
  cause in :class:`~repro.sim.stats.NetworkStats`.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Dict, Optional

import numpy as np

from repro.sim.engine import Simulator
from repro.sim.messages import Message, event_message_bytes
from repro.sim.stats import NetworkStats
from repro.sim.topology import Topology


#: loss draws taken from the generator per refill of the armed path
LOSS_BLOCK = 1024


class SimNode:
    """Base class for anything attached to the network.

    Subclasses implement :meth:`handle_message`.  ``addr`` is the dense
    network address (an index into the topology), distinct from any
    protocol-level identifier (e.g. a 64-bit Chord ID).
    """

    def __init__(self, addr: int, network: "Network") -> None:
        self.addr = addr
        self.network = network
        self.sim: Simulator = network.sim
        #: relative processing capacity (the heterogeneous-capacity
        #: ratio of Section 4); scales the service rate.
        self.capacity: float = 1.0
        #: finite-service model: messages handled per ms per unit
        #: capacity.  ``None`` keeps the seed's infinite capacity.
        self.service_rate: Optional[float] = None
        #: bound on the ingress queue (``None`` = unbounded).
        self.queue_capacity: Optional[int] = None
        #: gray-failure degradation: service rate is multiplied by this
        #: (1.0 = healthy; a ``slow`` fault sets it into (0, 1)).
        self.slow_factor: float = 1.0
        #: two-band ingress queue: band 0 (control) is served before
        #: band 1 (bulk/event) -- see :meth:`ingress_priority`.  Built
        #: by the first :meth:`enqueue`: an infinite-capacity node never
        #: queues.
        self._ingress_hi: Optional[deque] = None
        self._ingress_lo: Optional[deque] = None
        self._serving = False
        #: high-water mark of the ingress depth over the node's life.
        self.ingress_peak = 0
        #: False once the node crashed (:meth:`fail`).  A rejoin is a new
        #: node object, so nothing sets it back.  ``Network`` reads the
        #: flag on every arrival; :meth:`alive` is the public reader.
        self._alive = True
        network.register(self)

    def send(self, msg: Message) -> None:
        """Convenience wrapper; ``msg.src`` must be this node."""
        if msg.src != self.addr:
            raise ValueError(f"message src {msg.src} != node addr {self.addr}")
        self.network.send(msg)

    def handle_message(self, msg: Message) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def alive(self) -> bool:
        """Whether the node is up; dead nodes drop incoming packets."""
        return self._alive

    def fail(self) -> None:
        """Crash-stop this node (churn experiments)."""
        self._alive = False

    # ------------------------------------------------------------------
    # Finite-service ingress (overload extension)
    # ------------------------------------------------------------------
    @property
    def ingress_depth(self) -> int:
        """Messages currently waiting in the ingress queue."""
        if self._ingress_hi is None:
            return 0
        return len(self._ingress_hi) + len(self._ingress_lo)

    def ingress_priority(self, msg: Message) -> int:
        """Admission band for ``msg``: 0 = control (served first, never
        shed while bulk traffic can be evicted instead), 1 = bulk.  The
        base fabric is priority-blind; protocol nodes override this
        (``TransportMixin`` ranks acks/repair/migration above events
        when overload protection is on)."""
        return 1

    def on_ingress_shed(self, msg: Message) -> None:
        """Hook: ``msg`` was shed on queue overflow (already counted as
        an ``overflow`` drop).  Protocol nodes override this to NACK the
        sender / account the loss; the base fabric just drops."""

    def enqueue(self, msg: Message) -> None:
        """Admit ``msg`` to the bounded ingress queue.

        On overflow the lowest-value victim is shed: an arriving bulk
        message is rejected outright, while an arriving control message
        evicts the *newest* queued bulk message (control outranks
        events).  Every shed packet is counted (``net.dropped.overflow``)
        and reported through :meth:`on_ingress_shed` -- never silent.
        """
        if self._ingress_hi is None:
            self._ingress_hi = deque()
            self._ingress_lo = deque()
        hi = self.ingress_priority(msg) == 0
        cap = self.queue_capacity
        if cap is not None and self.ingress_depth >= cap:
            if hi and self._ingress_lo:
                victim = self._ingress_lo.pop()
            else:
                victim = msg
            self.network.stats.record_drop("overflow")
            self.on_ingress_shed(victim)
            if victim is msg:
                self._pump()
                return
        (self._ingress_hi if hi else self._ingress_lo).append(msg)
        depth = self.ingress_depth
        if depth > self.ingress_peak:
            self.ingress_peak = depth
            self.network.stats.note_queue_depth(depth)
        self._pump()

    def _pump(self) -> None:
        if self._serving or not (self._ingress_hi or self._ingress_lo):
            return
        self._serving = True
        rate = self.service_rate * max(self.capacity * self.slow_factor, 1e-9)
        self.sim.schedule(1.0 / rate, self._service_one)

    def _service_one(self) -> None:
        self._serving = False
        if not self.alive():
            # Crash with queued work: the backlog dies with the node.
            while self._ingress_hi or self._ingress_lo:
                q = self._ingress_hi or self._ingress_lo
                q.popleft()
                self.network.stats.record_drop("dead_dst")
            return
        q = self._ingress_hi if self._ingress_hi else self._ingress_lo
        if q:
            self.handle_message(q.popleft())
        self._pump()


class Network:
    """Delivers messages between registered :class:`SimNode` instances."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        stats: Optional[NetworkStats] = None,
        local_delivery_delay_ms: float = 0.0,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.stats = stats or NetworkStats(topology.size)
        self.local_delivery_delay_ms = local_delivery_delay_ms
        self._nodes: Dict[int, SimNode] = {}
        #: message-handler tables shared among this network's nodes:
        #: the empty one under ``None``, every other under the
        #: registration that grew it (``OverlayNode.register_handler``)
        self.handler_tables: Dict[Optional[tuple], dict] = {None: {}}
        # -- failure injection ------------------------------------------
        self._loss_rate = 0.0
        self._loss_rng = None
        #: loss draws not yet consumed, next one last (see LOSS_BLOCK)
        self._loss_draws: list = []
        self._partition: Optional[Dict[int, int]] = None  # addr -> group
        self._latency_factor = 1.0
        # -- gray-failure injection (chaos extension) -------------------
        #: token -> (src frozenset, dst frozenset): one-way link cuts.
        #: Token-keyed so concurrent cuts compose (unlike _partition).
        self._asym_cuts: Dict[int, tuple] = {}
        self._dup_rate = 0.0
        self._dup_rng = None
        self._reorder_window = 0.0
        self._reorder_rng = None
        #: True while any packet-level fault (partition, one-way cut,
        #: loss, duplication, reordering) is installed: the one guard
        #: ``send`` pays for the whole fault machinery.
        self._faults_armed = False

    def _refresh_faults_armed(self) -> None:
        self._faults_armed = (
            self._partition is not None
            or bool(self._asym_cuts)
            or self._loss_rng is not None
            or self._dup_rng is not None
            or self._reorder_rng is not None
        )

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def set_loss_rate(self, rate: float, seed: int = 0) -> None:
        """Drop each non-local packet independently with probability
        ``rate`` (deterministic per seed).  0 disables."""
        if not 0.0 <= rate < 1.0:
            raise ValueError("loss rate must be in [0, 1)")
        self._loss_rate = rate
        self._loss_rng = np.random.default_rng(seed) if rate > 0 else None
        # Draws taken ahead from the previous generator die with it.
        self._loss_draws = []
        self._refresh_faults_armed()

    def clear_loss(self) -> None:
        """Heal message loss: stop dropping packets."""
        self.set_loss_rate(0.0)

    def set_partition(self, groups: Optional[Dict[int, int]]) -> None:
        """Install a network partition: packets between addresses in
        different groups are dropped.  Addresses absent from the map are
        group 0.  ``None`` heals the partition."""
        self._partition = dict(groups) if groups is not None else None
        self._refresh_faults_armed()

    def clear_partition(self) -> None:
        """Heal the partition: all addresses can talk again."""
        self.set_partition(None)

    def set_latency_factor(self, factor: float) -> None:
        """Multiply every non-local one-way latency by ``factor``
        (congestion / latency-spike injection).  1.0 is nominal."""
        if factor <= 0:
            raise ValueError("latency factor must be positive")
        self._latency_factor = factor

    def clear_latency_factor(self) -> None:
        """Heal a latency spike: restore nominal link latencies."""
        self._latency_factor = 1.0

    # -- gray failures (chaos extension) --------------------------------
    def set_slow(self, addrs, factor: float) -> None:
        """Gray failure: nodes in ``addrs`` stay alive but serve their
        ingress queues at ``factor`` of their nominal rate.  Only
        observable under the finite service model (like storms):
        infinite-capacity nodes have no service time to stretch."""
        if not 0.0 < factor < 1.0:
            raise ValueError("slow factor must be in (0, 1)")
        for addr in addrs:
            node = self._nodes.get(addr)
            if node is not None:
                node.slow_factor = factor

    def clear_slow(self, addrs) -> None:
        """Heal a slow fault: restore nominal service rates."""
        for addr in addrs:
            node = self._nodes.get(addr)
            if node is not None:
                node.slow_factor = 1.0

    def add_asym_cut(self, token: int, src_addrs, dst_addrs) -> None:
        """Install a one-way link cut: packets from ``src_addrs`` to
        ``dst_addrs`` are dropped (cause ``partition``) while the
        reverse direction still flows.  ``token`` names the cut so
        concurrent cuts compose and heal independently."""
        if token in self._asym_cuts:
            raise ValueError(f"asym cut token {token} already active")
        self._asym_cuts[token] = (frozenset(src_addrs), frozenset(dst_addrs))
        self._refresh_faults_armed()

    def remove_asym_cut(self, token: int) -> None:
        """Heal the one-way cut named ``token`` (idempotent)."""
        self._asym_cuts.pop(token, None)
        self._refresh_faults_armed()

    def set_duplicate(self, rate: float, seed: int = 0) -> None:
        """Gray failure: deliver each non-local packet a *second* time
        with probability ``rate`` (deterministic per seed).  0 disables."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError("duplicate rate must be in [0, 1]")
        self._dup_rate = rate
        self._dup_rng = np.random.default_rng(seed) if rate > 0 else None
        self._refresh_faults_armed()

    def clear_duplicate(self) -> None:
        """Heal duplication: packets are delivered once again."""
        self.set_duplicate(0.0)

    def set_reorder(self, window_ms: float, seed: int = 0) -> None:
        """Gray failure: every non-local packet picks up an adversarial
        extra delay uniform in [0, ``window_ms``), reordering
        otherwise-FIFO streams (deterministic per seed).  0 disables."""
        if window_ms < 0:
            raise ValueError("reorder window must be non-negative")
        self._reorder_window = window_ms
        self._reorder_rng = (
            np.random.default_rng(seed) if window_ms > 0 else None
        )
        self._refresh_faults_armed()

    def clear_reorder(self) -> None:
        """Heal reordering: links are FIFO again."""
        self.set_reorder(0.0)

    def start_storm(
        self,
        addr: int,
        rate_msgs_per_ms: float,
        until_ms: float,
        size_bytes: Optional[int] = None,
    ) -> list:
        """Flood ``addr`` with synthetic ``ps_storm`` packets.

        One packet enters ``addr``'s ingress every ``1 / rate`` ms until
        ``until_ms`` (exclusive).  The packets are pure load -- the
        pub/sub layer handles them as no-ops -- so their only effect is
        the service time they consume, which is exactly what an event
        storm at a hot rendezvous zone looks like from the victim's
        queue.  Returns ``schedule_every``'s handle (``sim.cancel`` it to
        end early).
        """
        if rate_msgs_per_ms <= 0:
            raise ValueError("storm rate must be positive (msgs/ms)")
        if size_bytes is None:
            size_bytes = event_message_bytes(1)
        return self.sim.schedule_every(
            1.0 / rate_msgs_per_ms,
            self._storm_tick,
            addr,
            size_bytes,
            until=until_ms,
        )

    def _storm_tick(self, addr: int, size_bytes: int) -> None:
        node = self._nodes.get(addr)
        if node is None or not node.alive():
            return
        msg = Message(
            src=addr,
            dst=addr,
            kind="ps_storm",
            payload=None,
            size_bytes=size_bytes,
            root_time=self.sim.now,
        )
        self.stats.record_send(addr, addr, "ps_storm", size_bytes)
        self._deliver(msg)

    # ------------------------------------------------------------------
    def register(self, node: SimNode) -> None:
        if not 0 <= node.addr < self.topology.size:
            raise ValueError(
                f"addr {node.addr} outside topology of size {self.topology.size}"
            )
        if node.addr in self._nodes:
            raise ValueError(f"addr {node.addr} already registered")
        self._nodes[node.addr] = node

    def unregister(self, addr: int) -> None:
        self._nodes.pop(addr, None)

    def node(self, addr: int) -> SimNode:
        return self._nodes[addr]

    def __contains__(self, addr: int) -> bool:
        return addr in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    # ------------------------------------------------------------------
    def send(self, msg: Message) -> None:
        """Charge bandwidth and schedule delivery.

        Local messages (``src == dst``) are delivered after
        ``local_delivery_delay_ms`` and are *not* charged to the
        network byte counters -- the paper measures network bandwidth.
        """
        src, dst = msg.src, msg.dst
        if dst not in self._nodes:
            self.stats.record_drop("dead_dst")
            return
        if src == dst:
            self.sim.schedule(self.local_delivery_delay_ms, self._deliver, msg)
            return
        # The sender did transmit: bytes are charged even if a fault
        # then drops the packet.
        self.stats.record_send(src, dst, msg.kind, msg.size_bytes)
        if self._faults_armed:
            self._send_through_faults(msg)
            return
        self.sim.schedule(
            self.topology.latency_ms(src, dst) * self._latency_factor,
            self._deliver,
            msg,
        )

    def _send_through_faults(self, msg: Message) -> None:
        """Rest of ``send`` for a charged, non-local packet while any
        fault is installed: drop, jitter and/or ghost it.  Each fault
        draws from its own generator, once per packet in send order --
        the replay contract of fixed-seed chaos schedules.  The loss
        generator is read ``LOSS_BLOCK`` draws at a time: the block
        holds exactly the values the same number of scalar ``random()``
        calls would return, so the drop pattern is that of one draw per
        packet."""
        src, dst = msg.src, msg.dst
        partition = self._partition
        if partition is not None and partition.get(src, 0) != partition.get(dst, 0):
            self.stats.record_drop("partition")
            return
        if self._asym_cuts:
            for src_set, dst_set in self._asym_cuts.values():
                if src in src_set and dst in dst_set:
                    self.stats.record_drop("partition")
                    return
        if self._loss_rng is not None:
            draws = self._loss_draws
            if not draws:
                draws = self._loss_draws = self._loss_rng.random(LOSS_BLOCK).tolist()
                draws.reverse()
            if draws.pop() < self._loss_rate:
                self.stats.record_drop("loss")
                return
        latency = self.topology.latency_ms(src, dst) * self._latency_factor
        if self._reorder_rng is not None:
            # Adversarial per-packet jitter: later sends can arrive first.
            latency += float(self._reorder_rng.uniform(0.0, self._reorder_window))
            self.stats.record_reorder()
        self.sim.schedule(latency, self._deliver, msg)
        if self._dup_rng is not None and self._dup_rng.random() < self._dup_rate:
            # The network ghosts a second copy of the same packet.  A
            # fresh Message (not the same object) keeps the hop count
            # bumped in _deliver -- and a relay that sends the arrived
            # object on -- from touching the other copy; the payload is
            # shared, exactly like a retransmitted packet, so dedup
            # layers see the same bits.
            ghost = dataclasses.replace(msg)
            ghost_latency = latency + float(self._dup_rng.uniform(0.0, latency))
            self.stats.record_duplicate()
            self.sim.schedule(ghost_latency, self._deliver, ghost)

    def _deliver(self, msg: Message) -> None:
        dst = msg.dst
        node = self._nodes.get(dst)
        if node is None or not node._alive:
            self.stats.record_drop("dead_dst")
            return
        if msg.src != dst:
            msg.hops += 1
        if node.service_rate is None:
            node.handle_message(msg)
        else:
            node.enqueue(msg)
