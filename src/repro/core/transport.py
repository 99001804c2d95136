"""Hop transport of a HyperSub node.

:class:`TransportMixin` carries what moves one event packet across one
overlay hop, below Algorithm 5's grouping and above the network:

* reliable send -- sequence numbers, retransmission, acks and the
  packet-level dedup at the receiver (the ``ps_event`` receive
  wrapper, registered only for a config that can put ``rseq`` / ``pb``
  on a packet);
* hop failover -- retry exhaustion evicts the dead hop and re-enters
  the packet's SubIDs into Algorithm 5 at this node;
* overload admission -- shed priorities and the ``ps_busy`` back-off;
* the piggyback throttle for ring state riding event packets, and the
  storm filler the fault injector sends.

Its methods become methods of the node class
(:class:`~repro.core.node.HyperSubChordNode`), so handlers stay plain
functions of the node and share one handler table across the fleet.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.sim.messages import CONTROL_BYTES, Message

#: Packet-dedup keys are one int, the sender's address above its
#: epoch above ``rseq``: the field that changes with every packet sits
#: in the low bits, so one sender's keys fall on distinct set slots.
#: ``rejoin_node`` refuses the incarnation that would overflow the
#: epoch field, and ``_send_event_reliably`` the sequence number that
#: would overflow its own.
REL_EPOCH_BITS = 16
REL_SEQ_BITS = 32
#: Back-off multiplier per consecutive ``ps_busy`` from one packet
#: (delay = ``retransmit_timeout_ms * factor ** busy_count``).
BUSY_BACKOFF_FACTOR = 2.0
#: Ceiling on the busy back-off delay (ms).
BUSY_BACKOFF_MAX_MS = 30_000.0


class RelPending:
    """One outstanding reliable packet: what a retransmission rebuilds
    it from (the object sent is not a record of it: ``Network._deliver``
    counts hops on the object it is handed), and its retry state."""

    __slots__ = (
        "dst", "payload", "size", "hops", "root_time", "span", "retries",
        "busy", "timer",
    )

    def __init__(
        self, dst: int, payload: dict, size: int, hops: int,
        root_time: float, span: Optional[int],
    ) -> None:
        self.dst = dst
        self.payload = payload
        self.size = size
        self.hops = hops
        self.root_time = root_time
        self.span = span
        #: ack timeouts so far (bounded by ``max_retries``)
        self.retries = 0
        #: consecutive ``ps_busy`` NACKs (the back-off exponent)
        self.busy = 0
        #: the armed retransmission or back-off timer (the ack cancels it)
        self.timer = None


class TransportMixin:
    """Reliable, failover-capable, overload-aware hop transport."""

    def _init_transport(self, cfg) -> None:
        """Transport state and handlers (called by ``_init_pubsub``)."""
        #: per-destination throttle for piggybacked ring state: state
        #: changes slowly, so attaching it to every packet on a busy
        #: link wastes bytes; once per half-interval keeps it fresh.
        self._pb_last_sent: Dict[int, float] = {}
        #: reliable-transport state: outstanding event packets by seq
        self._rel_pending: Dict[int, RelPending] = {}
        self._rel_seq = 0
        #: transport incarnation.  Sequence numbers restart at 0 after a
        #: crash-rejoin; without an epoch in the dedup key, peers that
        #: heard rseq 1..j from the PREVIOUS incarnation would silently
        #: discard (while still acking!) the new incarnation's first j
        #: packets as duplicates.  ``HyperSubSystem.rejoin_node`` bumps it.
        self._rel_epoch = 0
        #: sender (addr, epoch, seq) already processed (dedup on ack
        #: loss), packed into one int each (``REL_SEQ_BITS``)
        self._rel_seen: set = set()
        # The receive side of ``ps_event`` is chosen here, once: only a
        # config that can put ``rseq`` / ``pb`` on a packet pays for the
        # wrapper that reads them; any other gets Algorithm 5's
        # best-effort handler.
        #: no feature of this node's config adds to a forwarded packet
        self._ev_plain = not (cfg.reliable_delivery or cfg.piggyback_maintenance)
        on_event = self._on_plain_event if self._ev_plain else self._on_ps_event
        self.register_handler("ps_event", on_event)
        self.register_handler("ps_event_ack", self._on_ps_event_ack)
        self.register_handler("ps_busy", self._on_ps_busy)
        self.register_handler("ps_storm", self._on_ps_storm)

    def _pb_due(self, dst_addr: int) -> bool:
        """Attach ring state only where it can replace maintenance RPCs.

        Piggybacked state helps the *receiver* skip (a) pinging its
        predecessor -- we must be that predecessor candidate, i.e. the
        receiver is our successor -- or (b) stabilizing with its
        successor -- we must be that successor, i.e. the receiver is
        our predecessor.  Other links gain nothing, and even on useful
        links once per half-interval keeps the state fresh.
        """
        useful = set()
        if self.successors:
            useful.add(self.successors[0][1])
        if self.predecessor is not None:
            useful.add(self.predecessor[1])
        if dst_addr not in useful:
            return False
        interval = self.stabilize_interval_ms / 2.0
        last = self._pb_last_sent.get(dst_addr)
        if last is not None and self.sim.now - last < interval:
            return False
        self._pb_last_sent[dst_addr] = self.sim.now
        return True

    # ------------------------------------------------------------------
    # Reliable event transport (extension)
    # ------------------------------------------------------------------
    def _send_event_reliably(self, msg: Message) -> None:
        """Attach a sequence number, arm the retransmission timer."""
        seq = self._rel_seq + 1
        if seq >> REL_SEQ_BITS:
            raise OverflowError(
                f"node {self.addr} is out of transport sequence numbers "
                f"(REL_SEQ_BITS = {REL_SEQ_BITS})"
            )
        self._rel_seq = seq
        payload = msg.payload
        payload["rseq"] = seq
        if self._rel_epoch:
            payload["repoch"] = self._rel_epoch
        state = self._rel_pending[seq] = RelPending(
            msg.dst, payload, msg.size_bytes, msg.hops, msg.root_time,
            msg.span_id,
        )
        self.network.send(msg)
        # The timer is kept so the ack can cancel it and a ps_busy NACK
        # can replace it by a backoff timer.
        state.timer = self.system.retransmit_lane.arm(self._rel_retry, seq)

    def _dead_abandons(self, state: RelPending, cause: str) -> bool:
        """Whether this incarnation is dead.  A dead one transmits
        nothing: the packet ``state`` describes is abandoned, counted
        as a give-up of ``cause``."""
        if self._alive:
            return False
        self._count_give_up(state.payload, span=state.span, cause=cause)
        return True

    def _rel_due(self, seq: int) -> Optional[RelPending]:
        """``seq``'s pending state if it is to go on the wire again;
        ``None`` once acked or abandoned (a dead incarnation's packet
        counts like an exhausted retry budget)."""
        state = self._rel_pending.get(seq)
        if state is not None and self._dead_abandons(state, "retries"):
            del self._rel_pending[seq]
            return None
        return state

    def _rel_retry(self, seq: int) -> None:
        state = self._rel_due(seq)
        if state is None:
            return  # acked in time
        if state.retries >= self.system.config.max_retries:
            del self._rel_pending[seq]
            # Hop presumed dead.  With hop-failover the pending SubIDs
            # are re-grouped onto an alternate route; otherwise the
            # give-up is *counted* (NetworkStats.gave_up) -- the seed
            # dropped these silently, making exhausted hops invisible.
            if self.system.config.hop_failover:
                self._hop_failover(state)
            else:
                self._count_give_up(state.payload, span=state.span, cause="retries")
            return
        state.retries += 1
        self._trace(
            "retransmit", event=state.payload["event_id"],
            parent=state.span, dst=state.dst, attempt=state.retries,
        )
        self._rel_retransmit(seq, state)

    def _rel_retransmit(self, seq: int, state: RelPending) -> None:
        """Put a pending packet on the wire again and re-arm its timer.

        The packet is rebuilt from the pending state: the object sent
        earlier is not a record of it (``Network._deliver`` counts hops
        on the object it is handed).
        """
        self.network.stats.retransmissions += 1
        # A retransmission is real traffic.
        self.system.metrics.on_event_message(state.payload["event_id"], state.size)
        self.network.send(
            Message(
                self.addr, state.dst, "ps_event", state.payload, state.size,
                state.hops, state.root_time, state.span,
            )
        )
        state.timer = self.system.retransmit_lane.arm(self._rel_retry, seq)

    # ------------------------------------------------------------------
    # Hop-failover rerouting (self-healing extension)
    # ------------------------------------------------------------------
    def _hop_failover(self, state: RelPending) -> None:
        """Retry exhaustion against one hop: evict the corpse, reroute.

        The dead address is purged from the local routing tables (the
        retry exhaustion is stronger death evidence than one maintenance
        timeout), then after ``failover_backoff_ms`` -- a beat for ring
        maintenance to converge around the failure -- the packet's
        SubIDs re-enter Algorithm 5 locally and are re-grouped onto the
        surviving fingers/successors.  Each packet lineage carries a
        failover budget (``fo``) so repeated dead hops terminate in a
        counted give-up instead of looping.
        """
        dead_addr = state.dst
        self.evict_neighbor(dead_addr)
        fo = state.payload.get("fo")
        if fo is None:
            fo = self.system.config.failover_max_attempts
        if fo <= 0:
            self._count_give_up(state.payload, span=state.span, cause="failover")
            return
        sid = self._trace(
            "failover", event=state.payload["event_id"],
            parent=state.span, dead=dead_addr, budget=fo,
        )
        if sid is not None:
            # Reroutes nest under the failover decision, keeping the
            # causal chain publish -> forward -> failover -> forward.
            state.span = sid
        self.sim.schedule(
            self.system.config.failover_backoff_ms,
            self._failover_resend,
            state,
            fo - 1,
        )

    def _failover_resend(self, state: RelPending, fo: int) -> None:
        if self._dead_abandons(state, "failover"):
            return
        p = state.payload
        # Re-enter Algorithm 5 at this node: responsibility may have
        # shifted to us meanwhile (takeover), in which case the entries
        # are served locally from standby replicas; otherwise they are
        # re-grouped by the repaired routing tables and forwarded.
        self._process_event(
            self._local_event(
                p, list(p["entries"]), state.hops, state.root_time,
                state.span, fo=fo,
            )
        )

    def _on_ps_event_ack(self, msg: Message) -> None:
        state = self._rel_pending.pop(msg.payload["rseq"], None)
        if state is None:
            return
        # Retransmission timer or ps_busy backoff timer, whichever is armed.
        self.sim.cancel(state.timer)

    # ------------------------------------------------------------------
    # Overload protection (bounded-ingress extension; docs/FAULTS.md)
    # ------------------------------------------------------------------
    #: Message kinds that may be shed under overload.  Everything else
    #: (acks, anti-entropy, arc handoffs, migration, maintenance RPCs)
    #: is control traffic and outranks events, so the system can keep
    #: healing itself while saturated.
    _SHEDDABLE_KINDS = frozenset({"ps_event", "ps_storm"})

    def ingress_priority(self, msg: Message) -> int:
        if not self.system.config.overload_protection:
            return 1  # priority-blind FIFO: the unprotected baseline
        return 1 if msg.kind in self._SHEDDABLE_KINDS else 0

    def on_ingress_shed(self, msg: Message) -> None:
        """A packet was shed from our full ingress queue (admission
        control).  Shedding is never silent: a reliable event packet is
        NACKed with ``ps_busy`` (the sender's copy stays pending, backs
        off and retries), anything else that carried deliveries is
        accounted exactly like a transport give-up.  A shed
        ``ps_event_ack`` or ``ps_busy`` is only counted and traced: its
        ``rseq`` names a packet of the *other* node, so a NACK would back
        off an unrelated pending packet of the sender's."""
        p = msg.payload if isinstance(msg.payload, dict) else None
        protected = self.system.config.overload_protection
        if protected:
            self.network.stats.shed += 1
        self._trace(
            "shed", event=p.get("event_id") if p is not None else None,
            parent=msg.span_id, msg_kind=msg.kind, src=msg.src,
        )
        if p is None:
            return
        rseq = p.get("rseq")
        if (
            protected and rseq is not None and msg.kind == "ps_event"
            and msg.src != self.addr
        ):
            self.send(
                Message(
                    src=self.addr, dst=msg.src, kind="ps_busy",
                    payload={"rseq": rseq}, size_bytes=CONTROL_BYTES,
                )
            )
        elif rseq is None and "event_id" in p:
            # Fire-and-forget packet: nobody will retransmit it.
            self._count_give_up(p, span=msg.span_id, cause="shed")

    def _on_ps_busy(self, msg: Message) -> None:
        """Backpressure NACK: the next hop shed our packet (queue full).

        Unlike an ack timeout this is proof the hop is *alive*, so the
        retransmission consumes no retry budget; it is rescheduled with
        exponential backoff (doubling per consecutive busy, capped) so
        senders drain a saturated queue instead of hammering it.
        """
        seq = msg.payload["rseq"]
        state = self._rel_pending.get(seq)
        if state is None:
            return  # a duplicate was served meanwhile, or we gave up
        state.busy += 1
        self.network.stats.busy_backoffs += 1
        self.sim.cancel(state.timer)
        delay = min(
            self.system.config.retransmit_timeout_ms
            * (BUSY_BACKOFF_FACTOR ** state.busy),
            BUSY_BACKOFF_MAX_MS,
        )
        self._trace(
            "busy", event=state.payload["event_id"],
            parent=state.span, dst=state.dst, backoff_ms=delay,
        )
        state.timer = self.sim.schedule(delay, self._rel_busy_resend, seq)

    def _rel_busy_resend(self, seq: int) -> None:
        state = self._rel_due(seq)
        if state is not None:  # else acked while backing off
            self._rel_retransmit(seq, state)

    def _on_ps_storm(self, msg: Message) -> None:
        """Synthetic storm traffic (``FaultSchedule.storm``): its entire
        cost is the service time it consumed in the ingress queue."""

    def _on_ps_event(self, msg: Message) -> None:
        """``ps_event`` receive wrapper of a config with reliable
        transport or piggybacked maintenance (registered by
        ``_init_transport``; in any other config ``_on_plain_event`` is
        the handler): ack + dedup, ring-state absorption."""
        p = msg.payload
        if "rseq" in p:
            rseq = p["rseq"]
            self.network.send(
                Message(
                    self.addr, msg.src, "ps_event_ack", {"rseq": rseq},
                    CONTROL_BYTES,
                )
            )
            key = (
                (msg.src << REL_EPOCH_BITS | p.get("repoch", 0)) << REL_SEQ_BITS
            ) | rseq
            if key in self._rel_seen:
                # duplicate (our ack was lost, or the network ghosted a
                # copy): already processed
                self.network.stats.duplicate_packet += 1
                return
            self._rel_seen.add(key)
        if "pb" in p:
            pb = p["pb"]
            self.absorb_piggyback(
                pb["id"],
                pb["addr"],
                tuple(pb["pred"]) if pb["pred"] else None,
                tuple(pb["succ"]) if pb["succ"] else None,
            )
        self._process_event(msg)
