"""Which public functions the traced pass wraps, and the per-layer
metrics computed from the recorded spans.

A layer is a module of the program.  Every span name starts with the
layer it is charged to, so ``<layer>.self_s`` is the sum of the self
times of that layer's spans, and the layers' self times add up to the
traced wall time (``trace.attributed_share`` reports the check).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from tracing import ROOT, Recorder

# span names -----------------------------------------------------------------
ENGINE_RUN = "sim.engine.run"
ENGINE_SCHEDULE = "sim.engine.schedule"
ENGINE_TIMER = "sim.engine.timer"           # schedule_every's own tick
NET_SEND = "sim.network.send"
NET_DELIVER = "sim.network.deliver"         # scheduled arrival -> handle_message
TOPO_LATENCY = "sim.topology.latency_ms"
STATS = "sim.stats.record"
SYS_METRICS = "core.system.metrics"
CHORD_NEXT_HOP = "dht.chord.next_hop_addr"
CHORD_RESPONSIBLE = "dht.chord.is_responsible"
CHORD_MSG = "dht.chord.maintenance"         # chord_* kinds
DHT_TIMER = "dht.chord.timer"               # maintenance / lookup-restart timers
LOOKUP = "dht.base.lookup"                  # lookup() and dht_lookup_* kinds
NODE_EVENT = "core.node.event"              # publish() and kind ps_event
NODE_REGISTER = "core.node.register"        # (un)subscribe(), ps_(un)register
NODE_TRANSPORT = "core.node.transport"      # ps_event_ack, ps_dack, ps_busy
NODE_TIMER = "core.node.timer"              # retry / failover / redelivery timers
NODE_OTHER = "core.node.other"              # any other ps_* kind
MATCH_READ = "core.matching.match_point"
MATCH_WRITE = "core.matching.write"         # put, remove, pop_matching
MATCH_BBOX = "core.matching.bounding_box"
DUR_APPEND = "core.durability.append"
DUR_ACK = "core.durability.ack"
DUR_DUE = "core.durability.due"
DRIVER = "bench.driver.callback"            # the benchmark's own callbacks
OTHER_TIMER = "other.timer"

KIND_SPAN = {
    "ps_event": NODE_EVENT,
    "ps_register": NODE_REGISTER,
    "ps_unregister": NODE_REGISTER,
    "ps_event_ack": NODE_TRANSPORT,
    "ps_dack": NODE_TRANSPORT,
    "ps_busy": NODE_TRANSPORT,
    "dht_lookup_step": LOOKUP,
    "dht_lookup_reply": LOOKUP,
}

#: module of a scheduled callable -> span name of its dispatch
_TIMER_SPAN = {
    "repro.sim.network": NET_DELIVER,
    "repro.sim.engine": ENGINE_TIMER,
    "repro.core.node": NODE_TIMER,
    "repro.dht.base": DHT_TIMER,
    "repro.dht.chord": DHT_TIMER,
    "harness": DRIVER,
}


def _classify_kind(kind: str) -> str:
    """Span name for a message kind not listed above (remembered)."""
    name = KIND_SPAN[kind] = CHORD_MSG if kind.startswith("chord_") else NODE_OTHER
    return name


def install(rec: Recorder, system) -> None:
    """Wrap the program's public boundaries for ``system``'s classes.

    Call before the system does any scheduling that should be
    classified; undo with ``rec.unpatch()``.
    """
    from repro.core import covering, durability, indexing, matching
    from repro.core.system import Metrics
    from repro.sim.engine import Simulator
    from repro.sim.network import Network
    from repro.sim.stats import NetworkStats

    node_cls = type(system.nodes[0])

    # -- sim.engine: run / schedule, and every callback it dispatches ----
    call_variants: Dict[str, Callable] = {}
    code_span: Dict[Any, str] = {}

    def _call(fn, *args):
        return fn(*args)

    def dispatch(fn, *args):
        if not rec.on:
            return fn(*args)
        func = getattr(fn, "__func__", fn)
        key = getattr(func, "__code__", func)
        name = code_span.get(key)
        if name is None:
            name = _TIMER_SPAN.get(getattr(func, "__module__", None), OTHER_TIMER)
            code_span[key] = name
        variant = call_variants.get(name)
        if variant is None:
            variant = call_variants[name] = rec.span(_call, name)
        return variant(fn, *args)

    def wrap_schedule(orig):
        spanned = rec.span(orig, ENGINE_SCHEDULE)

        def schedule(self, when, fn, *args):
            if fn is dispatch:  # schedule() funnelling into schedule_at()
                return orig(self, when, fn, *args)
            return spanned(self, when, dispatch, fn, *args)

        return schedule

    rec.patch(Simulator, "run", lambda f: rec.span(f, ENGINE_RUN))
    rec.patch(Simulator, "schedule", wrap_schedule)
    rec.patch(Simulator, "schedule_at", wrap_schedule)

    # -- sim.network / sim.topology / accounting ------------------------
    rec.patch(Network, "send", lambda f: rec.span(f, NET_SEND))
    rec.patch(
        type(system.topology), "latency_ms", lambda f: rec.span(f, TOPO_LATENCY)
    )
    for attr in (
        "record_send", "record_drop", "record_give_up", "record_durable",
        "record_duplicate", "record_reorder", "note_queue_depth",
    ):
        rec.patch(NetworkStats, attr, lambda f: rec.span(f, STATS))

    def note_new_event(rec_: Recorder, _args, event_id) -> None:
        rec_.event = event_id

    rec.patch(
        Metrics, "new_event", lambda f: rec.span(f, SYS_METRICS, note_new_event)
    )
    for attr in (
        "on_event_message", "on_event_edge", "on_give_up", "on_delivery",
        "count_subscription",
    ):
        rec.patch(Metrics, attr, lambda f: rec.span(f, SYS_METRICS))

    # -- the node: messages by kind, user operations, routing ------------
    def wrap_handle_message(orig):
        variants: Dict[str, Callable] = {}
        counts = rec.counts

        def handle_message(self, msg):
            if not rec.on:
                return orig(self, msg)
            kind = msg.kind
            counts["kind." + kind] += 1
            name = KIND_SPAN.get(kind) or _classify_kind(kind)
            variant = variants.get(name)
            if variant is None:
                variant = variants[name] = rec.span(orig, name)
            if name is not NODE_EVENT:
                return variant(self, msg)
            outer = rec.event
            rec.event = msg.payload["event_id"]
            try:
                return variant(self, msg)
            finally:
                rec.event = outer

        return handle_message

    def wrap_publish(orig):
        spanned = rec.span(orig, NODE_EVENT)

        def publish(self, event):
            outer = rec.event
            try:
                return spanned(self, event)  # new_event() sets rec.event
            finally:
                rec.event = outer

        return publish

    rec.patch(node_cls, "handle_message", wrap_handle_message)
    rec.patch(node_cls, "publish", wrap_publish)
    rec.patch(node_cls, "subscribe", lambda f: rec.span(f, NODE_REGISTER))
    rec.patch(node_cls, "unsubscribe", lambda f: rec.span(f, NODE_REGISTER))
    rec.patch(node_cls, "lookup", lambda f: rec.span(f, LOOKUP))
    rec.patch(node_cls, "next_hop_addr", lambda f: rec.span(f, CHORD_NEXT_HOP))
    rec.patch(node_cls, "is_responsible", lambda f: rec.span(f, CHORD_RESPONSIBLE))

    # -- core.matching (every store kind a config can select) ------------
    def note_match(rec_: Recorder, args, result) -> None:
        rec_.counts["match.boxes_held"] += len(args[0])
        rec_.counts["match.ids_returned"] += len(result)

    stores = (
        matching.BoxStore, indexing.GridIndex, indexing.BandIndex,
        covering.CoveringStore,
    )
    for cls in stores:
        for attr, name, note in (
            ("match_point", MATCH_READ, note_match),
            ("put", MATCH_WRITE, None),
            ("remove", MATCH_WRITE, None),
            ("pop_matching", MATCH_WRITE, None),
            ("bounding_box", MATCH_BBOX, None),
        ):
            if attr in cls.__dict__:
                rec.patch(
                    cls, attr, lambda f, name=name, note=note: rec.span(f, name, note)
                )

    # -- core.durability ---------------------------------------------------
    def note_due(rec_: Recorder, _args, result) -> None:
        rec_.counts["durability.due_entries"] += len(result)

    rec.patch(durability.DurableState, "append", lambda f: rec.span(f, DUR_APPEND))
    rec.patch(durability.DurableState, "ack", lambda f: rec.span(f, DUR_ACK))
    rec.patch(
        durability.DurableState, "due", lambda f: rec.span(f, DUR_DUE, note_due)
    )


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------
#: (name, unit, better).  This is the list ``BENCHMARK.json`` carries.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("sim.engine.dispatches", "count", "lower"),
    ("sim.engine.dispatches_per_op", "count", "lower"),
    ("sim.engine.self_s", "s", "lower"),
    ("sim.engine.timer_callbacks", "count", "lower"),
    ("sim.engine.timer_s", "s", "lower"),
    ("sim.network.sends", "count", "lower"),
    ("sim.network.msgs_per_op", "count", "lower"),
    ("sim.network.self_s", "s", "lower"),
    ("sim.network.drops", "count", "lower"),
    ("sim.topology.calls", "count", "lower"),
    ("sim.topology.self_s", "s", "lower"),
    ("sim.stats.calls", "count", "lower"),
    ("sim.stats.self_s", "s", "lower"),
    ("core.system.metrics_calls", "count", "lower"),
    ("core.system.metrics_self_s", "s", "lower"),
    ("dht.chord.next_hop_calls", "count", "lower"),
    ("dht.chord.is_responsible_calls", "count", "lower"),
    ("dht.chord.self_s", "s", "lower"),
    ("dht.base.lookup_steps", "count", "lower"),
    ("dht.base.lookup_self_s", "s", "lower"),
    ("core.node.route_cache_hit_rate", "ratio", "higher"),
    ("core.node.event_msgs", "count", "lower"),
    ("core.node.event_self_s", "s", "lower"),
    ("core.node.us_per_event_msg", "us", "lower"),
    ("core.node.register_msgs", "count", "lower"),
    ("core.node.register_self_s", "s", "lower"),
    ("core.node.marker_registrations_per_sub", "count", "lower"),
    ("core.node.install_kb_per_sub_op", "KB", "lower"),
    ("core.node.transport_msgs", "count", "lower"),
    ("core.node.transport_self_s", "s", "lower"),
    ("core.node.retransmissions", "count", "lower"),
    ("core.node.gave_up", "count", "lower"),
    ("core.node.timer_self_s", "s", "lower"),
    ("core.node.other_self_s", "s", "lower"),
    ("core.matching.match_calls", "count", "lower"),
    ("core.matching.match_self_s", "s", "lower"),
    ("core.matching.us_per_match", "us", "lower"),
    ("core.matching.boxes_per_match", "count", "lower"),
    ("core.matching.hit_ratio", "ratio", "higher"),
    ("core.matching.write_calls", "count", "lower"),
    ("core.matching.write_self_s", "s", "lower"),
    ("core.matching.bbox_calls", "count", "lower"),
    ("core.matching.bbox_self_s", "s", "lower"),
    ("core.durability.appends", "count", "lower"),
    ("core.durability.acks", "count", "lower"),
    ("core.durability.due_entries", "count", "lower"),
    ("core.durability.self_s", "s", "lower"),
    ("core.durability.unretired", "count", "lower"),
    ("mem.rss_after_setup_mb", "MB", "lower"),
    ("mem.rss_after_run_mb", "MB", "lower"),
    ("bench.generator_s", "s", "lower"),
    ("bench.oracle_s", "s", "lower"),
    ("bench.driver_self_s", "s", "lower"),
    ("trace.timed_wall_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.attributed_share", "ratio", "higher"),
]


def layer_metrics(rec: Recorder, ops: int) -> Dict[str, float]:
    """The span-derived per-layer metrics of one traced timed phase."""
    spans = rec.by_name()

    def calls(*names: str) -> float:
        return float(sum(spans.get(n, (0, 0.0, 0.0))[0] for n in names))

    def total(*names: str) -> float:
        return float(sum(spans.get(n, (0, 0.0, 0.0))[1] for n in names))

    def self_s(*names: str) -> float:
        return float(sum(spans.get(n, (0, 0.0, 0.0))[2] for n in names))

    def per(a: float, b: float) -> float:
        return a / b if b else 0.0

    counts = rec.counts
    wall = rec.t_end - rec.t_start
    timers = (ENGINE_TIMER, NODE_TIMER, DHT_TIMER, DRIVER, OTHER_TIMER)
    event_msgs = calls(NODE_EVENT)
    out = {
        "sim.engine.self_s": self_s(ENGINE_RUN, ENGINE_SCHEDULE, ENGINE_TIMER),
        "sim.engine.timer_callbacks": calls(*timers),
        "sim.engine.timer_s": total(*timers),
        "sim.network.sends": calls(NET_SEND),
        "sim.network.self_s": self_s(NET_SEND, NET_DELIVER),
        "sim.topology.calls": calls(TOPO_LATENCY),
        "sim.topology.self_s": self_s(TOPO_LATENCY),
        "sim.stats.calls": calls(STATS),
        "sim.stats.self_s": self_s(STATS),
        "core.system.metrics_calls": calls(SYS_METRICS),
        "core.system.metrics_self_s": self_s(SYS_METRICS),
        "dht.chord.next_hop_calls": calls(CHORD_NEXT_HOP),
        "dht.chord.is_responsible_calls": calls(CHORD_RESPONSIBLE),
        "dht.chord.self_s": self_s(
            CHORD_NEXT_HOP, CHORD_RESPONSIBLE, CHORD_MSG, DHT_TIMER
        ),
        "dht.base.lookup_steps": counts.get("kind.dht_lookup_step", 0.0),
        "dht.base.lookup_self_s": self_s(LOOKUP),
        "core.node.event_msgs": event_msgs,
        "core.node.event_self_s": self_s(NODE_EVENT),
        "core.node.us_per_event_msg": per(self_s(NODE_EVENT) * 1e6, event_msgs),
        "core.node.register_msgs": calls(NODE_REGISTER),
        "core.node.register_self_s": self_s(NODE_REGISTER),
        "core.node.transport_msgs": calls(NODE_TRANSPORT),
        "core.node.transport_self_s": self_s(NODE_TRANSPORT),
        "core.node.timer_self_s": self_s(NODE_TIMER),
        "core.node.other_self_s": self_s(NODE_OTHER),
        "core.matching.match_calls": calls(MATCH_READ),
        "core.matching.match_self_s": self_s(MATCH_READ),
        "core.matching.us_per_match": per(self_s(MATCH_READ) * 1e6, calls(MATCH_READ)),
        "core.matching.boxes_per_match": per(
            counts.get("match.boxes_held", 0.0), calls(MATCH_READ)
        ),
        "core.matching.hit_ratio": per(
            counts.get("match.ids_returned", 0.0), counts.get("match.boxes_held", 0.0)
        ),
        "core.matching.write_calls": calls(MATCH_WRITE),
        "core.matching.write_self_s": self_s(MATCH_WRITE),
        "core.matching.bbox_calls": calls(MATCH_BBOX),
        "core.matching.bbox_self_s": self_s(MATCH_BBOX),
        "core.durability.appends": calls(DUR_APPEND),
        "core.durability.acks": calls(DUR_ACK),
        "core.durability.due_entries": counts.get("durability.due_entries", 0.0),
        "core.durability.self_s": self_s(DUR_APPEND, DUR_ACK, DUR_DUE),
        "bench.driver_self_s": self_s(DRIVER, ROOT),
        "trace.timed_wall_s": wall,
    }
    attributed = sum(v for k, v in out.items() if k.endswith("self_s"))
    out["trace.attributed_share"] = per(attributed, wall)
    return out
