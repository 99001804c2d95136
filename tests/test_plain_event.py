"""The best-effort ``ps_event`` handler (``_on_plain_event``) against the
general Algorithm-5 loop (``_process_event``).

A best-effort config hands every packet to its own handler, which only
knows ``(nid, iid)`` entries and forwards a relayed packet by sending
the arrived ``Message`` on.  Forcing every packet of the same fixed-seed
run through ``_process_event`` must change nothing that is measured:
deliveries, traffic by kind and by node, each event's record, the route
cache's counters and the unroutable drops.
"""

import numpy as np
import pytest

from repro.bench import delivery_digest
from repro.core import (
    Attribute,
    Event,
    HyperSubConfig,
    HyperSubSystem,
    Scheme,
    Subscription,
)
from repro.core.node import HyperSubChordNode, PubSubNodeMixin
from repro.sim.network import Network

N_EVENTS = 60


def run_system(num_nodes: int, base: int, crash: bool, **cfg) -> HyperSubSystem:
    """A small best-effort run: four subscriptions per node, 60 events
    40 ms apart.  With ``crash``, after the 20th event two nodes fail
    (their peers keep routing to them: ``dead_dst`` drops) and a third
    loses its routing state (what it cannot route is ``unroutable``)."""
    cfg = HyperSubConfig(seed=4, code_bits=12, base=base, **cfg)
    system = HyperSubSystem(num_nodes=num_nodes, config=cfg)
    scheme = Scheme("s", [Attribute(x, 0, 1000) for x in "abc"])
    system.add_scheme(scheme)
    rng = np.random.default_rng(4)
    for _ in range(4 * num_nodes):
        centre = rng.uniform(0, 1000, 3)
        width = rng.uniform(50, 400, 3)
        system.subscribe(
            int(rng.integers(0, num_nodes)),
            Subscription.from_box(
                scheme,
                np.maximum(centre - width, 0).tolist(),
                np.minimum(centre + width, 1000).tolist(),
            ),
        )
    system.finish_setup()
    victims = [num_nodes // 3, 2 * num_nodes // 3] if crash else []
    t0 = system.sim.now
    for k in range(N_EVENTS):
        addr = int(rng.integers(0, num_nodes))
        while addr in victims:
            addr = (addr + 1) % num_nodes
        system.sim.schedule_at(
            t0 + 40.0 * k, system.publish, addr,
            Event(scheme, rng.uniform(0, 1000, 3).tolist()),
        )
    if crash:
        def fail():
            for addr in victims:
                system.nodes[addr].fail()
            lost = system.nodes[num_nodes // 2]
            lost.successors = []
            lost.fingers = {}

        system.sim.schedule_at(t0 + 40.0 * 20 + 1.0, fail)
    system.run_until_idle()
    return system


def observed(system: HyperSubSystem) -> dict:
    stats = system.network.stats
    return {
        "digest": delivery_digest(system),
        "msgs_by_kind": dict(stats.msgs_by_kind),
        "bytes_by_kind": dict(stats.bytes_by_kind),
        "in_bytes": stats.in_bytes.tolist(),
        "out_bytes": stats.out_bytes.tolist(),
        "records": {
            eid: (rec.bytes, rec.messages, rec.deliveries)
            for eid, rec in system.metrics.records.items()
        },
        "route_cache": system.route_cache_stats(),
        "unroutable": stats.unroutable,
        "dropped": dict(stats.dropped_by_cause),
    }


@pytest.mark.parametrize("crash", [False, True])
@pytest.mark.parametrize("base", [2, 4])
@pytest.mark.parametrize("num_nodes", [16, 64])
def test_plain_handler_measures_what_the_general_loop_does(
    monkeypatch, num_nodes, base, crash
):
    plain = run_system(num_nodes, base, crash)
    assert plain.nodes[0]._handlers["ps_event"] is HyperSubChordNode._on_plain_event
    with monkeypatch.context() as m:
        general_loop = PubSubNodeMixin._process_event
        m.setattr(HyperSubChordNode, "_on_plain_event", general_loop)
        general = run_system(num_nodes, base, crash)
    assert general.nodes[0]._handlers["ps_event"] is general_loop
    expected = observed(general)
    assert observed(plain) == expected
    assert sum(len(r) for *_x, r in expected["records"].values()) > N_EVENTS
    if crash:  # the drop paths were taken, not just the happy one
        assert expected["unroutable"] > 0
        assert expected["dropped"]["dead_dst"] > 0


def _sends(monkeypatch, **cfg):
    """``(packet, src, dst, hops)`` per ``ps_event`` send of a 16-node
    run, read at the send."""
    sent = []
    real = Network.send

    def send(self, msg):
        if msg.kind == "ps_event":
            # the packet is kept alive: distinct objects have distinct ids
            sent.append((msg, msg.src, msg.dst, msg.hops))
        real(self, msg)

    monkeypatch.setattr(Network, "send", send)
    run_system(16, 2, False, **cfg)
    return sent


def test_a_best_effort_relay_sends_the_arrived_message_on(monkeypatch):
    sent = _sends(monkeypatch)
    by_object = {}
    for msg, src, dst, hops in sent:
        by_object.setdefault(id(msg), []).append((src, dst, hops))
    chains = [sends for sends in by_object.values() if len(sends) > 1]
    assert chains
    for sends in chains:
        # each send goes on from where the last one arrived, one hop on
        for (_s, dst, hops), (src, _d, next_hops) in zip(sends, sends[1:]):
            assert src == dst and next_hops == hops + 1


def test_a_reliable_config_never_reuses_a_message(monkeypatch):
    sent = _sends(monkeypatch, reliable_delivery=True)
    assert sent
    assert len({id(msg) for msg, *_rest in sent}) == len(sent)
