"""Tests for the shared OverlayNode machinery (dispatch, lookups)."""

import itertools
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.base import MAX_LOOKUP_RESTARTS, LookupResult
from repro.dht.chord import build_chord_overlay
from repro.dht.idspace import ID_SPACE, random_ids
from repro.dht.pastry import build_pastry_overlay
from repro.sim.engine import Simulator
from repro.sim.messages import CONTROL_BYTES, Message
from repro.sim.network import Network
from repro.sim.topology import ConstantTopology, KingLikeTopology


def build(n=30, seed=1):
    sim = Simulator()
    net = Network(sim, ConstantTopology(n, rtt=50.0))
    nodes, ring = build_chord_overlay(net, seed=seed)
    return sim, net, nodes, ring


class TestDispatch:
    def test_duplicate_handler_rejected(self):
        _, _, nodes, _ = build(5)
        with pytest.raises(ValueError):
            nodes[0].register_handler("dht_lookup_step", lambda m: None)

    def test_unknown_kind_raises(self):
        sim, net, nodes, _ = build(5)
        with pytest.raises(KeyError):
            nodes[0].handle_message(
                Message(src=1, dst=0, kind="bogus", payload=None, size_bytes=1)
            )

    def test_fail_makes_node_drop_messages(self):
        sim, net, nodes, _ = build(5)
        nodes[2].fail()
        assert not nodes[2].alive()
        net.send(Message(src=0, dst=2, kind="dht_lookup_step",
                         payload={"key": 1, "lid": 0, "origin": 0},
                         size_bytes=10))
        sim.run()
        assert net.dropped == 1


class TestLookups:
    def test_concurrent_lookups_do_not_interfere(self):
        sim, _, nodes, ring = build(60, seed=4)
        results = {}
        keys = [ring.ids[i] for i in range(0, 60, 7)]
        for i, key in enumerate(keys):
            nodes[0].lookup(key, lambda res, i=i: results.__setitem__(i, res))
        sim.run_until_idle()
        assert len(results) == len(keys)
        for i, key in enumerate(keys):
            assert results[i].home_id == ring.successor(key)

    def test_lookup_from_every_node_same_answer(self):
        sim, _, nodes, ring = build(40, seed=5)
        key = 123456789
        answers = []
        for node in nodes[:10]:
            node.lookup(key, lambda res: answers.append(res.home_id))
        sim.run_until_idle()
        assert len(set(answers)) == 1
        assert answers[0] == ring.successor(key)

    def test_stale_lookup_reply_ignored(self):
        sim, _, nodes, _ = build(10)
        # A reply for an unknown lookup id must be dropped silently.
        nodes[0].handle_message(
            Message(
                src=1, dst=0, kind="dht_lookup_reply",
                payload={"lid": 999999, "key": 1, "done": True,
                         "next": 1, "node_id": 42},
                size_bytes=10,
            )
        )

    def test_lookup_counts_control_bytes(self):
        sim, net, nodes, ring = build(40, seed=6)
        before = net.stats.total_bytes
        done = []
        nodes[0].lookup(ring.ids[20], done.append)
        sim.run_until_idle()
        assert done
        # Iterative lookup: at least one step+reply pair of control bytes.
        assert net.stats.total_bytes > before
        assert net.stats.msgs_by_kind.get("dht_lookup_step", 0) >= 1
        assert net.stats.msgs_by_kind["dht_lookup_step"] == net.stats.msgs_by_kind["dht_lookup_reply"]


# ----------------------------------------------------------------------
# lookup() against a reference walk that mails every step
# ----------------------------------------------------------------------


class MailedLookup:
    """The iterative lookup with every step a packet -- the origin's own
    first step and its reply included, as ``OverlayNode.lookup`` worked
    before it answered that step by function call.  Self-addressed
    packets cost no bytes and no latency and are not counted as
    messages, so the two must yield the same results at the same
    simulated times for the same traffic.  Own message kinds and own
    pending table; the routing (``next_hop_addr``) is the node's.
    """

    def __init__(self, nodes):
        self.pending = {}
        self.ids = itertools.count()
        for node in nodes:
            node.register_handler("ref_lookup_step", partial(self._on_step, node))
            node.register_handler("ref_lookup_reply", partial(self._on_reply, node))

    def lookup(self, node, key, callback):
        lid = next(self.ids)
        self.pending[lid] = {
            "key": key, "callback": callback, "hops": 0, "start": node.sim.now,
        }
        self._query(node, lid, key, node.addr)

    def _restart(self, node, lid):
        state = self.pending.get(lid)
        if state is None or not node.alive():
            return
        self._query(node, lid, state["key"], node.addr)

    def _query(self, node, lid, key, target_addr):
        node.send(
            Message(
                src=node.addr, dst=target_addr, kind="ref_lookup_step",
                payload={"key": key, "lid": lid, "origin": node.addr},
                size_bytes=CONTROL_BYTES,
            )
        )

    def _on_step(self, node, msg):
        key = msg.payload["key"]
        nxt = node.next_hop_addr(key)
        node.send(
            Message(
                src=node.addr, dst=msg.payload["origin"], kind="ref_lookup_reply",
                payload={
                    "lid": msg.payload["lid"], "key": key, "done": nxt is None,
                    "next": node.addr if nxt is None else nxt,
                    "node_id": node.node_id,
                },
                size_bytes=CONTROL_BYTES,
            )
        )

    def _on_reply(self, node, msg):
        lid = msg.payload["lid"]
        state = self.pending.get(lid)
        if state is None:
            return
        state["hops"] += 1
        if state["hops"] > 4 * max(4, node.network.topology.size.bit_length() * 4):
            state["restarts"] = state.get("restarts", 0) + 1
            node.network.stats.lookup_restarts += 1
            if state["restarts"] > 10:
                del self.pending[lid]
                return
            state["hops"] = 0
            node.sim.schedule(500.0, self._restart, node, lid)
            return
        if msg.payload["done"]:
            del self.pending[lid]
            state["callback"](
                LookupResult(
                    key=state["key"], home_addr=msg.payload["next"],
                    home_id=msg.payload["node_id"], hops=state["hops"],
                    latency_ms=node.sim.now - state["start"],
                )
            )
        else:
            self._query(node, lid, state["key"], msg.payload["next"])


BUILDERS = {
    "chord": build_chord_overlay,
    "pastry": build_pastry_overlay,
}


def build_ring(overlay, n, seed):
    sim = Simulator()
    net = Network(sim, KingLikeTopology(n, seed=seed))
    nodes, ring = BUILDERS[overlay](net, seed=seed)
    return sim, net, nodes, ring


def walk(overlay, n, seed, requests, mailed, before_run=None):
    """Issue ``requests`` (delay_ms, origin addr, key) on a fresh ring;
    returns what each callback saw, the traffic, and the pieces."""
    sim, net, nodes, ring = build_ring(overlay, n, seed)
    ref_walker = MailedLookup(nodes) if mailed else None
    seen = {}
    inside = []

    def issue(i, origin, key):
        def callback(res, i=i):
            assert not inside, "callback ran inside lookup()"
            assert i not in seen
            seen[i] = (res.key, res.home_addr, res.home_id, res.hops,
                       res.latency_ms, sim.now)

        inside.append(i)
        if mailed:
            ref_walker.lookup(nodes[origin], key, callback)
        else:
            nodes[origin].lookup(key, callback)
        inside.pop()

    for i, (delay, origin, key) in enumerate(requests):
        sim.schedule(delay, issue, i, origin, key)
    if before_run is not None:
        before_run(sim, net, nodes)
    sim.run_until_idle()
    stats = net.stats
    steps = stats.msgs_by_kind.get("ref_lookup_step" if mailed else "dht_lookup_step", 0)
    replies = stats.msgs_by_kind.get("ref_lookup_reply" if mailed else "dht_lookup_reply", 0)
    traffic = (stats.total_msgs, stats.total_bytes, steps, replies,
               stats.dropped_by_cause, stats.lookup_restarts)
    return seen, traffic, (sim, net, nodes, ring, ref_walker)


@st.composite
def lookup_schedules(draw):
    overlay = draw(st.sampled_from(sorted(BUILDERS)))
    n = draw(st.sampled_from([1, 2, 3, 17, 40]))
    seed = draw(st.integers(1, 10_000))
    ids = random_ids(n, seed)  # what the builders draw for this seed
    key = st.one_of(
        st.integers(0, ID_SPACE - 1),
        # a node's own id, the id after it and the one before it
        st.tuples(st.sampled_from(ids), st.sampled_from([-1, 0, 1])).map(
            lambda t: (t[0] + t[1]) % ID_SPACE
        ),
    )
    requests = draw(
        st.lists(
            st.tuples(st.sampled_from([0.0, 0.0, 7.5, 40.0]), st.integers(0, n - 1), key),
            min_size=1, max_size=12,
        )
    )
    # always: some origin asking for its own id (origin == home)
    own = draw(st.integers(0, n - 1))
    requests.append((0.0, own, ids[own]))
    return overlay, n, seed, requests


class TestLookupEqualsMailedWalk:
    @given(schedule=lookup_schedules())
    @settings(max_examples=60, deadline=None)
    def test_same_results_same_times_same_traffic(self, schedule):
        overlay, n, seed, requests = schedule
        got, got_traffic, (_, _, nodes, ring, _) = walk(overlay, n, seed, requests, mailed=False)
        want, want_traffic, (_, _, _, _, ref_walker) = walk(overlay, n, seed, requests, mailed=True)
        assert got == want
        assert got_traffic == want_traffic
        assert len(got) == len(requests)
        assert not ref_walker.pending
        assert all(not node._pending_lookups for node in nodes)
        for i, (_delay, origin, key) in enumerate(requests):
            _key, home_addr, home_id, hops, latency, _now = got[i]
            assert nodes[home_addr].node_id == home_id
            assert nodes[home_addr].is_responsible(key)
            if overlay != "pastry":  # Pastry homes on the numerically closest id
                assert home_id == ring.successor(key)
            if home_addr == nodes[origin].addr:
                assert (hops, latency) == (1, 0.0)

    @pytest.mark.parametrize("overlay", sorted(BUILDERS))
    def test_origin_is_home_completes_at_zero_delay_but_not_inside_lookup(self, overlay):
        sim, net, nodes, ring = build_ring(overlay, 9, seed=3)
        node = nodes[4]
        results = []
        sim.run(until=123.0)
        node.lookup(node.node_id, results.append)
        assert results == []  # asynchronous, even when nobody is asked
        # what is queued is a method of this package, not the caller's
        # callback (here a builtin): span tracers attribute scheduler
        # dispatches by the callable's module
        ((_time, _seq, fn, _args),) = sim._queue
        assert fn.__func__.__module__ == "repro.dht.base"
        sim.run_until_idle()
        (res,) = results
        assert (res.home_addr, res.home_id, res.hops, res.latency_ms) == (
            node.addr, node.node_id, 1, 0.0,
        )
        assert sim.now == 123.0
        assert net.stats.total_msgs == 0 and net.stats.total_bytes == 0.0

    @pytest.mark.parametrize("mailed", [False, True])
    def test_dead_origin_asks_nobody_and_is_counted(self, mailed):
        def crash(sim, net, nodes):
            nodes[2].fail()

        requests = [(10.0, 2, 12345), (10.0, 2, 0)]
        seen, traffic, _ = walk("chord", 17, 5, requests, mailed, before_run=crash)
        assert seen == {}
        msgs, _bytes, _steps, _replies, drops, _restarts = traffic
        assert msgs == 0
        assert drops["dead_dst"] == 2

    @pytest.mark.parametrize("mailed", [False, True])
    def test_origin_crashing_mid_lookup_never_hears_back(self, mailed):
        """A crash between the call and its zero-delay completion, and
        a crash while a reply is in flight: no callback, and each lost
        answer is one counted ``dead_dst`` drop."""
        _, _, probe, _ = build_ring("chord", 17, 5)
        remote_key = next(
            n.node_id for n in probe if probe[6].next_hop_addr(n.node_id) is not None
        )

        def crash(sim, net, nodes):
            # queued after the t=10 request: the lookup call precedes
            # the crash, its completion follows it
            sim.schedule(10.0, nodes[6].fail)

        requests = [(10.0, 6, probe[6].node_id), (9.0, 6, remote_key)]
        seen, traffic, _ = walk("chord", 17, 5, requests, mailed, before_run=crash)
        assert seen == {}
        msgs, _bytes, steps, replies, drops, _restarts = traffic
        assert (msgs, steps, replies) == (2, 1, 1)
        assert drops["dead_dst"] == 2

    def test_crash_mid_lookup_equals_mailed_walk(self):
        def crash(sim, net, nodes):
            sim.schedule(10.0, nodes[6].fail)
            sim.schedule(10.0, nodes[9].fail)

        ids = random_ids(17, 5)
        requests = [(10.0, 6, ids[6]), (9.0, 6, ids[1]), (0.0, 3, ids[9] - 5),
                    (0.0, 9, ids[2]), (11.0, 9, ids[2])]
        got = walk("chord", 17, 5, requests, mailed=False, before_run=crash)
        want = walk("chord", 17, 5, requests, mailed=True, before_run=crash)
        assert got[0] == want[0] and got[1] == want[1]


class TestLookupRestart:
    """A routing loop restarts the walk from the origin after a backoff;
    ten fruitless restarts abandon it -- counted, never silent."""

    @staticmethod
    def loop(nodes, key, heal_after=None):
        """Make nodes 1 and 2 bounce ``key`` between them, for good or
        until the walk has been restarted ``heal_after`` times."""
        real = {a: nodes[a].next_hop_addr for a in (1, 2)}
        stats = nodes[1].network.stats

        def bouncing(addr, other):
            def next_hop_addr(k):
                looping = heal_after is None or stats.lookup_restarts < heal_after
                return other if k == key and looping else real[addr](k)
            return next_hop_addr

        nodes[1].next_hop_addr = bouncing(1, 2)
        nodes[2].next_hop_addr = bouncing(2, 1)

    def run(self, mailed, heal_after):
        key = 0xDEADBEEF

        def install_loop(sim, net, nodes):
            self.loop(nodes, key, heal_after)

        return walk("chord", 3, 8, [(0.0, 1, key)], mailed, before_run=install_loop)

    def test_unbroken_loop_is_abandoned_and_counted(self):
        seen, traffic, (sim, net, nodes, _, _) = self.run(mailed=False, heal_after=None)
        assert seen == {}
        assert net.stats.lookup_restarts == MAX_LOOKUP_RESTARTS + 1
        assert net.stats.lookup_abandoned == 1
        assert nodes[1]._pending_lookups == {}
        from repro.analysis.trace import render_transport_summary, transport_summary

        assert transport_summary(net.stats)["lookup_abandoned"] == 1
        assert "1 lookups abandoned" in render_transport_summary(net.stats)
        net.stats.reset()
        assert net.stats.lookup_abandoned == 0 and net.stats.lookup_restarts == 0
        # same walk, same traffic as when every step was mailed
        want_seen, want_traffic, _ = self.run(mailed=True, heal_after=None)
        assert want_seen == {} and traffic == want_traffic

    def test_healed_loop_completes_after_backoff(self):
        seen, traffic, (sim, net, nodes, ring, _) = self.run(mailed=False, heal_after=2)
        want_seen, want_traffic, _ = self.run(mailed=True, heal_after=2)
        assert seen == want_seen and traffic == want_traffic
        (result,) = seen.values()
        _key, _home_addr, home_id, _hops, latency, _now = result
        assert home_id == ring.successor(0xDEADBEEF)
        assert latency > 2 * 500.0  # two backoffs
        assert net.stats.lookup_restarts == 2 and net.stats.lookup_abandoned == 0
