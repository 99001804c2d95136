"""The one delivery judge: did a run deliver what the paper promises?

An event must reach *every* subscription it matches and nothing else,
exactly once (Alg. 5, Sections 3.3-3.4); ordered modes add publisher
FIFO and causal order.  Every experiment, chaos round and combination
test is judged here, by brute force over ``Subscription.matches`` --
nothing of the zoning, routing or index code is consulted, so a bug
there cannot hide itself.  docs/FAULTS.md "How a run is judged" states
the contract and names the references that stay independent of it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.core.event import Event
from repro.core.subscription import SubID, Subscription


@dataclass(frozen=True)
class Published:
    """What the log knows about one event it published."""

    publisher: int  #: address of the publishing node
    k: int  #: this was the publisher's k-th publish (1-based)
    event: Event
    #: event ids already delivered at the publisher node when it
    #: published -- the happened-before set of the causal check
    deps: FrozenSet[int]


class RunLog:
    """Records a run as its applications saw it: what was published
    (through :meth:`publish`) and every delivery, in delivery order."""

    def __init__(self, system) -> None:
        self.system = system
        self.published: Dict[int, Published] = {}
        #: (event id, subid) per ``on_deliver`` call, in call order
        self.deliveries: List[Tuple[int, SubID]] = []
        self._seen: Dict[int, set] = {}
        self._count: Dict[int, int] = {}
        system.on_deliver = self._on_deliver

    def _on_deliver(self, addr: int, event_id: int, subid: SubID) -> None:
        self.deliveries.append((event_id, subid))
        self._seen.setdefault(addr, set()).add(event_id)

    def publish(self, addr: int, event: Event) -> int:
        deps = frozenset(self._seen.get(addr, ()))
        eid = self.system.publish(addr, event)
        k = self._count[addr] = self._count.get(addr, 0) + 1
        self.published[eid] = Published(addr, k, event, deps)
        return eid

    def schedule_poisson(
        self, gen, rng, start_ms: float, count: int, publishers, mean_ms: float
    ) -> Tuple[List[int], float]:
        """Schedule ``count`` publishes with exponential gaps of mean
        ``mean_ms`` after ``start_ms``, each from a uniformly drawn
        member of ``publishers``.  Draw order per event: gap, publisher
        index, ``gen.event()``.  Returns the list the event ids are
        appended to as the publishes fire, and the last publish time."""
        eids: List[int] = []
        t = start_ms
        for _ in range(count):
            t += float(rng.exponential(mean_ms))
            addr = int(publishers[rng.integers(0, len(publishers))])
            self.system.sim.schedule_at(t, self._fire, eids, addr, gen.event())
        return eids, t

    def _fire(self, eids: List[int], addr: int, event: Event) -> None:
        eids.append(self.publish(addr, event))


@dataclass(frozen=True)
class Verdict:
    """Counts over (event, subscription) pairs; ``delivered`` counts
    expected pairs that arrived at least once, each extra copy is one
    ``duplicate`` and a pair that matches nothing installed (wrong
    match, unknown or already-unsubscribed SubID) is ``spurious``."""

    expected: int
    delivered: int
    missing: int
    duplicate: int
    spurious: int
    fifo_violations: int
    causal_violations: int

    @property
    def ratio(self) -> float:
        return self.delivered / self.expected if self.expected else 1.0

    @property
    def exactly_once(self) -> bool:
        return self.duplicate == 0 and self.spurious == 0


def judge(
    log: RunLog,
    installed: Iterable[Tuple[Subscription, SubID]],
    alive: Optional[Callable[[int], bool]] = None,
    events: Optional[Iterable[int]] = None,
) -> Verdict:
    """Judge the logged deliveries against ``installed``.

    ``alive(addr)`` says whether a subscriber address owes a delivery:
    subscriptions of addresses it rejects are not expected (a delivery
    to one is still not spurious).  ``events`` restricts the verdict to
    those event ids (a phase); the default is everything published.
    """
    eids = list(log.published) if events is None else list(events)
    subs = list(installed)
    owed = {sid for _s, sid in subs}
    if alive is not None:
        addr_of = log.system.ring.addr
        owed = {sid for sid in owed if alive(addr_of(sid.nid))}
    matching = set()
    for eid in eids:
        event = log.published[eid].event
        matching.update((eid, sid) for s, sid in subs if s.matches(event))
    want = {pair for pair in matching if pair[1] in owed}

    chosen = set(eids)
    logged = [d for d in log.deliveries if d[0] in chosen]
    seen = Counter(logged)
    delivered = len(want & seen.keys())

    per_sub: Dict[SubID, List[int]] = {}
    for eid, sid in logged:
        per_sub.setdefault(sid, []).append(eid)
    fifo = causal = 0
    for seq in per_sub.values():
        # FIFO: a subscription saw two events of one publisher out of
        # the order publish() was invoked in.
        high: Dict[int, int] = {}
        # Causal: a delivery precedes one of its dependencies that the
        # same subscription also received.
        pos = {eid: i for i, eid in enumerate(seq)}
        for i, eid in enumerate(seq):
            pub = log.published[eid]
            if pub.k < high.get(pub.publisher, 0):
                fifo += 1
            else:
                high[pub.publisher] = pub.k
            causal += sum(1 for dep in pub.deps if pos.get(dep, -1) > i)
    return Verdict(
        expected=len(want),
        delivered=delivered,
        missing=len(want) - delivered,
        duplicate=sum(seen.values()) - len(seen),
        spurious=len(seen.keys() - matching),
        fifo_violations=fifo,
        causal_violations=causal,
    )


def drain_custody(
    system, slice_ms: float = 5_000.0, cap_ms: float = 600_000.0
) -> int:
    """The adaptive heal tail of a durable run: keep the simulation
    running, ``slice_ms`` at a time, until every custody log is empty
    or ``cap_ms`` has passed; returns what is left.

    Custody retirement is the termination signal: every obligation is
    eventually ackable (victims rejoin, storms subside), so "heals
    eventually" needs *eventually*, not a guessed drain time -- and a
    run that cannot drain within the cap has a retirement bug, which
    the caller's drain check reports from the return value."""
    deadline = system.sim.now + cap_ms
    while system.sim.now < deadline and custody_left(system):
        system.run(until=min(deadline, system.sim.now + slice_ms))
    return custody_left(system)


def custody_left(system) -> int:
    """Unretired custody-log entries across the fleet."""
    return sum(
        len(n.durable.log) for n in system.nodes if n.durable is not None
    )
