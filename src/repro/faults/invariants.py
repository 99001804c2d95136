"""Mid-simulation consistency checking.

Failure injection is only trustworthy if the system's steady state can
be audited after (or between) fault windows.  :class:`InvariantChecker`
inspects a :class:`~repro.core.system.HyperSubSystem` with global
knowledge (it is an oracle, not a protocol) and verifies:

* **ring consistency** -- every alive Chord node's first successor and
  predecessor are the clockwise-adjacent *alive* identifiers;
* **zone-responsibility coverage** -- every live user subscription is
  reachable: the alive node responsible for its zone key actually holds
  the subscription's box (in a live repository, a standby replica
  awaiting takeover, or a migrated store);
* **replica-count floors** -- with ``replication_factor = k``, every
  entry of every rendezvous-served repository exists on at least
  ``min(k, alive)`` alive nodes (the durability goal anti-entropy
  re-replication maintains after takeovers);
* **ordering** (opt-in) -- replays the telemetry span trace through the
  per-scheme ordering oracle (:mod:`repro.analysis.trace`): FIFO and
  causal runs must show zero out-of-order deliveries, redelivery and
  failover included (see docs/GUARANTEES.md).

Checks are individually switchable because they assert *stabilised*
state: ring consistency holds only after maintenance has converged, and
replica floors only when anti-entropy has had a full period.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.system import HyperSubSystem


@dataclass
class InvariantReport:
    """Outcome of one :meth:`InvariantChecker.check` pass."""

    time_ms: float
    checked: List[str] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        head = (
            f"invariants @ t={self.time_ms:.0f}ms "
            f"[{', '.join(self.checked)}]: "
        )
        if self.ok:
            return head + "OK"
        lines = [head + f"{len(self.violations)} violation(s)"]
        lines += [f"  - {v}" for v in self.violations[:20]]
        if len(self.violations) > 20:
            lines.append(f"  ... and {len(self.violations) - 20} more")
        return "\n".join(lines)


class InvariantChecker:
    """Global-knowledge auditor for a running HyperSub deployment."""

    def __init__(
        self,
        check_ring: bool = True,
        check_coverage: bool = True,
        check_replicas: bool = False,
        check_ordering: bool = False,
    ) -> None:
        self.check_ring = check_ring
        self.check_coverage = check_coverage
        self.check_replicas = check_replicas
        self.check_ordering = check_ordering

    # ------------------------------------------------------------------
    def check(self, system: "HyperSubSystem") -> InvariantReport:
        report = InvariantReport(time_ms=system.sim.now)
        alive = [n for n in system.nodes if n.alive()]
        if not alive:
            report.violations.append("no alive nodes")
            return report
        if self.check_ring:
            report.checked.append("ring")
            self._check_ring(alive, report)
        if self.check_coverage:
            report.checked.append("coverage")
            self._check_coverage(system, alive, report)
        if self.check_replicas:
            report.checked.append("replicas")
            self._check_replicas(system, alive, report)
        if self.check_ordering:
            report.checked.append("ordering")
            self._check_ordering(system, report)
        tel = getattr(system, "telemetry", None)
        if tel is not None:
            tel.registry.counter("invariants.checks").inc()
            if report.violations:
                tel.registry.counter("invariants.violations").inc(
                    len(report.violations)
                )
        return report

    # ------------------------------------------------------------------
    @staticmethod
    def _check_ring(alive, report: InvariantReport) -> None:
        by_id = sorted(alive, key=lambda n: n.node_id)
        n = len(by_id)
        for i, node in enumerate(by_id):
            want_succ = by_id[(i + 1) % n]
            want_pred = by_id[(i - 1) % n]
            if n == 1:
                continue
            if not node.successors:
                report.violations.append(
                    f"node {node.addr}: empty successor list"
                )
                continue
            got = node.successors[0]
            if got[0] != want_succ.node_id:
                report.violations.append(
                    f"node {node.addr}: successor {got[0]:#x} != next alive "
                    f"{want_succ.node_id:#x}"
                )
            if node.predecessor is None:
                report.violations.append(f"node {node.addr}: no predecessor")
            elif node.predecessor[0] != want_pred.node_id:
                report.violations.append(
                    f"node {node.addr}: predecessor {node.predecessor[0]:#x} "
                    f"!= previous alive {want_pred.node_id:#x}"
                )

    # ------------------------------------------------------------------
    @staticmethod
    def _responsible(alive_sorted, key: int):
        """Successor-of-key over the *alive* identifier set."""
        for node in alive_sorted:
            if node.node_id >= key:
                return node
        return alive_sorted[0]  # wrap

    def _check_coverage(self, system, alive, report: InvariantReport) -> None:
        from repro.core.subscription import SubID

        alive_sorted = sorted(alive, key=lambda n: n.node_id)
        # Migrated stores move entries off the surrogate; index them once.
        migrated_holders: Set[Tuple[int, int]] = set()
        for node in alive:
            for _scheme, store in node.migrated.values():
                migrated_holders.update((s.nid, s.iid) for s in store.subids())
        for node in alive:
            for iid, (entity_key, _sub, zone, _subid) in node.own_subs.items():
                entity = system.entity(entity_key)
                key = entity.rotated_key(zone)
                home = self._responsible(alive_sorted, key)
                subid = SubID(node.node_id, iid)
                if self._holds(home, entity_key, zone, subid):
                    continue
                if (subid.nid, subid.iid) in migrated_holders:
                    continue
                report.violations.append(
                    f"sub {subid} of node {node.addr} not held by responsible "
                    f"node {home.addr} (zone {zone.code:#x}/L{zone.level})"
                )

    @staticmethod
    def _holds(home, entity_key: str, zone, subid) -> bool:
        repo_key = (entity_key, zone.code, zone.level)
        repo = home.zone_repos.get(repo_key)
        if repo is not None and subid in repo.store:
            return True
        standby = home.standby_repos.get(repo_key)
        return standby is not None and subid in standby.store

    # ------------------------------------------------------------------
    @staticmethod
    def _check_ordering(system, report: InvariantReport) -> None:
        """Replay the span trace through the per-scheme ordering oracle.

        Needs an active telemetry session with tracing on (the oracle
        is a trace replay, not live protocol state) and a configured
        ``ordering``; both missing prerequisites are reported as
        violations rather than silently passing.
        """
        from repro.analysis.trace import ordering_violations

        ordering = system.config.ordering
        if ordering == "none":
            report.violations.append(
                "ordering check requested but config.ordering == 'none'"
            )
            return
        tel = getattr(system, "telemetry", None)
        if tel is None or not tel.tracing:
            report.violations.append(
                "ordering check requested but span tracing is not active"
            )
            return
        for v in ordering_violations(tel.tracer.spans, ordering):
            report.violations.append(f"ordering: {v}")

    # ------------------------------------------------------------------
    @staticmethod
    def _check_replicas(system, alive, report: InvariantReport) -> None:
        k = system.config.replication_factor
        floor = min(k, len(alive))
        if floor <= 1:
            return
        # holders[(repo_key, subid)] = number of alive nodes with a copy
        holders: Dict[tuple, int] = {}
        for node in alive:
            for repo_key, repo in node.zone_repos.items():
                for sid in repo.store.subids():
                    holders[(repo_key, sid)] = holders.get((repo_key, sid), 0) + 1
            for repo_key, repo in node.standby_repos.items():
                if repo_key in node.zone_repos:
                    continue  # promoted: already counted live
                for sid in repo.store.subids():
                    holders[(repo_key, sid)] = holders.get((repo_key, sid), 0) + 1
        for node in alive:
            rendezvous_keys = {
                rk for keys in node.rendezvous_index.values() for rk in keys
            }
            for repo_key in rendezvous_keys:
                repo = node.zone_repos.get(repo_key)
                if repo is None:  # pragma: no cover - defensive
                    continue
                for sid in repo.store.subids():
                    have = holders.get((repo_key, sid), 0)
                    if have < floor:
                        report.violations.append(
                            f"repo {repo_key} entry {sid}: {have} copies "
                            f"< floor {floor}"
                        )
