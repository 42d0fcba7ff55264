"""Continuous invariant auditing: catch corruption the moment it happens.

A chaos campaign is only as trustworthy as its bookkeeping.  If the ledger
cache drifted from its journal, or a dead instance kept holding capacity,
or the reliability algebra in the runtime state diverged from the paper's
Eq. 1, the campaign's SLO numbers would be fiction -- and a soak run would
*hide* the bug under thousands of events.  The
:class:`InvariantAuditor` therefore re-derives ground truth from first
principles on a configurable cadence and aborts the campaign with a
forensic dump the moment anything disagrees:

1. **cache vs journal** -- per-node occupancy re-derived as the in-order
   journal fold must equal the cached ``used`` **byte-exactly** (``==`` on
   floats; :meth:`CapacityLedger._remove` refolds a node's journal on every
   release, so a healthy ledger satisfies this with zero tolerance);
2. **capacity feasibility** -- ``used(v) <= initial(v)`` everywhere;
3. **tag reconciliation** -- the journal's tag set must equal exactly
   {live instance tags} + {blockades of currently-down cloudlets}: every
   live instance holds exactly one allocation at its own cloudlet for
   exactly its demand, dead instances hold nothing, no allocation is
   orphaned, and a blockaded cloudlet has (at most epsilon) zero residual;
4. **reliability re-derivation** -- each chain's
   :meth:`~repro.resilience.state.CommittedChain.live_reliability` must
   equal :func:`~repro.netmodel.failures.reliability_of_live_counts`
   (an independent implementation of the same algebra) exactly, and the
   metrics tracker's recorded ``slo_ok`` must match the re-derived
   verdict against the chain's (possibly shed) expectation;
5. **breaker timeline sanity** -- transition times non-decreasing and
   every edge a legal one of the CLOSED/OPEN/HALF_OPEN machine.

On violation the auditor raises
:class:`~repro.util.errors.AuditViolationError` carrying a forensic dump
(and optionally writes it to a JSON file): the failed check, the offending
object, every chain's live state, the journal grouped by tag, and the
breaker timeline.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

from repro.chaos.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.netmodel.capacity import EPS, CapacityLedger
from repro.netmodel.failures import reliability_of_live_counts
from repro.resilience.injector import FailureInjector
from repro.resilience.metrics import MetricsTracker
from repro.util.errors import AuditViolationError

#: Legal breaker state transitions (from -> allowed targets).
_LEGAL_EDGES = {
    CLOSED: {OPEN},
    OPEN: {HALF_OPEN},
    HALF_OPEN: {CLOSED, OPEN},
}


class InvariantAuditor:
    """Re-derives runtime ground truth and aborts on any disagreement.

    Parameters
    ----------
    ledger:
        The stream's shared capacity ledger.
    injector:
        The failure injector (owns the chain registry and outage state).
    metrics:
        The stream's metrics tracker (its recorded SLO states are checked
        against re-derived reliability).
    breaker:
        Optional circuit breaker whose timeline is sanity-checked.
    dump_path:
        Optional file the forensic dump is written to (JSON) before the
        audit raises.
    """

    def __init__(
        self,
        ledger: CapacityLedger,
        injector: FailureInjector,
        metrics: MetricsTracker,
        breaker: CircuitBreaker | None = None,
        dump_path: str | Path | None = None,
    ):
        self.ledger = ledger
        self.injector = injector
        self.metrics = metrics
        self.breaker = breaker
        self.dump_path = Path(dump_path) if dump_path is not None else None
        #: Completed (passing) audits, for the campaign report.
        self.audits = 0

    # -- the audit --------------------------------------------------------------
    def audit(self, now: float) -> None:
        """Run every check; raise :class:`AuditViolationError` on failure."""
        self._check_cache(now)
        self._check_feasibility(now)
        self._check_tags(now)
        self._check_reliability(now)
        self._check_breaker(now)
        self.audits += 1

    def _check_cache(self, now: float) -> None:
        drift = self.ledger.audit_cache()
        if drift:
            self._fail(
                now,
                "cache-vs-journal",
                {
                    str(v): {"cached": cached, "derived": derived}
                    for v, (cached, derived) in drift.items()
                },
            )

    def _check_feasibility(self, now: float) -> None:
        violations = self.ledger.violations()
        if violations:
            self._fail(
                now,
                "capacity-feasibility",
                {str(v): excess for v, excess in violations.items()},
            )

    def _check_tags(self, now: float) -> None:
        by_tag = self.ledger.journal_tags()
        expected: set[str] = set()
        for chain in self.injector.chains():
            for inst in chain.instances:
                if inst.alive:
                    expected.add(inst.tag)
                    allocs = by_tag.get(inst.tag, [])
                    if (
                        len(allocs) != 1
                        or allocs[0].node != inst.cloudlet
                        or allocs[0].amount != inst.demand
                    ):
                        self._fail(
                            now,
                            "live-instance-allocation",
                            {
                                "chain": chain.name,
                                "tag": inst.tag,
                                "cloudlet": inst.cloudlet,
                                "demand": inst.demand,
                                "journal": [asdict(a) for a in allocs],
                            },
                        )
                elif inst.tag in by_tag:
                    self._fail(
                        now,
                        "dead-instance-holds-capacity",
                        {
                            "chain": chain.name,
                            "tag": inst.tag,
                            "journal": [asdict(a) for a in by_tag[inst.tag]],
                        },
                    )
        down = set(self.injector.down_cloudlets)
        for v in down:
            expected.add(f"outage:{v}")
            if self.ledger.residual(v) > EPS:
                self._fail(
                    now,
                    "blockade-leak",
                    {"cloudlet": v, "residual": self.ledger.residual(v)},
                )
        # a down cloudlet that was already full carries no blockade entry
        orphans = {
            tag
            for tag in by_tag
            if tag not in expected and not tag.startswith("outage:")
        }
        orphans |= {
            tag
            for tag in by_tag
            if tag.startswith("outage:") and int(tag.split(":", 1)[1]) not in down
        }
        if orphans:
            self._fail(
                now,
                "orphaned-allocations",
                {
                    tag: [asdict(a) for a in by_tag[tag]]
                    for tag in sorted(orphans)
                },
            )

    def _check_reliability(self, now: float) -> None:
        for chain in self.injector.chains():
            derived = reliability_of_live_counts(
                [func.reliability for func in chain.request.chain],
                chain.live_counts(),
            )
            recorded = chain.live_reliability()
            if derived != recorded:
                self._fail(
                    now,
                    "reliability-rederivation",
                    {
                        "chain": chain.name,
                        "recorded": recorded,
                        "derived": derived,
                        "live_counts": chain.live_counts(),
                    },
                )
            timeline = self.metrics.timeline(chain.name)
            if timeline is not None:
                verdict = chain.request.meets_expectation(derived)
                if timeline.slo_ok != verdict:
                    self._fail(
                        now,
                        "slo-state-drift",
                        {
                            "chain": chain.name,
                            "tracked_slo_ok": timeline.slo_ok,
                            "derived_slo_ok": verdict,
                            "derived_reliability": derived,
                            "expectation": chain.expectation,
                        },
                    )

    def _check_breaker(self, now: float) -> None:
        if self.breaker is None:
            return
        transitions = self.breaker.transitions
        for prev, cur in zip(transitions, transitions[1:]):
            if cur.time < prev.time:
                self._fail(
                    now,
                    "breaker-timeline-order",
                    {"before": asdict(prev), "after": asdict(cur)},
                )
            if cur.state not in _LEGAL_EDGES.get(prev.state, set()):
                self._fail(
                    now,
                    "breaker-illegal-transition",
                    {"before": asdict(prev), "after": asdict(cur)},
                )

    # -- forensics --------------------------------------------------------------
    def _fail(self, now: float, check: str, detail: dict) -> None:
        dump = {
            "time": now,
            "check": check,
            "detail": detail,
            "audits_passed": self.audits,
            "chains": [chain.describe() for chain in self.injector.chains()],
            "down_cloudlets": self.injector.down_cloudlets,
            "journal": {
                tag: [asdict(a) for a in allocs]
                for tag, allocs in self.ledger.journal_tags().items()
            },
            "breaker": [asdict(tr) for tr in self.breaker.transitions]
            if self.breaker is not None
            else [],
        }
        if self.dump_path is not None:
            self.dump_path.write_text(json.dumps(dump, indent=2, sort_keys=True))
            where = f"; forensic dump written to {self.dump_path}"
        else:
            where = ""
        raise AuditViolationError(
            f"invariant audit failed at t={now:.3f}: {check}{where}", dump
        )


def audit_sharded(ledger: CapacityLedger, now: float = 0.0, context: str = "service") -> None:
    """Refold audit over the ledger's per-node journals (streaming-service hook).

    The ledger's journal is sharded by node; this is the service's cut of
    :meth:`InvariantAuditor._check_cache` plus feasibility: every node's
    cached occupancy must equal the in-order refold of that node's entries
    in the allocation log **byte-exactly**, and no node may exceed its
    initial capacity.  Raises
    :class:`~repro.util.errors.AuditViolationError` with the divergence map
    on any disagreement.
    """
    drift = ledger.audit_cache()
    if drift:
        raise AuditViolationError(
            f"ledger cache drift at t={now:.3f} ({context}): "
            f"{len(drift)} node(s) diverge from the journal refold",
            {"time": now, "check": "cache-refold", "drift": {
                str(v): {"cached": cached, "derived": derived}
                for v, (cached, derived) in drift.items()
            }},
        )
    violations = ledger.violations()
    if violations:
        raise AuditViolationError(
            f"ledger capacity violation at t={now:.3f} ({context}): "
            f"{len(violations)} node(s) over initial capacity",
            {"time": now, "check": "capacity", "violations": {
                str(v): excess for v, excess in violations.items()
            }},
        )
