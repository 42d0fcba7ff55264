"""The fault-tolerant request-stream controller.

``run_resilient_stream`` is the system-level composition of everything the
repo has: requests arrive over simulated time onto shared capacity
(:mod:`repro.experiments.batch` semantics), a
:class:`~repro.resilience.injector.FailureInjector` destroys instances and
takes whole cloudlets down mid-flight, a
:class:`~repro.resilience.repair.RepairController` re-augments degraded
chains against whatever residual capacity is left, and every solve runs
through the configured algorithm -- typically a
:class:`~repro.algorithms.fallback.FallbackAlgorithm` so one slow or
crashing solver tier degrades service instead of halting it.

Three invariants the controller maintains:

* **transactional commits** -- each arrival (primaries + backups) and each
  repair is one ledger transaction bracketed by ``checkpoint()`` /
  ``rollback()``; a mid-commit :class:`CapacityError` leaves the ledger
  exactly as before the request;
* **no propagated solver failures** -- a fully exhausted fallback chain
  downgrades the request to a no-augmentation commit; the stream never
  re-raises from a solve;
* **ledger feasibility** -- ``used(v) <= initial(v)`` is asserted after
  every event; violations are counted in the report (and must be zero).

All randomness flows from one generator, and event ties break FIFO, so a
fixed seed makes the entire run -- arrivals, failures, repairs, metrics --
bit-reproducible.  That determinism is what the CI fault-injection smoke
job pins.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.admission.admit import random_primary_placement
from repro.algorithms.base import AugmentationAlgorithm
from repro.core.problem import AugmentationProblem
from repro.experiments.settings import ExperimentSettings
from repro.experiments.workload import make_network, make_request
from repro.netmodel.capacity import CapacityLedger
from repro.netmodel.graph import MECNetwork
from repro.netmodel.vnf import Request, VNFCatalog
from repro.resilience.injector import CLOUDLET_RECOVER, FailureConfig, FailureInjector
from repro.resilience.metrics import MetricsTracker, RequestOutcome, ResilienceReport
from repro.resilience.repair import RepairController, RepairPolicy
from repro.resilience.state import CommittedChain, LiveInstance
from repro.simulation.engine import EventQueue
from repro.util.errors import (
    CapacityError,
    FallbackExhaustedError,
    InfeasibleError,
    ValidationError,
)
from repro.util.rng import RandomState, as_rng

#: Event kinds owned by the stream itself.
ARRIVAL = "arrival"
REPAIR_RETRY = "repair-retry"


@dataclass(frozen=True)
class ResilienceConfig:
    """Shape of one resilient run.

    Attributes
    ----------
    horizon:
        Simulated time span (in instance-MTTR units by default).
    arrival_span:
        Fraction of the horizon over which arrivals are evenly spread;
        the remainder is pure fault/repair operation.
    failures:
        Failure-process parameters (see :class:`FailureConfig`).
    policy:
        Repair retry/backoff discipline (see :class:`RepairPolicy`).
    """

    horizon: float = 40.0
    arrival_span: float = 0.4
    failures: FailureConfig = field(default_factory=FailureConfig)
    policy: RepairPolicy = field(default_factory=RepairPolicy)

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ValidationError(f"horizon must be positive, got {self.horizon}")
        if not (0.0 < self.arrival_span <= 1.0):
            raise ValidationError(
                f"arrival_span must be in (0, 1], got {self.arrival_span}"
            )


class ResilientStreamController:
    """Event-loop state of one resilient run (used via ``run_resilient_stream``)."""

    def __init__(
        self,
        settings: ExperimentSettings,
        algorithm: AugmentationAlgorithm,
        config: ResilienceConfig,
        network: MECNetwork,
        catalog: VNFCatalog,
        rng,
    ):
        self.settings = settings
        self.algorithm = algorithm
        self.config = config
        self.network = network
        self.catalog = catalog
        self.rng = rng
        self.ledger = CapacityLedger({v: network.capacity(v) for v in network.cloudlets})
        self.queue = EventQueue()
        self.neighborhoods = network.neighborhoods(settings.radius)
        self.injector = FailureInjector(
            network, self.ledger, self.queue, config.failures, rng
        )
        self.repairer = RepairController(
            network,
            self.ledger,
            self.injector,
            algorithm,
            radius=settings.radius,
            policy=config.policy,
            neighborhoods=self.neighborhoods,
            rng=rng,
        )
        self.metrics = MetricsTracker()
        self._pending_repairs: set[str] = set()

    # -- arrival handling -------------------------------------------------------
    def _commit_request(self, request: Request, now: float) -> None:
        checkpoint = self.ledger.checkpoint()
        try:
            primaries = random_primary_placement(
                self.network, request, rng=self.rng, ledger=self.ledger
            )
        except InfeasibleError:
            self.metrics.on_outcome(
                RequestOutcome(
                    name=request.name,
                    arrived_at=now,
                    admitted=False,
                    reliability=0.0,
                    expectation=request.expectation,
                    expectation_met=False,
                    backups=0,
                    fallback_tier=None,
                    fallback_algorithm=None,
                )
            )
            return

        problem = AugmentationProblem.build(
            self.network,
            request,
            primaries,
            radius=self.settings.radius,
            residuals=self.ledger.residuals(),
            neighborhoods=self.neighborhoods,
        )
        try:
            result = self.algorithm.solve(problem, rng=self.rng)
        except FallbackExhaustedError:
            result = None  # degrade to a no-augmentation commit

        instances = [
            LiveInstance(
                position=i,
                cloudlet=v,
                demand=func.demand,
                reliability=func.reliability,
                tag=f"primary:{request.name}#{i}",
            )
            for i, (func, v) in enumerate(zip(request.chain, primaries))
        ]
        placements = result.solution.placements if result is not None else ()
        try:
            for placement in placements:
                tag = f"backup:{request.name}#{placement.position}.{placement.k}"
                self.ledger.allocate(placement.bin, placement.demand, tag=tag)
                func = request.chain[placement.position]
                instances.append(
                    LiveInstance(
                        position=placement.position,
                        cloudlet=placement.bin,
                        demand=placement.demand,
                        reliability=func.reliability,
                        tag=tag,
                    )
                )
        except CapacityError:
            # roll the *whole request* back -- primaries included
            self.ledger.rollback(checkpoint)
            self.metrics.on_outcome(
                RequestOutcome(
                    name=request.name,
                    arrived_at=now,
                    admitted=False,
                    reliability=0.0,
                    expectation=request.expectation,
                    expectation_met=False,
                    backups=0,
                    fallback_tier=None,
                    fallback_algorithm=None,
                )
            )
            return

        chain = CommittedChain(
            request=request,
            instances=instances,
            anchors=tuple(primaries),
            committed_at=now,
            met_at_commit=False,
        )
        reliability = chain.live_reliability()
        slo_ok = request.meets_expectation(reliability)
        chain.met_at_commit = slo_ok
        self.injector.register(chain, now)

        meta = dict(result.meta) if result is not None else {}
        serving = meta.get(
            "fallback_algorithm", result.algorithm if result is not None else "none"
        )
        self.metrics.on_outcome(
            RequestOutcome(
                name=request.name,
                arrived_at=now,
                admitted=True,
                reliability=reliability,
                expectation=request.expectation,
                expectation_met=slo_ok,
                backups=len(placements),
                fallback_tier=meta.get("fallback_tier"),
                fallback_algorithm=serving,
            )
        )
        self.metrics.on_commit(request.name, now, slo_ok)

    # -- repair handling --------------------------------------------------------
    def _schedule_repair(self, chain: CommittedChain, now: float, delay: float) -> None:
        """Schedule one repair event for ``chain``; no-op if one is pending."""
        if chain.name in self._pending_repairs:
            return
        self._pending_repairs.add(chain.name)
        self.queue.push(now + delay, (REPAIR_RETRY, chain.name))

    def _attempt_repair(self, chain: CommittedChain, now: float) -> None:
        outcome = self.repairer.repair(chain, now)
        self.metrics.on_repair(outcome)
        self.metrics.on_state(chain.name, now, chain.meets_slo())
        if outcome.retriable:
            self._schedule_repair(
                chain,
                now,
                self.config.policy.retry_delay(chain.repair_attempts, rng=self.rng),
            )

    def _rearm_repairs(self, now: float) -> None:
        """A cloudlet recovery returned capacity: previously hopeless repairs
        may succeed now, so exhausted chains get a fresh attempt budget."""
        for chain in self.injector.chains():
            if chain.meets_slo():
                continue
            chain.repair_attempts = 0
            self._schedule_repair(chain, now, self.config.policy.repair_delay)

    # -- the event loop ---------------------------------------------------------
    #
    # The loop is split into overridable pieces so extensions (notably the
    # chaos campaign controller in :mod:`repro.chaos.campaign`) can inject
    # their own event kinds and per-event bookkeeping without duplicating
    # the arrival/failure/repair plumbing.

    def _on_arrival(self, label: object, now: float) -> None:
        """Handle one ARRIVAL event (extension hook: degraded admission)."""
        request = make_request(
            self.settings, self.catalog, self.rng, name=f"req-{label}"
        )
        self._commit_request(request, now)

    def _on_failures(self, affected: list[CommittedChain], now: float) -> None:
        """SLO re-evaluation + repair scheduling after failure events.

        Shared by the injector's own event kinds and any scripted failure
        source (chaos storms, forced outages) an extension applies.
        """
        for chain in affected:
            slo_ok = chain.meets_slo()
            self.metrics.on_state(chain.name, now, slo_ok)
            if not slo_ok and chain.repair_attempts < self.config.policy.max_attempts:
                self._schedule_repair(chain, now, self.config.policy.repair_delay)

    def _handle_extra(self, kind: str, payload: tuple, now: float) -> bool:
        """Extension hook for event kinds the base stream does not own.

        Return True when the event was handled; the base implementation
        knows none, so an unknown kind raises in :meth:`_dispatch`.
        """
        return False

    def _after_event(self, now: float) -> None:
        """Extension hook invoked after every applied event (auditing)."""

    def _dispatch(self, kind: str, payload: tuple, now: float) -> None:
        if kind == ARRIVAL:
            self._on_arrival(payload[1], now)
        elif self.injector.handles(kind):
            affected = self.injector.handle(payload)
            self._on_failures(affected, now)
            if kind == CLOUDLET_RECOVER:
                self._rearm_repairs(now)
        elif kind == REPAIR_RETRY:
            self._pending_repairs.discard(payload[1])
            try:
                chain = self.injector.chain(payload[1])
            except KeyError:
                return
            if not chain.meets_slo():
                self._attempt_repair(chain, now)
        elif not self._handle_extra(kind, payload, now):
            raise ValidationError(f"unknown stream event kind {kind!r}")

    def _before_run(self) -> None:
        """Extension hook: schedule extra events before the loop starts."""

    def _finalize(self) -> ResilienceReport:
        used = self.ledger.total_used()
        total = self.ledger.total_initial()
        return self.metrics.finalize(
            self.config.horizon,
            event_counts=dict(self.injector.counts),
            final_utilisation=used / total if total > 0 else 0.0,
        )

    def run(self, num_requests: int) -> ResilienceReport:
        span = self.config.horizon * self.config.arrival_span
        for index in range(num_requests):
            arrival = span * (index + 1) / max(1, num_requests)
            self.queue.push(arrival, (ARRIVAL, index))
        self.injector.start()
        self._before_run()

        for event in self.queue.drain_until(self.config.horizon):
            payload = event.payload
            self._dispatch(payload[0], payload, event.time)
            if self.ledger.violations():
                self.metrics.on_invariant_violation()
            self._after_event(event.time)

        return self._finalize()


def run_resilient_stream(
    settings: ExperimentSettings,
    algorithm: AugmentationAlgorithm,
    num_requests: int,
    config: ResilienceConfig | None = None,
    rng: RandomState = None,
    network: MECNetwork | None = None,
) -> ResilienceReport:
    """Serve a request stream under failure injection with automatic repair.

    Parameters
    ----------
    settings:
        Workload shape (topology, catalog, chain lengths, expectations).
    algorithm:
        The augmentation algorithm used for both admission-time
        augmentation and repairs.  Pass a
        :func:`~repro.algorithms.fallback.default_fallback_chain` (or any
        :class:`FallbackAlgorithm`) for full solver fault tolerance; a
        plain feasible algorithm also works.  Randomized-rounding
        algorithms are unsuitable (their violations would corrupt the
        shared ledger).
    num_requests:
        Arrivals, evenly spread over the configured arrival span.
    config:
        Horizon and failure/repair parameters.
    rng:
        Seed or generator; a fixed seed makes the run bit-reproducible.
    network:
        Optional pre-built topology (drawn from ``settings`` otherwise).

    Returns
    -------
    ResilienceReport
        Per-request outcomes, per-chain SLO timelines, repair log, and the
        aggregate resilience metrics.
    """
    gen = as_rng(rng)
    if num_requests < 0:
        raise ValidationError(f"num_requests must be >= 0, got {num_requests}")
    if network is None:
        network = make_network(settings, gen)
    catalog = VNFCatalog.random(
        num_types=settings.num_vnf_types,
        demand_range=settings.demand_range,
        reliability_range=settings.reliability_range,
        rng=gen,
    )
    controller = ResilientStreamController(
        settings, algorithm, config or ResilienceConfig(), network, catalog, gen
    )
    return controller.run(num_requests)
