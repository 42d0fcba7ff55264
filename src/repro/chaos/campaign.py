"""The chaos campaign engine: scripted adversity against the live stream.

:class:`ChaosStreamController` extends the resilient stream with the four
chaos subsystems:

* the **scenario script** is compiled
  (:meth:`~repro.chaos.scenario.ChaosScenario.expand`) into concrete
  events -- phase boundaries, storms, forced outages/recoveries, surge
  arrivals -- and scheduled onto the shared queue through the stable batch
  order, so same-timestamp chaos replays identically across runs and hash
  seeds;
* every solve (admission *and* repair) runs through a
  :class:`~repro.chaos.breaker.BreakerGuardedSolver`; while the breaker is
  OPEN, arrivals are additionally *shed* -- admitted against an
  expectation degraded by the breaker's ``shed_factor``.  The shed target
  is baked into the committed request, so every downstream consumer (SLO
  timelines, repairs, audits) naturally holds the chain to the degraded
  target it was admitted under;
* an :class:`~repro.chaos.audit.InvariantAuditor` fires on the scenario's
  cadence as a normal queue event and aborts the campaign on the first
  inconsistency;
* a :class:`~repro.chaos.report.CampaignTracker` integrates per-phase
  chain-seconds after every event and assembles the final
  :class:`~repro.chaos.report.CampaignReport`.

Determinism contract: with a fixed seed under ``REPRO_FAKE_CLOCK`` the
whole campaign -- arrivals, storms, breaker timeline, audits, report JSON
-- is bit-reproducible.  Every random draw flows from the one stream
generator, scripted events are scheduled in stable order, and the default
solver chain (:func:`~repro.chaos.breaker.default_chaos_chain`) carries no
wall-clock timeouts.
"""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

from repro.algorithms.fallback import FallbackAlgorithm
from repro.chaos.audit import InvariantAuditor
from repro.chaos.breaker import (
    BreakerGuardedSolver,
    CircuitBreaker,
    default_chaos_chain,
)
from repro.chaos.report import CampaignReport, CampaignTracker
from repro.chaos.scenario import (
    AUDIT,
    CHAOS_DOWN,
    CHAOS_UP,
    PHASE_START,
    STORM,
    ChaosScenario,
    builtin_scenarios,
)
from repro.experiments.settings import ExperimentSettings
from repro.experiments.workload import make_network, make_request
from repro.netmodel.graph import MECNetwork
from repro.netmodel.vnf import VNFCatalog
from repro.resilience.stream import ResilientStreamController
from repro.util.errors import ValidationError
from repro.util.rng import RandomState, as_rng


class ChaosStreamController(ResilientStreamController):
    """A resilient stream driven through a scripted chaos scenario."""

    def __init__(
        self,
        settings: ExperimentSettings,
        scenario: ChaosScenario,
        network: MECNetwork,
        catalog: VNFCatalog,
        rng,
        chain: FallbackAlgorithm | None = None,
        seed: int | None = None,
        dump_path: str | Path | None = None,
    ):
        chain = chain if chain is not None else default_chaos_chain()
        if not isinstance(chain, FallbackAlgorithm):
            raise ValidationError(
                "the chaos campaign needs a FallbackAlgorithm (the breaker's "
                f"degraded path is its terminal tier), got {type(chain).__name__}"
            )
        super().__init__(
            settings, chain, scenario.to_resilience_config(), network, catalog, rng
        )
        self.scenario = scenario
        self.seed = seed
        # simulated-time clock: the breaker advances with the event loop
        self.breaker = CircuitBreaker(scenario.breaker, clock=lambda: self.queue.now)
        # every solve -- admission and repair alike -- goes through the guard
        self.algorithm = BreakerGuardedSolver(chain, self.breaker)
        self.repairer.algorithm = self.algorithm
        self.auditor = InvariantAuditor(
            self.ledger,
            self.injector,
            self.metrics,
            breaker=self.breaker,
            dump_path=dump_path,
        )
        self.tracker = CampaignTracker()

    # -- scripted events --------------------------------------------------------
    def _before_run(self) -> None:
        self.queue.schedule_batch(self.scenario.expand(self.network.cloudlets))
        if self.scenario.audit_cadence > 0:
            self.queue.push(self.scenario.audit_cadence, (AUDIT,))

    def _handle_extra(self, kind: str, payload: tuple, now: float) -> bool:
        if kind == PHASE_START:
            self.tracker.begin_phase(payload[1], payload[2], now, self.metrics.report)
            return True
        if kind == STORM:
            self._apply_storm(payload[1], now)
            return True
        if kind == CHAOS_DOWN:
            affected = self.injector.force_outage(payload[1])
            self._on_failures(affected, now)
            return True
        if kind == CHAOS_UP:
            if self.injector.force_recovery(payload[1]):
                self._rearm_repairs(now)
            return True
        if kind == AUDIT:
            self.auditor.audit(now)
            self.queue.push(now + self.scenario.audit_cadence, (AUDIT,))
            return True
        return False

    def _apply_storm(self, fraction: float, now: float) -> None:
        """Kill ``fraction`` of all live instances, chosen uniformly.

        The victim pool is sorted by ``(chain, tag)`` before sampling so
        the draw consumes the stream generator identically on every replay.
        """
        pool = sorted(
            (
                (chain, inst)
                for chain in self.injector.chains()
                for inst in chain.live_instances()
            ),
            key=lambda pair: (pair[0].name, pair[1].tag),
        )
        if not pool:
            return
        count = min(len(pool), math.ceil(fraction * len(pool)))
        picked = self.rng.choice(len(pool), size=count, replace=False)
        affected: dict[str, object] = {}
        for index in sorted(int(i) for i in picked):
            chain, inst = pool[index]
            if self.injector.fail_instance(chain, inst):
                affected[chain.name] = chain
        self._on_failures(list(affected.values()), now)

    # -- degraded admission -----------------------------------------------------
    def _on_arrival(self, label: object, now: float) -> None:
        request = make_request(
            self.settings, self.catalog, self.rng, name=f"req-{label}"
        )
        state = self.breaker.state
        target = self.breaker.admission_target(request.expectation)
        shed = target != request.expectation
        if shed:
            # the degraded target becomes the committed chain's expectation:
            # repairs and audits hold it to what it was admitted under
            request = replace(request, expectation=target)
        outcome = self._commit_request(request, now)
        self.tracker.on_admission(
            outcome.admitted, outcome.expectation_met, shed, state
        )

    # -- per-event accounting ---------------------------------------------------
    def _after_event(self, now: float) -> None:
        ok = breached = 0
        for chain in self.injector.chains():
            if chain.meets_slo():
                ok += 1
            else:
                breached += 1
        self.tracker.advance(now, ok, breached)

    # -- the campaign -----------------------------------------------------------
    def run_campaign(self) -> CampaignReport:
        """Run the full scenario and assemble the campaign report."""
        report = self.run(self.scenario.background_requests)
        self.tracker.close(self.config.horizon, report)
        self.breaker.state  # settle a lazily-pending HALF_OPEN transition
        return CampaignReport(
            scenario=self.scenario.name,
            seed=self.seed,
            horizon=self.config.horizon,
            resilience=report,
            phases=self.tracker.phases,
            breaker_transitions=list(self.breaker.transitions),
            breaker_occupancy=self.breaker.occupancy(self.config.horizon),
            admissions_by_state=self.tracker.admissions_by_state,
            audits=self.auditor.audits,
        )


def resolve_scenario(scenario: ChaosScenario | str) -> ChaosScenario:
    """A scenario object, a builtin name, or a path to a scenario JSON."""
    if isinstance(scenario, ChaosScenario):
        return scenario
    stock = builtin_scenarios()
    if scenario in stock:
        return stock[scenario]
    path = Path(scenario)
    if path.exists():
        from repro.chaos.scenario import load_scenario

        return load_scenario(path)
    raise ValidationError(
        f"unknown scenario {scenario!r}: not a builtin ({sorted(stock)}) "
        "and no such file"
    )


def run_chaos_campaign(
    scenario: ChaosScenario | str,
    settings: ExperimentSettings | None = None,
    seed: RandomState = 0,
    network: MECNetwork | None = None,
    chain: FallbackAlgorithm | None = None,
    dump_path: str | Path | None = None,
) -> CampaignReport:
    """Run one chaos campaign end to end.

    Parameters
    ----------
    scenario:
        A :class:`ChaosScenario`, a builtin name (``"quick"``, ``"soak"``),
        or a path to a scenario JSON file.
    settings:
        Workload shape; defaults to the resilience experiments' standard
        topology (:data:`repro.experiments.resilience.RESILIENT_SETTINGS`).
    seed:
        Seed (or generator) for the single stream generator; a fixed seed
        under ``REPRO_FAKE_CLOCK`` makes the campaign -- report JSON
        included -- bit-reproducible.
    network:
        Optional pre-built topology (drawn from ``settings`` otherwise).
    chain:
        The solver fallback chain to guard; defaults to
        :func:`~repro.chaos.breaker.default_chaos_chain`.
    dump_path:
        Where the invariant auditor writes its forensic dump on violation.

    Returns
    -------
    CampaignReport
        Per-phase SLO attainment, breaker timeline and occupancy, audit
        and shedding counters, plus the underlying resilience report.
    """
    resolved = resolve_scenario(scenario)
    if settings is None:
        from repro.experiments.resilience import RESILIENT_SETTINGS

        settings = RESILIENT_SETTINGS
    gen = as_rng(seed)
    if network is None:
        network = make_network(settings, gen)
    catalog = VNFCatalog.random(
        num_types=settings.num_vnf_types,
        demand_range=settings.demand_range,
        reliability_range=settings.reliability_range,
        rng=gen,
    )
    controller = ChaosStreamController(
        settings,
        resolved,
        network,
        catalog,
        gen,
        chain=chain,
        seed=seed if isinstance(seed, int) else None,
        dump_path=dump_path,
    )
    return controller.run_campaign()
