"""System-level extension: admit and augment a *stream* of requests.

The paper's formulation and evaluation are per-request: one admitted
request, a residual-capacity snapshot, one augmentation.  A network
operator, however, serves many requests against shared capacity, and each
request's backups shrink the room available to the next.  This module
composes the paper's building blocks into that system-level loop:

1. requests arrive one at a time (a fresh chain and expectation per
   request, drawn exactly like the paper's workload);
2. each is admitted via :func:`random_primary_placement` (capacity-checked)
   or the DAG framework;
3. the chosen augmentation algorithm places its backups against the live
   shared ledger;
4. committed placements stay -- the next request sees less capacity.

The batch report records per-request outcomes and system totals
(acceptance rate, expectation-met rate, capacity utilisation), enabling the
"how many requests can a network serve at a given SLO" question the
per-request figures cannot answer.  Used by
``benchmarks/bench_batch_stream.py`` and the multi-tenant example.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.admission.admit import random_primary_placement
from repro.algorithms.base import AugmentationAlgorithm
from repro.core.problem import AugmentationProblem
from repro.core.solution import AugmentationSolution
from repro.experiments.settings import ExperimentSettings
from repro.experiments.workload import make_network, make_request
from repro.netmodel.capacity import CapacityLedger
from repro.netmodel.graph import MECNetwork
from repro.netmodel.vnf import VNFCatalog
from repro.util.errors import CapacityError, InfeasibleError
from repro.util.rng import (
    RandomState,
    as_rng,
    generator_from_seed,
    spawn_seed_sequences,
)


@dataclass(frozen=True)
class BatchRequestOutcome:
    """One request's fate in the stream."""

    name: str
    admitted: bool
    reliability: float
    expectation: float
    expectation_met: bool
    backups: int


@dataclass
class BatchReport:
    """Aggregated outcome of one request stream."""

    outcomes: list[BatchRequestOutcome] = field(default_factory=list)
    final_utilisation: float = 0.0

    @property
    def num_requests(self) -> int:
        return len(self.outcomes)

    @property
    def acceptance_rate(self) -> float:
        """Fraction of requests whose primaries could be placed."""
        if not self.outcomes:
            return 0.0
        return sum(o.admitted for o in self.outcomes) / len(self.outcomes)

    @property
    def expectation_met_rate(self) -> float:
        """Fraction of *admitted* requests that reached their expectation."""
        admitted = [o for o in self.outcomes if o.admitted]
        if not admitted:
            return 0.0
        return sum(o.expectation_met for o in admitted) / len(admitted)

    @property
    def mean_reliability(self) -> float:
        """Mean achieved reliability over admitted requests."""
        admitted = [o for o in self.outcomes if o.admitted]
        if not admitted:
            return 0.0
        return sum(o.reliability for o in admitted) / len(admitted)


@dataclass(frozen=True)
class JointComparison:
    """Sequential-vs-clairvoyant outcome for one request batch.

    ``sequential_*`` fields come from admitting the batch one request at a
    time with a per-request algorithm; ``joint_*`` fields from the exact
    joint ILP over the same starting snapshot.  The joint optimum is a
    feasibility superset of every arrival order, so
    ``joint_met >= sequential_met`` up to solver tolerance -- the gap is
    the *price of sequential admission*.
    """

    num_requests: int
    sequential_met: int
    joint_met: int
    sequential_mean_reliability: float
    joint_mean_reliability: float
    joint_total_credit: float


def run_joint_comparison(
    settings: ExperimentSettings,
    algorithm: AugmentationAlgorithm,
    num_requests: int,
    rng: RandomState = None,
    network: MECNetwork | None = None,
) -> JointComparison:
    """Sequential per-request augmentation vs the clairvoyant joint ILP.

    Both sides start from the same snapshot: all ``num_requests`` requests'
    primaries placed (capacity-checked) against full capacity, leaving a
    shared residual map.  The sequential side then augments request by
    request on a live ledger (earlier requests starve later ones); the
    joint side solves :func:`repro.solvers.multi.solve_joint` over the
    same residuals at once.
    """
    from repro.solvers.multi import solve_joint

    gen = as_rng(rng)
    if network is None:
        network = make_network(settings, gen)
    catalog = VNFCatalog.random(
        num_types=settings.num_vnf_types,
        demand_range=settings.demand_range,
        reliability_range=settings.reliability_range,
        rng=gen,
    )
    ledger = CapacityLedger({v: network.capacity(v) for v in network.cloudlets})

    requests = []
    placements = []
    for index in range(num_requests):
        request = make_request(settings, catalog, gen, name=f"joint-{index}")
        try:
            primaries = random_primary_placement(network, request, rng=gen, ledger=ledger)
        except InfeasibleError:
            continue  # skip requests whose primaries don't fit the snapshot
        requests.append(request)
        placements.append(primaries)
    shared_residuals = ledger.residuals()

    # One lazily-memoized neighborhood index serves every request of the
    # batch: the cloudlet-restricted sets N_l^+(v) of a primary location are
    # computed on first use and shared across requests and both sides.
    neighborhoods = network.neighborhoods(settings.radius)
    problems = [
        AugmentationProblem.build(
            network, request, primaries,
            radius=settings.radius, residuals=shared_residuals,
            neighborhoods=neighborhoods,
        )
        for request, primaries in zip(requests, placements)
    ]

    # -- sequential side ----------------------------------------------------------
    seq_ledger = CapacityLedger(shared_residuals)
    seq_met = 0
    seq_rel_sum = 0.0
    for problem in problems:
        live = AugmentationProblem.build(
            problem.network,
            problem.request,
            problem.primary_placement,
            radius=problem.radius,
            residuals=seq_ledger.residuals(),
            neighborhoods=neighborhoods,
        )
        result = algorithm.solve(live, rng=gen)
        for placement in result.solution.placements:
            seq_ledger.allocate(placement.bin, placement.demand, tag="seq")
        seq_met += int(result.expectation_met)
        seq_rel_sum += result.reliability

    # -- joint side -----------------------------------------------------------------
    joint = solve_joint(problems, residuals=shared_residuals)
    joint_met = 0
    joint_rel_sum = 0.0
    for problem, assignments in zip(problems, joint.assignments):
        solution = AugmentationSolution.from_assignments(problem, assignments)
        reliability = solution.reliability(problem)
        joint_met += int(problem.request.meets_expectation(reliability))
        joint_rel_sum += reliability

    count = max(1, len(problems))
    return JointComparison(
        num_requests=len(problems),
        sequential_met=seq_met,
        joint_met=joint_met,
        sequential_mean_reliability=seq_rel_sum / count,
        joint_mean_reliability=joint_rel_sum / count,
        joint_total_credit=joint.objective,
    )


def run_request_stream(
    settings: ExperimentSettings,
    algorithm: AugmentationAlgorithm,
    num_requests: int,
    rng: RandomState = None,
    network: MECNetwork | None = None,
) -> BatchReport:
    """Admit and augment ``num_requests`` sequentially on shared capacity.

    The stream starts from *full* cloudlet capacities (the
    ``residual_fraction`` setting is not used here -- residual capacity
    emerges from the accumulating load).  A request whose primaries cannot
    be placed is rejected and consumes nothing; augmentation placements of
    accepted requests are committed permanently.

    Commits are transactional: each request's primaries and backups form
    one ledger transaction bracketed by
    :meth:`~repro.netmodel.capacity.CapacityLedger.checkpoint` /
    :meth:`~repro.netmodel.capacity.CapacityLedger.rollback`, so a
    mid-commit :class:`~repro.util.errors.CapacityError` (an algorithm
    overshooting the residuals it was handed) rejects the request and
    leaves the ledger exactly as it was before the arrival -- no partial
    allocation can leak into later requests.

    Randomized-rounding algorithms are not suitable for the committed
    stream (their violations would corrupt the shared ledger); pass a
    feasible algorithm (Heuristic, ILP, Greedy).
    """
    gen = as_rng(rng)
    if network is None:
        network = make_network(settings, gen)
    catalog = VNFCatalog.random(
        num_types=settings.num_vnf_types,
        demand_range=settings.demand_range,
        reliability_range=settings.reliability_range,
        rng=gen,
    )
    ledger = CapacityLedger({v: network.capacity(v) for v in network.cloudlets})
    # Hoisted across the stream: each primary location's N_l^+(v) is BFS'd
    # once, on first use, and every later request reuses the memoized set.
    neighborhoods = network.neighborhoods(settings.radius)

    report = BatchReport()
    for index in range(num_requests):
        request = make_request(settings, catalog, gen, name=f"req-{index}")
        checkpoint = ledger.checkpoint()
        try:
            primaries = random_primary_placement(network, request, rng=gen, ledger=ledger)
        except InfeasibleError:
            report.outcomes.append(
                BatchRequestOutcome(
                    name=request.name,
                    admitted=False,
                    reliability=0.0,
                    expectation=request.expectation,
                    expectation_met=False,
                    backups=0,
                )
            )
            continue

        problem = AugmentationProblem.build(
            network,
            request,
            primaries,
            radius=settings.radius,
            residuals=ledger.residuals(),
            neighborhoods=neighborhoods,
        )
        result = algorithm.solve(problem, rng=gen)
        try:
            # commit the augmentation onto the shared ledger
            for placement in result.solution.placements:
                ledger.allocate(
                    placement.bin, placement.demand, tag=f"{request.name}:backup"
                )
        except CapacityError:
            # roll the whole request back -- primaries included -- so the
            # ledger is exactly as it was before this arrival
            ledger.rollback(checkpoint)
            report.outcomes.append(
                BatchRequestOutcome(
                    name=request.name,
                    admitted=False,
                    reliability=0.0,
                    expectation=request.expectation,
                    expectation_met=False,
                    backups=0,
                )
            )
            continue
        report.outcomes.append(
            BatchRequestOutcome(
                name=request.name,
                admitted=True,
                reliability=result.reliability,
                expectation=request.expectation,
                expectation_met=result.expectation_met,
                backups=result.num_backups,
            )
        )

    used = sum(ledger.used(v) for v in ledger.nodes)
    total = sum(ledger.initial(v) for v in ledger.nodes)
    report.final_utilisation = used / total if total > 0 else 0.0
    return report


# -- parallel stream ensembles ------------------------------------------------------
#
# Within one stream, every request's residual view depends on the commits of
# the requests before it -- commit order never permits parallel execution,
# so :func:`run_request_stream` is inherently serial.  Across *independent*
# streams (separate networks, separate ledgers, separate seeds) there is no
# shared state at all, which is exactly the replication an operator runs to
# estimate acceptance-rate distributions.  :func:`run_stream_ensemble`
# parallelises there, and falls back to a serial loop whenever the worker
# pool cannot be used -- with identical per-stream results either way,
# since each stream's randomness is a pre-spawned seed.


@dataclass(frozen=True)
class StreamTask:
    """One independent request stream of an ensemble, described by value.

    The ensemble's only work unit: when the ensemble shares a ``network``,
    every task carries its own pickled copy of it.
    """

    settings: ExperimentSettings
    algorithm_spec: "object"  # repro.parallel.tasks.AlgorithmSpec
    num_requests: int
    seed: np.random.SeedSequence
    index: int = 0
    bit_generator: str = "PCG64"
    network: MECNetwork | None = None


def _execute_stream(task: StreamTask) -> BatchReport:
    """Worker entry point: rebuild the algorithm locally, run one stream."""
    algorithm = task.algorithm_spec.build()
    return run_request_stream(
        task.settings,
        algorithm,
        num_requests=task.num_requests,
        rng=generator_from_seed(task.seed, bit_generator=task.bit_generator),
        network=task.network,
    )


def run_stream_ensemble(
    settings: ExperimentSettings,
    algorithm: AugmentationAlgorithm,
    num_requests: int,
    streams: int = 4,
    rng: RandomState = None,
    jobs: int | None = None,
    network: MECNetwork | None = None,
) -> list[BatchReport]:
    """Run ``streams`` independent request streams, in parallel when allowed.

    Each stream draws its own catalog and arrivals from a pre-spawned
    child seed and commits onto its own ledger, so streams are
    embarrassingly parallel; results are returned in stream order and are
    bit-identical for every ``jobs`` value (including the serial fallback
    taken when ``jobs`` resolves to 1 or the algorithm cannot be shipped to
    a worker).  Aggregate the reports' acceptance/SLO rates to get
    confidence intervals the single-stream runner cannot provide.

    ``network`` pins every stream to one shared topology (capacity
    *ledgers* stay per-stream) -- the operator question "how does *my*
    network behave under many independent arrival draws".  When omitted,
    each stream draws its own topology from its seed, as before.  Worker
    tasks are :class:`StreamTask` values whatever ``REPRO_SHM`` says, so a
    shared network is pickled into each of them.
    """
    from repro.parallel.executor import resolve_jobs, shared_executor
    from repro.parallel.tasks import AlgorithmSpec

    gen = as_rng(rng)
    seeds = spawn_seed_sequences(gen, streams)
    bit_generator = type(gen.bit_generator).__name__
    num_jobs = resolve_jobs(jobs)
    spec = AlgorithmSpec.from_algorithm(algorithm) if num_jobs > 1 else None
    if spec is None:
        return [
            run_request_stream(
                settings,
                algorithm,
                num_requests=num_requests,
                rng=generator_from_seed(seed, bit_generator=bit_generator),
                network=network,
            )
            for seed in seeds
        ]
    tasks = [
        StreamTask(
            settings=settings,
            algorithm_spec=spec,
            num_requests=num_requests,
            seed=seed,
            index=index,
            bit_generator=bit_generator,
            network=network,
        )
        for index, seed in enumerate(seeds)
    ]
    return shared_executor(num_jobs).map_ordered(_execute_stream, tasks)
