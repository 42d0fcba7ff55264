"""The chain failover simulator.

Simulates one placed chain (primaries + committed backups) over a time
horizon.  Position service semantics:

* a position serves from exactly one live instance at a time, starting on
  its primary;
* when the serving instance fails, service switches to the *nearest live*
  instance of the position (fewest hops from the failed instance's
  cloudlet), after a switchover delay

      d = base_delay + per_hop_delay * hops(old cloudlet, new cloudlet)

  -- the state-synchronisation cost the paper's ``l``-hop constraint is
  designed to bound.  If the chosen target fails mid-switchover, a new
  target is selected immediately (the elapsed wait is not refunded);
* with no live instance the position is dead until a repair completes,
  then a switchover from the last serving cloudlet begins;
* the chain is up iff every position is serving.  Downtime is attributed
  to ``dead`` when any position has no live instance, else to
  ``switchover`` -- separating what Eq. 1 models from what it ignores.

The simulation is event-driven (failures, repairs, switchover
completions); stale switchover completions are invalidated by per-position
epoch counters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.problem import AugmentationProblem
from repro.core.solution import AugmentationSolution
from repro.simulation.engine import EventQueue
from repro.simulation.lifecycle import InstanceProcess, rates_for_reliability
from repro.util.errors import ValidationError
from repro.util.rng import RandomState, as_rng

#: Position service states.
_SERVING, _SWITCHING, _DEAD = "serving", "switching", "dead"


@dataclass(frozen=True)
class SimulationConfig:
    """Failure-process and switchover parameters.

    Attributes
    ----------
    horizon:
        Simulated time span (in MTTR units when ``mttr=1``).
    mttr:
        Mean time to repair of every instance (sets the time scale).
    base_delay:
        Fixed component of a switchover (activation cost).
    per_hop_delay:
        Per-hop component -- the state-sync latency the radius ``l`` caps.
    """

    horizon: float = 20_000.0
    mttr: float = 1.0
    base_delay: float = 0.005
    per_hop_delay: float = 0.01

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ValidationError(f"horizon must be positive, got {self.horizon}")
        if self.mttr <= 0:
            raise ValidationError(f"mttr must be positive, got {self.mttr}")
        if self.base_delay < 0 or self.per_hop_delay < 0:
            raise ValidationError("switchover delays must be non-negative")


@dataclass
class SimulationReport:
    """Measured behaviour of one simulated chain.

    All times are in simulation units; fractions are of the horizon.
    """

    horizon: float
    uptime: float
    downtime_dead: float
    downtime_switchover: float
    failovers: int
    switchover_time_total: float
    per_position_serving: list[float]
    static_prediction: float

    @property
    def availability(self) -> float:
        """Measured chain availability (uptime fraction)."""
        return self.uptime / self.horizon

    @property
    def dead_fraction(self) -> float:
        """Fraction of time some position had no live instance."""
        return self.downtime_dead / self.horizon

    @property
    def switchover_fraction(self) -> float:
        """Fraction of time lost to switchovers only."""
        return self.downtime_switchover / self.horizon

    @property
    def mean_switchover(self) -> float:
        """Mean duration of a completed switchover."""
        if self.failovers == 0:
            return 0.0
        return self.switchover_time_total / self.failovers


@dataclass
class _PositionState:
    status: str = _SERVING
    serving_instance: int = -1
    serving_cloudlet: int = -1
    target_instance: int = -1
    switch_started: float = 0.0
    epoch: int = 0  # invalidates in-flight switchover completions


def _build_instances(
    problem: AugmentationProblem,
    solution: AugmentationSolution,
    config: SimulationConfig,
) -> list[InstanceProcess]:
    instances: list[InstanceProcess] = []
    for position, func in enumerate(problem.request.chain):
        hosts = [problem.primary_placement[position]]
        hosts.extend(
            p.bin for p in solution.placements if p.position == position
        )
        for cloudlet in hosts:
            if func.reliability >= 1.0:
                mttf: float = math.inf
                mttr = config.mttr
            else:
                mttf, mttr = rates_for_reliability(func.reliability, config.mttr)
            instances.append(
                InstanceProcess(position=position, cloudlet=cloudlet, mttf=mttf, mttr=mttr)
            )
    return instances


def simulate_solution(
    problem: AugmentationProblem,
    solution: AugmentationSolution,
    config: SimulationConfig | None = None,
    rng: RandomState = None,
) -> SimulationReport:
    """Simulate the placed chain and measure its availability.

    Parameters
    ----------
    problem, solution:
        The placed chain (primaries from the problem, backups from the
        solution).
    config:
        Time-scale and switchover parameters.
    rng:
        Seed/generator for the failure processes.
    """
    config = config or SimulationConfig()
    gen = as_rng(rng)
    instances = _build_instances(problem, solution, config)
    chain_length = problem.request.chain.length

    hop_cache: dict[tuple[int, int], int] = {}

    def hops(u: int, v: int) -> int:
        if u == v:
            return 0
        key = (u, v) if u <= v else (v, u)
        if key not in hop_cache:
            hop_cache[key] = problem.network.hop_distance(*key)
        return hop_cache[key]

    def switch_delay(from_cloudlet: int, to_cloudlet: int) -> float:
        return config.base_delay + config.per_hop_delay * hops(from_cloudlet, to_cloudlet)

    by_position: dict[int, list[int]] = {}
    for idx, inst in enumerate(instances):
        by_position.setdefault(inst.position, []).append(idx)

    # initial service state: every position serves from its primary (the
    # first instance built for it)
    states = [_PositionState() for _ in range(chain_length)]
    for position in range(chain_length):
        first = by_position[position][0]
        states[position].serving_instance = first
        states[position].serving_cloudlet = instances[first].cloudlet

    queue = EventQueue()
    for idx, inst in enumerate(instances):
        t_fail = inst.sample_uptime(gen)
        if math.isfinite(t_fail):
            queue.push(t_fail, ("fail", idx))

    def nearest_live(position: int, from_cloudlet: int) -> int | None:
        best, best_hops = None, math.inf
        for idx in by_position[position]:
            if instances[idx].up:
                d = hops(from_cloudlet, instances[idx].cloudlet)
                if d < best_hops:
                    best, best_hops = idx, d
        return best

    def begin_switchover(position: int, target: int, now: float) -> None:
        state = states[position]
        state.status = _SWITCHING
        state.target_instance = target
        state.switch_started = now
        state.epoch += 1
        delay = switch_delay(state.serving_cloudlet, instances[target].cloudlet)
        queue.push(now + delay, ("switched", position, target, state.epoch))

    # accounting
    uptime = downtime_dead = downtime_switch = 0.0
    serving_time = [0.0] * chain_length
    failovers = 0
    switch_total = 0.0
    last_time = 0.0

    def accumulate(now: float) -> None:
        nonlocal uptime, downtime_dead, downtime_switch
        span = now - last_time
        if span <= 0:
            return
        statuses = [s.status for s in states]
        if any(s == _DEAD for s in statuses):
            downtime_dead += span
        elif any(s == _SWITCHING for s in statuses):
            downtime_switch += span
        else:
            uptime += span
        for position, status in enumerate(statuses):
            if status == _SERVING:
                serving_time[position] += span

    for event in queue.drain_until(config.horizon):
        now = event.time
        accumulate(now)
        last_time = now
        kind = event.payload[0]

        if kind == "fail":
            idx = event.payload[1]
            inst = instances[idx]
            inst.up = False
            queue.push(now + inst.sample_downtime(gen), ("repair", idx))
            state = states[inst.position]
            if state.status == _SERVING and state.serving_instance == idx:
                target = nearest_live(inst.position, state.serving_cloudlet)
                if target is None:
                    state.status = _DEAD
                    state.epoch += 1
                else:
                    begin_switchover(inst.position, target, now)
            elif state.status == _SWITCHING and state.target_instance == idx:
                target = nearest_live(inst.position, state.serving_cloudlet)
                if target is None:
                    state.status = _DEAD
                    state.epoch += 1
                else:
                    begin_switchover(inst.position, target, now)

        elif kind == "repair":
            idx = event.payload[1]
            inst = instances[idx]
            inst.up = True
            t_fail = inst.sample_uptime(gen)
            if math.isfinite(t_fail):
                queue.push(now + t_fail, ("fail", idx))
            state = states[inst.position]
            if state.status == _DEAD:
                begin_switchover(inst.position, idx, now)

        elif kind == "switched":
            _, position, target, epoch = event.payload
            state = states[position]
            if state.epoch != epoch:
                continue  # superseded by a later failure/re-dispatch
            # the target is live (its failure would have bumped the epoch)
            state.status = _SERVING
            state.serving_instance = target
            state.serving_cloudlet = instances[target].cloudlet
            failovers += 1
            switch_total += now - state.switch_started

    accumulate(config.horizon)

    counts = solution.backup_counts(chain_length)
    static = problem.reliability_from_counts(counts)
    return SimulationReport(
        horizon=config.horizon,
        uptime=uptime,
        downtime_dead=downtime_dead,
        downtime_switchover=downtime_switch,
        failovers=failovers,
        switchover_time_total=switch_total,
        per_position_serving=[t / config.horizon for t in serving_time],
        static_prediction=static,
    )
