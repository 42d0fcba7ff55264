"""Failure injection: instance deaths and cloudlet outages on the event queue.

The injector turns the static failure *model* (instance reliabilities,
:mod:`repro.simulation.lifecycle` rates) into runtime *events* against the
live system:

* **instance failures** -- every placed instance draws an exponential
  time-to-failure from its :func:`rates_for_reliability` MTTF (optionally
  accelerated for stress tests).  A failed instance is destroyed: it stops
  counting toward live reliability and its capacity allocation is released
  back to the ledger (the slot can host a replacement).  Restoring
  redundancy is the repair controller's job, not an automatic respawn --
  that is what distinguishes a *system* from a simulation.
* **cloudlet outages** -- each cloudlet independently alternates UP/DOWN
  through a :class:`~repro.simulation.lifecycle.CloudletProcess`.  An
  outage kills every live instance hosted on the cloudlet (correlated
  failure) and takes the cloudlet's capacity out of service by allocating
  a *blockade* for its full remaining residual under tag ``outage:<v>``:
  with zero residual nothing -- admission, augmentation, or repair -- can
  place there, without any special-casing in the placement code paths.
  Recovery releases the blockade, returning empty capacity; instances
  lost in the outage stay lost.

Every mutation flows through the shared :class:`CapacityLedger`, so the
invariant ``used(v) <= initial(v)`` is checkable after every event -- the
resilient stream asserts it continuously.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.netmodel.capacity import CapacityLedger
from repro.netmodel.graph import MECNetwork
from repro.simulation.engine import EventQueue
from repro.simulation.lifecycle import CloudletProcess, rates_for_reliability
from repro.resilience.state import CommittedChain, LiveInstance
from repro.util.errors import ValidationError

#: Event kinds the injector schedules and handles.
INSTANCE_FAIL = "instance-fail"
CLOUDLET_FAIL = "cloudlet-fail"
CLOUDLET_RECOVER = "cloudlet-recover"


@dataclass(frozen=True)
class FailureConfig:
    """Failure-process parameters of one resilient run.

    Attributes
    ----------
    instance_mttr:
        MTTR scale fed to :func:`rates_for_reliability` -- sets the time
        unit of instance MTTFs (an instance of reliability ``r`` has
        ``MTTF = mttr * r / (1 - r)``).
    instance_acceleration:
        Divides every instance MTTF: > 1 compresses rare failures into a
        short horizon (accelerated-aging stress testing); 0 disables
        instance failures entirely (cloudlet-outage-only studies).
    cloudlet_mtbf:
        Mean up-time between cloudlet outages; ``math.inf`` disables
        outages.
    cloudlet_mttr:
        Mean outage duration.
    """

    instance_mttr: float = 1.0
    instance_acceleration: float = 1.0
    cloudlet_mtbf: float = math.inf
    cloudlet_mttr: float = 1.0

    def __post_init__(self) -> None:
        if self.instance_mttr <= 0:
            raise ValidationError(f"instance_mttr must be positive, got {self.instance_mttr}")
        if self.instance_acceleration < 0:
            raise ValidationError(
                f"instance_acceleration must be >= 0, got {self.instance_acceleration}"
            )
        if self.cloudlet_mtbf <= 0:
            raise ValidationError(f"cloudlet_mtbf must be positive, got {self.cloudlet_mtbf}")
        if self.cloudlet_mttr <= 0 or math.isinf(self.cloudlet_mttr):
            raise ValidationError(
                f"cloudlet_mttr must be positive and finite, got {self.cloudlet_mttr}"
            )


class FailureInjector:
    """Schedules and applies failure/recovery events for the live system.

    The injector does not run its own loop: the stream pops events from the
    shared queue and hands the injector's kinds to :meth:`handle`, which
    applies the mutation and returns the chains whose live set changed (for
    SLO re-evaluation by the caller).
    """

    def __init__(
        self,
        network: MECNetwork,
        ledger: CapacityLedger,
        queue: EventQueue,
        config: FailureConfig,
        rng: np.random.Generator,
    ):
        self.network = network
        self.ledger = ledger
        self.queue = queue
        self.config = config
        self.rng = rng
        self._chains: dict[str, CommittedChain] = {}
        self._processes: dict[int, CloudletProcess] = {}
        #: Counts of applied events by kind, for reporting.
        self.counts: dict[str, int] = {
            INSTANCE_FAIL: 0,
            CLOUDLET_FAIL: 0,
            CLOUDLET_RECOVER: 0,
        }

    # -- queries ----------------------------------------------------------------
    @property
    def down_cloudlets(self) -> list[int]:
        """Currently-down cloudlets, sorted for deterministic iteration."""
        return sorted(v for v, p in self._processes.items() if not p.up)

    def is_down(self, v: int) -> bool:
        """Whether cloudlet ``v`` is currently in an outage."""
        process = self._processes.get(v)
        return process is not None and not process.up

    def chain(self, name: str) -> CommittedChain:
        """Registered chain by name; raises KeyError if unknown."""
        return self._chains[name]

    def chains(self) -> list[CommittedChain]:
        """All registered chains, in registration order."""
        return list(self._chains.values())

    # -- lifecycle --------------------------------------------------------------
    def start(self) -> None:
        """Create a :class:`CloudletProcess` per cloudlet and schedule the
        first outages.  A no-op when ``cloudlet_mtbf`` is infinite."""
        if math.isinf(self.config.cloudlet_mtbf):
            return
        batch: list[tuple[float, tuple]] = []
        for v in sorted(self.network.cloudlets):
            process = CloudletProcess(
                cloudlet=v,
                mtbf=self.config.cloudlet_mtbf,
                mttr=self.config.cloudlet_mttr,
            )
            self._processes[v] = process
            # draw in sorted-cloudlet order (the stream position each id
            # consumes is fixed), then schedule the whole batch through the
            # stable (time, kind, id) order so same-timestamp ties replay
            # identically across processes and hash seeds
            batch.append(
                (self.queue.now + process.sample_uptime(self.rng), (CLOUDLET_FAIL, v))
            )
        self.queue.schedule_batch(batch)

    def register(self, chain: CommittedChain, now: float) -> None:
        """Track a committed chain and schedule failures for its instances."""
        if chain.name in self._chains:
            raise ValidationError(f"chain {chain.name!r} already registered")
        self._chains[chain.name] = chain
        self.attach_instances(chain, chain.live_instances(), now)

    def attach_instances(
        self, chain: CommittedChain, instances: list[LiveInstance], now: float
    ) -> None:
        """Schedule time-to-failure for newly placed instances.

        Called at commit time and again by the repair controller for every
        replacement instance it places.
        """
        if self.config.instance_acceleration == 0:
            return
        batch: list[tuple[float, tuple]] = []
        for inst in instances:
            if inst.reliability >= 1.0:
                continue  # perfect instances never fail
            mttf, _ = rates_for_reliability(inst.reliability, self.config.instance_mttr)
            mttf /= self.config.instance_acceleration
            t_fail = now + float(self.rng.exponential(mttf))
            batch.append((t_fail, (INSTANCE_FAIL, chain.name, inst.tag)))
        self.queue.schedule_batch(batch)

    # -- event application ------------------------------------------------------
    def handles(self, kind: str) -> bool:
        """Whether an event kind belongs to the injector."""
        return kind in (INSTANCE_FAIL, CLOUDLET_FAIL, CLOUDLET_RECOVER)

    def handle(self, payload: tuple) -> list[CommittedChain]:
        """Apply one injector event; return the chains whose live set changed."""
        kind = payload[0]
        if kind == INSTANCE_FAIL:
            return self._on_instance_fail(payload[1], payload[2])
        if kind == CLOUDLET_FAIL:
            return self._on_cloudlet_fail(payload[1])
        if kind == CLOUDLET_RECOVER:
            return self._on_cloudlet_recover(payload[1])
        raise ValidationError(f"unknown injector event kind {kind!r}")

    def fail_instance(self, chain: CommittedChain, inst: LiveInstance) -> bool:
        """Kill one live instance and release its allocation.

        The primitive behind both scheduled instance-failure events and
        scripted chaos storms.  Returns whether the instance was live (a
        dead instance is a no-op, e.g. one already lost to an outage).
        """
        if not inst.alive:
            return False
        inst.alive = False
        self.ledger.release_tag(inst.tag)
        self.counts[INSTANCE_FAIL] += 1
        return True

    def _on_instance_fail(self, chain_name: str, tag: str) -> list[CommittedChain]:
        chain = self._chains.get(chain_name)
        if chain is None:
            return []
        for inst in chain.instances:
            if inst.tag == tag:
                return [chain] if self.fail_instance(chain, inst) else []
        return []

    def _apply_outage(self, process: CloudletProcess) -> list[CommittedChain]:
        """Take a cloudlet down: kill hosted instances, blockade capacity."""
        v = process.cloudlet
        process.up = False
        self.counts[CLOUDLET_FAIL] += 1
        affected = []
        for chain in self._chains.values():
            killed = chain.kill_on_cloudlet(v)
            for inst in killed:
                self.ledger.release_tag(inst.tag)
            if killed:
                affected.append(chain)
        # blockade: take the cloudlet's full remaining capacity out of
        # service so no placement path can use it during the outage
        residual = self.ledger.residual(v)
        if residual > 0:
            self.ledger.allocate(v, residual, tag=f"outage:{v}")
        return affected

    def _apply_recovery(self, process: CloudletProcess) -> None:
        """Bring a cloudlet back: lift the blockade (lost instances stay lost)."""
        process.up = True
        self.counts[CLOUDLET_RECOVER] += 1
        self.ledger.release_tag(f"outage:{process.cloudlet}")

    def _on_cloudlet_fail(self, v: int) -> list[CommittedChain]:
        process = self._processes[v]
        if not process.up:
            return []
        affected = self._apply_outage(process)
        now = self.queue.now
        self.queue.push(
            now + process.sample_downtime(self.rng), (CLOUDLET_RECOVER, v)
        )
        return affected

    def _on_cloudlet_recover(self, v: int) -> list[CommittedChain]:
        process = self._processes[v]
        if process.up:
            return []
        self._apply_recovery(process)
        now = self.queue.now
        self.queue.push(now + process.sample_uptime(self.rng), (CLOUDLET_FAIL, v))
        # recovery changes no chain's live set (lost instances stay lost);
        # it only returns capacity that pending repairs can now use
        return []

    # -- scripted control (chaos campaigns) -------------------------------------
    def force_outage(self, v: int) -> list[CommittedChain]:
        """Scripted outage of cloudlet ``v``: apply the blackout *now*
        without scheduling a sampled recovery -- the scripting layer owns
        the timing.  No-op (empty list) if the cloudlet is already down.

        Scripted and sampled outage processes must not share a cloudlet
        (:class:`~repro.chaos.scenario.ChaosScenario` validates that
        ``cloudlet_mtbf`` is infinite when scripted outage events exist),
        otherwise a forced recovery would silently cancel the natural
        process's next cycle.
        """
        if v not in self.network.cloudlets:
            raise ValidationError(f"unknown cloudlet {v!r}")
        process = self._processes.get(v)
        if process is None:
            process = CloudletProcess(cloudlet=v, mtbf=math.inf, mttr=1.0)
            self._processes[v] = process
        if not process.up:
            return []
        return self._apply_outage(process)

    def force_recovery(self, v: int) -> bool:
        """Scripted recovery of cloudlet ``v``; returns whether it was down."""
        process = self._processes.get(v)
        if process is None or process.up:
            return False
        self._apply_recovery(process)
        return True
