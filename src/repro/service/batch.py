"""Batched BMCGAP admission with a bit-identity contract.

The streaming service coalesces the arrivals of one admission window into a
*batch* and admits it in **waves**, every member through one path: primary
intake (an :class:`~repro.admission.transaction.Admission` on pure-RNG
placement draws, all or nothing), one residual snapshot per wave, one
:class:`~repro.core.problem.AugmentationProblem` per member with its items
generated on that snapshot, the cost-cap guard, and **one**
:meth:`~repro.algorithms.heuristic.MatchingHeuristic.solve_wave` call per
wave, finished per member by the expectation trim and the backup commit.
Every wave solves on the ``"warm"`` backend.  Under ``mode="batched"`` a
wave holds the requests whose backup neighborhoods are disjoint from those
of every request scanned before them; ``mode="sequential"`` (the
differential reference) uses waves of one member.

In both modes the snapshot holds only the wave's *domain* -- its members'
``l``-hop cloudlets, in ledger order -- so the snapshot, the matching rows
and the item candidates all scale with the wave, not with the network.

Bit-identity contract
---------------------
Batched admission produces exactly the same admit/reject decisions, the
same placements, and byte-identical per-node ledger occupancy as admitting
the same requests one at a time in arrival order (``mode="sequential"``).
``tests/test_service_batch.py`` checks both modes against an independent
sequential reference model (``tests/service_reference.py``).  The argument:

* *Wave disjointness.*  A request's backup activity is confined to ``D_j``
  -- the union of closed ``l``-hop cloudlet neighborhoods of its (drawn)
  primaries.  Wave members have pairwise-disjoint ``D``'s, and every
  deferred request's ``D`` is disjoint from every later-scanned member of
  the current wave, so overlapping requests always commit in arrival
  order.  Per-node allocation sequences are therefore identical across
  modes (a node only ever sees one wave member).
* *Domain locality.*  Every item of a member allows only bins in
  ``D_j``, so a node outside the wave's domain never carries an edge.
  The snapshot keeps the domain in ledger order, so dropping those rows
  maps every surviving row index monotonically.  The warm solver gives
  each row a dummy column of its own, so an edge-less row pairs only with
  that dummy and never enters another row's augmenting path: the matching
  is the same.
* *RNG-stream identity.*  Primary placements are drawn as one pure
  ``integers(0, num_cloudlets, size=L)`` call per request, in arrival
  order, in both modes -- no residual-dependent redraw.
* *Component locality of the wave solve* -- argued in
  :mod:`repro.algorithms.heuristic`: with the dummy-cost base pinned to
  :data:`SERVICE_COST_CAP`, each member's share of a wave solve is its
  solo solve.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.admission.transaction import Admission, drawn
from repro.algorithms.heuristic import MatchingHeuristic
from repro.core.items import ItemGenerationConfig, generate_items_with_plan
from repro.core.problem import AugmentationProblem
from repro.core.solution import Placement, trim_to_expectation
from repro.matching.incremental import edge_cost_sum
from repro.netmodel.graph import MECNetwork
from repro.netmodel.vnf import Request
from repro.util.errors import CapacityError, InfeasibleError, ValidationError
from repro.util.rng import RandomState, as_rng

#: Fixed dummy-cost base of every service solve (``B = 2^24``).  Must
#: dominate any single member's summed edge costs (the per-member guard
#: below rejects the pathological alternative); pinned so wave and solo
#: solves share the exact same ``B`` and hence the same tie-breaking.
SERVICE_COST_CAP = 2.0**24 - 1.0


@dataclass(frozen=True)
class AdmissionRecord:
    """Outcome of admitting one request through the service."""

    name: str
    admitted: bool
    primaries: tuple[int, ...]
    placements: tuple[Placement, ...]
    reliability: float
    expectation_met: bool
    rejected_reason: str | None = None
    rounds: int = 0

    @classmethod
    def rejected(cls, name: str, reason: str) -> "AdmissionRecord":
        """The record of a request rejected with ``reason``."""
        return cls(
            name=name,
            admitted=False,
            primaries=(),
            placements=(),
            reliability=0.0,
            expectation_met=False,
            rejected_reason=reason,
        )

    @property
    def backups(self) -> int:
        return len(self.placements)

    def identity_key(self) -> tuple:
        """The fields the bit-identity contract compares across modes."""
        return (
            self.name,
            self.admitted,
            self.primaries,
            self.placements,
            self.reliability,
            self.expectation_met,
            self.rejected_reason,
        )


@dataclass
class _Member:
    """Per-request working state inside one admission batch."""

    request: Request
    draw: tuple[int, ...]
    domain: frozenset[int] = frozenset()
    admission: Admission | None = None
    record: AdmissionRecord | None = None


class BatchAdmissionEngine:
    """Admission core of the streaming service.

    Parameters
    ----------
    network:
        The MEC network requests arrive on.
    ledger:
        The live :class:`~repro.netmodel.capacity.CapacityLedger`.  A
        departure releases the request's allocations by id, so its cost
        does not grow with the number of live requests.
    radius:
        Locality radius ``l`` for backup placement.
    backend:
        ``"warm"``, the only backend that solves waves of several members
        and ignores the rows outside a wave's domain; any other value
        raises :class:`~repro.util.errors.ValidationError`.
    mode:
        ``"batched"`` (default) or ``"sequential"`` -- the differential
        reference that admits each request as a wave of its own, in
        arrival order.
    queue_limit:
        Per-window admission cap: arrivals beyond it are shed (recorded
        with ``rejected_reason="shed"``), identically in both modes.
    rng:
        Seed/generator for the primary placement draws.
    item_config:
        Item-generation truncation config (defaults as everywhere).

    A request whose name is live, or repeats an earlier name of the same
    batch, is rejected with ``rejected_reason="duplicate-name"`` before it
    touches the ledger (its placement draw is still taken, so the RNG
    stream does not depend on it).
    """

    def __init__(
        self,
        network: MECNetwork,
        *,
        ledger,
        radius: int = 1,
        backend: str = "warm",
        mode: str = "batched",
        queue_limit: int = 64,
        rng: RandomState = None,
        item_config: ItemGenerationConfig | None = None,
    ):
        if mode not in ("batched", "sequential"):
            raise ValidationError(f"mode must be 'batched' or 'sequential', got {mode}")
        if queue_limit < 1:
            raise ValidationError(f"queue_limit must be >= 1, got {queue_limit}")
        if backend != "warm":
            raise ValidationError(f"backend must be 'warm', got {backend!r}")
        self.network = network
        self.ledger = ledger
        self.radius = radius
        self.mode = mode
        self.queue_limit = queue_limit
        self.rng = as_rng(rng)
        self.item_config = item_config
        self.neighborhoods = network.neighborhoods(radius)
        self.cloudlets = list(network.cloudlets)
        if not self.cloudlets:
            raise ValidationError("network has no cloudlets to admit onto")
        for v in self.cloudlets:
            if v < 0:
                raise ValidationError(
                    f"negative cloudlet id {v} unsupported by the admission service"
                )
        self._heuristic = MatchingHeuristic(
            backend="warm", universe_cost_sum=SERVICE_COST_CAP
        )
        #: Position of every ledger node, the order domain snapshots keep.
        self._ledger_rank = {v: i for i, v in enumerate(ledger.nodes)}
        self._live: dict[str, Admission] = {}
        self.stats: dict[str, int] = {
            "batches": 0,
            "waves": 0,
            "amortized_waves": 0,  # waves with >= 2 members in one solve
            "union_members": 0,  # members admitted through a wave
            "shed": 0,
            "admitted": 0,
            "rejected": 0,
            "rounds": 0,
            "departed": 0,
        }

    # -- public API -----------------------------------------------------------
    def admit_batch(self, requests: list[Request]) -> list[AdmissionRecord]:
        """Admit one window's arrivals (arrival order) and return records.

        Applies the per-window shed cap, draws every member's primary
        placement upfront (one pure RNG call per request, arrival order --
        the stream both modes share), rejects duplicate names, then admits
        the rest wave by wave.
        """
        self.stats["batches"] += 1
        taken = requests[: self.queue_limit]
        shed = requests[self.queue_limit :]
        self.stats["shed"] += len(shed)

        members: list[_Member] = []
        names: set[str] = set()
        for request in taken:
            idx = self.rng.integers(0, len(self.cloudlets), size=request.chain.length)
            member = _Member(request, tuple(self.cloudlets[int(i)] for i in idx))
            if request.name in self._live or request.name in names:
                member.record = AdmissionRecord.rejected(request.name, "duplicate-name")
            names.add(request.name)
            members.append(member)

        pending = [m for m in members if m.record is None]
        closed_cloudlets = self.neighborhoods.closed_cloudlets
        for member in pending:
            member.domain = frozenset().union(
                *(closed_cloudlets(v) for v in member.draw)
            )
        if self.mode == "batched":
            waves = self._classify_waves(pending)
        else:
            waves = [[member] for member in pending]
        for wave in waves:
            self.stats["waves"] += 1
            if len(wave) >= 2:
                self.stats["amortized_waves"] += 1
            self.stats["union_members"] += len(wave)
            self._admit_wave(wave)

        records = [m.record for m in members]
        for record in records:
            self.stats["admitted" if record.admitted else "rejected"] += 1
        records.extend(AdmissionRecord.rejected(r.name, "shed") for r in shed)
        return records

    def depart(self, name: str) -> float:
        """Release every allocation of a previously admitted request."""
        admission = self._live.pop(name, None)
        if admission is None:
            raise ValidationError(f"no live request named {name!r}")
        self.stats["departed"] += 1
        return admission.abort()

    @property
    def live_requests(self) -> int:
        return len(self._live)

    # -- wave classification ---------------------------------------------------
    def _classify_waves(self, members: list[_Member]) -> list[list[_Member]]:
        """Partition the batch into neighborhood-disjoint waves.

        Scan in arrival order: a member joins the current wave iff its
        domain is disjoint from *every* previously scanned domain (taken or
        deferred) -- this guarantees that overlapping requests always
        commit in arrival order across waves; deferred members recurse.
        """
        waves: list[list[_Member]] = []
        pending = members
        while pending:
            seen: set[int] = set()
            wave: list[_Member] = []
            deferred: list[_Member] = []
            for member in pending:
                if seen.isdisjoint(member.domain):
                    wave.append(member)
                else:
                    deferred.append(member)
                seen.update(member.domain)
            waves.append(wave)
            pending = deferred
        return waves

    # -- the admission path -----------------------------------------------------
    def _admit_wave(self, wave: list[_Member]) -> None:
        """Admit one wave: intake, one snapshot, one solve, per-member commit."""
        live: list[_Member] = []
        for member in wave:
            # No redraw: the drawn vector is the placement or the request is
            # rejected (the convention that keeps the RNG stream mode-invariant).
            try:
                member.admission = Admission(self.ledger, member.request, drawn(member.draw))
            except InfeasibleError:
                member.record = AdmissionRecord.rejected(
                    member.request.name, "primary-infeasible"
                )
            else:
                live.append(member)
        if not live:
            return
        # Only the domain can carry an edge; ledger order keeps every
        # round-local row index monotone in the full-network one.
        rank = self._ledger_rank
        domain = frozenset().union(*(m.domain for m in live)) & rank.keys()
        residual = self.ledger.residual
        snapshot = {v: residual(v) for v in sorted(domain, key=rank.__getitem__)}
        solving: list[_Member] = []
        problems: list[AugmentationProblem] = []
        for member in live:
            items, plan = generate_items_with_plan(
                member.request, member.draw, self.neighborhoods, snapshot,
                config=self.item_config,
            )
            problem = AugmentationProblem.from_items(
                self.network, member.request, member.draw, self.radius, snapshot,
                self.neighborhoods, items, plan,
            )
            if edge_cost_sum(problem) >= SERVICE_COST_CAP:
                # Released by id: later members' allocations stay, and each
                # touched node is byte-identical to never having allocated them.
                member.admission.abort()
                member.record = AdmissionRecord.rejected(member.request.name, "cost-cap")
                continue
            solving.append(member)
            problems.append(problem)
        outcomes = self._heuristic.solve_wave(problems)
        for member, problem, outcome in zip(solving, problems, outcomes):
            solution = trim_to_expectation(problem, outcome.solution)
            self.stats["rounds"] += outcome.rounds
            name = member.request.name
            try:
                member.admission.commit(solution.placements)
            except CapacityError:  # pragma: no cover - snapshot guarantees the fit
                member.record = AdmissionRecord.rejected(name, "capacity-race")
                continue
            self._live[name] = member.admission
            reliability = solution.reliability(problem)
            member.record = AdmissionRecord(
                name=name,
                admitted=True,
                primaries=member.draw,
                placements=solution.placements,
                reliability=reliability,
                expectation_met=member.request.meets_expectation(reliability),
                rounds=outcome.rounds,
            )
