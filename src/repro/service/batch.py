"""Batched BMCGAP admission with a bit-identity contract.

The streaming service coalesces the arrivals of one admission window into a
*batch*.  Under the ``"warm"`` matching backend the batch is partitioned
into **waves** of requests whose backup neighborhoods are pairwise
disjoint; each wave then pays

* one primary-intake pass (pure-RNG placement draws, fit-checked against
  the live ledger),
* one residual snapshot,
* one item-generation pass per member (reusing the kernels' ItemPlans and
  the memoized neighborhood index), and
* **one warm-started union matching solve per round** over the concatenated
  item universes of every member -- instead of a full
  ``AugmentationProblem.build`` + solver construction + round loop per
  request.

Bit-identity contract
---------------------
Batched admission produces exactly the same admit/reject decisions, the
same placements, and byte-identical per-node ledger occupancy as admitting
the same requests one at a time in arrival order (``mode="sequential"``).
The argument, locked in by ``tests/test_service_batch.py``:

* *Wave disjointness.*  A request's backup activity is confined to ``D_j``
  -- the union of closed ``l``-hop cloudlet neighborhoods of its (drawn)
  primaries.  Wave members have pairwise-disjoint ``D``'s, and every
  deferred request's ``D`` is disjoint from every later-scanned member of
  the current wave, so overlapping requests always commit in arrival
  order.  Per-node allocation sequences are therefore identical across
  modes (a node only ever sees one wave member).
* *RNG-stream identity.*  Primary placements are drawn as one pure
  ``integers(0, num_cloudlets, size=L)`` call per request, in arrival
  order, in both modes -- no residual-dependent redraw.
* *Component locality of the union solve.*  The union round graph is the
  disjoint union of the members' solo round graphs (plus isolated rows /
  columns, which dummy-match harmlessly); with the dummy cost ``B`` pinned
  to :data:`SERVICE_COST_CAP` + 1 in both modes, the warm solver's
  matching, tie-breaking, and dual evolution restricted to one member's
  component are bit-identical to that member's solo solve.

Only the ``"warm"`` backend solves unions: the dense/sparse assignment
backends derive tie-breaking from the *padded square matrix*, which is not
component-local under row-set changes.  For every other backend,
``mode="batched"`` runs the sequential per-request path verbatim (still
batched at the intake/queue level), so the identity contract holds
trivially.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.algorithms.heuristic import MatchingHeuristic
from repro.core.items import (
    BackupItem,
    ItemGenerationConfig,
    generate_items_with_plan,
    reliability_ladder,
)
from repro.core.problem import AugmentationProblem
from repro.core.solution import Placement
from repro.kernels.items import plan_of
from repro.matching.mincost import MatchEdge, default_backend, resolve_backend
from repro.matching.warmstart import DualReusingSolver, UniverseIndex, warm_delta_enabled
from repro.netmodel.capacity import EPS, Allocation, CapacityLedger
from repro.netmodel.graph import MECNetwork
from repro.netmodel.vnf import Request
from repro.util.errors import CapacityError, ValidationError
from repro.util.rng import RandomState, as_rng

#: Fixed dummy-cost base of every service solve (``B = 2^24``).  Must
#: dominate any single member's summed edge costs (the per-member guard
#: below rejects the pathological alternative); pinned so union and solo
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
    batched: bool = False
    rounds: int = 0

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

    index: int
    request: Request
    draw: tuple[int, ...]
    domain: frozenset[int] = frozenset()
    allocations: list[Allocation] = field(default_factory=list)
    record: AdmissionRecord | None = None
    # Solve-time state (union path only).
    items: tuple[BackupItem, ...] = ()
    item_base: int = 0
    ladders: tuple[tuple[float, ...], ...] = ()
    counts: list[int] = field(default_factory=list)
    factors: list[float] = field(default_factory=list)
    placements: list[Placement] = field(default_factory=list)
    rounds: int = 0
    active: bool = False


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
        Matching backend; ``None`` defers to ``REPRO_MATCHING`` at
        construction time.  Union-amortized solving engages only for
        ``"warm"``.
    mode:
        ``"batched"`` (default) or ``"sequential"`` -- the differential
        reference that admits each request individually in arrival order.
    queue_limit:
        Per-window admission cap: arrivals beyond it are shed (recorded
        with ``rejected_reason="shed"``), identically in both modes.
    rng:
        Seed/generator for the primary placement draws.
    item_config:
        Item-generation truncation config (defaults as everywhere).
    """

    def __init__(
        self,
        network: MECNetwork,
        *,
        ledger,
        radius: int = 1,
        backend: str | None = None,
        mode: str = "batched",
        queue_limit: int = 64,
        rng: RandomState = None,
        item_config: ItemGenerationConfig | None = None,
    ):
        if mode not in ("batched", "sequential"):
            raise ValidationError(f"mode must be 'batched' or 'sequential', got {mode}")
        if queue_limit < 1:
            raise ValidationError(f"queue_limit must be >= 1, got {queue_limit}")
        self.network = network
        self.ledger = ledger
        self.radius = radius
        self.mode = mode
        self.queue_limit = queue_limit
        self.rng = as_rng(rng)
        self.item_config = item_config
        self.backend = (
            resolve_backend(backend) if backend is not None else default_backend()
        )
        self.neighborhoods = network.neighborhoods(radius)
        self.cloudlets = list(network.cloudlets)
        if not self.cloudlets:
            raise ValidationError("network has no cloudlets to admit onto")
        for v in self.cloudlets:
            if v < 0:
                raise ValidationError(
                    f"negative cloudlet id {v} unsupported by the admission service"
                )
        # The solo path reuses the stock heuristic with the service's pinned
        # dummy-cost base, so solo-mode solves are *literally* the library
        # algorithm -- the union path's differential anchor.
        self._solo = MatchingHeuristic(
            backend=self.backend, universe_cost_sum=SERVICE_COST_CAP
        )
        self._live: dict[str, list[Allocation]] = {}
        self.stats: dict[str, int] = {
            "batches": 0,
            "waves": 0,
            "amortized_waves": 0,  # waves with >= 2 members in one solve
            "union_members": 0,
            "solo_members": 0,
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
        the stream both modes share), then dispatches to the union or
        per-request path.
        """
        self.stats["batches"] += 1
        taken = requests[: self.queue_limit]
        shed = requests[self.queue_limit :]
        self.stats["shed"] += len(shed)

        members: list[_Member] = []
        for index, request in enumerate(taken):
            idx = self.rng.integers(0, len(self.cloudlets), size=request.chain.length)
            draw = tuple(self.cloudlets[int(i)] for i in idx)
            members.append(_Member(index=index, request=request, draw=draw))

        use_union = self.mode == "batched" and self.backend == "warm"
        if use_union:
            for member in members:
                member.domain = frozenset().union(
                    *(
                        frozenset(self.neighborhoods.closed_cloudlets(v))
                        for v in member.draw
                    )
                )
            for wave in self._classify_waves(members):
                self.stats["waves"] += 1
                if len(wave) >= 2:
                    self.stats["amortized_waves"] += 1
                self.stats["union_members"] += len(wave)
                self._admit_wave(wave)
        else:
            for member in members:
                self.stats["solo_members"] += 1
                member.record = self._admit_solo(member)

        records = [m.record for m in members]
        for record in records:
            self.stats["admitted" if record.admitted else "rejected"] += 1
        records.extend(
            AdmissionRecord(
                name=request.name,
                admitted=False,
                primaries=(),
                placements=(),
                reliability=0.0,
                expectation_met=False,
                rejected_reason="shed",
            )
            for request in shed
        )
        return records

    def depart(self, name: str) -> float:
        """Release every allocation of a previously admitted request."""
        allocations = self._live.pop(name, None)
        if allocations is None:
            raise ValidationError(f"no live request named {name!r}")
        self.stats["departed"] += 1
        return self.ledger.release_many(allocations)

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

    # -- shared intake ----------------------------------------------------------
    def _intake_primaries(self, member: _Member) -> bool:
        """Fit-check and allocate the drawn primaries; reject on any miss.

        No redraw: the drawn vector is the placement or the request is
        rejected (the convention that keeps the RNG stream mode-invariant).
        """
        checkpoint = self.ledger.checkpoint()
        allocations: list[Allocation] = []
        for i, func in enumerate(member.request.chain):
            v = member.draw[i]
            if not self.ledger.fits(v, func.demand):
                self.ledger.rollback(checkpoint)
                member.record = AdmissionRecord(
                    name=member.request.name,
                    admitted=False,
                    primaries=(),
                    placements=(),
                    reliability=0.0,
                    expectation_met=False,
                    rejected_reason="primary-infeasible",
                )
                return False
            allocations.append(
                self.ledger.allocate(
                    v, func.demand, tag=f"primary:{member.request.name}#{i}"
                )
            )
        member.allocations = allocations
        return True

    def _reject_after_intake(self, member: _Member, reason: str) -> None:
        """Reject a member whose primaries are already in the ledger.

        Rollback must not disturb later members' allocations, so the
        primaries are released by id (each touched node's journal is
        refolded: byte-identical per-node state to never having allocated
        them).
        """
        self.ledger.release_many(member.allocations)
        member.allocations = []
        member.record = AdmissionRecord(
            name=member.request.name,
            admitted=False,
            primaries=(),
            placements=(),
            reliability=0.0,
            expectation_met=False,
            rejected_reason=reason,
        )

    def _commit_backups(
        self,
        member: _Member,
        placements: tuple[Placement, ...],
        reliability: float,
        batched: bool,
        rounds: int,
    ) -> AdmissionRecord:
        name = member.request.name
        try:
            for p in placements:
                member.allocations.append(
                    self.ledger.allocate(
                        p.bin, p.demand, tag=f"backup:{name}#{p.position}.{p.k}"
                    )
                )
        except CapacityError:  # pragma: no cover - snapshot guarantees the fit
            self._reject_after_intake(member, "capacity-race")
            return member.record
        self._live[name] = member.allocations
        record = AdmissionRecord(
            name=name,
            admitted=True,
            primaries=member.draw,
            placements=placements,
            reliability=reliability,
            expectation_met=member.request.meets_expectation(reliability),
            batched=batched,
            rounds=rounds,
        )
        member.record = record
        return record

    # -- sequential / non-warm path ---------------------------------------------
    def _admit_solo(self, member: _Member) -> AdmissionRecord:
        """Admit one request exactly as the sequential reference does."""
        if not self._intake_primaries(member):
            return member.record
        problem = AugmentationProblem.build(
            self.network,
            member.request,
            member.draw,
            radius=self.radius,
            residuals=self.ledger.residuals(),
            neighborhoods=self.neighborhoods,
            item_config=self.item_config,
        )
        if _edge_cost_sum(problem.items, plan_of(problem)) >= SERVICE_COST_CAP:
            self._reject_after_intake(member, "cost-cap")
            return member.record
        result = self._solo.solve(problem)
        rounds = int(result.meta.get("rounds", 0))
        self.stats["rounds"] += rounds
        return self._commit_backups(
            member,
            result.solution.placements,
            result.reliability,
            batched=False,
            rounds=rounds,
        )

    # -- union (warm) path ------------------------------------------------------
    def _admit_wave(self, wave: list[_Member]) -> None:
        """Admit one disjoint wave through a single amortized solve."""
        for member in wave:
            self._intake_primaries(member)
        live = [m for m in wave if m.record is None]
        if not live:
            return
        snapshot = self.ledger.residuals()

        solvers: list[_Member] = []
        arrays: list[tuple] = []
        for member in live:
            request = member.request
            items, plan = generate_items_with_plan(
                request, member.draw, self.neighborhoods, snapshot,
                config=self.item_config,
            )
            member.items = tuple(items)
            edge = _member_edge_arrays(member.items, plan)
            if float(np.sum(edge[2])) >= SERVICE_COST_CAP:
                self._reject_after_intake(member, "cost-cap")
                continue
            per_position = [0] * request.chain.length
            for item in member.items:
                if item.k > per_position[item.position]:
                    per_position[item.position] = item.k
            member.ladders = tuple(
                reliability_ladder(f.reliability, k_max)
                for f, k_max in zip(request.chain, per_position)
            )
            member.counts = [0] * request.chain.length
            member.factors = [ladder[0] for ladder in member.ladders]
            baseline = math.prod(member.factors)
            if request.meets_expectation(baseline) or not member.items:
                # Early exit (Algorithm 2 line 2) / nothing to place.
                self._commit_backups(member, (), baseline, batched=True, rounds=0)
                continue
            member.active = True
            solvers.append(member)
            arrays.append(edge)

        if solvers:
            self._solve_union(solvers, arrays, snapshot)
            for member in solvers:
                placements, reliability = _finalize_member(member)
                self.stats["rounds"] += member.rounds
                self._commit_backups(
                    member, placements, reliability,
                    batched=True, rounds=member.rounds,
                )

    def _solve_union(
        self,
        members: list[_Member],
        arrays: list[tuple],
        snapshot: dict[int, float],
    ) -> None:
        """One warm-started round loop over the wave's concatenated items.

        Replicates the incremental engine's round semantics
        (:class:`repro.matching.incremental.RoundState` +
        :meth:`MatchingHeuristic._run_rounds_incremental`) member-wise:
        identical row/column/edge enumeration order, identical
        cheapest-first commit with mid-round expectation stops, identical
        per-member round counting -- so each member's component of the
        union solve is bit-identical to its solo solve.
        """
        base = 0
        for member, edge in zip(members, arrays):
            member.item_base = base
            base += len(member.items)
        total_items = base
        edge_item = np.concatenate(
            [e[0] + m.item_base for m, e in zip(members, arrays)]
        )
        edge_node = np.concatenate([e[1] for e in arrays])
        edge_cost = np.concatenate([e[2] for e in arrays])
        edge_demand = np.concatenate([e[3] for e in arrays])
        member_of_item = np.empty(total_items, dtype=np.intp)
        for rank, member in enumerate(members):
            member_of_item[member.item_base : member.item_base + len(member.items)] = rank

        nodes = self.ledger.nodes
        node_space = max(max(nodes), int(edge_node.max(initial=-1))) + 1
        solver = DualReusingSolver(
            node_space,
            total_items,
            SERVICE_COST_CAP,
            universe=UniverseIndex(edge_node, edge_item, edge_cost, nodes),
        )
        use_delta = warm_delta_enabled()
        solve_ledger = CapacityLedger(snapshot)

        res = np.zeros(node_space, dtype=np.float64)
        for v in nodes:
            res[v] = solve_ledger.residual(v)
        item_alive = np.ones(total_items, dtype=bool)
        node_to_row = np.zeros(node_space, dtype=np.intp)
        col_of = np.zeros(total_items, dtype=np.intp)
        arange = np.arange(max(node_space, total_items), dtype=np.intp)
        max_rounds = self._solo.max_rounds

        def deactivate(member: _Member) -> None:
            member.active = False
            span = slice(member.item_base, member.item_base + len(member.items))
            item_alive[span] = False

        while True:
            for member in members:
                if member.active and (
                    member.rounds >= max_rounds
                    or member.request.meets_expectation(math.prod(member.factors))
                ):
                    deactivate(member)
            if not any(m.active for m in members):
                break

            rows = [v for v in nodes if res[v] > 0.0]
            node_to_row[rows] = arange[: len(rows)]
            cols = np.nonzero(item_alive)[0]
            col_of[cols] = arange[: len(cols)]
            res_e = res[edge_node]
            ok = res_e > 0.0
            ok &= (res_e + EPS) >= edge_demand
            ok &= item_alive[edge_item]
            idx = np.nonzero(ok)[0]
            # A member with no live edges can make no further progress --
            # its solo loop would break here.  Drop it (and its columns)
            # and rebuild so the graph covers exactly the solving members.
            with_edges = set(member_of_item[edge_item[idx]].tolist())
            stalled = [
                m for rank, m in enumerate(members)
                if m.active and rank not in with_edges
            ]
            if stalled:
                for member in stalled:
                    deactivate(member)
                continue
            if not len(idx):
                break
            edge_rows = node_to_row[edge_node[idx]]
            edge_cols = col_of[edge_item[idx]]
            edge_costs = edge_cost[idx].tolist()

            if use_delta:
                triples = solver.solve_round_delta(
                    rows, cols, edge_rows, edge_cols, edge_costs, edge_idx=idx
                )
            else:
                triples = solver.solve_round(
                    rows, cols, edge_rows, edge_cols, edge_costs
                )
            matching = [MatchEdge(r, c, cost) for r, c, cost in triples]
            if not matching:  # pragma: no cover - edges imply a matching
                break
            # Cheapest-first commit, exactly as the solo engine: the stable
            # sort preserves emission order (sorted by local row), which
            # restricted to one member's component matches its solo order.
            matching.sort(key=lambda e: e.cost)
            buckets: list[list[MatchEdge]] = [[] for _ in members]
            for edge in matching:
                buckets[member_of_item[cols[edge.col]]].append(edge)

            touched: list[int] = []
            matched_indices: list[int] = []
            for rank, member in enumerate(members):
                bucket = buckets[rank]
                if not bucket or not member.active:
                    continue
                member.rounds += 1
                meets = member.request.meets_expectation
                for edge in bucket:
                    global_idx = int(cols[edge.col])
                    item = member.items[global_idx - member.item_base]
                    u = rows[edge.row]
                    solve_ledger.allocate(
                        u, item.demand, tag=f"{item.function_name}#{item.k}"
                    )
                    member.placements.append(Placement.of(item, u))
                    position = item.position
                    member.counts[position] += 1
                    member.factors[position] = member.ladders[position][
                        member.counts[position]
                    ]
                    matched_indices.append(global_idx)
                    touched.append(u)
                    if meets(math.prod(member.factors)):
                        break
            item_alive[matched_indices] = False
            residual = solve_ledger.residual
            for u in set(touched):
                res[u] = residual(u)


# -- helpers -------------------------------------------------------------------
def _member_edge_arrays(
    items: tuple[BackupItem, ...], plan
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(edge_item, edge_node, edge_cost, edge_demand)`` for one member.

    Taken from the generation-time :class:`ItemPlan` when the kernels
    produced one; otherwise derived by the same item-major/bin-order loop
    as :class:`repro.matching.incremental._ProblemStatics`.
    """
    if plan is not None:
        if plan.min_node < 0:
            raise ValidationError(
                f"negative cloudlet id {plan.min_node} unsupported by the service"
            )
        return (plan.edge_item, plan.edge_node, plan.edge_cost, plan.edge_demand)
    edge_item: list[int] = []
    edge_node: list[int] = []
    edge_cost: list[float] = []
    edge_demand: list[float] = []
    for idx, item in enumerate(items):
        for u in item.bins:
            if u < 0:
                raise ValidationError(
                    f"negative cloudlet id {u} unsupported by the service"
                )
            edge_item.append(idx)
            edge_node.append(u)
            edge_cost.append(item.cost)
            edge_demand.append(item.demand)
    return (
        np.asarray(edge_item, dtype=np.intp),
        np.asarray(edge_node, dtype=np.intp),
        np.asarray(edge_cost, dtype=np.float64),
        np.asarray(edge_demand, dtype=np.float64),
    )


def _edge_cost_sum(items: tuple[BackupItem, ...], plan) -> float:
    """Summed edge-universe cost of one member (the dominance-guard input)."""
    if plan is not None:
        return float(np.sum(plan.edge_cost))
    return float(np.sum(_member_edge_arrays(items, None)[2]))


def _finalize_member(member: _Member) -> tuple[tuple[Placement, ...], float]:
    """Re-key, sort, and trim a member's placements; return the reliability.

    Replicates the solo pipeline exactly: ``repair_prefix`` (per position,
    selected bins keep increasing-``k`` order and are re-keyed ``1..m``),
    ``AugmentationSolution.from_assignments`` (placements rebuilt from the
    re-keyed items, sorted by ``(position, k)``), then
    ``trim_to_expectation`` via the memoized reliability ladders (the same
    floats ``problem.reliability_from_counts`` would produce).
    """
    request = member.request
    ladders = member.ladders
    chain_length = request.chain.length
    item_by_key = {(it.position, it.k): it for it in member.items}

    # repair_prefix + from_assignments.
    by_pos: dict[int, list[tuple[int, int]]] = {}
    for p in member.placements:
        by_pos.setdefault(p.position, []).append((p.k, p.bin))
    placements: list[Placement] = []
    for pos, entries in by_pos.items():
        entries.sort()
        for new_k, (_old_k, bin_) in enumerate(entries, start=1):
            placements.append(Placement.of(item_by_key[(pos, new_k)], bin_))
    placements.sort(key=lambda p: (p.position, p.k))

    def rel_of(counts: list[int]) -> float:
        product = 1.0
        for ladder, count in zip(ladders, counts):
            product *= ladder[count]
        return product

    # trim_to_expectation.
    counts = [0] * chain_length
    for p in placements:
        counts[p.position] += 1
    meets = request.meets_expectation
    if meets(rel_of(counts)):
        while True:
            best_pos = -1
            best_rel = -math.inf
            for i in range(chain_length):
                if counts[i] == 0:
                    continue
                counts[i] -= 1
                rel = rel_of(counts)
                counts[i] += 1
                if meets(rel) and rel > best_rel:
                    best_rel = rel
                    best_pos = i
            if best_pos < 0:
                break
            counts[best_pos] -= 1
        by_position: dict[int, list[Placement]] = {}
        for p in placements:
            by_position.setdefault(p.position, []).append(p)
        kept: list[Placement] = []
        for i, group in by_position.items():
            group.sort(key=lambda p: p.k)
            kept.extend(group[: counts[i]])
        placements = kept

    final_counts = [0] * chain_length
    for p in placements:
        final_counts[p.position] += 1
    return tuple(placements), rel_of(final_counts)
