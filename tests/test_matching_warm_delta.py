"""Delta re-solve engine of the warm LAP core: exactness and equivalences.

The contract under test (``repro.matching.warmstart``):

* **Exactness** -- every round of :meth:`DualReusingSolver.solve_round_delta`
  equals the scipy big-M dense reference *pair-for-pair* (costs are unique
  floats, so the optimum is unique) on Algorithm 2's shrinking round
  sequences: consumed matched items, edge loss, row loss;
* **Growth is rejected loudly** -- on sequences where items, edges and
  rows return, each round either raises
  :class:`~repro.util.errors.ValidationError` or is still exact, and a
  rejected round leaves the solver's duals, matching and counters
  untouched;
* **Engine equivalences** -- the heap sweep == the ``argmin`` scan of
  ``tests/reference/scan.py`` and delta == cold solves, pair-for-pair; on
  tied costs (many optima) the heap still equals the scan pair-for-pair,
  while scipy is compared on cardinality and cost only;
* **Counters** -- :class:`WarmStats` bookkeeping stays consistent;
* **Validation** -- malformed rounds (out-of-range edge endpoints or
  rows, row offsets that disagree with the edge lists, unsorted ``cols``)
  raise
  :class:`~repro.util.errors.ValidationError` instead of corrupting the
  persistent state.

Named regressions at the bottom pin the historical failure modes: the
stale-pair mutuality bug (a row absent from a round keeping a claim on an
item another row re-matched) and the unsoundness of "compensated" repairs
(dummy-matched rows next to an attractive freed column *must* re-augment).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from repro.matching.warmstart import DualReusingSolver, warm_delta_enabled
from repro.util.errors import ValidationError
from tests.reference.scan import ScanSolver


def scipy_reference(n, m, erow, ecol, costs, big):
    """Unique-optimum reference: big-M padded dense ``linear_sum_assignment``."""
    forbidden = big * (n + 2.0)
    dense = np.full((n, m + n), forbidden)
    dense[erow, ecol] = costs
    for i in range(n):
        dense[i, m + i] = big
    ri, ci = linear_sum_assignment(dense)
    pairs = sorted(
        (int(i), int(j)) for i, j in zip(ri, ci) if j < m and dense[i, j] < big
    )
    cost = float(sum(dense[i, j] for i, j in pairs))
    return pairs, cost


def csr(n_rows, erow, ecol, costs):
    """``(indptr, edge_cols, edge_costs)``: edges given in any order, laid
    out row-major with ascending columns, as the solver takes a round."""
    order = sorted(range(len(costs)), key=lambda k: (int(erow[k]), int(ecol[k])))
    indptr = [0] * (n_rows + 1)
    for k in order:
        indptr[int(erow[k]) + 1] += 1
    for r in range(n_rows):
        indptr[r + 1] += indptr[r]
    return indptr, [int(ecol[k]) for k in order], [float(costs[k]) for k in order]


def _universe(rng, max_nodes=6, max_items=8, tied=False):
    """A random static edge universe: unique float costs, or with ``tied``
    integer costs in {1, 2, 3}."""
    n_nodes = int(rng.integers(1, max_nodes + 1))
    n_items = int(rng.integers(1, max_items + 1))
    node_ids = rng.choice(np.arange(n_nodes * 3), size=n_nodes, replace=False)
    node_order = [int(x) for x in rng.permutation(node_ids)]
    pairs = [
        (g, j) for g in node_order for j in range(n_items) if rng.random() < 0.75
    ]
    if not pairs:
        pairs = [(node_order[0], 0)]
    e_node = np.array([p[0] for p in pairs], dtype=np.intp)
    e_item = np.array([p[1] for p in pairs], dtype=np.intp)
    if tied:
        e_cost = rng.integers(1, 4, size=len(pairs)).astype(np.float64)
    else:
        e_cost = rng.uniform(0.0, 10.0, size=len(pairs))
    return node_order, n_items, e_node, e_item, e_cost


def run_round_sequence(seed, adversarial, tied=False):
    """Drive every engine variant through one random round sequence.

    Four solvers see bit-identical rounds -- scan/heap cold and scan/heap
    delta -- where "scan" is the reference :class:`ScanSolver`.  Each
    solver's round either raises :class:`ValidationError` (a rejected
    grown round) or equals :func:`scipy_reference`: pair-for-pair with
    unique costs, on cardinality and cost with ``tied=True`` (integer
    costs, so the optimum is not unique).  Each heap solver must also
    match the scan solver of its mode: the same rejection or the same
    pairs, round by round.
    ``adversarial=False`` is Algorithm 2's shape -- matched items leave,
    edges and rows only disappear -- and must never be rejected.
    ``adversarial=True`` biases the stream toward matched items *staying*
    and turns on growth events (items, edges and rows returning).  Returns
    the number of rejected solver-rounds.
    """
    rng = np.random.default_rng(seed)
    node_order, n_items, e_node, e_item, e_cost = _universe(rng, tied=tied)
    node_space = max(node_order) + 1
    big = float(e_cost.sum()) + 1.0

    def make(solver=DualReusingSolver):
        return solver(node_space, n_items, float(e_cost.sum()))

    # tag -> (solver, cold or delta)
    tags = {
        "scan-cold": (make(ScanSolver), "cold"),
        "heap-cold": (make(), "cold"),
        "scan-delta": (make(ScanSolver), "delta"),
        "heap-delta": (make(), "delta"),
    }

    alive_row = {g: True for g in node_order}
    alive_item = np.ones(n_items, dtype=bool)
    alive_edge = np.ones(e_cost.size, dtype=bool)
    matched_items: set[int] = set()
    rejected = 0

    for rnd in range(int(rng.integers(2, 7))):
        if rnd > 0:
            for j in range(n_items):
                if not alive_item[j]:
                    continue
                p = (0.8 if adversarial else 1.0) if j in matched_items else 0.3
                if rng.random() < p:
                    alive_item[j] = False
            live = np.nonzero(alive_edge)[0]
            alive_edge[live[rng.random(live.size) < 0.2]] = False
            for g in list(alive_row):
                if alive_row[g] and rng.random() < 0.1:
                    alive_row[g] = False
            if adversarial:
                # Growth / resurrection: removed items, edges and rows may
                # return -- the rounds that break the JV invariant.
                for j in range(n_items):
                    if not alive_item[j] and rng.random() < 0.35:
                        alive_item[j] = True
                        matched_items.discard(j)
                dead = np.nonzero(~alive_edge)[0]
                alive_edge[dead[rng.random(dead.size) < 0.35]] = True
                for g in list(alive_row):
                    if not alive_row[g] and rng.random() < 0.3:
                        alive_row[g] = True

        rows = [g for g in node_order if alive_row[g]]
        cols = sorted(int(j) for j in np.nonzero(alive_item)[0])
        r_of = {g: i for i, g in enumerate(rows)}
        c_of = {j: i for i, j in enumerate(cols)}
        sel = [
            k for k in range(e_cost.size)
            if alive_edge[k]
            and alive_row.get(int(e_node[k]), False)
            and alive_item[int(e_item[k])]
        ]
        erow = np.array([r_of[int(e_node[k])] for k in sel], dtype=np.intp)
        ecol = np.array([c_of[int(e_item[k])] for k in sel], dtype=np.intp)
        costs = e_cost[np.array(sel, dtype=np.intp)] if sel else np.array([])

        if rows and cols and sel:
            ref_pairs, ref_cost = scipy_reference(
                len(rows), len(cols), erow, ecol, costs, big
            )
        else:
            ref_pairs, ref_cost = [], 0.0

        results = {}
        graph = (rows, cols, *csr(len(rows), erow, ecol, costs))
        for name, (solver, mode) in tags.items():
            try:
                if mode == "cold":
                    out = solver.solve_round(*graph)
                else:
                    out = solver.solve_round_delta(*graph)
            except ValidationError as exc:
                assert "grew" in str(exc), exc
                assert adversarial, f"seed={seed} round={rnd} tag={name}: {exc}"
                results[name] = None
                rejected += 1
                continue
            got_pairs = sorted((r, c) for r, c, _ in out)
            got_cost = float(sum(c for _, _, c in out))
            same = len(got_pairs) == len(ref_pairs) if tied else got_pairs == ref_pairs
            assert same and abs(got_cost - ref_cost) < 1e-7, (
                f"seed={seed} round={rnd} tag={name}: {got_pairs} "
                f"(cost {got_cost:.6f}) != reference {ref_pairs} "
                f"(cost {ref_cost:.6f})"
            )
            results[name] = (got_pairs, got_cost)

        for name, other in (("heap-cold", "scan-cold"), ("heap-delta", "scan-delta")):
            assert results[name] == results[other], (
                f"seed={seed} round={rnd}: {name} != {other}"
            )
        base = results["scan-cold"]
        matched_items = {cols[c] for _, c in base[0]} if base else set()

        stats = tags["heap-delta"][0].stats
        assert stats.rows_kept + stats.rows_reaugmented == stats.rows_total
    return rejected


# -- property tests -----------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1), tied=st.booleans())
def test_delta_equals_cold_equals_scipy_on_shrink_sequences(seed, tied):
    """Algorithm 2-shaped sequences: every engine variant is exact, and on
    tied costs the heap breaks every tie the way the reference scan does."""
    run_round_sequence(seed, adversarial=False, tied=tied)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1), tied=st.booleans())
def test_delta_is_exact_on_growth_sequences(seed, tied):
    """Resurrection-heavy sequences: each round is rejected or exact."""
    run_round_sequence(seed, adversarial=True, tied=tied)


def test_repair_counter_fires_on_growth():
    """Across adversarial seeds the growth check actually fires."""
    total = sum(
        run_round_sequence(1000 + s, adversarial=True) for s in range(30)
    )
    assert total > 0


def _one_round_solver():
    """A solver after one round whose augmenting path popped item 0.

    Row 0 takes item 0 at cost 1, then row 1 (whose only edge is to item
    0) takes it over and row 0 moves to item 1: global rows 0 -> item 1
    and 1 -> item 0, with ``u = (5, 5)`` and ``v = (-4, 0)``.
    """
    s = DualReusingSolver(2, 2, 20.0)
    s.solve_round_delta([0, 1], [0, 1], [0, 2, 3], [0, 1, 0], [1.0, 5.0, 1.0])
    return s


#: Round graphs after :func:`_one_round_solver` that are not Algorithm 2's:
#: item 0 stays after being matched and comes back free at ``v = -4``
#: (keeping row 0 on item 1 would cost 5 instead of 1), and a new cost-1
#: edge reaches matched row 1 at reduced cost ``1 - 5 - 0 < 0``.
GROWN_ROUNDS = {
    "free column": ([0], [0, 1], [0, 2], [0, 1], [1.0, 5.0]),
    "matched row": ([0, 1], [0, 1], [0, 2, 4], [0, 1, 0, 1], [1.0, 5.0, 1.0, 1.0]),
}


@pytest.mark.parametrize("grown", list(GROWN_ROUNDS), ids=list(GROWN_ROUNDS))
def test_rejected_round_leaves_the_solver_unchanged(grown):
    """A rejected round writes no dual, no matching entry and no counter."""
    s = _one_round_solver()
    state = {
        name: getattr(s, name).copy()
        for name in ("_u", "_v", "_g_col4row", "_g_row4col")
    }
    stats = s.stats.as_dict()
    for solve in (s.solve_round, s.solve_round_delta):
        with pytest.raises(ValidationError, match="grew"):
            solve(*GROWN_ROUNDS[grown])
        for name, before in state.items():
            assert getattr(s, name) == before, name
        assert s.stats.as_dict() == stats


# -- named regressions --------------------------------------------------------
def test_stale_pair_mutuality_regression():
    """A row absent from a round must not keep a claim its item re-matched.

    Historical bug: ``_g_col4row`` is only rewritten for rows present in a
    round, so a vanished row kept pointing at its old item; when the row
    resurrected while the item was matched elsewhere, reconciliation
    double-matched the item (two rows on one column).  Seed 1093 of the
    adversarial stream reproduced it before the mutuality check.  Now that
    grown rounds are rejected, seed 1093 no longer reaches such a pair;
    seed 435 does (without the check its round 2 puts two rows on one
    column).
    """
    for seed in (1093, 435):
        run_round_sequence(seed, adversarial=True)


def test_dummy_matched_row_must_reaugment():
    """A dummy-matched row next to a freed cheap column must re-augment.

    Historical bug: "compensated" repairs tried to keep such rows matched
    to their dummy by adjusting duals, but the state is genuinely
    suboptimal (a length-1 augmenting path exists) and no sound dual
    adjustment can certify it -- the matching silently lost cardinality.
    Seed 2 of the adversarial stream reproduced it.
    """
    run_round_sequence(2, adversarial=True)


# -- validation ---------------------------------------------------------------
def _tiny_solver():
    return DualReusingSolver(3, 3, 10.0)


def test_edge_rows_out_of_range_raise():
    """A row's edges are its ``indptr`` slice: offsets that run past the
    edge lists, or a global row id outside the node space, raise."""
    s = _tiny_solver()
    with pytest.raises(ValidationError, match="indptr"):
        s.solve_round([0, 1], [0, 1], [0, 1, 3], [0, 1], [1.0, 2.0])
    with pytest.raises(ValidationError, match="indptr"):
        s.solve_round([0, 1], [0, 1], [0, 2, 1], [0, 1], [1.0, 2.0])
    with pytest.raises(ValidationError, match="rows out of range"):
        s.solve_round([0, 5], [0, 1], [0, 1, 2], [0, 1], [1.0, 2.0])


def test_edge_cols_out_of_range_raise():
    s = _tiny_solver()
    with pytest.raises(ValidationError, match="edge_cols out of range"):
        s.solve_round([0, 1], [0, 1], [0, 1, 2], [0, -1], [1.0, 2.0])
    with pytest.raises(ValidationError, match="cols out of range"):
        s.solve_round([0, 1], [0, 7], [0, 1, 2], [0, 1], [1.0, 2.0])


def test_mismatched_edge_arrays_raise():
    s = _tiny_solver()
    with pytest.raises(ValidationError, match="parallel"):
        s.solve_round([0, 1], [0, 1], [0, 1, 2], [0], [1.0, 2.0])


def test_negative_costs_raise():
    s = _tiny_solver()
    with pytest.raises(ValidationError, match="non-negative"):
        s.solve_round([0], [0], [0, 1], [0], [-1.0])


def test_delta_requires_ascending_cols():
    s = _tiny_solver()
    with pytest.raises(ValidationError, match="strictly ascending"):
        s.solve_round_delta([0, 1], [1, 0], [0, 1, 2], [0, 1], [1.0, 2.0])


# -- env switches -------------------------------------------------------------
def test_warm_delta_switch(monkeypatch):
    monkeypatch.delenv("REPRO_WARM_DELTA", raising=False)
    assert warm_delta_enabled()
    monkeypatch.setenv("REPRO_WARM_DELTA", "0")
    assert not warm_delta_enabled()
    monkeypatch.setenv("REPRO_WARM_DELTA", "1")
    assert warm_delta_enabled()


def test_warm_stats_as_dict_keys():
    solver = _tiny_solver()
    solver.solve_round_delta([0, 1], [0, 1], [0, 1, 2], [0, 1], [1.0, 2.0])
    d = solver.stats.as_dict()
    for key in (
        "rounds", "delta_rounds", "rows_total", "rows_kept",
        "rows_reaugmented", "quick_matches", "heap_pops", "dual_repairs",
    ):
        assert key in d
    assert d["rounds"] == 1 and d["delta_rounds"] == 1
    assert d["rows_total"] == 2
