"""The million-request streaming-admission latency benchmark.

Drives :func:`repro.service.replay_trace` over a synthetic Poisson +
flash-crowd arrival trace on a large degree-controlled topology (the
Waxman edge probability does not shrink with ``n``, so the generator gets
``alpha`` scaled down to keep GT-ITM-like mean degree at 5k nodes -- dense
graphs make every radius-1 domain overlap and no wave ever coalesces).

Three measurements, recorded to ``BENCH_admission_service.json``
(``repro-bench/1`` schema, machine provenance included):

* **identity** -- batched and sequential admission replay a shared trace
  prefix and must produce identical records and byte-identical per-node
  ledger state (the differential contract, re-checked at bench scale);
* **amortization** -- a capped flash-crowd replica replayed in both modes
  on fresh ledgers: wall-clock speedup of the batched union solves over
  per-request solves (acceptance floor: >= 1.5x).  Single-shot replay
  timing is allocator/GC-noisy, so each mode replays the same
  pre-materialized trace ``AMORTIZATION_REPEATS`` times with GC paused
  and the per-mode minimum is the estimate (all repeats are recorded);
* **latency** -- the main trace (1M requests full-scale, 20k quick)
  replayed batched, recording p50/p90/p99 admission latency per phase,
  throughput, shed rate, and the refold-audit count.

Run standalone::

    python benchmarks/bench_admission_service.py [--quick]

``--quick`` prints the tables without overwriting the recorded full-scale
JSON; it is the CI smoke path and asserts the same invariants (identity,
nonzero amortized waves, zero audit violations).
"""

from __future__ import annotations

import gc
import sys
import time
from pathlib import Path

if __name__ == "__main__":  # standalone: bootstrap repo + src onto the path
    _root = Path(__file__).resolve().parent.parent
    for entry in (str(_root), str(_root / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)

import numpy as np

from benchmarks.conftest import RESULTS_DIR, emit, emit_json, full_grid, percentiles
from repro.experiments.settings import ExperimentSettings
from repro.netmodel.capacity import CapacityLedger
from repro.netmodel.vnf import VNFCatalog
from repro.resilience.metrics import MetricsTracker
from repro.service.batch import BatchAdmissionEngine
from repro.service.server import replay_trace
from repro.service.trace import TracePhase, flash_crowd_phases, synthetic_trace
from repro.topology.gtitm import WaxmanParameters, generate_gtitm_topology
from repro.topology.placement import CloudletPlacementConfig, build_mec_network
from repro.util.tables import format_table

SEED = 23

#: Reference GT-ITM density: 100-node graphs at alpha=0.4 have mean degree ~6.
_REFERENCE_NODES = 100
_REFERENCE_ALPHA = 0.4

#: The per-wave costs the union path amortizes (residual snapshot, scratch
#: ledger, solver construction) scale with the wave's domain, not with the
#: network; what needs the large network is wave width, which scales with
#: cloudlet count.  1024 cloudlets give ~12-member waves.
FULL_SCALE = {
    "requests": 1_000_000,
    "num_aps": 10_240,
    "identity_prefix": 2_000,
    "amortization_requests": 6_000,
}
QUICK_SCALE = {
    "requests": 20_000,
    "num_aps": 10_240,
    "identity_prefix": 600,
    "amortization_requests": 2_000,
}

BASE_RATE = 600.0
FLASH_MULTIPLIER = 4.0
FLASH_FRACTION = 0.2
WINDOW = 1.0
QUEUE_LIMIT = 2048
HOLDING = 2.0
AUDIT_EVERY = 200
SPEEDUP_FLOOR = 1.5
AMORTIZATION_REPEATS = 3


def build_topology(num_aps: int, rng):
    """Degree-controlled Waxman topology + cloudlet placement."""
    params = WaxmanParameters(alpha=_REFERENCE_ALPHA * _REFERENCE_NODES / num_aps)
    graph = generate_gtitm_topology(num_aps, params=params, rng=rng)
    return build_mec_network(
        graph,
        config=CloudletPlacementConfig(
            cloudlet_fraction=0.10, capacity_range=(4000, 8000)
        ),
        rng=rng,
    )


def make_engine(network, mode: str, seed: int) -> BatchAdmissionEngine:
    ledger = CapacityLedger({v: network.capacity(v) for v in network.cloudlets})
    return BatchAdmissionEngine(
        network,
        ledger=ledger,
        mode=mode,
        queue_limit=QUEUE_LIMIT,
        rng=np.random.default_rng(seed),
    )


def run_bench(scale: dict):
    settings = ExperimentSettings(
        num_aps=scale["num_aps"],
        capacity_range=(4000, 8000),
        sfc_length_range=(3, 5),
    )
    rng = np.random.default_rng(SEED)
    started = time.perf_counter()
    network = build_topology(scale["num_aps"], rng)
    catalog = VNFCatalog.random(rng=rng)
    build_seconds = time.perf_counter() - started

    def trace(phases, trace_seed):
        return synthetic_trace(
            phases, catalog, settings, rng=np.random.default_rng(trace_seed),
            holding_time=HOLDING,
        )

    # 1. Identity: batched == sequential on a shared trace prefix.
    prefix = (TracePhase(scale["identity_prefix"], BASE_RATE * FLASH_MULTIPLIER, "flash"),)
    runs = {}
    for mode in ("batched", "sequential"):
        engine = make_engine(network, mode, seed=SEED + 1)
        stats = replay_trace(engine, trace(prefix, SEED + 2), window=WINDOW,
                             keep_records=True)
        runs[mode] = (engine, stats)
    keys = {
        mode: [r.identity_key() for r in stats.records]
        for mode, (_, stats) in runs.items()
    }
    ledgers = {mode: engine.ledger for mode, (engine, _) in runs.items()}
    identical = keys["batched"] == keys["sequential"] and all(
        ledgers["batched"].used(v) == ledgers["sequential"].used(v)
        for v in ledgers["batched"].nodes
    )
    assert identical, "batched and sequential admission diverged on the prefix"

    # 2. Amortization: the flash-crowd replica, both modes, fresh ledgers.
    #    Best-of-N with GC paused: the work is deterministic per mode, so the
    #    minimum is the least-perturbed observation of the same computation.
    flash = (TracePhase(
        scale["amortization_requests"], BASE_RATE * FLASH_MULTIPLIER, "flash"
    ),)
    flash_trace = list(trace(flash, SEED + 4))  # materialize outside the clock
    repeat_seconds: dict[str, list[float]] = {"batched": [], "sequential": []}
    batched_engine = None
    for _ in range(AMORTIZATION_REPEATS):
        for mode in ("batched", "sequential"):
            engine = make_engine(network, mode, seed=SEED + 3)
            gc.collect()
            gc.disable()
            t0 = time.perf_counter()
            replay_trace(engine, flash_trace, window=WINDOW)
            elapsed = time.perf_counter() - t0
            gc.enable()
            repeat_seconds[mode].append(elapsed)
            if mode == "batched":
                batched_engine = engine
    batched_best = min(repeat_seconds["batched"])
    sequential_best = min(repeat_seconds["sequential"])
    speedup = sequential_best / batched_best
    assert batched_engine.stats["amortized_waves"] > 0, "no wave ever coalesced"

    # 3. The main trace, batched, with metrics and periodic refold audits.
    phases = flash_crowd_phases(
        scale["requests"],
        base_rate=BASE_RATE,
        flash_multiplier=FLASH_MULTIPLIER,
        flash_fraction=FLASH_FRACTION,
    )
    engine = make_engine(network, "batched", seed=SEED + 5)
    metrics = MetricsTracker(record_outcomes=False)
    main_stats = replay_trace(
        engine, trace(phases, SEED + 6), window=WINDOW, metrics=metrics,
        audit_every=AUDIT_EVERY,
    )

    points = []
    for label in ("poisson", "flash"):
        samples = main_stats.latencies.get(label, [])
        pct = percentiles(samples)
        points.append(
            {
                "phase": label,
                "requests": len(samples),
                "latency_p50_ms": pct["p50"] * 1e3,
                "latency_p90_ms": pct["p90"] * 1e3,
                "latency_p99_ms": pct["p99"] * 1e3,
            }
        )
    report = metrics.report
    record = {
        "config": {
            "requests": scale["requests"],
            "num_aps": scale["num_aps"],
            "cloudlets": network.num_cloudlets,
            "backend": "warm",
            "base_rate": BASE_RATE,
            "flash_multiplier": FLASH_MULTIPLIER,
            "flash_fraction": FLASH_FRACTION,
            "window": WINDOW,
            "queue_limit": QUEUE_LIMIT,
            "holding_time": HOLDING,
            "audit_every": AUDIT_EVERY,
            "seed": SEED,
            "topology_build_seconds": round(build_seconds, 3),
        },
        "points": points,
        "extra": {
            "throughput_rps": main_stats.throughput,
            "wall_seconds": main_stats.wall_seconds,
            "admitted": main_stats.admitted,
            "shed": main_stats.shed,
            "shed_rate": main_stats.shed_rate,
            "windows": main_stats.windows,
            "audits": main_stats.audits,
            "audit_violations": 0,  # the refold audit raises otherwise
            "queue_depth": report.queue_depth_stats(),
            "engine_stats": dict(engine.stats),
            "identity": {
                "prefix_requests": scale["identity_prefix"],
                "identical": identical,
            },
            "amortization": {
                "flash_requests": scale["amortization_requests"],
                "repeats": AMORTIZATION_REPEATS,
                "batched_seconds": batched_best,
                "sequential_seconds": sequential_best,
                "batched_repeat_seconds": repeat_seconds["batched"],
                "sequential_repeat_seconds": repeat_seconds["sequential"],
                "speedup": speedup,
                "waves": batched_engine.stats["waves"],
                "amortized_waves": batched_engine.stats["amortized_waves"],
                "union_members": batched_engine.stats["union_members"],
            },
        },
    }
    return record


def render_tables(record) -> str:
    extra = record["extra"]
    latency = format_table(
        ["phase", "requests", "p50 ms", "p90 ms", "p99 ms"],
        [
            [
                p["phase"],
                p["requests"],
                round(p["latency_p50_ms"], 3),
                round(p["latency_p90_ms"], 3),
                round(p["latency_p99_ms"], 3),
            ]
            for p in record["points"]
        ],
        title=(
            f"Admission latency, {record['config']['requests']} requests "
            f"({record['config']['cloudlets']} cloudlets, warm backend, batched)"
        ),
    )
    amort = extra["amortization"]
    summary = format_table(
        ["metric", "value"],
        [
            ["throughput (req/s)", round(extra["throughput_rps"], 1)],
            ["wall seconds", round(extra["wall_seconds"], 2)],
            ["admitted", extra["admitted"]],
            ["shed rate", round(extra["shed_rate"], 4)],
            ["audits (violations)", f"{extra['audits']} (0)"],
            ["flash speedup (seq/batched)", round(amort["speedup"], 2)],
            ["amortized waves", f"{amort['amortized_waves']}/{amort['waves']}"],
        ],
        title="Streaming admission summary",
    )
    return latency + "\n\n" + summary


def bench_admission_service(benchmark, results_dir):
    scale = FULL_SCALE if full_grid() else QUICK_SCALE
    record = benchmark.pedantic(lambda: run_bench(scale), rounds=1, iterations=1)
    if full_grid():
        assert record["extra"]["amortization"]["speedup"] >= SPEEDUP_FLOOR
    emit(results_dir, "admission_service", render_tables(record))
    emit_json(
        results_dir,
        "BENCH_admission_service",
        config=record["config"],
        points=record["points"],
        extra=record["extra"],
    )


def main(argv):
    unknown = [a for a in argv if a != "--quick"]
    if unknown:
        print(f"usage: bench_admission_service.py [--quick] (got {unknown})")
        return 2
    quick = "--quick" in argv
    record = run_bench(QUICK_SCALE if quick else FULL_SCALE)
    text = render_tables(record)
    if quick:
        # CI smoke: print, assert the invariants, do not overwrite the record.
        print(text)
        assert record["extra"]["identity"]["identical"]
        assert record["extra"]["amortization"]["amortized_waves"] > 0
    else:
        assert record["extra"]["amortization"]["speedup"] >= SPEEDUP_FLOOR, (
            f"flash-crowd amortization {record['extra']['amortization']['speedup']:.2f}x "
            f"below the {SPEEDUP_FLOOR}x floor"
        )
        RESULTS_DIR.mkdir(exist_ok=True)
        emit(RESULTS_DIR, "admission_service", text)
        emit_json(
            RESULTS_DIR,
            "BENCH_admission_service",
            config=record["config"],
            points=record["points"],
            extra=record["extra"],
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
