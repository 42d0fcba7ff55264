"""Command-line interface for the experiment harness.

Run the paper's figure sweeps (or the ablations) without writing code::

    python -m repro.cli fig1 --trials 20 --seed 7
    python -m repro.cli fig3 --trials 50 --fractions 0.0625 0.25 1.0 --chart
    python -m repro.cli ablate radius --trials 10
    python -m repro.cli batch --requests 80 --algorithm heuristic
    python -m repro.cli batch --requests 80 --streams 8 --jobs 4

Tables are printed to stdout in the same format the benchmark suite emits;
``--chart`` adds ASCII line charts, ``--csv PATH`` writes a tidy CSV.

Sweep commands take ``--jobs N`` (default: auto -- ``REPRO_JOBS`` or the
CPU count) to spread trials over worker processes; for a fixed seed the
emitted numbers are bit-identical for every ``N``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.algorithms.baselines import GreedyGain
from repro.algorithms.fallback import default_fallback_chain
from repro.algorithms.heuristic import MatchingHeuristic
from repro.algorithms.ilp_exact import ILPAlgorithm
from repro.experiments.ablations import (
    run_expectation_ablation,
    run_radius_ablation,
    run_truncation_ablation,
)
from repro.experiments.ascii_plots import (
    render_reliability_chart,
    render_runtime_chart,
)
from repro.experiments.batch import (
    run_joint_comparison,
    run_request_stream,
    run_stream_ensemble,
)
from repro.experiments.figures import FigureSeries, run_figure1, run_figure2, run_figure3
from repro.experiments.reporting import render_figure
from repro.experiments.resilience import FAULT_SCENARIOS, run_fault_scenario
from repro.experiments.serialization import write_series_csv
from repro.experiments.settings import DEFAULT_SETTINGS
from repro.util.tables import format_table

ALGORITHMS = {
    "ilp": ILPAlgorithm,
    "heuristic": MatchingHeuristic,
    "greedy": GreedyGain,
    "fallback": default_fallback_chain,
}

ABLATIONS = {
    "radius": run_radius_ablation,
    "truncation": run_truncation_ablation,
    "expectation": run_expectation_ablation,
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trials", type=int, default=10, help="trials per data point")
    parser.add_argument("--seed", type=int, default=1, help="root RNG seed")
    parser.add_argument(
        "--chart", action="store_true", help="also render ASCII line charts"
    )
    parser.add_argument("--csv", metavar="PATH", help="write the series as tidy CSV")


def _add_jobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=0,
        metavar="N",
        help=(
            "worker processes for the sweep (default 0 = auto: REPRO_JOBS "
            "or the CPU count; 1 = serial; results are identical either way)"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="ICPP'20 reliability-augmentation experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig1 = sub.add_parser("fig1", help="Figure 1: sweep SFC length")
    _add_common(fig1)
    _add_jobs(fig1)
    fig1.add_argument(
        "--lengths", type=int, nargs="+", default=[2, 6, 10, 14, 20]
    )

    fig2 = sub.add_parser("fig2", help="Figure 2: sweep function reliability")
    _add_common(fig2)
    _add_jobs(fig2)

    fig3 = sub.add_parser("fig3", help="Figure 3: sweep residual capacity")
    _add_common(fig3)
    _add_jobs(fig3)
    fig3.add_argument(
        "--fractions", type=float, nargs="+", default=[1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0]
    )

    ablate = sub.add_parser("ablate", help="design-dimension ablations")
    ablate.add_argument("dimension", choices=sorted(ABLATIONS))
    _add_common(ablate)
    _add_jobs(ablate)

    batch = sub.add_parser("batch", help="system-level request stream")
    _add_common(batch)
    batch.add_argument("--requests", type=int, default=50)
    batch.add_argument(
        "--streams",
        type=int,
        default=1,
        help="independent replica streams (>1 runs them as a parallel ensemble)",
    )
    _add_jobs(batch)
    batch.add_argument(
        "--algorithm", choices=sorted(ALGORITHMS), default="heuristic"
    )

    resilient = sub.add_parser(
        "resilient", help="fault-injected stream with automatic repair"
    )
    _add_common(resilient)
    resilient.add_argument("--requests", type=int, default=8)
    resilient.add_argument(
        "--scenario", choices=sorted(FAULT_SCENARIOS), default="outages"
    )
    resilient.add_argument(
        "--algorithm", choices=sorted(ALGORITHMS), default="fallback"
    )

    chaos = sub.add_parser(
        "chaos", help="scripted chaos campaign with breaker + invariant audits"
    )
    chaos.add_argument(
        "--scenario",
        default="soak",
        metavar="NAME|PATH",
        help="builtin scenario name (quick, soak) or path to a scenario JSON",
    )
    chaos.add_argument(
        "--quick",
        action="store_true",
        help="shorthand for --scenario quick (the CI-sized campaign)",
    )
    chaos.add_argument("--seed", type=int, default=1, help="root RNG seed")
    chaos.add_argument(
        "--json",
        metavar="PATH",
        help="also write the campaign report (repro-bench/1 JSON)",
    )
    chaos.add_argument(
        "--dump",
        metavar="PATH",
        help="where the invariant auditor writes its forensic dump on violation",
    )

    joint = sub.add_parser(
        "joint", help="sequential vs clairvoyant-joint SLO comparison"
    )
    _add_common(joint)
    joint.add_argument("--requests", type=int, default=8)
    joint.add_argument(
        "--algorithm", choices=sorted(ALGORITHMS), default="heuristic"
    )

    serve = sub.add_parser(
        "serve", help="streaming admission service: batched replay of a trace"
    )
    serve.add_argument("--requests", type=int, default=2000, help="trace length")
    serve.add_argument("--aps", type=int, default=1280, help="topology size (APs)")
    serve.add_argument("--rate", type=float, default=200.0, help="base arrival rate")
    serve.add_argument(
        "--flash-multiplier",
        type=float,
        default=4.0,
        help="flash-crowd rate multiplier (middle fifth of the trace)",
    )
    serve.add_argument(
        "--window", type=float, default=1.0, help="admission batching window"
    )
    serve.add_argument(
        "--queue-limit", type=int, default=512, help="per-batch shed cap"
    )
    serve.add_argument(
        "--mode",
        choices=("batched", "sequential"),
        default="batched",
        help="batched = neighborhood-disjoint waves share one solve; "
        "sequential = one request per wave (identical results)",
    )
    serve.add_argument(
        "--audit-every", type=int, default=50, help="refold audit cadence (batches)"
    )
    serve.add_argument("--seed", type=int, default=1, help="root RNG seed")
    serve.add_argument(
        "--smoke",
        action="store_true",
        help="CI smoke: short trace; fail unless audits pass and waves amortize",
    )
    return parser


def _emit_series(series: FigureSeries, args: argparse.Namespace) -> None:
    print(render_figure(series))
    if args.chart:
        print()
        print(render_reliability_chart(series))
        print()
        print(render_runtime_chart(series))
    if args.csv:
        path = write_series_csv(series, args.csv)
        print(f"\nwrote {path}")


def _run_serve(args: argparse.Namespace) -> int:
    """The ``serve`` subcommand: replay a flash-crowd trace batched."""
    import numpy as np

    from repro.experiments.settings import ExperimentSettings
    from repro.netmodel.capacity import CapacityLedger
    from repro.netmodel.vnf import VNFCatalog
    from repro.resilience.metrics import MetricsTracker
    from repro.service import (
        BatchAdmissionEngine,
        flash_crowd_phases,
        replay_trace,
        synthetic_trace,
    )
    from repro.topology.gtitm import WaxmanParameters, generate_gtitm_topology
    from repro.topology.placement import CloudletPlacementConfig, build_mec_network
    from repro.util.stats import percentiles

    requests = 1500 if args.smoke else args.requests
    settings = ExperimentSettings(
        num_aps=args.aps, capacity_range=(4000, 8000), sfc_length_range=(3, 5)
    )
    rng = np.random.default_rng(args.seed)
    # The Waxman edge probability does not shrink with n: scale alpha down
    # so large service topologies keep GT-ITM-like mean degree (dense graphs
    # make every domain overlap and no admission wave ever coalesces).
    graph = generate_gtitm_topology(
        args.aps, params=WaxmanParameters(alpha=min(1.0, 0.4 * 100 / args.aps)), rng=rng
    )
    network = build_mec_network(
        graph,
        config=CloudletPlacementConfig(
            cloudlet_fraction=0.10, capacity_range=(4000, 8000)
        ),
        rng=rng,
    )
    catalog = VNFCatalog.random(rng=rng)
    engine = BatchAdmissionEngine(
        network,
        ledger=CapacityLedger({v: network.capacity(v) for v in network.cloudlets}),
        mode=args.mode,
        queue_limit=args.queue_limit,
        rng=np.random.default_rng(args.seed + 1),
    )
    metrics = MetricsTracker(record_outcomes=False)
    trace = synthetic_trace(
        flash_crowd_phases(requests, base_rate=args.rate,
                           flash_multiplier=args.flash_multiplier),
        catalog,
        settings,
        rng=np.random.default_rng(args.seed + 2),
        holding_time=2.0,
    )
    stats = replay_trace(
        engine, trace, window=args.window, metrics=metrics,
        audit_every=args.audit_every,
    )
    all_latencies = [s for samples in stats.latencies.values() for s in samples]
    pct = percentiles(all_latencies)
    rows = [
        ["requests", stats.requests],
        ["admitted", stats.admitted],
        ["shed rate", round(stats.shed_rate, 4)],
        ["throughput (req/s)", round(stats.throughput, 1)],
        ["latency p50/p90/p99 (ms)",
         f"{pct['p50'] * 1e3:.2f} / {pct['p90'] * 1e3:.2f} / {pct['p99'] * 1e3:.2f}"],
        ["batches", engine.stats["batches"]],
        ["waves (amortized)",
         f"{engine.stats['waves']} ({engine.stats['amortized_waves']})"],
        ["audits (violations)", f"{stats.audits} (0)"],
    ]
    print(
        format_table(
            ["metric", "value"],
            rows,
            title=(
                f"streaming admission ({network.num_cloudlets} cloudlets, "
                f"{args.mode} mode, seed {args.seed})"
            ),
        )
    )
    if args.smoke:
        # replay_trace raises on any audit violation, so reaching this point
        # with audits > 0 means every refold matched; amortized waves prove
        # that waves of several members actually formed.
        if stats.audits < 1:
            print("smoke FAILED: no refold audit ran")
            return 1
        if args.mode == "batched" and engine.stats["amortized_waves"] < 1:
            print("smoke FAILED: no admission wave amortized")
            return 1
        print("smoke OK: audits clean, batching amortized")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "fig1":
        series = run_figure1(
            DEFAULT_SETTINGS,
            sfc_lengths=args.lengths,
            trials=args.trials,
            rng=args.seed,
            jobs=args.jobs,
        )
        _emit_series(series, args)
    elif args.command == "fig2":
        series = run_figure2(
            DEFAULT_SETTINGS, trials=args.trials, rng=args.seed, jobs=args.jobs
        )
        _emit_series(series, args)
    elif args.command == "fig3":
        series = run_figure3(
            DEFAULT_SETTINGS,
            fractions=args.fractions,
            trials=args.trials,
            rng=args.seed,
            jobs=args.jobs,
        )
        _emit_series(series, args)
    elif args.command == "ablate":
        series = ABLATIONS[args.dimension](
            DEFAULT_SETTINGS, trials=args.trials, rng=args.seed, jobs=args.jobs
        )
        _emit_series(series, args)
    elif args.command == "joint":
        comparison = run_joint_comparison(
            DEFAULT_SETTINGS,
            ALGORITHMS[args.algorithm](),
            num_requests=args.requests,
            rng=args.seed,
        )
        rows = [
            ["requests admitted", comparison.num_requests],
            ["SLOs met (sequential)", comparison.sequential_met],
            ["SLOs met (joint ILP)", comparison.joint_met],
            ["mean reliability (sequential)", comparison.sequential_mean_reliability],
            ["mean reliability (joint ILP)", comparison.joint_mean_reliability],
        ]
        print(
            format_table(
                ["metric", "value"],
                rows,
                title=f"price of sequential admission ({args.algorithm}, seed {args.seed})",
            )
        )
    elif args.command == "chaos":
        from repro.chaos import render_dashboard, run_chaos_campaign

        scenario = "quick" if args.quick else args.scenario
        report = run_chaos_campaign(
            scenario, seed=args.seed, dump_path=args.dump
        )
        print(render_dashboard(report))
        if args.json:
            import json as _json

            with open(args.json, "w") as handle:
                _json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            print(f"\nwrote {args.json}")
    elif args.command == "resilient":
        report = run_fault_scenario(
            args.scenario,
            ALGORITHMS[args.algorithm](),
            num_requests=args.requests,
            rng=args.seed,
        )
        print(
            format_table(
                ["metric", "value"],
                report.summary_rows(),
                title=(
                    f"resilient stream ({args.scenario} scenario, "
                    f"{args.algorithm}, seed {args.seed})"
                ),
            )
        )
    elif args.command == "serve":
        return _run_serve(args)
    elif args.command == "batch":
        if args.streams > 1:
            reports = run_stream_ensemble(
                DEFAULT_SETTINGS,
                ALGORITHMS[args.algorithm](),
                num_requests=args.requests,
                streams=args.streams,
                rng=args.seed,
                jobs=args.jobs,
            )
            rows = [
                [
                    index,
                    report.acceptance_rate,
                    report.expectation_met_rate,
                    report.mean_reliability,
                    report.final_utilisation,
                ]
                for index, report in enumerate(reports)
            ]
            rows.append(
                [
                    "mean",
                    sum(r.acceptance_rate for r in reports) / len(reports),
                    sum(r.expectation_met_rate for r in reports) / len(reports),
                    sum(r.mean_reliability for r in reports) / len(reports),
                    sum(r.final_utilisation for r in reports) / len(reports),
                ]
            )
            print(
                format_table(
                    ["stream", "acceptance", "SLO met", "mean rel", "utilisation"],
                    rows,
                    title=(
                        f"stream ensemble ({args.streams} x {args.requests} requests, "
                        f"{args.algorithm}, seed {args.seed})"
                    ),
                )
            )
        else:
            report = run_request_stream(
                DEFAULT_SETTINGS,
                ALGORITHMS[args.algorithm](),
                num_requests=args.requests,
                rng=args.seed,
            )
            rows = [
                ["requests", report.num_requests],
                ["acceptance rate", report.acceptance_rate],
                ["expectation met (admitted)", report.expectation_met_rate],
                ["mean reliability (admitted)", report.mean_reliability],
                ["final capacity utilisation", report.final_utilisation],
            ]
            print(
                format_table(
                    ["metric", "value"],
                    rows,
                    title=f"request stream ({args.algorithm}, seed {args.seed})",
                )
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
