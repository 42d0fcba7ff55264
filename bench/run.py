"""The repository benchmark: two admission-service replays and two paper sweeps.

One workload, in this process (the form a harness runs)::

    python3 bench/run.py --workload replay-churn --seed 23 --seconds 15 --trace 0

prints ``workload metric value unit`` lines, a ``detail`` line (digest,
sample counts, unresolved trace targets) and, as the last line, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  It exits nonzero if any check failed.

Every workload, each in its own fresh subprocess, in a fixed order::

    python3 bench/run.py [--seed N] [--quick] [--trace 1] [--trace-dir DIR] [--json OUT]

``--trace 1`` adds a separate traced run per workload; ``--trace-dir``
writes its spans and a per-layer summary; ``--json`` collects every
run's result for ``bench/agree.py``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _entry in (str(ROOT), str(ROOT / "src")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

ORDER = ("replay-churn", "replay-flash", "sweep-fig2", "sweep-heuristic")
DEFAULT_SEED = 23
DIGESTS = Path(__file__).resolve().parent / "digests.json"

#: End-to-end metrics and units (their bounds live in ``BENCHMARK.json``).
E2E_UNITS = {
    "setup_s": "s",
    "throughput": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "rss_mb": "MB",
}

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: The reported tail percentile; a full run repeats until at least
#: ``MIN_TAIL_SAMPLES`` latency units lie beyond it.
TAIL_Q = 90
#: A traced pass may leave at most this share of its wall outside every span.
MAX_UNATTRIBUTED = 0.05
#: A run stops repeating after this long, to finish inside 180 s.
HARD_LIMIT_S = 140.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=ORDER)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per run (default: BENCHMARK.json, 1 with --quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", help="write spans and summary.json here (traced runs)")
    parser.add_argument("--quick", action="store_true", help="scaled-down workloads")
    parser.add_argument("--json", help="all-workload mode: write every run's result here")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else float(_run_seconds())
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _run_seconds() -> int:
    return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


# -- one workload --------------------------------------------------------------


def run_one(args) -> int:
    started = time.monotonic()
    # Native solver code writes to fd 1; route fd 1 to stderr and keep the
    # original stdout for the benchmark's own lines, so the result stays last.
    out = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    try:
        import repro  # noqa: F401  (fail before printing anything without the program)
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    from bench.workloads import QUICK, WORKLOADS

    workload = (QUICK if args.quick else WORKLOADS)[args.workload]
    report = Report(args.workload, out)
    try:
        measure(workload, args, report, started)
    except Exception:
        traceback.print_exc()
        report.problems.append("the workload raised; see stderr")
    finally:
        stop_children()
    return report.finish()


class Report:
    """Collects one run's lines, checks and result."""

    def __init__(self, workload: str, out):
        self.workload = workload
        self.out = out
        self.problems: list[str] = []
        self.metrics: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.detail: dict = {"workload": workload}

    def line(self, text: str) -> None:
        self.out.write(f"{self.workload} {text}\n")

    def metric(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = {"value": value, "unit": unit}
        self.line(f"{name} {value!r} {unit}{'  ' + note if note else ''}")

    def finish(self) -> int:
        correct = not self.problems
        for problem in self.problems:
            self.line(f"PROBLEM {problem}")
        self.detail["problems"] = self.problems
        self.out.write("detail " + json.dumps(self.detail) + "\n")
        if self.metrics or not correct:
            self.out.write(json.dumps({
                "correct": correct,
                "attempted": max(1, self.attempted),
                "failed": self.failed if correct else max(1, self.attempted),
                "metrics": self.metrics,
            }) + "\n")
        self.out.flush()
        return 0 if correct else 1


def measure(workload, args, report: Report, started: float) -> None:
    from bench.measure import (
        MIN_TAIL_SAMPLES,
        rss_mb,
        samples_beyond,
        units_beyond,
        weighted_percentile,
    )

    setups = []
    for _ in range(1 if args.quick else SETUP_REPEATS):
        state = None  # never hold two topologies at once
        gc.collect()
        t0 = time.perf_counter()
        state = workload.setup(args.seed)
        setups.append(time.perf_counter() - t0)

    results, traced = [], Traced(workload) if args.trace else None
    values: list[float] = []
    weights: list[int] = []
    # Traced runs report no percentiles, so they need no tail floor.
    tail = 0 if args.quick or args.trace else MIN_TAIL_SAMPLES
    timed = 0.0
    rss = None
    rep = 0
    while True:
        gc.collect()
        result = workload.run(state, rep)
        results.append(result)
        values += [seconds for seconds, _ in result.latencies]
        weights += [weight for _, weight in result.latencies]
        timed += result.wall
        if traced is not None:
            timed += traced.run(state, rep, result, report)
        rep += 1
        if rss is None and samples_beyond(len(values), TAIL_Q) >= tail:
            # Memory after the same work on every run: the repetitions the
            # sample count needs, however many more the time allows.
            rss = rss_mb()
        if timed >= args.seconds and units_beyond(values, weights, TAIL_Q) >= tail:
            break
        if time.monotonic() - started > HARD_LIMIT_S:
            report.problems.append(f"stopped after {rep} repetitions at the time limit")
            break
    if rss is None:
        rss = rss_mb()

    first = results[0]
    beyond = units_beyond(values, weights, TAIL_Q)
    report.attempted = sum(r.attempted for r in results)
    report.failed = sum(r.failed for r in results)
    for r in results:
        report.problems.extend(r.problems)
    check_digest(first.digest, args, report)
    for line in first.accounting:
        report.line(line)
    report.detail.update(
        seed=args.seed, quick=args.quick, trace=args.trace, digest=first.digest,
        repetitions=rep, counts=first.counts, latency_units=len(values),
        latency_weight=sum(weights), units_beyond_p90=beyond,
    )
    if traced is not None:
        traced.report(results, report, args)
        return

    latency_note = f"({sum(weights)} weighted samples in {len(values)} units, {beyond} beyond p90)"
    measured = {
        "setup_s": (statistics.median(setups), f"(median of {len(setups)} set-ups)"),
        "throughput": (report.attempted / timed, f"({rep} repetitions)"),
        "latency_p50_ms": (weighted_percentile(values, weights, 50) * 1e3, latency_note),
        "latency_p90_ms": (weighted_percentile(values, weights, TAIL_Q) * 1e3, latency_note),
        "rss_mb": (rss, ""),
    }
    for name, unit in E2E_UNITS.items():
        value, note = measured[name]
        report.metric(name, value, unit, note)


def check_digest(digest: str, args, report: Report) -> None:
    """Compare repetition 0's digest with the recorded one (default seed only)."""
    recorded = json.loads(DIGESTS.read_text())
    if args.seed != recorded["seed"]:
        report.line(f"digest {digest} (no record for seed {args.seed})")
        return
    expected = recorded["quick" if args.quick else "full"].get(report.workload)
    report.line(f"digest {digest} (recorded {expected})")
    if digest != expected:
        report.problems.append("repetition 0 digest differs from the recorded one")


class Traced:
    """The traced passes of each repetition and their per-layer totals."""

    def __init__(self, workload):
        from bench.layers import LayerTotals

        self.workload = workload
        self.kinds = [(variant, keep, LayerTotals(), LayerTotals())
                      for variant, keep in workload.traced_variants]
        self.untraced_wall = 0.0
        self.traced_wall = 0.0
        self.unresolved: set[str] = set()
        self.observe_failures: dict[str, str] = {}
        self.spans: list = []

    def run(self, state, rep: int, untraced, report: Report) -> float:
        """Run every traced pass of repetition ``rep``; returns their wall."""
        from bench.layers import TARGETS
        from bench.spans import Recorder, install

        spent = 0.0
        for index, (variant, _keep, first, pooled) in enumerate(self.kinds):
            recorder = Recorder()
            gc.collect()
            installation = install(recorder, TARGETS)
            try:
                result = self.workload.run(state, rep, recorder, variant)
            finally:
                installation.restore()
            self.unresolved.update(installation.unresolved)
            self.observe_failures.update(recorder.observe_failures)
            spent += result.wall
            if index == 0:
                self.untraced_wall += untraced.wall
                self.traced_wall += result.wall
            if result.digest != untraced.digest:
                report.problems.append(f"traced pass {variant} changed repetition {rep}'s decisions")
            unattributed = 1.0 - recorder.top_level_time() / result.wall
            if unattributed >= MAX_UNATTRIBUTED:
                report.problems.append(
                    f"traced pass {variant} of repetition {rep}: {unattributed:.1%} unattributed"
                )
            if rep == 0:
                first.add_pass(recorder, result.wall)
            pooled.add_pass(recorder, result.wall)
            self.spans.append((rep, variant, recorder))
        return spent

    def report(self, results, report: Report, args) -> None:
        from bench.layers import layer_metrics, metric_units

        values = layer_metrics([(keep, first, pooled) for _, keep, first, pooled in self.kinds])
        values.update(results[0].counts)
        values["trace.overhead_frac"] = self.traced_wall / self.untraced_wall - 1.0
        for name, unit in metric_units().items():
            report.metric(name, values.get(name, 0.0), unit)
        report.detail.update(unresolved=sorted(self.unresolved),
                             observe_failures=self.observe_failures)
        if self.unresolved:
            report.line(f"unresolved trace targets: {', '.join(sorted(self.unresolved))}")
        if args.trace_dir:
            self.write(Path(args.trace_dir), report, values)

    def write(self, directory: Path, report: Report, values: dict) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / f"{report.workload}.spans.jsonl", "w") as handle:
            for rep, variant, recorder in self.spans:
                recorder.write_spans(handle, f"{report.workload}/{variant or 'default'}/{rep}")
        summary_path = directory / "summary.json"
        summary = json.loads(summary_path.read_text()) if summary_path.exists() else {}
        summary[report.workload] = {
            "metrics": values,
            "unresolved": sorted(self.unresolved),
            "aggregates": {
                f"{variant or 'default'}/{name}": {
                    "calls": agg.calls, "total_s": agg.total, "self_s": agg.self_total,
                    "log2_ns_histogram": agg.histogram,
                }
                for rep, variant, recorder in self.spans if rep == 0
                for name, agg in recorder.aggregates.items()
            },
        }
        summary_path.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")


def stop_children() -> None:
    """Close the worker pools and the shared-memory tracker, and reap every child."""
    from bench.measure import children

    try:
        from repro.parallel.executor import shutdown_executors
    except ImportError:
        pass
    else:
        shutdown_executors()
    from multiprocessing import resource_tracker

    # The tracker process that shared memory starts has no public stop;
    # ``_stop`` closes its pipe and waits for it to exit.
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    for pid in children():
        try:
            os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


# -- every workload ------------------------------------------------------------


def run_all(args) -> int:
    """Each workload in a fresh subprocess, in order; relay lines, collect results."""
    collected: dict = {"seed": args.seed, "quick": args.quick, "runs": {}}
    ok = True
    for name in ORDER:
        for trace in ((0, 1) if args.trace else (0,)):
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(trace)]
            if args.quick:
                command.append("--quick")
            if trace and args.trace_dir:
                command += ["--trace-dir", args.trace_dir]
            proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
            lines = proc.stdout.splitlines()
            result = detail = None
            if lines and lines[-1].startswith("{"):
                result = json.loads(lines.pop())
            for line in lines:
                if line.startswith("detail "):
                    detail = json.loads(line[len("detail "):])
                else:
                    print(line, flush=True)
            if proc.returncode != 0 or result is None or not result["correct"]:
                ok = False
                print(f"{name} FAILED (exit {proc.returncode}, trace {trace})", flush=True)
            collected["runs"].setdefault(name, {})["traced" if trace else "untraced"] = {
                "result": result, "detail": detail,
            }
    if args.json:
        Path(args.json).write_text(json.dumps(collected, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
