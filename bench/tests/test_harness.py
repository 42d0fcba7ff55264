"""The benchmark against its own contract, and one ``--quick`` end-to-end run."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from bench import layers, run
from bench.layers import TARGETS, LayerTotals, layer_metrics, metric_units
from bench.spans import Recorder, install, resolve
from bench.workloads import QUICK, WORKLOADS, WindowClock

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.ORDER)
    assert [w["why"] for w in BENCHMARK["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert list(WORKLOADS) == list(run.ORDER) == list(QUICK)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == metric_units()
    assert BENCHMARK["paths"] == ["bench"]


def test_every_target_resolves_at_this_commit():
    for target in TARGETS:
        resolve(target.path)


def test_layer_metrics_cover_every_per_layer_name_but_the_callers_own():
    totals = LayerTotals()
    totals.add_pass(Recorder(), 1.0)
    values = layer_metrics([(None, totals, totals)])
    owned_by_caller = {name for name, _ in layers.SERVICE_COUNTS} | {"trace.overhead_frac"}
    assert set(values) | owned_by_caller == set(metric_units())


def test_wrappers_are_restored_after_a_traced_workload():
    before = [resolve(t.path)[2] for t in TARGETS]
    workload = QUICK["replay-churn"]
    state = workload.setup(7)
    recorder = Recorder()
    installation = install(recorder, TARGETS)
    try:
        traced = workload.run(state, 0, recorder)
    finally:
        installation.restore()
    assert installation.unresolved == []
    assert [resolve(t.path)[2] for t in TARGETS] == before
    assert {s.name for s in recorder.spans} >= {"service.replay", "service.admit_batch",
                                               "matching.round", "items.generate"}
    untraced = workload.run(state, 0)
    assert untraced.digest == traced.digest
    assert untraced.problems == traced.problems == []


def test_window_clock_charges_departures_to_the_next_window():
    class Engine:
        def admit_batch(self, requests):
            return [type("R", (), {"rejected_reason": None})() for _ in requests]

        def depart(self, name):
            return 0.0

    engine = Engine()
    clock = WindowClock(engine)
    engine.admit_batch([1, 2, 3])
    engine.depart("a")
    engine.depart("b")
    engine.admit_batch([4])
    assert [w for _, w in clock.samples] == [3, 1]
    assert len(clock.records) == 4
    assert np.all(np.array([s for s, _ in clock.samples]) >= 0)


def test_quick_run_of_every_workload_matches_the_recorded_digests(tmp_path):
    out = tmp_path / "quick.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--quick", "--trace", "1",
         "--trace-dir", str(tmp_path / "trace"), "--json", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    collected = json.loads(out.read_text())
    recorded = json.loads((ROOT / "bench" / "digests.json").read_text())["quick"]
    for name in run.ORDER:
        untraced, traced = collected["runs"][name]["untraced"], collected["runs"][name]["traced"]
        assert untraced["detail"]["digest"] == recorded[name]
        assert traced["detail"]["digest"] == recorded[name]
        assert set(untraced["result"]["metrics"]) == set(run.E2E_UNITS)
        assert set(traced["result"]["metrics"]) == set(metric_units())
        assert (tmp_path / "trace" / f"{name}.spans.jsonl").stat().st_size > 0
    summary = json.loads((tmp_path / "trace" / "summary.json").read_text())
    assert set(summary) == set(run.ORDER)
