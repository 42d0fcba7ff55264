"""Replay driver and asyncio admission front-end."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.experiments.settings import ExperimentSettings
from repro.experiments.workload import make_network, make_request
from repro.netmodel.capacity import CapacityLedger
from repro.netmodel.vnf import VNFCatalog
from repro.resilience.metrics import MetricsTracker
from repro.service.batch import BatchAdmissionEngine
from repro.service.server import AdmissionService, replay_trace
from repro.service.trace import TracePhase, synthetic_trace
from repro.util.errors import ValidationError

SETTINGS = ExperimentSettings(num_aps=50, capacity_range=(2000, 4000))

_rng = np.random.default_rng(77)
_NETWORK = make_network(SETTINGS, _rng)
_CATALOG = VNFCatalog.random(rng=_rng)


def make_engine(seed=0, **kwargs):
    ledger = CapacityLedger({v: _NETWORK.capacity(v) for v in _NETWORK.cloudlets})
    return BatchAdmissionEngine(
        _NETWORK,
        ledger=ledger,
        rng=np.random.default_rng(seed),
        **kwargs,
    )


def make_trace(requests=30, seed=0, rate=10.0, holding=1.0):
    return synthetic_trace(
        (TracePhase(requests, rate),),
        _CATALOG,
        SETTINGS,
        rng=np.random.default_rng(seed),
        holding_time=holding,
    )


class TestReplayTrace:
    def test_counts_and_metrics(self):
        engine = make_engine()
        metrics = MetricsTracker(record_outcomes=False)
        stats = replay_trace(
            engine, make_trace(), window=1.0, metrics=metrics, keep_records=True
        )
        assert stats.requests == 30
        assert stats.admitted + stats.shed <= stats.requests
        assert stats.admitted == engine.stats["admitted"]
        assert len(stats.records) == 30
        assert stats.windows >= 1
        assert stats.wall_seconds > 0
        assert stats.throughput > 0
        # One latency sample per non-shed request, flowed into the tracker.
        sampled = sum(len(v) for v in stats.latencies.values())
        assert sampled == stats.requests - stats.shed
        report = metrics.report
        assert len(report.admission_latencies) == sampled
        assert report.latency_percentiles()["p99"] >= 0.0
        assert report.queue_depth_stats()["max"] >= 1.0

    def test_audits_run_and_pass(self):
        engine = make_engine(seed=1)
        stats = replay_trace(engine, make_trace(seed=1), window=0.5, audit_every=2)
        assert stats.audits >= 1

    def test_departures_drain_ledger_with_short_holdings(self):
        engine = make_engine(seed=2)
        # Holding ~ a single window: everything departs by the final flush.
        stats = replay_trace(
            engine, make_trace(seed=2, holding=0.01), window=1.0, audit_every=1
        )
        assert engine.stats["departed"] == stats.admitted
        assert engine.ledger.total_used() == 0.0

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValidationError):
            replay_trace(make_engine(), make_trace(), window=0.0)

    def test_deterministic_replay(self):
        def run():
            stats = replay_trace(
                make_engine(seed=3), make_trace(seed=3), keep_records=True
            )
            return [r.identity_key() for r in stats.records]

        assert run() == run()


def async_run(coro):
    return asyncio.run(coro)


class TestAdmissionService:
    def test_submit_and_resolve(self):
        async def scenario():
            service = AdmissionService(make_engine(seed=10), window=0.005)
            await service.start()
            rng = np.random.default_rng(10)
            futures = [
                service.submit(make_request(SETTINGS, _CATALOG, rng, name=f"a-{i}"))
                for i in range(5)
            ]
            records = await asyncio.gather(*futures)
            await service.stop()
            return records

        records = async_run(scenario())
        assert [r.name for r in records] == [f"a-{i}" for i in range(5)]
        assert all(r.rejected_reason != "shed" for r in records)

    def test_backpressure_sheds_when_queue_full(self):
        async def scenario():
            metrics = MetricsTracker(record_outcomes=False)
            service = AdmissionService(
                make_engine(seed=11), window=5.0, queue_size=3, metrics=metrics
            )
            await service.start()
            rng = np.random.default_rng(11)
            futures = [
                service.submit(make_request(SETTINGS, _CATALOG, rng, name=f"b-{i}"))
                for i in range(8)
            ]
            # The batcher won't tick for 5s; the overflow resolves instantly.
            shed = [f.result() for f in futures if f.done()]
            await service.stop()
            records = [await f for f in futures]
            return service, metrics, shed, records

        service, metrics, shed, records = async_run(scenario())
        assert service.shed_count == 5
        assert metrics.report.shed_requests == 5
        assert [r.rejected_reason for r in shed] == ["shed"] * 5
        assert sum(r.rejected_reason == "shed" for r in records) == 5

    def test_departure_scheduled_after_holding(self):
        async def scenario():
            engine = make_engine(seed=12)
            service = AdmissionService(engine, window=0.005)
            await service.start()
            rng = np.random.default_rng(12)
            record = await service.submit(
                make_request(SETTINGS, _CATALOG, rng, name="hold"), holding=0.02
            )
            held = engine.ledger.total_used()
            await asyncio.sleep(0.06)
            await service.stop()
            return record, held, engine.ledger.total_used()

        record, held, after = async_run(scenario())
        if record.admitted:
            assert held > 0
        assert after == 0.0

    def test_failing_departure_reaches_the_loop_exception_handler(self):
        async def scenario():
            errors = []
            asyncio.get_running_loop().set_exception_handler(
                lambda _loop, context: errors.append(context.get("exception"))
            )
            engine = make_engine(seed=15)
            service = AdmissionService(engine, window=0.005)
            await service.start()
            rng = np.random.default_rng(15)
            record = await service.submit(
                make_request(SETTINGS, _CATALOG, rng, name="gone"), holding=0.02
            )
            if record.admitted:
                engine.depart("gone")  # before the scheduled departure fires
            await asyncio.sleep(0.06)
            await service.stop()
            return record, errors

        record, errors = async_run(scenario())
        assert record.admitted
        assert len(errors) == 1
        assert isinstance(errors[0], ValidationError)

    def test_failing_batch_fails_its_futures_and_later_submits(self):
        async def scenario():
            engine = make_engine(seed=16)

            def fail(requests):
                raise RuntimeError("admission failed")

            engine.admit_batch = fail
            service = AdmissionService(engine, window=0.005)
            await service.start()
            rng = np.random.default_rng(16)
            future = service.submit(make_request(SETTINGS, _CATALOG, rng, name="x"))
            with pytest.raises(RuntimeError, match="admission failed"):
                await asyncio.wait_for(future, timeout=0.5)
            with pytest.raises(ValidationError, match="batcher died"):
                service.submit(make_request(SETTINGS, _CATALOG, rng, name="y"))
            with pytest.raises(RuntimeError, match="admission failed"):
                await service.stop()

        async_run(scenario())

    def test_restart_after_failing_batch(self):
        async def scenario():
            engine = make_engine(seed=17)
            admit_batch = engine.admit_batch

            def fail(requests):
                raise RuntimeError("admission failed")

            engine.admit_batch = fail
            service = AdmissionService(engine, window=0.005)
            await service.start()
            rng = np.random.default_rng(17)
            future = service.submit(make_request(SETTINGS, _CATALOG, rng, name="x"))
            with pytest.raises(RuntimeError, match="admission failed"):
                await asyncio.wait_for(future, timeout=0.5)
            with pytest.raises(RuntimeError, match="admission failed"):
                await service.stop()
            await service.stop()  # the error was re-raised once
            engine.admit_batch = admit_batch
            await service.start()
            future = service.submit(make_request(SETTINGS, _CATALOG, rng, name="y"))
            record = await asyncio.wait_for(future, timeout=5.0)
            await service.stop()
            return record

        record = async_run(scenario())
        assert record.name == "y"

    def test_lifecycle_guards(self):
        async def scenario():
            service = AdmissionService(make_engine(seed=13))
            await service.start()
            with pytest.raises(ValidationError):
                await service.start()
            await service.stop()
            await service.stop()  # idempotent

        async_run(scenario())
        with pytest.raises(ValidationError):
            AdmissionService(make_engine(), window=0.0)
        with pytest.raises(ValidationError):
            AdmissionService(make_engine(), queue_size=0)

    def test_stop_drains_pending(self):
        async def scenario():
            service = AdmissionService(make_engine(seed=14), window=30.0)
            await service.start()
            rng = np.random.default_rng(14)
            futures = [
                service.submit(make_request(SETTINGS, _CATALOG, rng, name=f"d-{i}"))
                for i in range(3)
            ]
            await service.stop()  # window never fires; stop() must drain
            return [await f for f in futures]

        records = async_run(scenario())
        assert len(records) == 3
        assert all(r.name.startswith("d-") for r in records)
