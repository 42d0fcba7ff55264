"""Zero-pickle shared-memory distribution: payloads, lifecycle, identity.

Only the ``run_point`` sweep uses the segments.  Three contracts from
``docs/parallel.md``:

1. **Bit-identity.**  ``REPRO_SHM`` is invisible in the numbers: the
   sweep returns the same bits under ``REPRO_SHM=0`` and ``=1`` for
   jobs 1/2/4.
2. **Payload budget.**  With shm on, a task pickles to a constant ~60
   bytes regardless of sweep size -- the regression guard pins it under
   :data:`repro.parallel.shm.SHM_TASK_BYTE_BUDGET`.
3. **Leak-free lifecycle.**  No named segment survives a normal run, an
   executor exception, or a killed attaching process; attaching to an
   unlinked or corrupted segment fails loudly with ``ValidationError``.
"""

from __future__ import annotations

import glob
import os
import pickle
import signal
import subprocess
import sys
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.algorithms.base import AugmentationAlgorithm
from repro.algorithms.baselines import NoAugmentation
from repro.algorithms.heuristic import MatchingHeuristic
from repro.experiments.runner import run_point
from repro.experiments.settings import ExperimentSettings
from repro.parallel import shm
from repro.parallel.executor import (
    PayloadStats,
    measure_payload,
    shared_executor,
)
from repro.parallel.registry import register_algorithm
from repro.util.errors import ValidationError
from repro.util.timing import FAKE_CLOCK_ENV

SETTINGS = ExperimentSettings(num_aps=30, cloudlet_fraction=0.2, trials=3)


class _OnlyRegisteredHere(AugmentationAlgorithm):
    """Registered in the test process only -- spawned workers cannot
    rebuild it, so pooled chunks fail mid-sweep (lifecycle test fodder)."""

    name = "OnlyHere"

    def solve(self, problem, rng=None):  # pragma: no cover - never reached
        raise AssertionError("should fail in the worker before solving")


@pytest.fixture(autouse=True)
def fake_clock(monkeypatch):
    """Deterministic timing so runtime sums compare bit-for-bit."""
    monkeypatch.setenv(FAKE_CLOCK_ENV, "1")


@pytest.fixture(autouse=True)
def no_leaked_segments():
    """Every test must leave zero owned segments behind."""
    yield
    assert shm.active_segments() == []


def set_shm(monkeypatch, enabled: bool) -> None:
    monkeypatch.setenv(shm.SHM_ENV, "1" if enabled else "0")


# -- segment round-trip -----------------------------------------------------------


class TestSegmentRoundTrip:
    def test_arrays_and_blob_survive(self):
        arrays = {
            "a": np.arange(7, dtype=np.int64),
            "b": np.linspace(0.0, 1.0, 5),
            "empty": np.zeros(0, dtype=np.uint8),
        }
        with shm.publish(arrays, blob=b"hello world") as state:
            attachment = shm.attach(state.name)
            try:
                assert attachment.blob == b"hello world"
                assert set(attachment.arrays) == set(arrays)
                for name, original in arrays.items():
                    view = attachment.arrays[name]
                    assert view.dtype == original.dtype
                    np.testing.assert_array_equal(view, original)
            finally:
                attachment.close()

    def test_views_are_read_only(self):
        with shm.publish({"x": np.ones(3)}) as state:
            attachment = shm.attach(state.name)
            try:
                with pytest.raises(ValueError):
                    attachment.arrays["x"][0] = 2.0
            finally:
                attachment.close()

    def test_buffers_are_aligned(self):
        with shm.publish(
            {"a": np.zeros(3, dtype=np.uint8), "b": np.zeros(2, dtype=np.float64)}
        ) as state:
            for spec in state.manifest.buffers:
                assert spec.offset % 64 == 0

    def test_unlink_is_idempotent_and_tracked(self):
        state = shm.publish({"x": np.ones(2)})
        assert state.name in shm.active_segments()
        state.unlink()
        assert shm.active_segments() == []
        state.unlink()  # second unlink is a no-op

    def test_attach_after_unlink_raises(self):
        state = shm.publish({"x": np.ones(2)})
        name = state.name
        state.unlink()
        with pytest.raises(ValidationError, match="unlinked|does not exist"):
            shm.attach(name)

    def test_attach_unknown_name_raises(self):
        with pytest.raises(ValidationError, match="does not exist"):
            shm.attach("rshm-no-such-segment")

    def test_digest_mismatch_refuses_to_attach(self):
        state = shm.publish({"x": np.arange(4, dtype=np.int64)}, blob=b"meta")
        try:
            raw = shared_memory.SharedMemory(name=state.name)
            try:
                raw.buf[-1] = raw.buf[-1] ^ 0xFF  # flip one payload byte
            finally:
                raw.close()
            with pytest.raises(ValidationError, match="hash mismatch"):
                shm.attach(state.name)
        finally:
            state.unlink()

    def test_corrupt_header_refuses_to_attach(self):
        state = shm.publish({"x": np.ones(2)})
        try:
            raw = shared_memory.SharedMemory(name=state.name)
            try:
                raw.buf[0:8] = (2**62).to_bytes(8, "little")  # absurd length
            finally:
                raw.close()
            with pytest.raises(ValidationError, match="corrupt"):
                shm.attach(state.name)
        finally:
            state.unlink()

    def test_context_kind_mismatch_raises(self):
        state = shm.publish_payload("sweep", {}, {"anything": 1})
        try:
            with pytest.raises(ValidationError, match="not 'stream'"):
                shm.context_for(state.name, "stream", lambda meta, arrays: meta)
        finally:
            state.unlink()

    def test_attach_cache_returns_same_object(self):
        state = shm.publish({"x": np.ones(2)})
        try:
            first = shm.attach_cached(state.name)
            second = shm.attach_cached(state.name)
            assert first is second
        finally:
            state.unlink()


# -- seed codec -------------------------------------------------------------------


class TestSeedCodec:
    def assert_round_trip(self, seeds):
        block, arrays = shm.encode_seed_sequences(seeds)
        for i, seed in enumerate(seeds):
            rebuilt = shm.seed_sequence_at(block, arrays, i)
            assert (
                np.random.Generator(np.random.PCG64(rebuilt)).integers(0, 2**63)
                == np.random.Generator(np.random.PCG64(seed)).integers(0, 2**63)
            )
        return block

    def test_spawned_children_round_trip(self):
        seeds = np.random.SeedSequence(1234).spawn(10)
        block = self.assert_round_trip(seeds)
        assert block.kind == "spawned"

    def test_grandchildren_round_trip(self):
        seeds = np.random.SeedSequence(7).spawn(3)[1].spawn(5)
        block = self.assert_round_trip(seeds)
        assert block.kind == "spawned"

    def test_entropy_seeds_round_trip(self):
        seeds = [np.random.SeedSequence(e) for e in (3, 99, 2**40)]
        block = self.assert_round_trip(seeds)
        assert block.kind == "entropy"

    def test_exotic_seeds_fall_back_to_pickle(self):
        seeds = [
            np.random.SeedSequence([1, 2, 3]),
            np.random.SeedSequence(5, pool_size=8),
        ]
        block = self.assert_round_trip(seeds)
        assert block.kind == "pickled"

    def test_index_out_of_range_raises(self):
        block, arrays = shm.encode_seed_sequences(np.random.SeedSequence(1).spawn(2))
        with pytest.raises(ValidationError, match="out of range"):
            shm.seed_sequence_at(block, arrays, 2)


# -- payload accounting -----------------------------------------------------------


class TestPayloadAccounting:
    def test_shm_task_pickle_within_budget(self):
        task = shm.ShmTask("rshm" + "f" * 8, 63)
        assert len(pickle.dumps(task)) <= shm.SHM_TASK_BYTE_BUDGET

    def test_measure_payload_counts_every_task(self):
        stats = measure_payload([b"x" * 10, b"y" * 20])
        assert stats.tasks == 2
        assert stats.total_bytes == sum(len(pickle.dumps(t)) for t in [b"x" * 10, b"y" * 20])
        assert stats.max_bytes >= stats.total_bytes / 2
        assert stats.mean_bytes == stats.total_bytes / 2

    def test_measure_payload_unpicklable_is_none(self):
        assert measure_payload([lambda: None]) is None

    def test_executor_records_shm_payload_under_budget(self, monkeypatch):
        set_shm(monkeypatch, True)
        run_point(
            SETTINGS,
            [MatchingHeuristic(), NoAugmentation()],
            trials=8,
            rng=np.random.default_rng(3),
            jobs=2,
            chunk_size=2,
        )
        payload = shared_executor(2).last_payload
        assert isinstance(payload, PayloadStats)
        assert payload.tasks == 4
        assert payload.max_bytes <= shm.SHM_TASK_BYTE_BUDGET

    def test_shm_payload_much_smaller_than_classic(self, monkeypatch):
        kwargs = dict(
            settings=SETTINGS,
            algorithms=[MatchingHeuristic(), NoAugmentation()],
            trials=8,
            jobs=2,
            chunk_size=2,
        )
        set_shm(monkeypatch, False)
        run_point(rng=np.random.default_rng(3), **kwargs)
        classic = shared_executor(2).last_payload
        set_shm(monkeypatch, True)
        run_point(rng=np.random.default_rng(3), **kwargs)
        compact = shared_executor(2).last_payload
        assert compact.max_bytes * 5 < classic.max_bytes


# -- differential: REPRO_SHM is invisible in the numbers --------------------------


class TestShmDifferential:
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_run_point_bit_identical(self, monkeypatch, jobs):
        results = []
        for enabled in (False, True):
            set_shm(monkeypatch, enabled)
            results.append(
                run_point(
                    SETTINGS,
                    [MatchingHeuristic(), NoAugmentation()],
                    trials=6,
                    rng=11,
                    jobs=jobs,
                )
            )
        off, on = results
        assert set(off) == set(on)
        for name in off:
            assert off[name] == on[name], name

    def test_invalid_switch_value_raises(self, monkeypatch):
        monkeypatch.setenv(shm.SHM_ENV, "yes")
        with pytest.raises(ValidationError, match="must be 0 or 1"):
            shm.shm_enabled()


# -- lifecycle under failure ------------------------------------------------------


def leftover_segments() -> list[str]:
    return glob.glob("/dev/shm/rshm*")


class TestLifecycle:
    def test_normal_run_leaves_nothing(self, monkeypatch):
        set_shm(monkeypatch, True)
        before = leftover_segments()
        run_point(
            SETTINGS,
            [MatchingHeuristic()],
            trials=6,
            rng=np.random.default_rng(2),
            jobs=2,
        )
        assert shm.active_segments() == []
        assert leftover_segments() == before

    def test_executor_exception_still_unlinks(self, monkeypatch):
        """A worker-side failure mid-sweep must still unlink the segment.

        The failure: an algorithm registered only in *this* process.  The
        parent ships its registry key, spawned workers (fresh interpreters
        that never saw the registration) fail the lookup, and the error
        propagates through ``future.result()`` while the segment is live.
        """
        set_shm(monkeypatch, True)
        before = leftover_segments()
        register_algorithm("OnlyHere", _OnlyRegisteredHere, replace=True)
        with pytest.raises(ValidationError, match="OnlyHere"):
            run_point(
                SETTINGS,
                [_OnlyRegisteredHere()],
                trials=6,
                rng=np.random.default_rng(2),
                jobs=2,
            )
        assert shm.active_segments() == []
        assert leftover_segments() == before

    def test_killed_attacher_leaks_nothing(self, monkeypatch):
        """A SIGKILLed attaching process cannot leak (or unlink) a segment."""
        set_shm(monkeypatch, True)
        state = shm.publish({"x": np.arange(16, dtype=np.int64)}, blob=b"meta")
        try:
            script = (
                "import os, sys, signal\n"
                "sys.path.insert(0, %r)\n"
                "from repro.parallel import shm\n"
                "attachment = shm.attach(%r)\n"
                "assert attachment.arrays['x'][3] == 3\n"
                "os.kill(os.getpid(), signal.SIGKILL)\n"
            ) % (os.path.join(os.path.dirname(__file__), "..", "src"), state.name)
            result = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True
            )
            assert result.returncode == -signal.SIGKILL, result.stderr
            # The kill neither unlinked the segment nor spawned a tracker
            # that will: the owner can still attach...
            check = shm.attach(state.name)
            np.testing.assert_array_equal(check.arrays["x"], np.arange(16))
            check.close()
        finally:
            state.unlink()
        # ...and after the owner's unlink the name really is gone.
        assert f"/dev/shm/{state.name}" not in leftover_segments()

    def test_owner_crash_is_reaped_by_resource_tracker(self):
        """A SIGKILLed *owner* leaves cleanup to the resource tracker."""
        script = (
            "import sys\n"
            "sys.path.insert(0, %r)\n"
            "import numpy as np\n"
            "from repro.parallel import shm\n"
            "state = shm.publish({'x': np.ones(4)})\n"
            "print(state.name, flush=True)\n"
            # exit without unlinking: the create-side registration makes
            # the resource tracker reap the segment (with a warning)
        ) % os.path.join(os.path.dirname(__file__), "..", "src")
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        name = result.stdout.strip()
        assert name.startswith(shm.SEGMENT_PREFIX)
        assert not os.path.exists(f"/dev/shm/{name}")
