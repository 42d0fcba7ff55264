"""Tests for the discrete-event engine."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.engine import EventQueue
from repro.util.errors import ValidationError


class TestEventQueue:
    def test_time_ordering(self):
        queue = EventQueue()
        queue.push(3.0, "c")
        queue.push(1.0, "a")
        queue.push(2.0, "b")
        assert [queue.pop().payload for _ in range(3)] == ["a", "b", "c"]

    def test_fifo_among_equal_times(self):
        """Insertion order breaks ties, never the payloads: heapq alone is
        not stable, and "r10" sorts before "r2"."""
        queue = EventQueue()
        payloads = [f"r{i}" for i in range(50)]
        for p in payloads:
            queue.push(1.0, p)
        assert [queue.pop().payload for _ in payloads] == payloads

    def test_now_advances(self):
        queue = EventQueue()
        queue.push(5.0, "x")
        assert queue.now == 0.0
        queue.pop()
        assert queue.now == 5.0

    def test_past_scheduling_rejected(self):
        queue = EventQueue()
        queue.push(5.0, "x")
        queue.pop()
        with pytest.raises(ValidationError):
            queue.push(4.0, "y")

    def test_schedule_at_now_allowed(self):
        queue = EventQueue()
        queue.push(5.0, "x")
        queue.pop()
        queue.push(5.0, "y")  # no raise

    def test_pop_empty_rejected(self):
        with pytest.raises(ValidationError):
            EventQueue().pop()

    def test_len_and_bool(self):
        queue = EventQueue()
        assert not queue and len(queue) == 0
        queue.push(1.0, "x")
        assert queue and len(queue) == 1

    def test_drain_until(self):
        queue = EventQueue()
        for t in (1.0, 2.0, 3.0, 4.0):
            queue.push(t, t)
        drained = [e.payload for e in queue.drain_until(2.5)]
        assert drained == [1.0, 2.0]
        assert len(queue) == 2

    def test_drain_allows_rescheduling(self):
        """Events scheduled during a drain are drained too (if in range)."""
        queue = EventQueue()
        queue.push(1.0, "a")
        seen = []
        for event in queue.drain_until(5.0):
            seen.append(event.payload)
            if event.payload == "a":
                queue.push(2.0, "b")
        assert seen == ["a", "b"]

    def test_schedule_batch_is_insertion_order_independent(self):
        """The same event *set* scheduled in any order yields the same pop
        sequence (stable payload-keyed presort)."""
        events = [(1.0, ("req", i % 3)) for i in range(6)] + [
            (1.0, ("dep", i)) for i in range(3)
        ]
        queue_fwd = EventQueue()
        queue_fwd.schedule_batch(events)
        queue_rev = EventQueue()
        queue_rev.schedule_batch(list(reversed(events)))

        def drain(queue: EventQueue) -> list[tuple[float, object]]:
            return [(e.time, e.payload) for e in queue.drain_until(float("inf"))]

        assert drain(queue_fwd) == drain(queue_rev)

    @given(times=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=50))
    @settings(max_examples=100)
    def test_always_nondecreasing(self, times):
        queue = EventQueue()
        for t in times:
            queue.push(t, t)
        popped = [queue.pop().time for _ in range(len(times))]
        assert popped == sorted(popped)
