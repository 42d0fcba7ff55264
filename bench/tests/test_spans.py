"""The span recorder: self-time arithmetic, aggregation, wrapping and restore."""

import types

import pytest

from bench import spans
from bench.spans import Recorder, Target, install, resolve


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_subtracts_children_on_fake_clock():
    clock = FakeClock()
    rec = Recorder(clock=clock)

    def leaf():
        clock.advance(2.0)

    def child():
        clock.advance(1.0)
        rec.call("leaf", True, leaf, (), {})
        rec.call("leaf", True, leaf, (), {})
        clock.advance(0.5)

    with rec.span("root"):
        clock.advance(3.0)
        rec.call("child", False, child, (), {})
        clock.advance(0.25)

    by_name = {s.name: s for s in rec.spans}
    assert by_name["child"].duration == 5.5
    assert by_name["child"].self_time == 1.5
    assert by_name["root"].duration == 8.75
    assert by_name["root"].self_time == 3.25
    assert by_name["child"].parent == by_name["root"].id
    assert by_name["root"].parent is None
    leaf_agg = rec.aggregates["leaf"]
    assert (leaf_agg.calls, leaf_agg.total, leaf_agg.self_total) == (2, 4.0, 4.0)
    assert leaf_agg.histogram == {int(2e9).bit_length(): 2}
    assert rec.top_level_time() == 8.75


def test_aggregated_call_nested_in_aggregated_call_is_not_counted_twice():
    clock = FakeClock()
    rec = Recorder(clock=clock)

    def inner():
        clock.advance(1.0)

    def outer():
        clock.advance(1.0)
        rec.call("inner", True, inner, (), {})

    with rec.span("root"):
        rec.call("outer", True, outer, (), {})
    root = rec.spans[0]
    assert root.duration == 2.0
    assert root.self_time == 0.0
    assert rec.aggregates["outer"].self_total == 1.0
    assert rec.aggregates["inner"].total == 1.0


def test_group_ids_and_observed_values(monkeypatch):
    module = types.ModuleType("fake_layer_module")

    def work(n):
        return list(range(n))

    module.work = work
    monkeypatch.setitem(__import__("sys").modules, "fake_layer_module", module)
    rec = Recorder()
    target = Target("fake.work", "fake_layer_module:work", new_group=True,
                    observe=lambda args, kwargs, result: {"items": len(result)})
    installation = install(rec, [target])
    try:
        module.work(3)
        module.work(4)
    finally:
        installation.restore()
    assert [s.group for s in rec.spans] == [1, 2]
    assert rec.observed["fake.work"] == {"items": 7}
    assert module.work is work


def test_reentry_into_an_open_layer_is_part_of_the_outer_call(monkeypatch):
    class Solver:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    module = types.ModuleType("fake_solver_module")
    module.Solver = Solver
    monkeypatch.setitem(__import__("sys").modules, "fake_solver_module", module)
    rec = Recorder()
    installation = install(rec, [
        Target("solver.round", "fake_solver_module:Solver.outer",
               observe=lambda a, k, r: {"rounds": 1}),
        Target("solver.round", "fake_solver_module:Solver.inner",
               observe=lambda a, k, r: {"rounds": 1}),
    ])
    try:
        assert Solver().outer() == 2
        assert Solver().inner() == 1
    finally:
        installation.restore()
    assert [s.name for s in rec.spans] == ["solver.round", "solver.round"]
    assert rec.observed["solver.round"] == {"rounds": 2}


def test_unresolved_target_is_reported_not_raised():
    rec = Recorder()
    installation = install(rec, [
        Target("gone.module", "repro.no_such_module:thing"),
        Target("gone.attr", "repro.netmodel.capacity:CapacityLedger.no_such_method"),
        Target("gone.class", "repro.netmodel.capacity:NoSuchClass.method"),
    ])
    assert installation.patches == []
    assert installation.unresolved == [
        "repro.no_such_module:thing",
        "repro.netmodel.capacity:CapacityLedger.no_such_method",
        "repro.netmodel.capacity:NoSuchClass.method",
    ]


def test_observe_failure_is_recorded_not_raised(monkeypatch):
    module = types.ModuleType("fake_observe_module")
    module.work = lambda: 1
    monkeypatch.setitem(__import__("sys").modules, "fake_observe_module", module)
    rec = Recorder()
    installation = install(rec, [Target("w", "fake_observe_module:work",
                                        observe=lambda a, k, r: {"x": a[5]})])
    try:
        assert module.work() == 1
    finally:
        installation.restore()
    assert "w" in rec.observe_failures


def test_classmethod_round_trip():
    from repro.core.problem import AugmentationProblem

    raw = vars(AugmentationProblem)["build"]
    installation = install(Recorder(), [Target("problem.build",
                                               "repro.core.problem:AugmentationProblem.build")])
    assert isinstance(vars(AugmentationProblem)["build"], classmethod)
    assert vars(AugmentationProblem)["build"] is not raw
    installation.restore()
    assert vars(AugmentationProblem)["build"] is raw


def test_resolve_rejects_non_callables():
    with pytest.raises(LookupError):
        resolve("repro.netmodel.capacity:EPS")
    assert resolve("bench.spans:install")[2] is spans.install
