"""The closed-form FIFO fast path is bit-identical to the event loop.

``FleetSimulator.run`` routes exact-``FIFOScheduler`` fleets -- with no
control plane, or with admission and/or quality shedding -- through
``_run_fifo``, one per-request Python pass; every other scheduler, and any
fleet with an autoscaler, keeps the discrete-event loop.  These tests pin
the path selection and the equivalence contract: for every fleet shape,
load level and SLA configuration, the fast path's ``ServingReport`` --
including the per-completion log and per-worker stats -- equals the event
loop's report exactly (frozen-dataclass equality, which compares IEEE-754
doubles bit for bit).
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.serve.control import (
    ControlConfig,
    DegradationLadder,
    DegradationStep,
    QueueCapAdmission,
    QueueDepthAutoscaler,
    QueueDepthShedder,
)
from repro.serve.fleet import FleetSimulator
from repro.serve.request import PoissonStream, Scenario, ScenarioMix, TraceStream
from repro.serve.scheduler import BatchDeadlineScheduler, FIFOScheduler
from repro.sim.sweep import SweepEngine

MIX = ScenarioMix(
    scenarios=(
        Scenario("instant-ngp", scene="lego", width=200, height=200),
        Scenario("tensorf", scene="lego", width=200, height=200),
    ),
    weights=(3.0, 1.0),
)

LADDER = DegradationLadder(
    steps=(DegradationStep("half-res", resolution_scale=0.5),), qualities=(0.8,)
)
ADMISSION = QueueCapAdmission(max_queue=2)
SHEDDER = QueueDepthShedder(LADDER, depth_per_step=1)


def assert_reports_identical(simulator, requests):
    fast = simulator.run(requests)
    slow = simulator._run_event_loop(requests)
    assert fast == slow
    assert fast.completed == slow.completed
    assert fast.workers == slow.workers
    return fast


class TestFastPathEquivalence:
    def test_single_worker(self):
        stream = PoissonStream(rate_rps=60.0, duration_s=5.0, mix=MIX, sla_s=0.2)
        simulator = FleetSimulator(("flexnerfer",), engine=SweepEngine())
        assert_reports_identical(simulator, stream.generate(seed=0))

    def test_heterogeneous_duo(self):
        stream = PoissonStream(rate_rps=80.0, duration_s=5.0, mix=MIX, sla_s=0.25)
        simulator = FleetSimulator(("flexnerfer", "neurex"), engine=SweepEngine())
        assert_reports_identical(simulator, stream.generate(seed=3))

    def test_repeated_device_trio(self):
        stream = PoissonStream(rate_rps=120.0, duration_s=4.0, mix=MIX, sla_s=0.3)
        simulator = FleetSimulator(
            ("flexnerfer", "flexnerfer", "neurex"), engine=SweepEngine()
        )
        assert_reports_identical(simulator, stream.generate(seed=7))

    def test_overload_queue_drain(self):
        # Far more offered load than the fleet can serve: queues build and
        # drain long after the last arrival, exercising the argmin branch.
        stream = PoissonStream(rate_rps=400.0, duration_s=2.0, mix=MIX, sla_s=0.1)
        simulator = FleetSimulator(("flexnerfer",), engine=SweepEngine())
        report = assert_reports_identical(simulator, stream.generate(seed=1))
        assert report.sla_attainment < 1.0

    def test_default_sla_stamping(self):
        stream = PoissonStream(rate_rps=60.0, duration_s=4.0, mix=MIX, sla_s=None)
        simulator = FleetSimulator(
            ("flexnerfer", "neurex"), engine=SweepEngine(), default_sla_s=0.2
        )
        assert_reports_identical(simulator, stream.generate(seed=2))

    def test_nonzero_time_origin(self):
        stream = TraceStream(
            arrival_times_s=(10.0, 10.0, 10.5, 12.0, 12.0, 12.0),
            mix=MIX,
            sla_s=0.3,
        )
        simulator = FleetSimulator(("flexnerfer", "neurex"), engine=SweepEngine())
        assert_reports_identical(simulator, stream.generate(seed=0))

    def test_empty_stream(self):
        simulator = FleetSimulator(("flexnerfer",), engine=SweepEngine())
        assert_reports_identical(simulator, ())

    @pytest.mark.parametrize(
        "control",
        [
            None,
            ControlConfig(admission=ADMISSION),
            ControlConfig(shedder=SHEDDER),
            ControlConfig(admission=ADMISSION, shedder=SHEDDER),
        ],
        ids=["none", "admission", "shedding", "admission+shedding"],
    )
    def test_fast_path_actually_selected_for_fifo(self, monkeypatch, control):
        # Overloaded, so every configured control actually acts.
        stream = PoissonStream(rate_rps=400.0, duration_s=1.0, mix=MIX, sla_s=0.2)
        simulator = FleetSimulator(
            ("flexnerfer",), engine=SweepEngine(), control=control
        )

        def bomb(requests):  # pragma: no cover - must not run
            raise AssertionError("FIFO fleet fell back to the event loop")

        monkeypatch.setattr(simulator, "_run_event_loop", bomb)
        report = simulator.run(stream.generate(seed=0))
        assert report.scheduler == "fifo"
        has_admission = control is not None and control.admission is not None
        has_shedder = control is not None and control.shedder is not None
        assert (report.rejected_requests > 0) == has_admission
        assert (report.shed_requests > 0) == has_shedder

    def test_non_fifo_scheduler_uses_event_loop(self, monkeypatch):
        stream = PoissonStream(rate_rps=40.0, duration_s=2.0, mix=MIX, sla_s=0.2)
        simulator = FleetSimulator(
            ("flexnerfer",),
            scheduler=BatchDeadlineScheduler(max_batch=4),
            engine=SweepEngine(),
        )

        def bomb(requests):  # pragma: no cover - must not run
            raise AssertionError("non-FIFO fleet took the FIFO fast path")

        monkeypatch.setattr(simulator, "_run_fifo", bomb)
        simulator.run(stream.generate(seed=0))

    def test_fifo_subclass_uses_event_loop(self, monkeypatch):
        # The fast path replicates FIFOScheduler.assign exactly; a subclass
        # may override policy, so only the exact class is fast-pathed.
        class TweakedFIFO(FIFOScheduler):
            pass

        stream = PoissonStream(rate_rps=40.0, duration_s=2.0, mix=MIX, sla_s=0.2)
        simulator = FleetSimulator(
            ("flexnerfer",), scheduler=TweakedFIFO(), engine=SweepEngine()
        )

        def bomb(requests):  # pragma: no cover - must not run
            raise AssertionError("FIFO subclass took the FIFO fast path")

        monkeypatch.setattr(simulator, "_run_fifo", bomb)
        simulator.run(stream.generate(seed=0))

    def test_fifo_with_autoscaler_uses_event_loop(self, monkeypatch):
        # The autoscaler's tick feedback has no closed form, so a FIFO
        # fleet with one runs the event loop even alongside fast-path-able
        # admission and shedding.
        stream = PoissonStream(rate_rps=40.0, duration_s=2.0, mix=MIX, sla_s=0.2)
        simulator = FleetSimulator(
            ("flexnerfer", "flexnerfer"),
            engine=SweepEngine(),
            control=ControlConfig(
                admission=ADMISSION,
                shedder=SHEDDER,
                autoscaler=QueueDepthAutoscaler(min_workers=1),
            ),
        )

        def bomb(requests):  # pragma: no cover - must not run
            raise AssertionError("autoscaled FIFO fleet took the FIFO fast path")

        monkeypatch.setattr(simulator, "_run_fifo", bomb)
        report = simulator.run(stream.generate(seed=0))
        assert report.scheduler == "fifo"


@pytest.fixture(scope="module")
def tracing():
    """perfbench/tracing.py, loaded by path (it imports only the stdlib)."""
    path = Path(__file__).resolve().parents[2] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve their module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


class _TweakedFIFO(FIFOScheduler):
    pass


class TestBenchmarkPathClassification:
    """The benchmark's tracer restates ``run()``'s path rule to attribute
    ``serve.fast_path_s`` / ``serve.event_loop_s``; pin it to the path
    ``run()`` actually takes, so the two rules cannot drift apart."""

    @pytest.mark.parametrize(
        "scheduler, control, fleet",
        [
            (None, None, ("flexnerfer",)),
            (None, ControlConfig(admission=ADMISSION), ("flexnerfer",)),
            (None, ControlConfig(shedder=SHEDDER), ("flexnerfer",)),
            (None, ControlConfig(admission=ADMISSION, shedder=SHEDDER), ("flexnerfer",)),
            (
                None,
                ControlConfig(autoscaler=QueueDepthAutoscaler(min_workers=1)),
                ("flexnerfer", "flexnerfer"),
            ),
            (_TweakedFIFO(), None, ("flexnerfer",)),
            (BatchDeadlineScheduler(max_batch=4), None, ("flexnerfer",)),
        ],
        ids=[
            "fifo", "admission", "shedding", "admission+shedding",
            "autoscaler", "fifo-subclass", "batch-deadline",
        ],
    )
    def test_fleet_path_names_the_method_run_called(
        self, monkeypatch, tracing, scheduler, control, fleet
    ):
        kwargs = {} if scheduler is None else {"scheduler": scheduler}
        simulator = FleetSimulator(
            fleet, engine=SweepEngine(), control=control, **kwargs
        )
        called = []
        for name, path in (
            ("_run_fifo", "serve.fast_path"),
            ("_run_event_loop", "serve.event_loop"),
        ):
            method = getattr(simulator, name)

            def spy(requests, method=method, path=path):
                called.append(path)
                return method(requests)

            monkeypatch.setattr(simulator, name, spy)
        stream = PoissonStream(rate_rps=40.0, duration_s=1.0, mix=MIX, sla_s=0.2)
        requests = stream.generate(seed=0)
        simulator.run(requests)
        assert called == [tracing._fleet_path((simulator, requests))]
