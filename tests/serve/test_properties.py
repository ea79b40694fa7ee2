"""Property-based and differential fuzz tests for the serving simulator.

Rather than pinning hand-picked configurations, these tests draw hundreds
of randomized serving setups (fleet shape, arrival process, scenario mix,
admission policy, shedding ladder, autoscaler) from a *fixed-seed* stdlib
``random.Random`` stream and assert structural invariants that must hold
for every one of them:

* **conservation** -- every offered request is accounted for exactly once:
  ``num_requests == completed + rejected`` (the simulator drains its queue,
  so nothing is in flight when ``run`` returns), and the completed /
  rejected id sets partition the offered ids;
* **causality** -- starts follow arrivals, finishes follow starts, queue
  waits are non-negative;
* **aggregate consistency** -- the report's percentiles / means equal the
  same statistics recomputed from the raw completion log;
* **determinism** -- re-running the identical configuration (fresh
  admission-session state and all) reproduces the report bit for bit;
* **differential equivalence** -- for exact-FIFO fleets, the closed-form
  fast path and the discrete-event loop produce *identical*
  reports, completion logs, rejection logs and worker stats.

The iteration budget defaults to 200 combined configurations and is
tunable via the ``REPRO_FUZZ_ITERATIONS`` environment variable (CI sets it
explicitly so the budget is visible in the workflow file).
"""

import os
import random

import pytest

from repro.serve.control import (
    ControlConfig,
    DegradationLadder,
    DegradationStep,
    QueueCapAdmission,
    QueueDepthAutoscaler,
    QueueDepthShedder,
    TokenBucketAdmission,
)
from repro.serve.fleet import FleetSimulator
from repro.serve.report import percentile
from repro.serve.request import PoissonStream, Scenario, ScenarioMix
from repro.serve.scheduler import FIFOScheduler
from repro.sim.sweep import SweepEngine

from tests._differential import assert_fast_path_matches_event_loop

#: Fixed fuzz seed: the whole suite is one reproducible random stream.
SEED = 20260808

#: Combined config budget; override with REPRO_FUZZ_ITERATIONS=<n>.
ITERATIONS = int(os.environ.get("REPRO_FUZZ_ITERATIONS", "200"))

#: Deliberately tiny frames: the shared engine simulates each unique
#: (device, scenario) pair once, so the whole fuzz run costs a handful of
#: frame simulations regardless of how many requests flow through.
SCENARIOS = (
    Scenario("instant-ngp", scene="lego", width=96, height=96),
    Scenario("instant-ngp", scene="mic", width=64, height=64),
    Scenario("tensorf", scene="lego", width=80, height=80),
)

#: A modelled ladder (qualities asserted, not measured): the fuzz suite
#: exercises the shedding *mechanics*, not the PSNR pricing.
LADDER = DegradationLadder(
    steps=(
        DegradationStep("half-samples", sample_scale=0.5),
        DegradationStep("half-res", resolution_scale=0.5),
        DegradationStep("quarter-res", resolution_scale=0.25),
    ),
    qualities=(0.9, 0.7, 0.5),
)

DEVICES = ("flexnerfer", "neurex")


@pytest.fixture(scope="module")
def engine():
    """One engine for the whole module so frame simulations are cached."""
    return SweepEngine()


def random_fifo_config(rng):
    """Draw one randomized fast-path-compatible serving configuration."""
    fleet = tuple(rng.choice(DEVICES) for _ in range(rng.randint(1, 3)))
    count = rng.randint(1, len(SCENARIOS))
    mix = ScenarioMix(
        scenarios=tuple(rng.sample(SCENARIOS, count)),
        weights=tuple(rng.uniform(0.5, 3.0) for _ in range(count)),
    )
    sla = rng.uniform(0.05, 0.5) if rng.random() < 0.7 else None
    stream = PoissonStream(
        rate_rps=rng.uniform(20.0, 150.0),
        duration_s=rng.uniform(0.5, 2.0),
        mix=mix,
        sla_s=sla,
    )
    requests = stream.generate(seed=rng.randint(0, 2**31))
    admission = rng.choice(
        (
            None,
            QueueCapAdmission(max_queue=rng.randint(1, 12)),
            TokenBucketAdmission(
                rate_rps=rng.uniform(5.0, 60.0), burst=rng.uniform(1.0, 8.0)
            ),
        )
    )
    shedder = (
        QueueDepthShedder(LADDER, depth_per_step=rng.randint(1, 6))
        if rng.random() < 0.5
        else None
    )
    control = (
        ControlConfig(admission=admission, shedder=shedder)
        if admission is not None or shedder is not None
        else None
    )
    return fleet, requests, control


def assert_invariants(report, requests):
    """The structural properties every serving report must satisfy."""
    # Conservation: offered == completed + rejected, as a partition of ids.
    assert report.num_requests == len(requests)
    assert report.completed_requests + report.rejected_requests == len(requests)
    completed_ids = [c.request.request_id for c in report.completed]
    rejected_ids = [r.request.request_id for r in report.rejected]
    assert completed_ids == sorted(completed_ids)
    assert rejected_ids == sorted(rejected_ids)
    assert sorted(completed_ids + rejected_ids) == [
        r.request_id for r in sorted(requests, key=lambda r: r.request_id)
    ]
    # Causality: start after arrival, finish after start.
    for completion in report.completed:
        assert completion.start_s >= completion.request.arrival_s
        assert completion.finish_s >= completion.start_s
        assert completion.wait_s >= 0.0
        assert completion.latency_s >= completion.wait_s
        assert 0 <= completion.shed_level <= LADDER.depth
        assert completion.quality == LADDER.quality_of(completion.shed_level)
    for rejection in report.rejected:
        assert rejection.time_s == rejection.request.arrival_s
        assert rejection.reason
    # Aggregates match the raw completion log exactly.
    if report.completed:
        latencies = [c.latency_s for c in report.completed]
        qualities = [c.quality for c in report.completed]
        assert report.p50_latency_s == percentile(latencies, 50.0)
        assert report.p95_latency_s == percentile(latencies, 95.0)
        assert report.p99_latency_s == percentile(latencies, 99.0)
        assert report.p50_quality == percentile(sorted(qualities), 50.0)
        assert report.p05_quality == percentile(sorted(qualities), 5.0)
        assert report.shed_requests == sum(1 for c in report.completed if c.shed_level)
        assert report.met_deadline_requests == sum(
            1 for c in report.completed if c.met_deadline
        )
    else:
        assert report.p95_latency_s == 0.0
        assert report.mean_quality == 1.0
    assert 0.0 <= report.slo_attainment <= 1.0
    assert report.slo_attainment <= report.sla_attainment


class TestDifferentialFuzz:
    """Fast path vs event loop, over the full randomized config budget."""

    def test_fast_path_matches_event_loop_on_random_configs(self, engine):
        rng = random.Random(SEED)
        for index in range(ITERATIONS):
            fleet, requests, control = random_fifo_config(rng)
            simulator = FleetSimulator(
                fleet, scheduler=FIFOScheduler(), engine=engine, control=control
            )
            context = f"config #{index}: fleet={fleet} control={control}"
            fast = assert_fast_path_matches_event_loop(
                simulator, requests, context
            )
            assert_invariants(fast, requests)
            if index % 10 == 0:
                # Repeat-run determinism: fresh simulator, fresh admission
                # session state, bit-identical report.
                again = FleetSimulator(
                    fleet, scheduler=FIFOScheduler(), engine=engine, control=control
                ).run(requests)
                assert again == fast, context
                assert again.completed == fast.completed, context


class TestAutoscalerProperties:
    """Event-loop-only invariants for autoscaled fleets."""

    def test_autoscaled_runs_conserve_and_reproduce(self, engine):
        rng = random.Random(SEED + 1)
        for index in range(max(20, ITERATIONS // 10)):
            fleet, requests, base = random_fifo_config(rng)
            pool = tuple(rng.choice(DEVICES) for _ in range(rng.randint(2, 4)))
            control = ControlConfig(
                admission=base.admission if base else None,
                shedder=base.shedder if base else None,
                autoscaler=QueueDepthAutoscaler(
                    scale_out_depth=rng.randint(1, 6),
                    min_workers=1,
                    max_workers=len(pool),
                ),
                tick_s=rng.uniform(0.01, 0.1),
                provision_delay_s=rng.uniform(0.0, 0.5),
            )
            simulator = FleetSimulator(
                pool, scheduler=FIFOScheduler(), engine=engine, control=control
            )
            report = simulator.run(requests)
            context = f"config #{index}: pool={pool}"
            assert_invariants(report, requests)
            assert 1 <= report.peak_active_workers <= len(pool), context
            assert 0.0 < report.mean_active_workers <= len(pool), context
            again = FleetSimulator(
                pool, scheduler=FIFOScheduler(), engine=engine, control=control
            ).run(requests)
            assert again == report, context
            assert again.completed == report.completed, context
            assert again.rejected == report.rejected, context
