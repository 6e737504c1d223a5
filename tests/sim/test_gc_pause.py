"""The cyclic garbage collector is paused inside ``run_deadline``.

That is safe only because no run creates cyclic garbage: every object a
run drops is freed by reference counting alone.  The first class pins
that invariant on the paths a user can reach -- a lossy observed rack,
the window path on jittered links, a controller worker-crash recovery
and a fabric spine-crash reroute -- by running each with the collector
off from build to end and asserting that a full collection afterwards,
with the job still alive, finds nothing to free.  The second pins that
``run_deadline`` leaves the collector as it found it on every exit path.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.controlplane import (
    ControlPlaneConfig,
    Controller,
    CrashWorker,
    FaultInjector,
    FaultPlan,
)
from repro.core.job import SwitchMLConfig, SwitchMLJob
from repro.net.fabric import (
    CrashSpine,
    FabricConfig,
    FabricFaultInjector,
    FabricFaultPlan,
    FabricJob,
)
from repro.net.link import LinkSpec
from repro.net.loss import BernoulliLoss
from repro.obs.base import Observability
from repro.sim.engine import Simulator


@pytest.fixture(autouse=True)
def _restore_collector():
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


def _tensors(n, size, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.integers(-100, 100, size).astype(np.int64) for _ in range(n)]


def _rack_observed():
    job = SwitchMLJob(
        SwitchMLConfig(
            num_workers=4, pool_size=16, seed=7,
            loss_factory=lambda: BernoulliLoss(0.01),
            obs=Observability(telemetry=True),
        )
    )
    result = job.all_reduce(_tensors(4, 32 * 16 * 8))
    assert result.completed and result.retransmissions > 0
    job.obs.metrics.as_dict()
    return job, result


def _rack_window_jitter():
    job = SwitchMLJob(
        SwitchMLConfig(
            num_workers=4, pool_size=16, seed=7, burst_epsilon=2e-5,
            loss_factory=lambda: BernoulliLoss(0.01),
            link=LinkSpec(jitter_s=2e-7),
        )
    )
    assert not job._reuse_buffers
    result = job.all_reduce(_tensors(4, 32 * 16 * 8))
    assert result.completed
    return job, result


def _controller_worker_crash():
    ctl = Controller(ControlPlaneConfig(num_workers=4, pool_size=16))
    FaultInjector(ctl, FaultPlan([CrashWorker(member=2, at_s=0.3e-3)])).arm()
    result = ctl.run_collective(_tensors(4, 32 * 8 * 500), deadline_s=1.0)
    assert result.completed and result.recoveries
    return ctl, result


def _fabric_spine_crash():
    job = FabricJob(FabricConfig(num_leaves=4, num_spines=2, workers_per_leaf=4))
    FabricFaultInjector(
        job, FabricFaultPlan().add(CrashSpine(spine=job.active_spine, at_s=2e-4))
    ).arm()
    result = job.all_reduce(_tensors(16, 32 * 8 * 40), deadline_s=5.0)
    assert result.completed and result.reroutes
    return job, result


class TestNoCyclicGarbage:
    @pytest.mark.parametrize(
        "scenario",
        [_rack_observed, _rack_window_jitter, _controller_worker_crash,
         _fabric_spine_crash],
        ids=lambda f: f.__name__.lstrip("_"),
    )
    def test_run_leaves_nothing_for_the_collector(self, scenario):
        gc.collect()  # start from a clean slate
        gc.disable()
        job, result = scenario()
        # `job` and `result` are still referenced: anything found here
        # was dropped during the run and is kept alive by a cycle
        found = gc.collect()
        assert found == 0, f"{found} unreachable objects in cycles"


class TestRunDeadlineRestoresCollector:
    def test_paused_inside_and_restored_after_return(self):
        gc.enable()
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(gc.isenabled()))
        sim.run_deadline(10.0)
        assert seen == [False]
        assert gc.isenabled()

    def test_restored_after_stop(self):
        gc.enable()
        sim = Simulator()
        out = []
        sim.schedule(1.0, sim.stop)
        sim.schedule(2.0, out.append, "unfired")
        sim.run_deadline(10.0)
        assert out == [] and sim.pending == 1
        assert gc.isenabled()

    def test_restored_after_a_callback_raises(self):
        gc.enable()
        sim = Simulator()

        def boom():
            raise RuntimeError("boom")

        sim.schedule(1.0, boom)
        with pytest.raises(RuntimeError, match="boom"):
            sim.run_deadline(10.0)
        assert gc.isenabled()

    def test_a_callers_disabled_collector_stays_disabled(self):
        gc.disable()
        sim = Simulator()
        sim.schedule(1.0, sim.stop)
        sim.run_deadline(10.0)
        assert not gc.isenabled()
        sim.schedule(1.0, lambda: None)
        sim.run_deadline(10.0)
        assert not gc.isenabled()
