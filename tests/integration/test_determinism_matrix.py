"""Determinism across every simulated system (DESIGN.md invariant).

Each job type runs twice from the same seed; TATs and counters must
match bit for bit.  Reproducibility is what makes EXPERIMENTS.md's
recorded numbers re-derivable by any reader.
"""

import numpy as np
import pytest

from repro.collectives.hd_simulation import HDJob, HDJobConfig
from repro.collectives.ps_simulation import PSJob, PSJobConfig
from repro.collectives.ring_simulation import RingJob, RingJobConfig
from repro.core.aggregator_device import (
    AggregatorDeviceConfig,
    AggregatorDeviceJob,
)
from repro.core.job import SwitchMLConfig, SwitchMLJob
from repro.net.fabric import (
    CrashSpine,
    FabricConfig,
    FabricFaultInjector,
    FabricFaultPlan,
    FabricJob,
)
from repro.net.loss import BernoulliLoss

N_ELEM = 32 * 256
SEED = 1234


def _switchml():
    job = SwitchMLJob(
        SwitchMLConfig(num_workers=4, pool_size=8, timeout_s=1e-4,
                       loss_factory=lambda: BernoulliLoss(0.01), seed=SEED)
    )
    out = job.all_reduce(num_elements=N_ELEM, verify=False)
    return (tuple(out.tats), out.retransmissions, out.frames_lost,
            out.sim_events)


def _ps():
    job = PSJob(PSJobConfig(num_workers=4, seed=SEED))
    out = job.all_reduce(num_elements=N_ELEM, verify=False)
    return tuple(out.tats)


def _ring():
    job = RingJob(RingJobConfig(num_workers=4, pipeline_segments=2, seed=SEED))
    out = job.all_reduce(num_elements=N_ELEM, verify=False)
    return tuple(out.tats)


def _hd():
    job = HDJob(HDJobConfig(num_workers=4, seed=SEED))
    out = job.all_reduce(num_elements=N_ELEM, verify=False)
    return tuple(out.tats)


def _fabric():
    """Lossy 2x2 Clos whose active spine crashes mid-run: ECMP placement,
    trunk beacons, detection, reroute and lease renewal all run."""
    job = FabricJob(
        FabricConfig(num_leaves=2, num_spines=2, workers_per_leaf=2,
                     pool_size=4, loss_factory=lambda: BernoulliLoss(0.01),
                     seed=SEED)
    )
    FabricFaultInjector(
        job, FabricFaultPlan([CrashSpine(job.active_spine, 2e-4)])
    ).arm()
    rng = np.random.default_rng(SEED)
    tensors = [rng.integers(-100, 100, N_ELEM).astype(np.int64)
               for _ in range(4)]
    out = job.all_reduce(tensors)
    assert out.completed and len(out.reroutes) == 1
    return (tuple(s.tensor_aggregation_time for s in out.worker_stats),
            out.retransmissions, out.stale_epoch_drops)


def _aggregator_device():
    job = AggregatorDeviceJob(
        AggregatorDeviceConfig(num_workers=4, pool_size=8, seed=SEED)
    )
    out = job.all_reduce(num_elements=N_ELEM, verify=False)
    return tuple(s.tensor_aggregation_time for s in out.worker_stats)


SYSTEMS = {
    "switchml": _switchml,
    "dedicated-ps": _ps,
    "pipelined-ring": _ring,
    "halving-doubling": _hd,
    "fabric": _fabric,
    "aggregator-device": _aggregator_device,
}


@pytest.mark.parametrize("name,runner", SYSTEMS.items(), ids=SYSTEMS.keys())
def test_same_seed_same_everything(name, runner):
    assert runner() == runner()


def test_different_seeds_actually_differ():
    """Guard against accidentally ignoring the seed: the lossy SwitchML
    run must change with it."""
    def run(seed):
        job = SwitchMLJob(
            SwitchMLConfig(num_workers=4, pool_size=8, timeout_s=1e-4,
                           loss_factory=lambda: BernoulliLoss(0.02),
                           seed=seed)
        )
        out = job.all_reduce(num_elements=N_ELEM * 4, verify=False)
        return (out.frames_lost, out.max_tat)

    assert run(1) != run(2)
