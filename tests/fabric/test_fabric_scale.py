"""The headline acceptance run: 512 workers on a 2-tier Clos.

16 leaves x 32 workers, fig4-style packet geometry, one spine crash
mid-run: the controller must re-home the aggregation onto the surviving
spine and every worker must still end with the exact 512-way sum.
"""

import numpy as np
import pytest

from repro.net.fabric import (
    CrashSpine,
    FabricConfig,
    FabricFaultInjector,
    FabricFaultPlan,
    FabricJob,
)

NUM_LEAVES = 16
WORKERS_PER_LEAF = 32
N_ELEM = 32 * 8 * 32


def make_job(seed=7):
    return FabricJob(
        FabricConfig(
            num_leaves=NUM_LEAVES,
            num_spines=2,
            workers_per_leaf=WORKERS_PER_LEAF,
            pool_size=8,
            elements_per_packet=32,
            seed=seed,
        )
    )


@pytest.mark.slow
class Test512WorkerClos:
    def test_spine_crash_mid_run_recovers_bit_correct(self):
        job = make_job()
        assert job.config.num_workers == 512
        FabricFaultInjector(
            job,
            FabricFaultPlan().add(CrashSpine(spine=job.active_spine, at_s=2e-4)),
        ).arm()
        rng = np.random.default_rng(3)
        tensors = [
            rng.integers(-40, 40, N_ELEM).astype(np.int64) for _ in range(512)
        ]
        # verify=True: raises unless all 512 workers hold the exact sum
        res = job.all_reduce(tensors, deadline_s=10.0)
        assert res.completed
        assert res.epoch == 1
        assert len(res.reroutes) == 1
        r = res.reroutes[0]
        assert r.cause == "spine-dead"
        assert r.to_spine != r.from_spine
        assert 0 < r.resumed_from_element < N_ELEM
        assert r.recovery_time > 0

    def test_clean_512_phantom_run_completes(self):
        job = make_job(seed=1)
        res = job.all_reduce(num_elements=N_ELEM, deadline_s=10.0)
        assert res.completed
        assert not res.reroutes
        assert res.epoch == 0
        assert res.max_tat > 0
