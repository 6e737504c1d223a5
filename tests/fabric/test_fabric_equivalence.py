"""Fabric-vs-flat equivalence: the fabric must change the *path* of an
all-reduce, never its *answer*.

One flat single-switch job and one 2-tier fabric job (the SS6
hierarchy: a rack program on every leaf, Algorithm 3 on the active
spine) run the same 16-worker reduction under clean links, loss, and
jitter.  On clean links the results must match bit-for-bit; under loss
and jitter both must still produce the exact integer sum
(protocol-equivalent: completion, conservation, and sane retransmission
accounting, though the schedules differ by topology).  The one-spine
case, the SS6 tree, is covered in tests/core/test_hierarchy.py.
"""

import numpy as np
import pytest

from repro.core.job import SwitchMLConfig, SwitchMLJob
from repro.net.fabric import FabricConfig, FabricJob
from repro.net.link import LinkSpec
from repro.net.loss import BernoulliLoss

NUM_LEAVES = 4
WORKERS_PER_LEAF = 4
N_WORKERS = NUM_LEAVES * WORKERS_PER_LEAF
POOL = 16
K = 8
N_ELEM = K * 256
SEED = 11

CONFIGS = {
    "clean": {},
    "loss1pct": {"loss": 0.01},
    "loss5pct": {"loss": 0.05},
    "jitter": {"jitter_s": 2e-6},
    "loss+jitter": {"loss": 0.02, "jitter_s": 2e-6},
}


def tensors():
    rng = np.random.default_rng(SEED)
    return [
        rng.integers(-100, 100, N_ELEM).astype(np.int64)
        for _ in range(N_WORKERS)
    ]


def expected():
    return np.sum(tensors(), axis=0, dtype=np.int64)


def _net_kwargs(loss=0.0, jitter_s=0.0):
    kwargs = {}
    if loss:
        kwargs["loss_factory"] = lambda: BernoulliLoss(loss)
    if jitter_s:
        kwargs["link"] = LinkSpec(jitter_s=jitter_s)
    return kwargs


def run_flat(**net):
    job = SwitchMLJob(
        SwitchMLConfig(
            num_workers=N_WORKERS,
            pool_size=POOL,
            elements_per_packet=K,
            seed=SEED,
            **_net_kwargs(**net),
        )
    )
    res = job.all_reduce(tensors=tensors())
    return job, res


def run_fabric(**net):
    job = FabricJob(
        FabricConfig(
            num_leaves=NUM_LEAVES,
            num_spines=2,
            workers_per_leaf=WORKERS_PER_LEAF,
            pool_size=POOL,
            elements_per_packet=K,
            seed=SEED,
            **_net_kwargs(**net),
        )
    )
    res = job.all_reduce(tensors=tensors())
    return job, res


class TestCleanEquivalence:
    def test_fabric_matches_flat_bit_for_bit(self):
        _, flat = run_flat()
        _, fab = run_fabric()
        assert flat.completed and fab.completed
        want = expected()
        for w in range(N_WORKERS):
            np.testing.assert_array_equal(fab.results[w], flat.results[w])
            np.testing.assert_array_equal(fab.results[w], want)

    def test_clean_run_needs_no_recovery_machinery(self):
        job, fab = run_fabric()
        assert fab.retransmissions == 0
        assert fab.stale_epoch_drops == 0
        assert not fab.reroutes
        assert fab.epoch == 0
        assert job.fabric.total_frames_lost() == 0


class TestLossAndJitterEquivalence:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_protocol_equivalent_outcome(self, name):
        cfg = CONFIGS[name]
        flat_job, flat = run_flat(**cfg)
        fab_job, fab = run_fabric(**cfg)
        assert flat.completed and fab.completed
        want = expected()
        for w in range(N_WORKERS):
            np.testing.assert_array_equal(fab.results[w], want)
            np.testing.assert_array_equal(flat.results[w], want)
        # the tree drops nothing on the floor unaccounted
        assert fab_job.fabric.conservation_holds()
        # retransmissions exist iff links actually lost frames
        lost = fab_job.fabric.total_frames_lost()
        if cfg.get("loss"):
            assert lost > 0
            assert fab.retransmissions > 0
        else:
            assert fab.retransmissions == 0

    @pytest.mark.parametrize("seed", [3, 77, 2024])
    def test_lossy_exactness_across_seeds(self, seed):
        job = FabricJob(
            FabricConfig(
                num_leaves=NUM_LEAVES,
                num_spines=2,
                workers_per_leaf=WORKERS_PER_LEAF,
                pool_size=POOL,
                elements_per_packet=K,
                seed=seed,
                loss_factory=lambda: BernoulliLoss(0.02),
            )
        )
        # verify=True re-checks every worker against the exact sum
        res = job.all_reduce(tensors=tensors())
        assert res.completed

    def test_per_worker_stats_accounted(self):
        _, fab = run_fabric(loss=0.05)
        assert fab.completed
        assert len(fab.worker_stats) == N_WORKERS
        assert fab.retransmissions == sum(
            s.retransmissions for s in fab.worker_stats
        )
        assert fab.max_tat > 0
