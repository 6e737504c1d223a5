"""Tests for multi-job tenancy (SS6): admission control + isolation."""

import numpy as np
import pytest

from repro.core.tenancy import (
    AdmissionError,
    MultiJobDataplane,
    MultiTenantRack,
    PoolAllocator,
)
from repro.net.loss import BernoulliLoss


class TestPoolAllocator:
    def test_admits_within_budget(self):
        alloc = PoolAllocator()
        job = alloc.admit(num_workers=8, pool_size=128)
        assert job.job_id == 0
        assert job.sram_bytes > 0
        assert alloc.allocated_bytes == job.sram_bytes

    def test_job_ids_are_unique(self):
        alloc = PoolAllocator()
        a = alloc.admit(4, 64)
        b = alloc.admit(4, 64)
        assert a.job_id != b.job_id

    def test_rejects_when_budget_exhausted(self):
        alloc = PoolAllocator(budget_fraction=0.001)
        with pytest.raises(AdmissionError):
            alloc.admit(num_workers=8, pool_size=100_000)
        assert alloc.rejections == 1

    def test_rejects_oversized_k(self):
        alloc = PoolAllocator()
        with pytest.raises(AdmissionError):
            alloc.admit(num_workers=8, pool_size=16, elements_per_packet=64)

    def test_release_returns_budget(self):
        alloc = PoolAllocator()
        job = alloc.admit(8, 512)
        used_before, _ = alloc.pipeline_usage(job.pipeline_id)
        alloc.release(job.job_id)
        used_after, _ = alloc.pipeline_usage(job.pipeline_id)
        assert used_before == job.sram_bytes
        assert used_after == 0

    def test_release_unknown_job_raises(self):
        with pytest.raises(KeyError):
            PoolAllocator().release(42)

    def test_many_small_jobs_fit(self):
        """SS6: "the resources used for one reduction are much less than
        10% of switch capabilities" -- SRAM admits many jobs; the binding
        constraint becomes front-panel ports."""
        alloc = PoolAllocator(budget_fraction=0.10)
        admitted = 0
        try:
            for _ in range(64):
                alloc.admit(num_workers=2, pool_size=128)
                admitted += 1
        except AdmissionError:
            pass
        # 4 pipelines x 16 ports / 2 workers = 32 jobs, port-bound
        assert admitted == 32
        assert alloc.rejections == 1

    def test_jobs_pack_across_pipelines(self):
        """A job that fills one pipeline's ports lands on the next."""
        alloc = PoolAllocator()
        a = alloc.admit(num_workers=16, pool_size=128)
        b = alloc.admit(num_workers=16, pool_size=128)
        assert a.pipeline_id != b.pipeline_id

    def test_job_larger_than_a_pipeline_rejected(self):
        """SS6: beyond a pipeline's ports, compose racks on a fabric."""
        with pytest.raises(AdmissionError, match="FabricJob"):
            PoolAllocator().admit(num_workers=17, pool_size=128)

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            PoolAllocator(budget_fraction=0.0)

    def test_release_then_readmit_reuses_the_budget(self):
        """A released pool's SRAM is immediately reusable: fill the
        budget, release one job, and an equally-sized job fits again."""
        alloc = PoolAllocator(budget_fraction=0.01)
        admitted = []
        try:
            while True:
                admitted.append(alloc.admit(num_workers=2, pool_size=512))
        except AdmissionError:
            pass
        assert admitted, "budget admitted nothing"
        victim = admitted[0]
        alloc.release(victim.job_id)
        replacement = alloc.admit(num_workers=2, pool_size=512)
        assert replacement.sram_bytes == victim.sram_bytes
        # and the budget is genuinely full again
        with pytest.raises(AdmissionError):
            alloc.admit(num_workers=2, pool_size=512)

    def test_overlapping_pools_are_isolated(self):
        """Two admitted jobs get disjoint program instances: traffic into
        one job's slots never perturbs the other's registers."""
        alloc = PoolAllocator()
        a = alloc.admit(num_workers=2, pool_size=4)
        b = alloc.admit(num_workers=2, pool_size=4)
        assert a.program is not b.program
        from repro.core.packet import SwitchMLPacket

        update = SwitchMLPacket(wid=0, ver=0, idx=0, off=0, num_elements=32,
                                vector=np.ones(32, dtype=np.int64))
        a.program.handle(update)
        assert a.program.slot_state(0, 0)["count"] == 1
        assert b.program.slot_state(0, 0)["count"] == 0

    def test_renew_bumps_epoch_and_builds_fresh_program(self):
        alloc = PoolAllocator()
        job = alloc.admit(num_workers=4, pool_size=16)
        assert job.epoch == 0
        old_program = job.program
        renewed = alloc.renew(job.job_id, num_workers=3)
        assert renewed.job_id == job.job_id
        assert renewed.epoch == 1
        assert renewed.num_workers == 3
        assert renewed.program is not old_program
        assert renewed.program.epoch == 1
        # another renewal keeps counting up
        assert alloc.renew(job.job_id).epoch == 2

    def test_renew_shrink_always_fits(self):
        """The old lease is released before placing the new one, so
        shrinking a job that fills the budget cannot be rejected."""
        alloc = PoolAllocator(budget_fraction=0.01)
        # 768 slots ~86% of budget: old + new would never fit together
        job = alloc.admit(num_workers=2, pool_size=768)
        before = alloc.allocated_bytes
        renewed = alloc.renew(job.job_id, pool_size=512)
        assert renewed.epoch == 1
        assert alloc.allocated_bytes < before

    def test_renew_failure_restores_the_old_lease(self):
        """A renewal that cannot be placed leaves the job running on its
        old configuration (and old epoch)."""
        alloc = PoolAllocator(budget_fraction=0.01)
        job = alloc.admit(num_workers=2, pool_size=512)
        with pytest.raises(AdmissionError):
            alloc.renew(job.job_id, pool_size=1_000_000)
        kept = alloc.jobs[job.job_id]
        assert kept is job
        assert kept.epoch == 0
        assert alloc.allocated_bytes == job.sram_bytes

    def test_renew_unknown_job_raises(self):
        with pytest.raises(KeyError):
            PoolAllocator().renew(42)


class TestMultiTenantRack:
    def test_two_jobs_aggregate_independently(self):
        rack = MultiTenantRack(num_hosts=8)
        a = rack.add_job(num_workers=4, pool_size=16)
        b = rack.add_job(num_workers=4, pool_size=8)
        rng = np.random.default_rng(1)
        ta = [rng.integers(-100, 100, 32 * 16 * 4).astype(np.int64)
              for _ in range(4)]
        tb = [rng.integers(-100, 100, 32 * 8 * 6).astype(np.int64)
              for _ in range(4)]
        rack.start_job(a, ta)
        rack.start_job(b, tb)
        rack.run()
        ra = rack.result(a, len(ta[0]))
        rb = rack.result(b, len(tb[0]))
        assert ra.completed and rb.completed
        assert np.array_equal(ra.results[0], np.sum(ta, axis=0))
        assert np.array_equal(rb.results[0], np.sum(tb, axis=0))

    def test_staggered_jobs(self):
        rack = MultiTenantRack(num_hosts=4)
        a = rack.add_job(num_workers=2, pool_size=4)
        b = rack.add_job(num_workers=2, pool_size=4)
        ta = [np.full(32 * 4 * 2, 1, dtype=np.int64)] * 2
        tb = [np.full(32 * 4 * 2, 5, dtype=np.int64)] * 2
        rack.start_job(a, ta)
        rack.start_job(b, tb, at_time=1e-3)
        rack.run()
        assert rack.result(a).completed
        assert rack.result(b).completed
        assert np.all(rack.result(a).results[0] == 2)
        assert np.all(rack.result(b).results[0] == 10)

    def test_jobs_with_loss_recover_independently(self):
        rack = MultiTenantRack(
            num_hosts=6, loss_factory=lambda: BernoulliLoss(0.01), seed=5
        )
        a = rack.add_job(num_workers=3, pool_size=8, timeout_s=1e-4)
        b = rack.add_job(num_workers=3, pool_size=8, timeout_s=1e-4)
        rng = np.random.default_rng(2)
        ta = [rng.integers(-50, 50, 32 * 8 * 5).astype(np.int64) for _ in range(3)]
        tb = [rng.integers(-50, 50, 32 * 8 * 5).astype(np.int64) for _ in range(3)]
        rack.start_job(a, ta)
        rack.start_job(b, tb)
        rack.run()
        assert np.array_equal(rack.result(a, len(ta[0])).results[0],
                              np.sum(ta, axis=0))
        assert np.array_equal(rack.result(b, len(tb[0])).results[0],
                              np.sum(tb, axis=0))

    def test_host_exhaustion_rejected(self):
        rack = MultiTenantRack(num_hosts=4)
        rack.add_job(num_workers=3, pool_size=4)
        with pytest.raises(AdmissionError):
            rack.add_job(num_workers=2, pool_size=4)

    def test_wrong_tensor_count_rejected(self):
        rack = MultiTenantRack(num_hosts=2)
        job = rack.add_job(num_workers=2, pool_size=4)
        with pytest.raises(ValueError):
            rack.start_job(job, [np.ones(32)])

    def test_job_reusable_across_rounds(self):
        rack = MultiTenantRack(num_hosts=2)
        job = rack.add_job(num_workers=2, pool_size=4)
        for round_value in (1, 7):
            tensors = [np.full(32 * 4, round_value, dtype=np.int64)] * 2
            rack.start_job(job, tensors)
            rack.run()
            assert np.all(rack.result(job).results[0] == 2 * round_value)


class TestMultiJobDataplane:
    def test_unknown_job_packets_dropped(self):
        from repro.core.packet import SwitchMLPacket
        from repro.net.packet import Frame

        plane = MultiJobDataplane()
        packet = SwitchMLPacket(wid=0, ver=0, idx=0, off=0, num_elements=4,
                                job_id=99)
        decision = plane.process(
            Frame(wire_bytes=100, message=packet), in_port=0
        )
        assert decision.deliveries == []
        assert plane.unknown_job_drops == 1

    def test_registration_validates_worker_count(self):
        alloc = PoolAllocator()
        handle = alloc.admit(num_workers=4, pool_size=8)
        plane = MultiJobDataplane()
        with pytest.raises(ValueError):
            plane.register_job(handle, {0: (0, "w0")})
