"""Tests for the adaptive retransmission timeout (SS6 guidance)."""

import numpy as np
import pytest

from repro.core.job import SwitchMLConfig, SwitchMLJob
from repro.core.packet import SwitchMLPacket
from repro.net.link import LinkSpec
from repro.net.loss import BernoulliLoss


def make_job(**kwargs):
    defaults = dict(num_workers=4, pool_size=8, timeout_mode="adaptive")
    defaults.update(kwargs)
    return SwitchMLJob(SwitchMLConfig(**defaults))


class TestEstimator:
    def test_rto_converges_near_observed_rtt(self):
        job = make_job()
        out = job.all_reduce(num_elements=32 * 8 * 20, verify=False)
        assert out.completed
        worker = job.workers[0]
        rto = worker.current_timeout()
        mean_rtt = worker.stats.mean_rtt
        # RTO should sit above the RTT but within an order of magnitude
        assert mean_rtt < rto < 20 * mean_rtt

    def test_fixed_mode_never_adapts(self):
        job = make_job(timeout_mode="fixed", timeout_s=1e-3)
        job.all_reduce(num_elements=32 * 8 * 4, verify=False)
        assert job.workers[0].current_timeout() == 1e-3

    def test_initial_timeout_used_before_samples(self):
        job = make_job(timeout_s=5e-3)
        assert job.workers[0].current_timeout() == 5e-3

    def test_min_timeout_floor(self):
        # with a near-zero-latency fabric the floor keeps RTO sane
        job = make_job()
        worker = job.workers[0]
        for _ in range(50):
            worker._observe_rtt(1e-9)
        assert worker.current_timeout() >= worker.min_timeout_s

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            make_job(timeout_mode="bogus")


class TestAdaptiveUnderLoss:
    def test_recovers_exactly_with_adaptation(self):
        job = make_job(
            loss_factory=lambda: BernoulliLoss(0.01),
            check_invariants=True,
            seed=3,
        )
        rng = np.random.default_rng(0)
        tensors = [rng.integers(-100, 100, 32 * 8 * 12).astype(np.int64)
                   for _ in range(4)]
        out = job.all_reduce(tensors)  # verify=True
        assert out.completed

    def test_adaptive_beats_oversized_fixed_timeout_under_loss(self):
        """The ablation behind SS6's advice: a 1 ms fixed timeout on an
        ~11 us RTT turns every loss into a ~1 ms stall; the adaptive RTO
        retransmits in tens of microseconds."""
        n_elem = 32 * 128 * 16

        def run(mode):
            job = SwitchMLJob(
                SwitchMLConfig(
                    num_workers=4, pool_size=128,
                    timeout_mode=mode, timeout_s=1e-3,
                    loss_factory=lambda: BernoulliLoss(0.005),
                    seed=7,
                )
            )
            out = job.all_reduce(num_elements=n_elem, verify=False)
            assert out.completed
            return out.max_tat

        assert run("adaptive") < 0.6 * run("fixed")

    def test_karns_rule_skips_ambiguous_samples(self):
        """Responses to retransmitted packets must not feed the
        estimator (they may measure the retransmission, not the RTT) nor
        clear the slot's backoff (RFC 6298 SS5.7)."""
        job = make_job()
        worker = job.workers[0]
        worker._observe_rtt(100e-6)
        # only worker 0 streams, so no slot ever completes: slot 0's
        # timer fires and resends it
        worker.start(np.zeros(32 * 8 * 2, dtype=np.int64))
        while not worker._slot_retransmitted[0]:
            assert job.sim.step()
        srtt, rttvar = worker._srtt, worker._rttvar
        backoff = worker._slot_backoff[0]
        assert backoff > 1.0
        assert job.sim.now - worker._slot_sent_at[0] > 2 * srtt  # inflated
        # the late (inflated) result of the retransmitted slot
        sent = worker._slot_packet[0]
        worker._on_result(
            SwitchMLPacket(
                wid=0, ver=sent.ver, idx=0, off=sent.off,
                num_elements=sent.num_elements,
                vector=np.zeros(sent.num_elements, dtype=np.int64),
                from_switch=True, epoch=worker.epoch, job_id=sent.job_id,
            )
        )
        assert worker.stats.results_received == 1  # consumed, not stale
        assert worker._srtt == srtt
        assert worker._rttvar == rttvar
        assert worker._slot_backoff[0] == backoff

    def test_rto_tracks_congested_rtt(self):
        """With a slow downlink the RTT quadruples; the estimator must
        converge onto the new RTT (via Karn-compliant backoff that
        persists until an unambiguous sample) with a bounded transient
        of spurious retransmissions."""
        job = make_job(pool_size=64)
        job.rack.downlinks[0].spec = LinkSpec(rate_gbps=2.0)
        out = job.all_reduce(num_elements=32 * 64 * 8, verify=False)
        assert out.completed
        genuine_packets = 4 * (32 * 64 * 8) // 32
        # transient adaptation cost, not a persistent storm
        assert out.retransmissions < 0.2 * genuine_packets
        # every worker's estimator converged to the congested RTT
        congested_rtt = 64 * 180 * 8 / 2e9  # queue of 64 frames at 2 Gbps
        for worker in job.workers:
            assert worker._srtt == pytest.approx(congested_rtt, rel=0.5)
            assert worker.current_timeout() > worker._srtt

    def test_backoff_resets_on_result(self):
        job = make_job()
        worker = job.workers[0]
        out = job.all_reduce(num_elements=32 * 8 * 4, verify=False)
        assert out.completed
        assert all(b == 1.0 for b in worker._slot_backoff)
