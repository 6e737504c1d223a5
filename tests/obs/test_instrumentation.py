"""End-to-end instrumentation: the obs layer wired through real runs.

The invariants here cross-check the new observability layer against the
always-on protocol counters it mirrors -- if a metric and the legacy
stat disagree, one of the two instrumentation points is wrong.
"""

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
from repro.net.loss import BernoulliLoss
from repro.obs import Dashboard, Observability, validate_chrome_trace
from repro.obs.export import chrome_trace


def run_job(obs=None, num_elements=32 * 64, **cfg_kwargs):
    cfg_kwargs.setdefault("num_workers", 4)
    cfg_kwargs.setdefault("pool_size", 8)
    job = SwitchMLJob(SwitchMLConfig(obs=obs, **cfg_kwargs))
    job.all_reduce(num_elements=num_elements, verify=True)
    return job


class TestLosslessJob:
    def test_metrics_match_protocol_counters(self):
        obs = Observability()
        job = run_job(obs)
        metrics = obs.metrics
        sent = sum(s.value for s in
                   metrics.get("worker_packets_sent_total").samples())
        assert sent == sum(w.stats.packets_sent for w in job.workers)
        assert (metrics.get("switch_multicasts_total").value
                == job.program.multicasts)
        assert (metrics.get("switch_contributions_total").value == sent)

    def test_trace_covers_both_ends_of_the_protocol(self):
        obs = Observability()
        job = run_job(obs)
        tracer = obs.tracer
        # every tx has a matching switch contribution and a worker rx
        assert tracer.count("packet.tx") == tracer.count("packet.rx")
        assert tracer.count("slot.claim") == tracer.count("slot.release")
        # one aggregation span per worker, stamped with the packet count
        spans = tracer.select(name="worker.aggregate")
        assert len(spans) == job.config.num_workers
        assert all(s.kind == "span" and s.dur > 0 for s in spans)
        # actor lanes: every worker plus the switch
        actors = set(tracer.actors())
        assert "switch" in actors
        assert {f"worker{w.wid}" for w in job.workers} <= actors

    def test_latency_histograms_fill(self):
        obs = Observability()
        job = run_job(obs)
        assert (obs.metrics.get("worker_tat_seconds").count
                == job.config.num_workers)
        assert obs.metrics.get("worker_rtt_seconds").count > 0

    def test_sim_counters_attached(self):
        obs = Observability()
        job = run_job(obs)
        assert (obs.metrics.get("sim_events_total").value
                == job.sim.events_processed)
        assert obs.metrics.get("sim_pending_events").value == 0

    def test_mid_run_read_is_fresh_without_an_explicit_flush(self):
        """Nothing on the hot paths touches an instrument any more, so a
        read from inside a running simulation must still see every
        packet up to that instant."""
        obs = Observability(tracing_enabled=False)
        job = SwitchMLJob(SwitchMLConfig(num_workers=4, pool_size=8, obs=obs))
        seen = []

        def probe():
            snap = obs.metrics.as_dict()
            seen.append((
                sum(v for k, v in snap.items()
                    if k.startswith("worker_packets_sent_total")),
                sum(w.stats.packets_sent for w in job.workers),
                snap["worker_rtt_seconds_count"],
                sum(w.stats.results_received for w in job.workers),
                snap["switch_contributions_total"],
                job.program.contributions,
                snap["switch_slots_occupied"],
                job.program.occupied_slots,
            ))

        for t in (2e-5, 4e-5, 8e-5):
            job.sim.schedule_at(t, probe)
        job.all_reduce(num_elements=32 * 512, verify=True)
        assert len(seen) == 3
        for sent_m, sent, rtts_m, rtts, contrib_m, contrib, occ_m, occ in seen:
            assert (sent_m, rtts_m, contrib_m, occ_m) == (sent, rtts, contrib, occ)
        # mid-run for real: the counts grew from probe to probe
        assert 0 < seen[0][0] < seen[1][0] < seen[2][0]

    def test_registry_shared_across_two_jobs_accumulates(self):
        obs = Observability(tracing_enabled=False)
        first = run_job(obs)
        sent_first = sum(w.stats.packets_sent for w in first.workers)
        assert obs.metrics.get("switch_contributions_total").value == sent_first
        second = run_job(obs, num_elements=32 * 128)
        sent_second = sum(w.stats.packets_sent for w in second.workers)
        metrics = obs.metrics
        assert metrics.get("switch_contributions_total").value == (
            sent_first + sent_second
        )
        assert sum(
            s.value for s in metrics.get("worker_packets_sent_total").samples()
        ) == sent_first + sent_second
        assert metrics.get("sim_events_total").value == (
            first.sim.events_processed + second.sim.events_processed
        )
        assert metrics.get("worker_tat_seconds").count == 8

    def test_second_reduction_on_one_job_accumulates(self):
        # start() replaces WorkerStats: the counts it had gained must be
        # banked, not lost and not double-counted
        obs = Observability(tracing_enabled=False)
        job = run_job(obs)
        sent = sum(w.stats.packets_sent for w in job.workers)
        job.all_reduce(num_elements=32 * 64, verify=True)
        sent += sum(w.stats.packets_sent for w in job.workers)
        assert sum(
            s.value
            for s in obs.metrics.get("worker_packets_sent_total").samples()
        ) == sent

    def test_chrome_export_of_real_run_validates(self):
        obs = Observability()
        run_job(obs)
        n = validate_chrome_trace(chrome_trace(obs.tracer))
        assert n > len(obs.tracer)  # events + metadata

    def test_dashboard_renders_real_run(self):
        obs = Observability()
        job = run_job(obs)
        text = Dashboard.from_job(job).summary()
        assert "bottleneck" in text
        assert "packets sent" in text
        assert "slot occupancy" in text
        assert "tat:" in text


class TestDisabledPath:
    def test_job_without_obs_runs_clean(self):
        job = run_job(obs=None)
        assert not job.obs.enabled
        assert len(job.obs.tracer) == 0
        assert job.obs.metrics.collect() == []

    def test_obs_does_not_perturb_the_simulation(self):
        """Instrumentation must observe, never steer: identical seeds
        give bit-identical timing with tracing on and off."""
        tat_off = run_job(obs=None, seed=7).sim.now
        tat_on = run_job(obs=Observability(), seed=7).sim.now
        assert tat_off == tat_on


class TestTracedWindowRun:
    def test_window_path_with_tracing_enabled(self):
        # regression: the burst.switch trace point referenced a stale
        # local and crashed any traced run off the per-packet path
        obs = Observability()
        job = run_job(obs, burst_epsilon=2e-5)
        batches = [dict(e.args) for e in obs.tracer.events
                   if e.name == "burst.switch"]
        assert batches
        assert sum(b["packets"] for b in batches) == \
            job.program.packets_processed
        assert all(b["groups"] >= 1 for b in batches)
        # per-burst aggregates replace the per-packet worker events
        assert obs.tracer.count("packet.tx") == 0
        assert obs.tracer.count("burst.rx") > 0


class TestFig5LossScenario:
    """Regression for the Figure 5 pipeline: under Bernoulli loss the
    resends that inflate TAT must appear in the event trace."""

    def make_lossy(self):
        obs = Observability()
        job = run_job(
            obs, num_elements=32 * 8 * 40, pool_size=8, timeout_s=1e-4,
            loss_factory=lambda: BernoulliLoss(0.02), seed=3,
        )
        return obs, job

    def test_resend_events_appear_in_trace(self):
        obs, job = self.make_lossy()
        total_retx = sum(w.stats.retransmissions for w in job.workers)
        assert total_retx > 0, "loss scenario produced no resends"
        retx_events = obs.tracer.select(name="packet.retx")
        assert len(retx_events) == total_retx
        # and they survive export, phase-tagged as instants
        doc = chrome_trace(obs.tracer)
        assert sum(1 for e in doc["traceEvents"]
                   if e["name"] == "packet.retx" and e["ph"] == "i") \
            == total_retx

    def test_retx_metrics_and_gap_histogram(self):
        obs, _ = self.make_lossy()
        retx = sum(s.value for s in
                   obs.metrics.get("worker_retransmissions_total").samples())
        assert retx > 0
        gaps = obs.metrics.get("worker_retx_gap_seconds")
        assert gaps.count == retx
        # self-clocked timeouts: every gap at least the configured RTO
        assert gaps.min >= 0.99e-4

    def test_shadow_reads_ticked_into_fig6_recorder(self):
        """The switch shares worker 0's TraceRecorder, so loss timelines
        show shadow reads next to sends/resends."""
        obs, job = self.make_lossy()
        if job.program.unicast_retransmits == 0:
            pytest.skip("seed produced no shadow reads")
        assert job.trace.total("shadow_read") == job.program.unicast_retransmits
        assert (obs.metrics.get("switch_shadow_reads_total").value
                == job.program.unicast_retransmits)


class TestManagedRun:
    def test_worker_crash_recovery_is_traced(self):
        obs = Observability()
        ctl = Controller(ControlPlaneConfig(num_workers=4, pool_size=16,
                                            obs=obs))
        rng = np.random.default_rng(0)
        tensors = [rng.integers(-100, 100, 32 * 8 * 500).astype(np.int64)
                   for _ in range(4)]
        FaultInjector(ctl, FaultPlan([CrashWorker(member=2, at_s=0.3e-3)])).arm()
        result = ctl.run_collective(tensors, deadline_s=1.0)
        assert result.completed

        tracer = obs.tracer
        # membership saw the silence, recovery walked its worker path
        assert tracer.count("member.suspect") >= 1
        assert tracer.count("member.confirm") >= 1
        for phase in ("detect", "fence", "quiesce", "restart"):
            assert tracer.count(f"recovery.{phase}") == 1, phase
        (span,) = tracer.select(name="recovery.worker-failure")
        assert span.kind == "span" and span.dur > 0

        metrics = obs.metrics
        assert (metrics.get("recovery_incidents_total")
                .labels("worker-failure").value == 1)
        assert metrics.get("switch_stale_epoch_drops_total").value \
            == result.stale_epoch_drops > 0
        assert metrics.get("pool_renewals_total").value == 1
        assert tracer.count("fence.drop") == result.stale_epoch_drops

        text = Dashboard.from_controller(ctl).summary()
        assert "control plane" in text
        assert "epoch-fence drops" in text
