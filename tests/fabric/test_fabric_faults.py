"""Cross-rack failure regression suite: crash, flap, straggler, fencing.

The fabric analogue of tests/controlplane/test_recovery_e2e.py: every
scenario must end with bit-correct tensors (``verify=True`` raises
otherwise), the right number of reroutes, a bumped pool epoch where a
re-homing happened, and recovery metrics visible through ``repro.obs``.
"""

import numpy as np
import pytest

from repro.core.hierarchy import RackAggregatorProgram
from repro.core.packet import SwitchMLPacket
from repro.core.switch_program import SwitchAction
from repro.net.fabric import (
    CongestTrunk,
    CrashSpine,
    FabricConfig,
    FabricFaultInjector,
    FabricFaultPlan,
    FabricJob,
    FlapFabricLink,
    StragglerRack,
)
from repro.obs.base import Observability

N_ELEM = 32 * 8 * 40  # long enough that mid-run faults land mid-run


def make_job(obs=None, seed=3, **cfg_kwargs):
    cfg_kwargs.setdefault("num_leaves", 4)
    cfg_kwargs.setdefault("num_spines", 2)
    cfg_kwargs.setdefault("workers_per_leaf", 4)
    return FabricJob(FabricConfig(obs=obs, seed=seed, **cfg_kwargs))


def run(job, n_elem=N_ELEM, deadline_s=5.0):
    rng = np.random.default_rng(11)
    tensors = [
        rng.integers(-50, 50, n_elem).astype(np.int64)
        for _ in range(job.config.num_workers)
    ]
    return job.all_reduce(tensors, deadline_s=deadline_s)


class TestSpineCrash:
    def test_reroute_recovers_bit_correct(self):
        obs = Observability(tracing_enabled=False)
        job = make_job(obs=obs)
        victim = job.active_spine
        FabricFaultInjector(
            job, FabricFaultPlan().add(CrashSpine(spine=victim, at_s=2e-4))
        ).arm()
        res = run(job)  # verify=True: raises unless tensors are exact
        assert res.completed
        assert res.state == "monitoring"
        assert res.epoch == 1
        assert len(res.reroutes) == 1
        r = res.reroutes[0]
        assert r.cause == "spine-dead"
        assert r.from_spine == victim
        assert r.to_spine is not None and r.to_spine != victim
        assert r.epoch_before == 0 and r.epoch_after == 1
        assert r.recovery_time > 0
        assert r.detection_lag > 0
        assert r.recovery_time >= r.detection_lag

    def test_recovery_metrics_through_obs(self):
        obs = Observability(tracing_enabled=False)
        job = make_job(obs=obs)
        victim = job.active_spine
        FabricFaultInjector(
            job, FabricFaultPlan().add(CrashSpine(spine=victim, at_s=2e-4))
        ).arm()
        res = run(job)
        assert res.completed
        assert obs.metrics.counter("fabric_reroutes_total").value == 1
        h = obs.metrics.histogram("fabric_recovery_seconds")
        assert h.count == 1
        assert h.sum == pytest.approx(res.reroutes[0].recovery_time)
        assert obs.metrics.gauge("fabric_active_spine").value == float(
            res.reroutes[0].to_spine
        )

    def test_reroute_traced(self):
        obs = Observability()
        job = make_job(obs=obs)
        FabricFaultInjector(
            job,
            FabricFaultPlan().add(CrashSpine(spine=job.active_spine, at_s=2e-4)),
        ).arm()
        res = run(job)
        assert res.completed
        names = {e.name for e in obs.tracer.events}
        # a crashed CPU is detected directly (it stops beaconing), so the
        # reroute markers are the contract; link_down markers for its
        # trunks may land after the run already finished
        assert "fabric.reroute_start" in names
        assert "fabric.reroute_done" in names

    def test_workers_follow_epoch_and_no_stale_leaks(self):
        job = make_job()
        FabricFaultInjector(
            job,
            FabricFaultPlan().add(CrashSpine(spine=job.active_spine, at_s=2e-4)),
        ).arm()
        res = run(job)
        assert res.completed and res.epoch == 1
        assert all(w.epoch == 1 for w in job.workers)
        # the fences never let old-epoch traffic touch live state; drops
        # are counted, never aggregated (verify above proves the sums)
        assert res.stale_epoch_drops >= 0
        assert job.handle.program.stale_epoch_drops == 0  # fresh pool stayed clean

    def test_crash_of_standby_spine_needs_no_reroute(self):
        job = make_job()
        standby = 1 - job.active_spine
        FabricFaultInjector(
            job, FabricFaultPlan().add(CrashSpine(spine=standby, at_s=2e-4))
        ).arm()
        res = run(job)
        assert res.completed
        assert res.epoch == 0
        assert not res.reroutes


class TestTrunkFlap:
    def test_active_trunk_flap_forces_reroute(self):
        job = make_job()
        active = job.active_spine
        FabricFaultInjector(
            job,
            FabricFaultPlan().add(
                FlapFabricLink(leaf=1, spine=active, at_s=2e-4, down_for_s=3e-3)
            ),
        ).arm()
        res = run(job)
        assert res.completed
        assert res.epoch == 1
        assert len(res.reroutes) == 1
        assert res.reroutes[0].cause == "trunk-down"

    def test_standby_trunk_flap_is_harmless(self):
        obs = Observability(tracing_enabled=False)
        # fast liveness so the flap is detected while the run is going
        job = make_job(obs=obs, probe_interval_s=2e-5, link_down_after_s=1e-4)
        standby = 1 - job.active_spine
        FabricFaultInjector(
            job,
            FabricFaultPlan().add(
                FlapFabricLink(leaf=0, spine=standby, at_s=5e-5, down_for_s=2e-3)
            ),
        ).arm()
        res = run(job)
        assert res.completed
        assert res.epoch == 0
        assert not res.reroutes
        assert obs.metrics.counter("fabric_link_down_total").value >= 1


class TestStragglerRack:
    def test_lossy_rack_slows_but_stays_exact(self):
        clean = run(make_job())
        job = make_job()
        FabricFaultInjector(
            job,
            FabricFaultPlan().add(
                StragglerRack(leaf=2, at_s=2e-4, down_for_s=2e-3, loss=0.3)
            ),
        ).arm()
        res = run(job)
        assert res.completed
        assert not res.reroutes  # trunks stayed healthy; no re-homing
        assert res.retransmissions > clean.retransmissions
        assert res.elapsed_s > clean.elapsed_s


class TestSpineTierExhausted:
    def test_all_spines_dead_fails_closed(self):
        job = make_job()
        plan = FabricFaultPlan()
        for s in range(2):
            plan.add(CrashSpine(spine=s, at_s=2e-4))
        FabricFaultInjector(job, plan).arm()
        res = run(job)
        assert not res.completed
        assert res.state == "failed"
        assert len(res.reroutes) == 1
        assert res.reroutes[0].to_spine is None
        # no lease renewal without a survivor to renew onto
        assert res.epoch == 0
        # the run stops at the verdict instead of sitting out the deadline
        assert res.elapsed_s <= (
            res.reroutes[0].detected_at + job.config.probe_interval_s
        )


class TestEpochFence:
    """Unit-level: the RackAggregatorProgram fence drops without touching
    slot state, in both directions."""

    K = 4

    def pkt(self, wid, epoch, value=1, from_switch=False):
        return SwitchMLPacket(
            wid=wid, ver=0, idx=0, off=0, num_elements=self.K,
            vector=np.full(self.K, value, dtype=np.int64),
            from_switch=from_switch, epoch=epoch,
        )

    def prog(self, epoch):
        return RackAggregatorProgram(
            rack_id=0, num_children=2, pool_size=2,
            elements_per_packet=self.K, epoch=epoch,
        )

    def test_stale_child_dropped_and_counted(self):
        prog = self.prog(epoch=2)
        out = prog.handle_child(self.pkt(0, epoch=1, value=5))
        assert out.action is SwitchAction.DROP
        assert prog.stale_epoch_drops == 1
        # slot untouched: both live children still aggregate to the sum
        prog.handle_child(self.pkt(0, epoch=2, value=5))
        fwd = prog.handle_child(self.pkt(1, epoch=2, value=7))
        assert fwd.action is SwitchAction.MULTICAST
        assert fwd.packet.vector[0] == 12

    def test_stale_result_dropped_and_counted(self):
        prog = self.prog(epoch=1)
        prog.handle_child(self.pkt(0, epoch=1))
        prog.handle_child(self.pkt(1, epoch=1))
        out = prog.handle_result(self.pkt(0, epoch=0, value=9, from_switch=True))
        assert out.action is SwitchAction.DROP
        assert prog.stale_epoch_drops == 1

    def test_forwarded_partial_carries_lease_epoch(self):
        prog = self.prog(epoch=3)
        prog.handle_child(self.pkt(0, epoch=3))
        fwd = prog.handle_child(self.pkt(1, epoch=3))
        assert fwd.action is SwitchAction.MULTICAST
        assert fwd.packet.epoch == 3

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError, match="epoch"):
            self.prog(epoch=-1)


class TestFaultPlanValidation:
    def test_rejects_out_of_range_targets(self):
        job = make_job()
        for bad in [
            CrashSpine(spine=9, at_s=1e-3),
            FlapFabricLink(leaf=9, spine=0, at_s=1e-3, down_for_s=1e-3),
            FlapFabricLink(leaf=0, spine=9, at_s=1e-3, down_for_s=1e-3),
            StragglerRack(leaf=9, at_s=1e-3, down_for_s=1e-3),
        ]:
            with pytest.raises(ValueError):
                FabricFaultInjector(job, FabricFaultPlan().add(bad)).arm()

    def test_rejects_bad_schedule(self):
        job = make_job()
        for bad in [
            CrashSpine(spine=0, at_s=-1.0),
            FlapFabricLink(leaf=0, spine=0, at_s=1e-3, down_for_s=0.0),
            StragglerRack(leaf=0, at_s=1e-3, down_for_s=1e-3, loss=1.5),
        ]:
            with pytest.raises(ValueError):
                FabricFaultInjector(job, FabricFaultPlan().add(bad)).arm()

    def test_arming_twice_rejected(self):
        job = make_job()
        inj = FabricFaultInjector(job, FabricFaultPlan())
        inj.arm()
        with pytest.raises(RuntimeError, match="armed"):
            inj.arm()


class TestFabricFaultPlanRoundTrip:
    def test_dict_roundtrip_all_kinds(self):
        plan = (
            FabricFaultPlan()
            .add(CrashSpine(spine=1, at_s=2e-4))
            .add(FlapFabricLink(leaf=0, spine=1, at_s=3e-4, down_for_s=2e-3))
            .add(StragglerRack(leaf=1, at_s=1e-4, down_for_s=3e-3, loss=0.4))
            .add(CongestTrunk(leaf=0, spine=0, at_s=5e-4, down_for_s=1e-3,
                              fraction=1.1, frame_bytes=1500))
        )
        rebuilt = FabricFaultPlan.from_dict(plan.to_dict())
        assert rebuilt.faults == plan.faults
        assert rebuilt.to_dict() == plan.to_dict()

    def test_dict_form_is_json_serializable(self):
        import json

        plan = FabricFaultPlan([CongestTrunk(leaf=1, spine=0, at_s=1e-4,
                                             down_for_s=2e-3)])
        assert FabricFaultPlan.from_dict(
            json.loads(json.dumps(plan.to_dict()))
        ).faults == plan.faults

    def test_defaults_survive_roundtrip(self):
        # fields left at their dataclass defaults serialize explicitly,
        # so a replay on a future default change still reproduces
        plan = FabricFaultPlan([StragglerRack(leaf=0, at_s=0.0,
                                              down_for_s=1e-3)])
        entry = plan.to_dict()["faults"][0]
        assert entry["loss"] == 0.3
        assert FabricFaultPlan.from_dict(plan.to_dict()).faults == plan.faults

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fabric fault kind"):
            FabricFaultPlan.from_dict(
                {"faults": [{"kind": "solar_flare", "at_s": 0.0}]}
            )
