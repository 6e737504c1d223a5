"""No NumPy scalar on the simulated clock, in the SoA cores' scalar
handles, or in results.

``np.float64`` carries the same IEEE bits as ``float`` but its
arithmetic and compares run several times slower, and it is contagious:
one NumPy-typed timer deadline that *fires* becomes ``sim.now`` and
from there every busy chain, arrival time and heap key derived from it.
The SoA cores therefore expose each array twice -- the ndarray for
whole-batch bodies, a ``memoryview`` of the same storage for
one-element access -- and the per-packet path reads only the views.
These tests pin that: every configuration below makes timers fire, and
the clock is audited during the run (stepping loop) and after it.
"""

import gc

import numpy as np
import pytest

from repro import SwitchMLConfig, SwitchMLJob
from repro.controlplane import (
    ControlPlaneConfig,
    Controller,
    CrashWorker,
    FaultInjector,
    FaultPlan,
)
from repro.core.protocol import SwitchSlotState, WorkerSlotState
from repro.dataplane.registers import RegisterArray
from repro.net.fabric import (
    CrashSpine,
    FabricConfig,
    FabricFaultInjector,
    FabricFaultPlan,
    FabricJob,
)
from repro.net.link import Link, LinkSpec
from repro.net.loss import BernoulliLoss
from repro.obs import Observability
from repro.sim.engine import Simulator
from repro.sim.resources import SerialResource

K = 32


def _tensors(workers, elements, seed=7):
    rng = np.random.default_rng([seed, workers])
    return [rng.integers(-1000, 1000, elements, dtype=np.int64) for _ in range(workers)]


def _lossy():
    return BernoulliLoss(0.01)


# ----------------------------------------------------------------------
# the audit
# ----------------------------------------------------------------------

def _is_float(x, what):
    assert type(x) is float, f"{what} is {type(x).__name__}: {x!r}"


def _no_numpy_scalars(obj, what):
    for name, value in vars(obj).items():
        assert not isinstance(value, np.generic), (
            f"{what}.{name} is {type(value).__name__}"
        )


class _Audit:
    """Everything clock-typed that hangs off one simulator."""

    def __init__(self, sim, workers):
        self.sim = sim
        self.workers = list(workers)
        mine = [o for o in gc.get_objects()
                if isinstance(o, (Link, SerialResource)) and o.sim is sim]
        self.links = [o for o in mine if isinstance(o, Link)]
        self.cores = [o for o in mine if isinstance(o, SerialResource)]
        assert self.links and self.cores
        self.checks = 0

    def __call__(self):
        sim = self.sim
        self.checks += 1
        _is_float(sim.now, "sim.now")
        for entry in sim._heap:
            _is_float(entry[0], "near-heap key")
        for bucket in sim._buckets.values():
            for entry in bucket:
                _is_float(entry[0], "wheel key")
        for link in self.links:
            _is_float(link._busy_until, f"{link.name}._busy_until")
            _no_numpy_scalars(link, link.name)
            _no_numpy_scalars(link.stats, f"{link.name}.stats")
        for core in self.cores:
            _is_float(core.busy_until, f"{core.name}.busy_until")
            _no_numpy_scalars(core, core.name)
        for w in self.workers:
            who = f"worker{w.wid}"
            if w._srtt is not None:
                _is_float(w._srtt, f"{who}._srtt")
            _is_float(w._rttvar, f"{who}._rttvar")
            _is_float(w._rtt_peak, f"{who}._rtt_peak")
            _is_float(w.stats.rtt_sum, f"{who}.stats.rtt_sum")
            _is_float(w.stats.mean_rtt, f"{who}.stats.mean_rtt")
            _is_float(w.stats.start_time, f"{who}.stats.start_time")
            _is_float(w.stats.finish_time, f"{who}.stats.finish_time")
            _is_float(w._deadline_armed_at, f"{who}._deadline_armed_at")
            _no_numpy_scalars(w, who)
            _no_numpy_scalars(w.stats, f"{who}.stats")


def _step_audited(sim: Simulator, audit: _Audit, every: int = 40) -> None:
    """Replace ``sim.run_deadline`` with its documented equivalent --
    ``while step(): if now > deadline: break`` -- auditing as it goes."""

    def run_deadline(deadline: float) -> None:
        sim._stop = False
        fired = 0
        while sim.step():
            fired += 1
            if fired % every == 0:
                audit()
            if sim.now > deadline or sim._stop:
                break
        sim._stop = False

    sim.run_deadline = run_deadline


def _audit_buckets(obs):
    col = obs.telemetry.collector
    series = {**col.links, **col.switches}
    assert any(len(s) for s in series.values())
    for name, s in series.items():
        for b in s.intervals():
            for f in type(b).__slots__:
                v = getattr(b, f)
                assert type(v) in (int, float), (
                    f"{name} bucket {b.idx}.{f} is {type(v).__name__}"
                )


def _check_stats(worker_stats, retransmissions):
    # a fired timer is what used to leak: the run must have had some
    assert retransmissions > 0
    for s in worker_stats:
        _is_float(s.tensor_aggregation_time, "tensor_aggregation_time")
        _is_float(s.mean_rtt, "mean_rtt")


# ----------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------

RACKS = {
    "loss": dict(),
    "loss_jitter": dict(link=LinkSpec(jitter_s=2e-6)),
    "adaptive": dict(timeout_mode="adaptive"),
    "burst_eps": dict(burst_epsilon=2e-5),
    "telemetry": dict(telemetry=True),
}


@pytest.mark.parametrize("name", sorted(RACKS))
def test_rack_clock_is_builtin_float(name):
    knobs = dict(RACKS[name])
    obs = None
    if knobs.pop("telemetry", False):
        obs = Observability(metrics_enabled=True, tracing_enabled=False, telemetry=True)
    job = SwitchMLJob(SwitchMLConfig(
        num_workers=4, pool_size=16, elements_per_packet=K, seed=7,
        loss_factory=_lossy, obs=obs, **knobs,
    ))
    audit = _Audit(job.sim, job.workers)
    _step_audited(job.sim, audit)
    res = job.all_reduce(_tensors(4, K * 16 * 24), verify=True)
    assert res.completed and audit.checks > 10
    audit()
    _check_stats(res.worker_stats, res.retransmissions)
    _is_float(res.max_tat, "max_tat")
    for t in res.tats:
        _is_float(t, "tats[i]")
    _is_float(res.mean_tat, "mean_tat")
    _is_float(res.mean_rtt, "mean_rtt")
    if obs is not None:
        _audit_buckets(obs)


def test_controller_crash_clock_is_builtin_float():
    ctl = Controller(ControlPlaneConfig(
        num_workers=4, pool_size=16, elements_per_packet=K, seed=7,
        loss_factory=_lossy,
    ))
    FaultInjector(ctl, FaultPlan([CrashWorker(2, 8e-6)])).arm()
    audit = _Audit(ctl.sim, ctl.workers.values())
    _step_audited(ctl.sim, audit)
    res = ctl.run_collective(_tensors(4, K * 16 * 8), deadline_s=30.0, verify=True)
    assert res.completed and res.recoveries and audit.checks > 10
    audit.workers = list(ctl.endpoints.values())
    audit()
    _is_float(res.elapsed_s, "elapsed_s")
    stats = [w.stats for w in ctl.endpoints.values()]
    _check_stats(stats, sum(s.retransmissions for s in stats))


def test_fabric_crash_spine_clock_is_builtin_float():
    job = FabricJob(FabricConfig(
        num_leaves=2, num_spines=2, workers_per_leaf=4, pool_size=16,
        elements_per_packet=K, seed=7, loss_factory=_lossy,
    ))
    FabricFaultInjector(
        job, FabricFaultPlan([CrashSpine(job.active_spine, 8e-6)])
    ).arm()
    audit = _Audit(job.sim, job.workers)
    _step_audited(job.sim, audit)
    res = job.all_reduce(_tensors(8, K * 16 * 8), deadline_s=30.0, verify=True)
    assert res.completed and res.reroutes and audit.checks > 10
    audit()
    _check_stats(res.worker_stats, res.retransmissions)
    _is_float(res.elapsed_s, "elapsed_s")
    for r in res.reroutes:
        _is_float(r.recovery_time, "recovery_time")


# ----------------------------------------------------------------------
# one storage, two handles
# ----------------------------------------------------------------------

def _aliased(array, view):
    return isinstance(view, memoryview) and view.obj is array


class TestScalarViews:
    def test_worker_views_hand_back_builtins(self):
        st = WorkerSlotState(4)
        for name in WorkerSlotState.ARRAY_FIELDS:
            view = getattr(st, name + "_v")
            assert _aliased(getattr(st, name), view), name
            assert type(view[0]) in (int, float, bool), name
        st.backoff[2] = 8.0
        assert st.backoff_v[2] == 8.0
        st.deadline_v[1] = 0.5
        assert st.deadline[1] == 0.5 and st.min_deadline() == 0.5

    def test_worker_views_survive_snapshot_restore_begin(self):
        st = WorkerSlotState(4)
        views = {n: getattr(st, n + "_v") for n in WorkerSlotState.ARRAY_FIELDS}
        st.off[1], st.backoff[1], st.retransmitted[1] = 64, 4.0, True
        snap = st.snapshot()
        st.begin(start_time=1.0)
        assert views["off"][1] == 0 and views["backoff"][1] == 4.0  # sticky
        st.backoff[1] = 1.0
        st.restore(snap)
        for name in WorkerSlotState.ARRAY_FIELDS:
            assert getattr(st, name + "_v") is views[name], name
            assert _aliased(getattr(st, name), views[name]), name
        assert views["off"][1] == 64 and views["backoff"][1] == 4.0
        assert views["retransmitted"][1] is True

    def test_switch_views_survive_reset_restore(self):
        st = SwitchSlotState(num_workers=3, pool_size=4, elements_per_packet=2)
        handles = {
            "seen": (st.seen_bits, st.seen_v),
            "count": (st.count_cells, st.count_v),
            "pop": (st.seen_pop, st.pop_v),
            "off": (st.off_cells, st.off_v),
        }
        for name, (array, view) in handles.items():
            assert _aliased(array, view), name
        st.seen_v[5], st.count_v[2], st.pop_v[2], st.off_v[2] = 1, 2, 1, 96
        assert (st.seen_bits[5], st.count_cells[2], st.seen_pop[2], st.off_cells[2]) \
            == (1, 2, 1, 96)
        snap = st.snapshot()
        st.reset()
        assert (st.seen_v[5], st.count_v[2], st.pop_v[2], st.off_v[2]) == (0, 0, 0, -1)
        st.restore(snap)
        assert (st.seen_v[5], st.count_v[2], st.pop_v[2], st.off_v[2]) == (1, 2, 1, 96)
        for name, (array, view) in handles.items():
            assert _aliased(array, view), name
        assert type(st.off_v[2]) is int and type(st.count_v[2]) is int

    def test_worker_reconfigure_rebinds_views_with_arrays(self):
        job = SwitchMLJob(SwitchMLConfig(num_workers=2, pool_size=8,
                                         elements_per_packet=K, seed=1))
        w = job.workers[0]
        old = w._st
        w.reconfigure(pool_size=4)
        st = w._st
        assert st is not old and st.s == 4
        st.backoff[3] = 16.0
        assert w._slot_backoff[3] == 16.0 and type(w._slot_backoff[3]) is float
        for alias, name in (
            (w._slot_off, "off"), (w._slot_ver, "ver"), (w._next_ver, "next_ver"),
            (w._slot_sent_at, "sent_at"), (w._slot_retransmitted, "retransmitted"),
            (w._slot_retries, "retries"), (w._slot_backoff, "backoff"),
        ):
            assert _aliased(getattr(st, name), alias), name


class TestRegisterWrap:
    """``add_range`` / ``write_range`` wrap int64 inputs outside int32
    (both signs) at the cell width, exactly like an ``astype(int32)``
    of the input -- the temporary ``write_range`` no longer allocates."""

    VALUES = np.array(
        [0, 1, -1, 2**31 - 1, 2**31, -(2**31), -(2**31) - 1, 2**32 + 5,
         -(2**32) - 5, 2**40 + 3, -(2**40) - 3, 2**62, -(2**62)],
        dtype=np.int64,
    )

    def test_write_range_wraps_like_astype(self):
        reg = RegisterArray("pool", len(self.VALUES), 32)
        reg.write_range(0, len(self.VALUES), self.VALUES)
        np.testing.assert_array_equal(reg._cells, self.VALUES.astype(np.int32))

    def test_add_range_wraps_like_astype(self):
        n = len(self.VALUES)
        base = np.array([2**31 - 1, -(2**31), 7] * n, dtype=np.int32)[:n]
        reg = RegisterArray("pool", n, 32)
        reg._cells[:] = base
        out = reg.add_range(0, n, self.VALUES)
        expected = base.copy()
        with np.errstate(over="ignore"):
            expected += self.VALUES.astype(np.int32)
        np.testing.assert_array_equal(reg._cells, expected)
        assert out.base is reg._cells  # still the live view
        # and again on top, both signs accumulating past the width
        reg.add_range(0, n, self.VALUES[::-1].copy())
        with np.errstate(over="ignore"):
            expected += self.VALUES[::-1].astype(np.int32)
        np.testing.assert_array_equal(reg._cells, expected)
