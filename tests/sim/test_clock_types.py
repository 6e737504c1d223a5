"""No NumPy scalar on the simulated clock, in the protocol cores' per-slot
lists, or in results.

``np.float64`` carries the same IEEE bits as ``float`` but its
arithmetic and compares run several times slower, and it is contagious:
one NumPy-typed timer deadline that *fires* becomes ``sim.now`` and
from there every busy chain, arrival time and heap key derived from it.
The protocol cores therefore hold their per-slot state in plain lists
of builtins, which is what the per-packet code reads.  These tests pin
that: every configuration below makes timers fire, and the clock is
audited during the run (stepping loop) and after it.
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
from repro.core.protocol import SwitchSlotState
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
# the protocol cores hold builtins only
# ----------------------------------------------------------------------

def _state_lists(st):
    lists = {n: v for n, v in vars(st).items() if isinstance(v, list)}
    if isinstance(st, SwitchSlotState):
        lists["count.cells"] = st.count.cells
        lists["seen.cells"] = st.seen.cells
    return lists


@pytest.mark.parametrize("eps", [0.0, 2e-5], ids=["per_packet", "window"])
def test_protocol_state_lists_hold_builtins(eps):
    """Every per-slot list of both cores, after a lossy run on either
    path, holds builtin ``int`` / ``float`` / ``bool`` only: these are
    what the per-packet code reads into deadlines and the clock."""
    job = SwitchMLJob(SwitchMLConfig(
        num_workers=4, pool_size=16, elements_per_packet=K, seed=7,
        loss_factory=_lossy, burst_epsilon=eps,
    ))
    res = job.all_reduce(_tensors(4, K * 16 * 24), verify=True)
    assert res.completed and res.retransmissions > 0
    states = [w._st for w in job.workers] + [job.program.state]
    kinds = {
        "off": int, "ver": int, "next_ver": int, "arm_seq": int,
        "retries": int, "sent_at": float, "deadline": float,
        "backoff": float, "retransmitted": bool,
        "seen_pop": int, "off_cells": int, "count.cells": int,
        "seen.cells": int,
    }
    seen = set()
    for st in states:
        for name, values in _state_lists(st).items():
            seen.add(name)
            assert {type(v) for v in values} <= {kinds[name]}, name
    assert seen == set(kinds)


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
