"""The five benchmark workloads: inputs, build, run, check.

Everything a workload feeds the simulator -- tensors, job parameters,
fault times, link-RNG seeds -- is generated here from ``--seed`` with
the benchmark's own ``np.random.default_rng([seed, tag])``; the program
receives only those inputs.  Real int64 tensors everywhere and
``verify=True``: the phantom-tensor path is not what users run.  On top
of the program's own verification every result is compared here against
the exact sum of the surviving workers' inputs.

A *job spec* is a plain dict; three job kinds cover all five workloads:

``rack``     ``SwitchMLJob.all_reduce``                       (flat rack)
``managed``  ``Controller.run_collective`` + ``CrashWorker``  (control plane)
``fabric``   ``FabricJob.all_reduce`` + ``CrashSpine``        (2-tier Clos)

The module imports nothing from ``repro`` at import time:
:func:`load_surface` does, so that import cost can be timed as part of
``setup_s``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

__all__ = [
    "COUNTERS",
    "WORKLOADS",
    "exact_sum",
    "load_surface",
    "make_config",
]

#: exact counts read from public result fields and attributes after an
#: iteration; a campaign reports their sums over its jobs
COUNTERS = (
    "engine.events",
    "worker.packets_sent",
    "worker.retx",
    "link.frames_lost",
    "switch_program.multicasts",
    "switch_program.unicast_retx",
    "switch_program.ignored_dups",
    "obs.frames_drained",
    "obs.hops_drained",
    "fabric.reroutes",
    "fabric.stale_epoch_drops",
    "controlplane.recoveries",
)

#: ``rack_lossy``'s pinned fingerprint (ROADMAP aim 3; identical to
#: ``repro bench`` fig4_lossy): seed, retransmissions, max TAT to 1 ns
RACK_LOSSY_PINNED = (7, 9645, "0.033694296")


def load_surface() -> SimpleNamespace:
    """Import the repro names the benchmark uses.

    This list is the compatibility surface later PRs must keep (see the
    README); nothing else of ``repro`` is imported by the benchmark.
    """
    from repro import SwitchMLConfig, SwitchMLJob
    from repro.controlplane import (
        ControlPlaneConfig,
        Controller,
        CrashWorker,
        FaultInjector,
        FaultPlan,
    )
    from repro.net.fabric import (
        CrashSpine,
        FabricConfig,
        FabricFaultInjector,
        FabricFaultPlan,
        FabricJob,
    )
    from repro.net.loss import BernoulliLoss, NoLoss
    from repro.obs import Observability

    return SimpleNamespace(**locals())


def make_config(cfg_cls: type, required: dict[str, Any], optional: dict[str, Any]):
    """Build a config dataclass, tolerating knobs that no longer exist.

    ``required`` is always passed; an ``optional`` keyword is passed
    only when ``cfg_cls`` still has that field, so the benchmark runs
    unmodified after the ROADMAP's knob removals.  Returns the config
    and the names of the optional knobs that were applied.
    """
    have = {f.name for f in dataclasses.fields(cfg_cls)}
    applied = {k: v for k, v in optional.items() if k in have}
    return cfg_cls(**required, **applied), sorted(applied)


def exact_sum(tensors: list[np.ndarray]) -> np.ndarray:
    """The aggregate every finishing worker must hold."""
    return np.sum(tensors, axis=0, dtype=np.int64)


def _tensors(rng: np.random.Generator, workers: int, elements: int) -> list[np.ndarray]:
    return [
        rng.integers(-1000, 1000, elements, dtype=np.int64) for _ in range(workers)
    ]


def _loss_factory(S: SimpleNamespace, loss: float) -> Callable[[], Any]:
    return (lambda: S.BernoulliLoss(loss)) if loss > 0.0 else S.NoLoss


# ----------------------------------------------------------------------
# The three job kinds: build (-> setup_s), run (-> wall_s), observe
# ----------------------------------------------------------------------

def _build(S: SimpleNamespace, spec: dict[str, Any]) -> tuple[Any, list[str]]:
    """Config, job/topology/workers and fault arming for one job spec."""
    common = dict(
        pool_size=spec["pool"],
        elements_per_packet=32,
        seed=spec["link_seed"],
        loss_factory=_loss_factory(S, spec["loss"]),
    )
    kind = spec["kind"]
    if kind == "rack":
        optional = dict(spec.get("knobs", ()))
        if spec.get("observed"):
            optional["obs"] = S.Observability(
                metrics_enabled=True, tracing_enabled=False, telemetry=True
            )
        cfg, applied = make_config(
            S.SwitchMLConfig, dict(num_workers=spec["workers"], **common), optional
        )
        return S.SwitchMLJob(cfg), applied
    if kind == "managed":
        cfg, applied = make_config(
            S.ControlPlaneConfig, dict(num_workers=spec["workers"], **common), {}
        )
        ctl = S.Controller(cfg)
        S.FaultInjector(
            ctl, S.FaultPlan([S.CrashWorker(spec["crash_member"], spec["fault_at_s"])])
        ).arm()
        return ctl, applied
    cfg, applied = make_config(
        S.FabricConfig,
        dict(
            num_leaves=spec["leaves"],
            num_spines=2,
            workers_per_leaf=spec["workers"] // spec["leaves"],
            **common,
        ),
        {},
    )
    job = S.FabricJob(cfg)
    S.FabricFaultInjector(
        job, S.FabricFaultPlan([S.CrashSpine(job.active_spine, spec["fault_at_s"])])
    ).arm()
    return job, applied


def _run(spec: dict[str, Any], job: Any) -> Any:
    """The measured call."""
    if spec["kind"] == "rack":
        return job.all_reduce(spec["tensors"], verify=True)
    if spec["kind"] == "managed":
        return job.run_collective(spec["tensors"], deadline_s=30.0, verify=True)
    return job.all_reduce(spec["tensors"], deadline_s=30.0, verify=True)


def _observe(spec: dict[str, Any], job: Any, res: Any) -> dict[str, Any]:
    """Correctness verdict, exact counters and simulated times of one job."""
    counters = dict.fromkeys(COUNTERS, 0)
    recovery_s = 0.0
    kind = spec["kind"]
    if kind == "managed":
        survivors = list(res.survivors)
        results = [res.results[m] for m in survivors]
        stats = [w.stats for w in job.endpoints.values()]
        program = job.handle.program
        counters["link.frames_lost"] = job.rack.total_frames_lost()
        counters["controlplane.recoveries"] = len(res.recoveries)
        max_tat = res.elapsed_s
    else:
        survivors = list(range(spec["workers"]))
        results = list(res.results)
        stats = res.worker_stats
        max_tat = res.max_tat
        if kind == "rack":
            program = job.program
            counters["link.frames_lost"] = res.frames_lost
            telemetry = job.obs.telemetry
            if telemetry is not None:
                counters["obs.frames_drained"] = telemetry.collector.frames_drained
                counters["obs.hops_drained"] = telemetry.collector.hops_drained
        else:
            program = job.handle.program
            counters["link.frames_lost"] = job.fabric.total_frames_lost()
            counters["fabric.reroutes"] = len(res.reroutes)
            counters["fabric.stale_epoch_drops"] = res.stale_epoch_drops
            recovery_s = max((r.recovery_time for r in res.reroutes), default=0.0)
    counters["engine.events"] = job.sim.events_processed
    counters["worker.packets_sent"] = sum(s.packets_sent for s in stats)
    counters["worker.retx"] = sum(s.retransmissions for s in stats)
    counters["switch_program.multicasts"] = program.multicasts
    counters["switch_program.unicast_retx"] = program.unicast_retransmits
    counters["switch_program.ignored_dups"] = program.ignored_duplicates

    expected = exact_sum([spec["tensors"][m] for m in survivors])
    exact = bool(res.completed) and all(
        r is not None and np.array_equal(r, expected) for r in results
    )
    digest = hashlib.sha256(
        np.ascontiguousarray(results[0]).tobytes() if exact else b""
    ).hexdigest()[:16]
    return {
        "ok": exact,
        "counters": counters,
        "sim": {"max_tat_s": float(max_tat), "recovery_s": float(recovery_s)},
        "fingerprint": [
            bool(res.completed), survivors, repr(float(max_tat)), digest,
            [counters[c] for c in COUNTERS],
        ],
        "backend": getattr(program, "backend", "numpy"),
    }


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

class Workload:
    """One named set of inputs.

    ``specs(seed, scale)`` generates the job specs; :meth:`iteration`
    builds and runs each once.  ``wall_s`` is the measured call alone
    for single-job workloads; a campaign's wall also covers its builds,
    because that is what a sweep user waits on.
    """

    def __init__(
        self,
        name: str,
        work_unit: str,
        specs: Callable[[int, float], list[dict[str, Any]]],
        wall_includes_build: bool = False,
        pinned: tuple[int, int, str] | None = None,
    ):
        self.name = name
        self.work_unit = work_unit
        self.specs = specs
        self.wall_includes_build = wall_includes_build
        self.pinned = pinned

    def warmup(self, S: SimpleNamespace, seed: int) -> None:
        """One tiny job per kind the workload uses: loads lazy backends
        and fills caches, so the timed iterations do not pay for them
        (``setup_s`` does)."""
        for spec in self.specs(seed, 0.0):
            job, _ = _build(S, spec)
            if not _observe(spec, job, _run(spec, job))["ok"]:
                raise RuntimeError(f"{self.name}: warm-up job is not exact")

    def iteration(
        self, S: SimpleNamespace, specs: list[dict[str, Any]], profiler: Any = None
    ) -> dict[str, Any]:
        """Build and run every spec once; returns times, verdicts, counters.

        With a ``profiler`` the measured region (and nothing else) runs
        under it.
        """
        build_s = run_s = 0.0
        failed = 0
        counters = dict.fromkeys(COUNTERS, 0)
        sim = {"max_tat_s": 0.0, "recovery_s": 0.0}
        fingerprint = []
        applied: set[str] = set()
        backends: set[str] = set()
        profile_build = profiler is not None and self.wall_includes_build
        for spec in specs:
            if profile_build:
                profiler.enable()
            t0 = time.perf_counter()
            job, knobs = _build(S, spec)
            t1 = time.perf_counter()
            if profiler is not None and not profile_build:
                profiler.enable()
            t2 = time.perf_counter()
            res = _run(spec, job)
            t3 = time.perf_counter()
            if profiler is not None:
                profiler.disable()
            build_s += t1 - t0
            run_s += t3 - t2
            seen = _observe(spec, job, res)
            failed += not seen["ok"]
            for name, value in seen["counters"].items():
                counters[name] += value
            for name, value in seen["sim"].items():
                sim[name] = max(sim[name], value)
            fingerprint.append(seen["fingerprint"])
            applied.update(knobs)
            backends.add(seen["backend"])
        work = len(specs) if self.work_unit == "jobs" else counters["worker.packets_sent"]
        return {
            "build_s": build_s,
            "wall_s": run_s + build_s if self.wall_includes_build else run_s,
            "work": work,
            "attempted": len(specs),
            "failed": failed,
            "counters": counters,
            "sim": sim,
            "fingerprint": hashlib.sha256(repr(fingerprint).encode()).hexdigest()[:16],
            "knobs_applied": sorted(applied),
            "backend_effective": "+".join(sorted(backends)),
        }

    def pinned_ok(self, seed: int, scale: float, it: dict[str, Any]) -> bool:
        """At its pinned seed and full scale the workload must reproduce
        the repo's tracked fingerprint."""
        if self.pinned is None or seed != self.pinned[0] or scale != 1.0:
            return True
        return (
            it["counters"]["worker.retx"] == self.pinned[1]
            and f"{it['sim']['max_tat_s']:.9f}" == self.pinned[2]
        )


def _scaled(full: int, scale: float, floor: int) -> int:
    """``full * scale`` in whole packets of 32 elements, at least ``floor``."""
    return max(floor, int(full * scale) // 32 * 32)


def _rack_specs(tag: int, loss: float, knobs: dict[str, Any] | None = None,
                observed: bool = False, patterns: int = 1):
    """The Fig. 4 rack: 8 workers, pool 128, k=32, 262 144 elements each.

    ``patterns`` > 1 runs the same rack and tensors under that many
    independent loss patterns per iteration (link seed ``seed`` first,
    the rest drawn), so one unlucky pattern does not set the number.
    """
    def specs(seed: int, scale: float) -> list[dict[str, Any]]:
        rng = np.random.default_rng([seed, tag])
        tensors = _tensors(rng, 8, _scaled(262144, scale, 8192))
        link_seeds = [seed] + [int(s) for s in rng.integers(1, 2**31, patterns - 1)]
        return [{
            "kind": "rack", "workers": 8, "pool": 128, "loss": loss,
            "link_seed": link_seed, "knobs": knobs or {}, "observed": observed,
            "tensors": tensors,
        } for link_seed in link_seeds[: patterns if scale > 0 else 1]]
    return specs


def _fabric_specs(seed: int, scale: float) -> list[dict[str, Any]]:
    """16 leaves x 32 workers, 2 spines, pool 8; the active spine crashes
    at 0.2 ms, mid-flight.  The warm-up (scale 0) is a 2 x 2 fabric."""
    rng = np.random.default_rng([seed, 4])
    leaves, per_leaf = (16, 32) if scale > 0 else (2, 2)
    return [{
        "kind": "fabric", "leaves": leaves, "workers": leaves * per_leaf,
        "pool": 8, "loss": 0.0, "link_seed": seed, "fault_at_s": 2e-4,
        "tensors": _tensors(rng, leaves * per_leaf, _scaled(8192, scale, 512)),
    }]


_SWEEP_KINDS = ("rack", "managed", "fabric")
_SWEEP_WORKERS = (2, 4, 8, 16)
_SWEEP_PACKETS = (64, 128, 256, 384, 512)
_SWEEP_POOLS = (8, 16, 64, 128)
_SWEEP_LOSSES = (0.0, 0.01, 0.05)


def _sweep_specs(seed: int, scale: float) -> list[dict[str, Any]]:
    """A campaign of 60 small jobs.

    The job shapes are the full cross of kind x workers x packets, with
    pool and loss assigned by a fixed Latin pattern: the driver compares
    runs of *different* seeds, and a free draw of shapes made campaign
    size swing by several percent between seeds.  The RNG draws what
    does not change the amount of work: job order, tensors, link seeds,
    the crashed member and the fault time (4-14 us, always mid-flight).
    The warm-up (scale 0) is the smallest job of each kind.
    """
    rng = np.random.default_rng([seed, 5])
    grid = [
        (k, w, p)
        for k in range(len(_SWEEP_KINDS))
        for w in range(len(_SWEEP_WORKERS))
        for p in range(len(_SWEEP_PACKETS))
    ]
    if scale <= 0:
        grid = [(k, 0, 0) for k in range(len(_SWEEP_KINDS))]
    specs = []
    for i in rng.permutation(len(grid)):
        k, w, p = grid[i]
        workers = _SWEEP_WORKERS[w]
        packets = max(8, int(_SWEEP_PACKETS[p] * min(scale, 1.0))) if scale > 0 else 16
        specs.append({
            "kind": _SWEEP_KINDS[k], "workers": workers, "leaves": 2,
            "pool": _SWEEP_POOLS[(w + p + k) % 4],
            "loss": _SWEEP_LOSSES[(w + 2 * p + k) % 3],
            "link_seed": int(rng.integers(1, 2**31)),
            "crash_member": int(rng.integers(0, workers)),
            "fault_at_s": float(rng.uniform(4e-6, 14e-6)),
            "tensors": _tensors(rng, workers, 32 * packets),
        })
    return specs


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "rack_lossy", "packets", _rack_specs(1, 0.01), pinned=RACK_LOSSY_PINNED
        ),
        Workload(
            "rack_train", "packets",
            # with the eps window the event count follows how losses
            # cluster (21 k-24 k by pattern, against 370 k-373 k on
            # rack_lossy), so one pattern per run is too few
            _rack_specs(2, 0.01, patterns=4, knobs={
                "burst_epsilon": 2e-5, "granularity": "burst", "train_egress": True,
            }),
        ),
        Workload("rack_observed", "packets", _rack_specs(3, 0.0, observed=True)),
        Workload("fabric_crash_512", "packets", _fabric_specs),
        Workload("sweep_small_jobs", "jobs", _sweep_specs, wall_includes_build=True),
    )
}
