"""The scenario fuzzer: random fault plans, checked invariants.

Hand-written fault tests cover isolated failures; the open ROADMAP
directions (sharding, multi-job, FP/sparse modes) need the protocol's
self-recovery validated under *composed* adversity -- crash storms
during flap bursts on lossy, jittered links, on both execution paths.
Each fuzz draw:

1. deterministically generates a scenario from its seed -- a domain
   (flat rack / controller-managed rack / Clos fabric), protocol knobs
   (loss, jitter, epsilon window, stragglers),
   and a random :class:`FaultPlan` / :class:`FabricFaultPlan`;
2. runs it and asserts the tier-1 invariants
   (:mod:`repro.sweep.invariants`): exact sums, bounded recovery,
   epoch fencing, obs/trace consistency.  A crash anywhere in the run
   is itself a violation;
3. records the draw in serialized form (plans via
   ``FaultPlan.to_dict``), so any failure replays standalone with
   :func:`replay_draw` and shrinks with :func:`minimize_failure`.

Sharding a fuzz budget across cores rides the sweep orchestrator: the
``"fuzz"`` scenario in :mod:`repro.sweep.scenarios` wraps
:func:`run_draw_task`, so ``repro fuzz --budget 200 --procs 8`` is just
a 200-task sweep whose artifact doubles as the replay corpus.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.sweep.invariants import (
    check_completed,
    check_epoch_fencing,
    check_exact,
    check_obs_consistency,
)
from repro.sweep.scenarios import check_knobs
from repro.sweep.tasks import TaskSpec, derive_seed

__all__ = [
    "DOMAINS",
    "DrawResult",
    "FuzzReport",
    "draw_scenario",
    "minimize_failure",
    "replay_draw",
    "run_draw",
    "run_draw_task",
    "run_fuzz",
]

DOMAINS = ("flat", "rack", "fabric")

#: simulated-time horizons per domain (the bounded-recovery invariant)
_HORIZONS = {"flat": 10.0, "rack": 2.0, "fabric": 5.0}

#: the knobs each domain's runner reads; a draw carrying any other (a
#: replay line from before a knob was removed, say) is rejected
_KNOBS = {
    "flat": frozenset({
        "workers", "pool", "elements", "loss", "jitter_us", "burst_epsilon",
        "start_times_us",
    }),
    "rack": frozenset({"workers", "pool", "elements", "loss"}),
    "fabric": frozenset({
        "leaves", "spines", "workers_per_leaf", "pool", "elements", "loss",
    }),
}


# ----------------------------------------------------------------------
# draw generation (pure function of the seed)
# ----------------------------------------------------------------------

def draw_scenario(
    seed: int, domains: tuple[str, ...] = DOMAINS
) -> dict[str, Any]:
    """Generate one fuzz draw deterministically from ``seed``.

    The returned dict is self-contained and JSON-serializable: domain,
    protocol knobs, the serialized fault plan, and the simulation seed.
    Same seed, same draw -- on any machine, in any process.
    """
    if not domains:
        raise ValueError("need at least one fuzz domain")
    for d in domains:
        if d not in DOMAINS:
            raise ValueError(f"unknown fuzz domain {d!r} (have {DOMAINS})")
    rng = np.random.default_rng([seed, 0xF0_22])
    domain = str(domains[int(rng.integers(len(domains)))])
    run_seed = int(rng.integers(1 << 48))
    draw: dict[str, Any] = {"domain": domain, "run_seed": run_seed}
    if domain == "flat":
        draw.update(_draw_flat(rng))
    elif domain == "rack":
        draw.update(_draw_rack(rng))
    else:
        draw.update(_draw_fabric(rng))
    return draw


def _draw_flat(rng: np.random.Generator) -> dict[str, Any]:
    knobs: dict[str, Any] = {
        "workers": int(rng.integers(2, 6)),
        "pool": int([8, 16][int(rng.integers(2))]),
        "elements": 32 * int(rng.integers(64, 192)),
        "loss": float([0.0, 0.01, 0.05][int(rng.integers(3))]),
        "jitter_us": float([0.0, 0.0, 2.0][int(rng.integers(3))]),
        # the execution shape: epsilon picks the path (0 = per-packet,
        # > 0 = window-coalesced trains)
        "burst_epsilon": float([0.0, 5e-6, 2e-5, 5e-5][int(rng.integers(4))]),
    }
    # stragglers: skewed gradient availability at some workers
    if rng.random() < 0.3:
        knobs["start_times_us"] = [
            float(rng.integers(0, 200)) for _ in range(knobs["workers"])
        ]
    return {"knobs": knobs}


def _draw_rack(rng: np.random.Generator) -> dict[str, Any]:
    workers = int(rng.integers(3, 6))
    knobs = {
        "workers": workers,
        "pool": 16,
        "elements": 32 * 400,
        "loss": float([0.0, 0.0, 0.01][int(rng.integers(3))]),
    }
    faults: list[dict[str, Any]] = []
    # crash storm: up to workers-2 fail-stops (keep >= 2 survivors so
    # the plan is survivable and bounded recovery is a fair invariant)
    n_crash = int(rng.integers(0, min(3, workers - 1)))
    victims = rng.choice(workers, size=n_crash, replace=False)
    for member in victims:
        faults.append({
            "kind": "crash_worker",
            "member": int(member),
            "at_s": round(float(rng.uniform(0.0, 8e-4)), 9),
        })
    if rng.random() < 0.35:
        faults.append({
            "kind": "reboot_switch",
            "at_s": round(float(rng.uniform(0.0, 8e-4)), 9),
            "down_for_s": round(float(rng.uniform(1e-3, 8e-3)), 9),
        })
    # flap burst: short and long windows; a long flap evicts an alive
    # worker and heals into a zombie the epoch fence must hold off
    for _ in range(int(rng.integers(0, 3))):
        faults.append({
            "kind": "flap_link",
            "member": int(rng.integers(workers)),
            "at_s": round(float(rng.uniform(0.0, 8e-4)), 9),
            "down_for_s": round(float(rng.uniform(1e-3, 1.2e-2)), 9),
        })
    return {"knobs": knobs, "plan": {"faults": faults}}


def _draw_fabric(rng: np.random.Generator) -> dict[str, Any]:
    num_leaves = int(rng.integers(2, 4))
    num_spines = 2
    knobs = {
        "leaves": num_leaves,
        "spines": num_spines,
        "workers_per_leaf": 2,
        "pool": 16,
        "elements": 32 * 120,
        "loss": float([0.0, 0.0, 0.01][int(rng.integers(3))]),
    }
    faults: list[dict[str, Any]] = []
    # at most spines-1 spine crashes: some spine must survive to home
    # the pool, else bounded recovery is unachievable by construction
    n_crash = int(rng.integers(0, num_spines))
    doomed = rng.choice(num_spines, size=n_crash, replace=False)
    for spine in doomed:
        faults.append({
            "kind": "crash_spine",
            "spine": int(spine),
            "at_s": round(float(rng.uniform(0.0, 8e-4)), 9),
        })
    for _ in range(int(rng.integers(0, 3))):
        kind = ["flap_fabric_link", "straggler_rack", "congest_trunk"][
            int(rng.integers(3))
        ]
        fault: dict[str, Any] = {
            "kind": kind,
            "leaf": int(rng.integers(num_leaves)),
            "at_s": round(float(rng.uniform(0.0, 8e-4)), 9),
            "down_for_s": round(float(rng.uniform(1e-3, 4e-3)), 9),
        }
        if kind == "flap_fabric_link":
            fault["spine"] = int(rng.integers(num_spines))
        elif kind == "straggler_rack":
            fault["loss"] = round(float(rng.uniform(0.1, 0.5)), 6)
        else:
            fault["spine"] = int(rng.integers(num_spines))
            fault["fraction"] = round(float(rng.uniform(0.7, 1.3)), 6)
        faults.append(fault)
    return {"knobs": knobs, "plan": {"faults": faults}}


# ----------------------------------------------------------------------
# running a draw
# ----------------------------------------------------------------------

def run_draw(draw: dict[str, Any]) -> dict[str, Any]:
    """Run one draw and check every invariant.

    Returns ``{"violations": [...], "observables": {...}}``.  A crash
    anywhere inside the simulation is reported as a violation (kind
    ``crash:``) rather than raised: an unhandled exception under a
    legal fault plan is a finding, and findings must land in the
    artifact where they can be replayed and minimized.  A draw naming
    a knob its domain does not read is not a finding but a malformed
    line: ``ValueError``.
    """
    domain = draw["domain"]
    runner = {
        "flat": _run_flat,
        "rack": _run_rack,
        "fabric": _run_fabric,
    }.get(domain)
    if runner is None:
        raise ValueError(f"unknown fuzz domain {domain!r} (have {DOMAINS})")
    check_knobs(draw.get("knobs", ()), _KNOBS[domain], f"fuzz {domain} draw")
    try:
        return runner(draw)
    except Exception as exc:  # noqa: BLE001 - a finding, not a flake
        return {
            "violations": [f"crash: {type(exc).__name__}: {exc}"],
            "observables": {
                "traceback": traceback.format_exc(limit=20),
            },
        }


def _tensors(num_workers: int, num_elements: int, seed: int):
    from repro.sweep.scenarios import tensors_for

    return tensors_for(num_workers, num_elements, seed)


def _run_flat(draw: dict[str, Any]) -> dict[str, Any]:
    from repro.core.job import SwitchMLConfig, SwitchMLJob
    from repro.net.link import LinkSpec
    from repro.net.loss import BernoulliLoss, NoLoss
    from repro.obs import Observability

    knobs = draw["knobs"]
    loss = float(knobs.get("loss", 0.0))
    obs = Observability()
    horizon = _HORIZONS["flat"]
    eps = float(knobs.get("burst_epsilon", 0.0))
    cfg = SwitchMLConfig(
        num_workers=int(knobs["workers"]),
        pool_size=int(knobs["pool"]),
        elements_per_packet=32,
        # tight, to provoke retransmission races -- but a round trip
        # crosses four epsilon windows, so the widest drawn epsilon
        # needs a longer timer to mean anything (20 us stays at 100 us)
        timeout_s=max(1e-4, 5.0 * eps),
        link=LinkSpec(jitter_s=float(knobs.get("jitter_us", 0.0)) * 1e-6),
        loss_factory=(lambda: BernoulliLoss(loss)) if loss else NoLoss,
        burst_epsilon=eps,
        obs=obs,
        seed=int(draw["run_seed"]),
    )
    job = SwitchMLJob(cfg)
    tensors = _tensors(cfg.num_workers, int(knobs["elements"]), draw["run_seed"])
    start_us = knobs.get("start_times_us")
    start_times = (
        [s * 1e-6 for s in start_us] if start_us is not None else None
    )
    res = job.all_reduce(
        tensors, start_times=start_times, deadline_s=horizon, verify=False
    )

    violations = check_completed(res.completed, job.sim.now, horizon)
    if res.completed:
        violations += check_exact(
            res.results, tensors, list(range(cfg.num_workers))
        )
    violations += check_epoch_fencing(
        epoch=0, recoveries=0, stale_epoch_drops=res.switch_stale_epoch_drops
    )
    if eps == 0.0:
        # the window path emits per-burst aggregate trace records
        violations += check_obs_consistency(obs)
    return {
        "violations": violations,
        "observables": {
            "completed": bool(res.completed),
            "retransmissions": int(res.retransmissions),
            "frames_lost": int(res.frames_lost),
            "max_tat_s": res.max_tat if res.completed else None,
        },
    }


def _run_rack(draw: dict[str, Any]) -> dict[str, Any]:
    from repro.controlplane import (
        ControlPlaneConfig,
        Controller,
        FaultInjector,
        FaultPlan,
    )
    from repro.net.loss import BernoulliLoss, NoLoss
    from repro.obs import Observability

    knobs = draw["knobs"]
    loss = float(knobs.get("loss", 0.0))
    obs = Observability()
    horizon = _HORIZONS["rack"]
    ctl = Controller(
        ControlPlaneConfig(
            num_workers=int(knobs["workers"]),
            pool_size=int(knobs["pool"]),
            loss_factory=(lambda: BernoulliLoss(loss)) if loss else NoLoss,
            obs=obs,
            seed=int(draw["run_seed"]),
        )
    )
    plan = FaultPlan.from_dict(draw.get("plan", {"faults": []}))
    if plan.faults:
        FaultInjector(ctl, plan).arm()
    tensors = _tensors(
        int(knobs["workers"]), int(knobs["elements"]), draw["run_seed"]
    )
    res = ctl.run_collective(tensors, deadline_s=horizon, verify=False)

    violations = check_completed(res.completed, res.elapsed_s, horizon)
    if res.completed:
        violations += _exact_members(res.results, tensors, res.survivors)
    violations += check_epoch_fencing(
        epoch=res.epoch,
        recoveries=len(res.recoveries),
        stale_epoch_drops=res.stale_epoch_drops,
    )
    violations += check_obs_consistency(obs)
    return {
        "violations": violations,
        "observables": {
            "completed": bool(res.completed),
            "survivors": list(res.survivors),
            "epoch": int(res.epoch),
            "recoveries": len(res.recoveries),
            "stale_epoch_drops": int(res.stale_epoch_drops),
            "elapsed_s": res.elapsed_s,
        },
    }


def _exact_members(results, tensors, survivors) -> list[str]:
    """check_exact over a member-id-keyed result dict."""
    dense: list[Any] = [None] * (max(survivors) + 1 if survivors else 0)
    for m in survivors:
        dense[m] = results.get(m)
    return check_exact(dense, tensors, survivors, who="member")


def _run_fabric(draw: dict[str, Any]) -> dict[str, Any]:
    from repro.net.fabric import (
        FabricConfig,
        FabricFaultInjector,
        FabricFaultPlan,
        FabricJob,
    )
    from repro.net.loss import BernoulliLoss, NoLoss
    from repro.obs import Observability

    knobs = draw["knobs"]
    loss = float(knobs.get("loss", 0.0))
    obs = Observability(tracing_enabled=False)
    horizon = _HORIZONS["fabric"]
    job = FabricJob(
        FabricConfig(
            num_leaves=int(knobs["leaves"]),
            num_spines=int(knobs["spines"]),
            workers_per_leaf=int(knobs["workers_per_leaf"]),
            pool_size=int(knobs["pool"]),
            loss_factory=(lambda: BernoulliLoss(loss)) if loss else NoLoss,
            obs=obs,
            seed=int(draw["run_seed"]),
        )
    )
    initial_active = job.active_spine
    plan = FabricFaultPlan.from_dict(draw.get("plan", {"faults": []}))
    if plan.faults:
        FabricFaultInjector(job, plan).arm()
    tensors = _tensors(
        job.config.num_workers, int(knobs["elements"]), draw["run_seed"]
    )
    res = job.all_reduce(tensors, deadline_s=horizon, verify=False)

    violations = check_completed(res.completed, res.elapsed_s, horizon)
    if res.completed:
        violations += check_exact(
            res.results, tensors, list(range(job.config.num_workers))
        )
    violations += check_epoch_fencing(
        epoch=res.epoch,
        recoveries=len(res.reroutes),
        stale_epoch_drops=res.stale_epoch_drops,
    )
    # a crash of the spine that was homing the pool, early enough that
    # the run outlived its detection window, must have forced a reroute
    detect_margin = 2e-3  # probe interval + link_down_after + slack
    for f in draw.get("plan", {}).get("faults", []):
        if (
            f.get("kind") == "crash_spine"
            and f.get("spine") == initial_active
            and f["at_s"] + detect_margin < res.elapsed_s
            and not res.reroutes
        ):
            violations.append(
                f"bounded-recovery: active spine {initial_active} crashed at "
                f"{f['at_s'] * 1e3:.3f} ms, run lived to "
                f"{res.elapsed_s * 1e3:.3f} ms, yet no reroute happened"
            )
    return {
        "violations": violations,
        "observables": {
            "completed": bool(res.completed),
            "state": res.state,
            "initial_active_spine": int(initial_active),
            "epoch": int(res.epoch),
            "reroutes": len(res.reroutes),
            "stale_epoch_drops": int(res.stale_epoch_drops),
            "retransmissions": int(res.retransmissions),
            "elapsed_s": res.elapsed_s,
        },
    }


def run_draw_task(params: dict[str, Any], seed: int) -> dict[str, Any]:
    """The sweep-scenario entry point: generate (or take) a draw, run it.

    ``params["draw"]`` replays an explicit serialized draw;
    otherwise the draw is generated from the task seed (optionally
    restricted to ``params["domains"]``).
    """
    draw = params.get("draw")
    if draw is None:
        domains = tuple(params.get("domains", DOMAINS))
        draw = draw_scenario(seed, domains=domains)
    out = run_draw(draw)
    return {"draw": draw, **out}


def replay_draw(draw: dict[str, Any]) -> dict[str, Any]:
    """Re-run a serialized draw exactly (the replay/debugging entry)."""
    return run_draw(draw)


# ----------------------------------------------------------------------
# minimization
# ----------------------------------------------------------------------

def _still_fails(draw: dict[str, Any]) -> bool:
    return bool(run_draw(draw)["violations"])


def minimize_failure(
    draw: dict[str, Any], max_evals: int = 64
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Shrink a failing draw to a smaller one that still fails.

    Greedy delta-debugging over the fault list (drop one fault at a
    time to a fixed point), then knob simplification (loss -> 0,
    jitter -> 0, drop stragglers) -- each step kept only if the
    violation survives.  Returns ``(minimized_draw, its_result)``.
    """
    import copy

    best = copy.deepcopy(draw)
    evals = 0

    def fails(candidate: dict[str, Any]) -> bool:
        nonlocal evals
        if evals >= max_evals:
            return False
        evals += 1
        return _still_fails(candidate)

    if not _still_fails(best):
        raise ValueError("draw does not fail; nothing to minimize")

    # fault-list shrinking to a fixed point
    shrunk = True
    while shrunk and best.get("plan", {}).get("faults"):
        shrunk = False
        faults = best["plan"]["faults"]
        for i in range(len(faults) - 1, -1, -1):
            candidate = copy.deepcopy(best)
            del candidate["plan"]["faults"][i]
            if fails(candidate):
                best = candidate
                shrunk = True
                break

    # knob simplification
    knobs = best.get("knobs", {})
    for key, neutral in (
        ("loss", 0.0), ("jitter_us", 0.0), ("start_times_us", None),
    ):
        if knobs.get(key) not in (None, neutral):
            candidate = copy.deepcopy(best)
            if neutral is None:
                candidate["knobs"].pop(key, None)
            else:
                candidate["knobs"][key] = neutral
            if fails(candidate):
                best = candidate

    return best, run_draw(best)


# ----------------------------------------------------------------------
# the fuzz campaign
# ----------------------------------------------------------------------

@dataclass
class DrawResult:
    """One draw's outcome inside a campaign."""

    task_id: str
    draw: dict[str, Any]
    violations: list[str]
    observables: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class FuzzReport:
    """What a fuzz campaign found."""

    budget: int
    root_seed: int
    draws: int
    failures: list[DrawResult]
    minimized: list[dict[str, Any]]  # {"task_id", "draw", "violations"}
    errors: list[str] = field(default_factory=list)  # harness-level crashes
    artifact: str | None = None

    @property
    def ok(self) -> bool:
        return not self.failures and not self.errors


def run_fuzz(
    budget: int,
    root_seed: int = 0,
    procs: int = 1,
    artifact: str | Path | None = None,
    domains: tuple[str, ...] = DOMAINS,
    minimize: bool = True,
    resume: bool = False,
) -> FuzzReport:
    """Run ``budget`` fuzz draws (sharded via the sweep orchestrator).

    Every draw is one sweep task with a seed derived from
    ``(root_seed, task_id)``; failures are minimized serially
    afterwards (minimization is a debugging aid -- it re-runs
    candidates, so it stays out of the parallel path).
    """
    from repro.sweep.runner import run_sweep

    if budget < 1:
        raise ValueError("budget must be >= 1")
    params = {"domains": list(domains)}
    tasks = [
        TaskSpec(
            task_id=f"fuzz#d{i}",
            scenario="fuzz",
            params=params,
            seed=derive_seed(root_seed, f"fuzz#d{i}"),
        )
        for i in range(budget)
    ]
    sweep = run_sweep(
        tasks, artifact=artifact, procs=procs, resume=resume
    )

    failures: list[DrawResult] = []
    errors: list[str] = []
    for tid in sorted(sweep.records):
        rec = sweep.records[tid]
        if not rec.get("ok"):
            errors.append(f"{tid}: {rec.get('error', 'unknown error')}")
            continue
        result = rec["result"]
        if result.get("violations"):
            failures.append(
                DrawResult(
                    task_id=tid,
                    draw=result["draw"],
                    violations=list(result["violations"]),
                    observables=dict(result.get("observables", {})),
                )
            )

    minimized: list[dict[str, Any]] = []
    if minimize:
        for failure in failures:
            try:
                small, small_result = minimize_failure(failure.draw)
            except ValueError:
                # flaky-under-replay draws stay reported un-minimized
                small, small_result = failure.draw, {
                    "violations": failure.violations
                }
            minimized.append({
                "task_id": failure.task_id,
                "draw": small,
                "violations": small_result["violations"],
            })

    return FuzzReport(
        budget=budget,
        root_seed=root_seed,
        draws=len(sweep.records),
        failures=failures,
        minimized=minimized,
        errors=errors,
        artifact=str(artifact) if artifact else None,
    )
