"""The scenario registry: named simulation recipes for sweeps.

A scenario is a function ``(params, seed) -> dict`` returning a flat,
JSON-serializable measurement record.  Every record carries a
``fingerprint`` sub-dict -- the protocol-level observables (per-worker
TATs, packet/retransmission counts, frames lost, a result checksum)
that must be bit-identical for equivalent configurations.  Engine event
counts are reported alongside but kept OUT of the fingerprint: they
describe the simulator's schedule, not the protocol
(docs/PERFORMANCE.md).

Scenario parameters are plain dicts so a task is fully described by
its JSONL record and can be re-run standalone; fault scenarios carry
their plans in the serialized ``FaultPlan.to_dict`` form.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable

import numpy as np

__all__ = [
    "SCENARIOS",
    "SCENARIO_KNOBS",
    "check_knobs",
    "protocol_fingerprint",
    "run_scenario",
    "tensors_for",
]


def tensors_for(
    num_workers: int, num_elements: int, seed: int
) -> list[np.ndarray]:
    """Deterministic per-worker input tensors for a task seed.

    Drawn from a stream independent of the job's own RNG (the job seeds
    loss/jitter draws from ``seed`` directly), so changing protocol
    knobs never perturbs the inputs.
    """
    rng = np.random.default_rng([seed, 0xDA7A])
    return [
        rng.integers(-1000, 1000, num_elements).astype(np.int64)
        for _ in range(num_workers)
    ]


def _sha(arr: np.ndarray | None) -> str | None:
    if arr is None:
        return None
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


def protocol_fingerprint(result: Any) -> dict[str, Any]:
    """Protocol-level observables of an :class:`AllReduceResult`.

    Bit-identical for equivalent configurations -- the contract the
    cross-config determinism tests pin down.
    """
    first = next((r for r in result.results if r is not None), None)
    return {
        "completed": bool(result.completed),
        "tats": result.tats,
        "packets_sent": [int(s.packets_sent) for s in result.worker_stats],
        "retransmissions": [
            int(s.retransmissions) for s in result.worker_stats
        ],
        "frames_lost": int(result.frames_lost),
        "result_sha": _sha(first),
    }


# ----------------------------------------------------------------------
# fig4-style flat-rack all-reduces
# ----------------------------------------------------------------------

def _loss_factory(loss: float):
    from repro.net.loss import BernoulliLoss, NoLoss

    return (lambda: BernoulliLoss(loss)) if loss > 0.0 else NoLoss


def _scenario_fig4(params: dict[str, Any], seed: int) -> dict[str, Any]:
    """One all-reduce on the paper's Figure 4 rack, knobs from params.

    Knobs: ``workers``, ``pool``, ``elements``, ``loss``, ``jitter_us``,
    ``burst_epsilon``, ``timeout_s``, ``verify`` (real
    tensors checked against the exact sum; phantom run when false).
    """
    from repro.core.job import SwitchMLConfig, SwitchMLJob
    from repro.net.link import LinkSpec

    workers = int(params.get("workers", 8))
    elements = int(params.get("elements", 32 * 256))
    verify = bool(params.get("verify", True))
    cfg = SwitchMLConfig(
        num_workers=workers,
        pool_size=int(params.get("pool", 128)),
        elements_per_packet=32,
        timeout_s=float(params.get("timeout_s", 1e-4)),
        link=LinkSpec(jitter_s=float(params.get("jitter_us", 0.0)) * 1e-6),
        loss_factory=_loss_factory(float(params.get("loss", 0.0))),
        burst_epsilon=float(params.get("burst_epsilon", 0.0)),
        seed=seed,
    )
    job = SwitchMLJob(cfg)
    if verify:
        tensors = tensors_for(workers, elements, seed)
        res = job.all_reduce(tensors, deadline_s=30.0, verify=True)
    else:
        res = job.all_reduce(num_elements=elements, deadline_s=30.0,
                             verify=False)
    return {
        "fingerprint": protocol_fingerprint(res),
        "sim_events": int(res.sim_events),
        "retransmissions": int(res.retransmissions),
        "max_tat_s": res.max_tat,
    }


def _scenario_fig4_lossy(params: dict[str, Any], seed: int) -> dict[str, Any]:
    return _scenario_fig4({"loss": 0.01, **params}, seed)


def _scenario_fig4_clean(params: dict[str, Any], seed: int) -> dict[str, Any]:
    return _scenario_fig4({"loss": 0.0, **params}, seed)


# ----------------------------------------------------------------------
# controller-managed rack runs through a FaultPlan
# ----------------------------------------------------------------------

def _scenario_rack_faults(params: dict[str, Any], seed: int) -> dict[str, Any]:
    """A controller-managed all-reduce through a serialized FaultPlan.

    ``params["plan"]`` is ``FaultPlan.to_dict()`` output (possibly
    empty); the run reports survivors, recovery records, and epoch-fence
    counters next to the correctness verdict.
    """
    from repro.controlplane import (
        ControlPlaneConfig,
        Controller,
        FaultInjector,
        FaultPlan,
    )

    workers = int(params.get("workers", 4))
    elements = int(params.get("elements", 32 * 500))
    deadline_s = float(params.get("deadline_s", 1.0))
    ctl = Controller(
        ControlPlaneConfig(
            num_workers=workers,
            pool_size=int(params.get("pool", 16)),
            loss_factory=_loss_factory(float(params.get("loss", 0.0))),
            seed=seed,
        )
    )
    plan = FaultPlan.from_dict(params.get("plan", {"faults": []}))
    if plan.faults:
        FaultInjector(ctl, plan).arm()
    tensors = tensors_for(workers, elements, seed)
    res = ctl.run_collective(tensors, deadline_s=deadline_s, verify=False)

    expected = np.sum(
        [tensors[m] for m in res.survivors], axis=0, dtype=np.int64
    )
    exact = res.completed and all(
        res.results[m] is not None and np.array_equal(res.results[m], expected)
        for m in res.survivors
    )
    return {
        "completed": bool(res.completed),
        "exact": bool(exact),
        "survivors": list(res.survivors),
        "epoch": int(res.epoch),
        "recoveries": len(res.recoveries),
        "stale_epoch_drops": int(res.stale_epoch_drops),
        "elapsed_s": res.elapsed_s,
        "result_sha": _sha(expected) if exact else None,
    }


# ----------------------------------------------------------------------
# fabric runs through a FabricFaultPlan
# ----------------------------------------------------------------------

def _scenario_fabric(params: dict[str, Any], seed: int) -> dict[str, Any]:
    """A 2-tier Clos all-reduce through a serialized FabricFaultPlan."""
    from repro.net.fabric import (
        FabricConfig,
        FabricFaultInjector,
        FabricFaultPlan,
        FabricJob,
    )

    job = FabricJob(
        FabricConfig(
            num_leaves=int(params.get("leaves", 2)),
            num_spines=int(params.get("spines", 2)),
            workers_per_leaf=int(params.get("workers_per_leaf", 2)),
            pool_size=int(params.get("pool", 16)),
            loss_factory=_loss_factory(float(params.get("loss", 0.0))),
            seed=seed,
        )
    )
    plan = FabricFaultPlan.from_dict(params.get("plan", {"faults": []}))
    if plan.faults:
        FabricFaultInjector(job, plan).arm()
    elements = int(params.get("elements", 32 * 160))
    workers = job.config.num_workers
    tensors = tensors_for(workers, elements, seed)
    res = job.all_reduce(
        tensors, deadline_s=float(params.get("deadline_s", 5.0)), verify=False
    )

    expected = np.sum(tensors, axis=0, dtype=np.int64)
    exact = res.completed and all(
        r is not None and np.array_equal(r, expected) for r in res.results
    )
    return {
        "completed": bool(res.completed),
        "exact": bool(exact),
        "state": res.state,
        "epoch": int(res.epoch),
        "reroutes": len(res.reroutes),
        "stale_epoch_drops": int(res.stale_epoch_drops),
        "retransmissions": int(res.retransmissions),
        "elapsed_s": res.elapsed_s,
        "result_sha": _sha(expected) if exact else None,
    }


def _scenario_fuzz(params: dict[str, Any], seed: int) -> dict[str, Any]:
    # imported lazily: fuzz builds ON the registry (its draws run
    # through the rack/fabric scenarios above) and registers here so
    # the orchestrator can shard fuzz budgets like any other sweep
    from repro.sweep.fuzz import run_draw_task

    return run_draw_task(params, seed)


#: the params each scenario reads.  Anything else in a task's params is
#: an error, never a silent no-op: a mistyped or since-removed knob
#: would otherwise run a different experiment than its line describes.
_FIG4_KNOBS = frozenset({
    "workers", "pool", "elements", "loss", "jitter_us", "burst_epsilon",
    "timeout_s", "verify",
})
SCENARIO_KNOBS: dict[str, frozenset[str]] = {
    "fig4_lossy": _FIG4_KNOBS,
    "fig4_clean": _FIG4_KNOBS,
    "fig4": _FIG4_KNOBS,
    "rack_faults": frozenset({
        "workers", "pool", "elements", "loss", "deadline_s", "plan",
    }),
    "fabric": frozenset({
        "leaves", "spines", "workers_per_leaf", "pool", "elements", "loss",
        "deadline_s", "plan",
    }),
    "fuzz": frozenset({"draw", "domains"}),
}


def check_knobs(keys, known: frozenset[str], where: str) -> None:
    """Raise ``ValueError`` naming every key of ``keys`` not in ``known``."""
    unknown = sorted(set(keys) - known)
    if unknown:
        raise ValueError(
            f"{where}: unknown knob(s) {', '.join(unknown)} "
            f"(have {', '.join(sorted(known))})"
        )


SCENARIOS: dict[str, Callable[[dict[str, Any], int], dict[str, Any]]] = {
    "fig4_lossy": _scenario_fig4_lossy,
    "fig4_clean": _scenario_fig4_clean,
    "fig4": _scenario_fig4,
    "rack_faults": _scenario_rack_faults,
    "fabric": _scenario_fabric,
    "fuzz": _scenario_fuzz,
}


def run_scenario(name: str, params: dict[str, Any], seed: int) -> dict[str, Any]:
    """Run one scenario by name; raises KeyError for unknown names and
    ValueError for params the scenario does not read."""
    try:
        fn = SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r} (have {sorted(SCENARIOS)})"
        ) from None
    # make_tasks stamps every task's params with its seed index
    check_knobs(
        params, SCENARIO_KNOBS[name] | {"seed_index"}, f"scenario {name!r}"
    )
    return fn(params, seed)
