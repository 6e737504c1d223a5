"""Benchmark workloads for the performance harness.

Each workload is a plain function taking a ``scale`` factor and
returning a flat measurement dict with at least::

    wall_s          total wall-clock seconds for the measured region
    events          simulation events fired
    events_per_s    events / wall_s
    packets         protocol packets transmitted (0 for engine-only)
    packets_per_s   packets / wall_s

plus workload-specific ``extra`` entries (retransmission counts, TAT,
determinism fingerprints).  ``scale`` shrinks or grows the work
proportionally -- CI smoke runs use ``scale=0.1``; rate metrics
(events/sec) are approximately scale-invariant, absolute walls are not.

The flagship workload, :func:`fig4_lossy`, is the paper's Figure 4
setting (packet loss during an all-reduce): 8 workers, pool of 128
slots, 32 elements per packet, 1 % Bernoulli loss, phantom tensors so
the measurement isolates protocol + engine cost rather than numpy.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from repro.core.job import SwitchMLConfig, SwitchMLJob
from repro.net.loss import BernoulliLoss, NoLoss
from repro.sim.engine import Simulator

__all__ = ["WORKLOADS", "run_workload"]

#: base element count for the fig4 workloads at scale=1.0 (8192 packets
#: of 32 elements -- the event count this produces, 371 090 with loss,
#: is the fingerprint tracked in BENCH_0003.json)
_FIG4_ELEMENTS = 32 * 8192


def _fig4_config(
    loss: float,
    scheduler: str = "wheel",
    burst_epsilon: float = 0.0,
) -> SwitchMLConfig:
    factory = (lambda: BernoulliLoss(loss)) if loss > 0.0 else NoLoss
    return SwitchMLConfig(
        num_workers=8,
        pool_size=128,
        elements_per_packet=32,
        seed=7,
        loss_factory=factory,
        scheduler=scheduler,
        burst_epsilon=burst_epsilon,
    )


def _run_job(cfg: SwitchMLConfig, num_elements: int) -> dict[str, Any]:
    job = SwitchMLJob(cfg)
    t0 = time.perf_counter()
    res = job.all_reduce(num_elements=num_elements, verify=False)
    wall = time.perf_counter() - t0
    events = job.sim.events_processed
    packets = sum(s.packets_sent for s in res.worker_stats)
    extra: dict[str, Any] = {
        "completed": res.completed,
        "retransmissions": res.retransmissions,
        "max_tat_s": max(
            s.tensor_aggregation_time for s in res.worker_stats
        ),
    }
    return {
        "wall_s": wall,
        "events": events,
        "events_per_s": events / wall if wall > 0 else 0.0,
        "packets": packets,
        "packets_per_s": packets / wall if wall > 0 else 0.0,
        "extra": extra,
    }


def fig4_lossy(scale: float = 1.0) -> dict[str, Any]:
    """Figure 4 all-reduce under 1 % loss (phantom tensors)."""
    return _run_job(_fig4_config(loss=0.01), max(256, int(_FIG4_ELEMENTS * scale)))


def fig4_clean(scale: float = 1.0) -> dict[str, Any]:
    """The same all-reduce on loss-free links (timer arm/cancel only)."""
    return _run_job(_fig4_config(loss=0.0), max(256, int(_FIG4_ELEMENTS * scale)))


def fig4_lossy_train(scale: float = 1.0) -> dict[str, Any]:
    """:func:`fig4_lossy` on the window path (``burst_epsilon`` = 20 us).

    Links, hosts and the switch merge near-simultaneous arrivals into
    one drain, worker chunk groups leave as frame trains, and the
    worker's vectorized RX body sees bursts big enough to pay off.  20 us
    is several RTTs but far below the 1 ms retransmission timeout: the run
    is protocol-equivalent, NOT schedule-identical -- results and
    recovery behavior match, but per-packet timings shift by up to eps
    per hop, which shows up as an additive ``max_tat_s`` inflation of
    roughly rounds x hops x eps (see docs/PERFORMANCE.md).  ``events``
    is smaller than :func:`fig4_lossy`'s by construction, so events/sec
    is NOT comparable between the two: compare ``wall_s`` and
    ``packets_per_s``.
    """
    return _run_job(
        _fig4_config(loss=0.01, burst_epsilon=2e-5),
        max(256, int(_FIG4_ELEMENTS * scale)),
    )


def fig4_telemetry(scale: float = 1.0) -> dict[str, Any]:
    """:func:`fig4_clean` with the in-band telemetry hub stamping every
    hop (metrics and tracing off, so the delta vs ``fig4_clean`` is the
    stamping + interval-series cost in isolation).

    The *disabled* path -- no hub installed -- is what the <5% budget in
    ``benchmarks/test_obs_overhead.py`` guards; this workload
    tracks the opt-in price so regressions in the enabled path are
    visible in the bench history too.
    """
    from repro.obs import Observability

    cfg = _fig4_config(loss=0.0)
    cfg.obs = Observability(enabled=False, telemetry=True)
    m = _run_job(cfg, max(256, int(_FIG4_ELEMENTS * scale)))
    collector = cfg.obs.telemetry.collector
    m["extra"]["frames_drained"] = collector.frames_drained
    m["extra"]["hops_drained"] = collector.hops_drained
    return m


def engine_churn(scale: float = 1.0) -> dict[str, Any]:
    """Engine-only replay of the fig4 scheduling mix.

    1024 self-sustaining event chains (the slots in flight), one
    retransmission-style timer armed per hop, ~7/8 of timers cancelled
    by the next hop and the rest firing -- with near-empty callbacks,
    so events/sec measures the scheduler itself (insert, pop, cancel,
    wheel pour) rather than protocol bodies.
    """
    chains = 1024
    hops = max(8, int(320 * scale))
    hop_s = 1e-6
    timer_s = 50e-6
    slow_s = timer_s + 10e-6

    sim = Simulator(seed=1)
    timers: list[Any] = [None] * chains
    schedule_call = sim.schedule_call
    schedule_at = sim.schedule_at

    def timeout(c: int) -> None:
        timers[c] = None

    def hop(c: int, h: int) -> None:
        t = timers[c]
        if t is not None:
            t.cancel()
        if h:
            timers[c] = schedule_at(sim.now + timer_s, timeout, c)
            schedule_call(hop_s if h & 7 else slow_s, hop, c, h - 1)

    for c in range(chains):
        schedule_at(c * 1e-9, hop, c, hops)

    t0 = time.perf_counter()
    sim.run_deadline(float("inf"))
    wall = time.perf_counter() - t0
    events = sim.events_processed
    return {
        "wall_s": wall,
        "events": events,
        "events_per_s": events / wall if wall > 0 else 0.0,
        "packets": 0,
        "packets_per_s": 0.0,
        "extra": {"chains": chains, "hops": hops},
    }


def fabric_2tier(scale: float = 1.0) -> dict[str, Any]:
    """A 2-tier Clos all-reduce under the fabric controller.

    4 leaves x 8 workers on clean links, phantom tensors: the measured
    region covers the two-tier aggregation path (leaf rack pools, the
    spine pool, controller heartbeat traffic) end to end.  Packets
    counted are worker transmissions, as in the flat workloads; leaf
    partials and beacons show up only as engine events.
    """
    from repro.net.fabric import FabricConfig, FabricJob

    job = FabricJob(
        FabricConfig(
            num_leaves=4,
            num_spines=2,
            workers_per_leaf=8,
            pool_size=64,
            elements_per_packet=32,
            seed=7,
        )
    )
    elements = max(256, int(_FIG4_ELEMENTS * scale) // 4)
    t0 = time.perf_counter()
    res = job.all_reduce(num_elements=elements, deadline_s=30.0)
    wall = time.perf_counter() - t0
    events = job.sim.events_processed
    packets = sum(s.packets_sent for s in res.worker_stats)
    return {
        "wall_s": wall,
        "events": events,
        "events_per_s": events / wall if wall > 0 else 0.0,
        "packets": packets,
        "packets_per_s": packets / wall if wall > 0 else 0.0,
        "extra": {
            "completed": res.completed,
            "reroutes": len(res.reroutes),
            "retransmissions": res.retransmissions,
            "max_tat_s": res.max_tat,
        },
    }


def core_scaling(scale: float = 1.0) -> dict[str, Any]:
    """Worker-count sweep (2/4/8) on clean links, aggregated.

    Tracks how harness throughput holds up as the rack grows; the
    per-count rates land in ``extra.sweep``.
    """
    elements = max(256, int(_FIG4_ELEMENTS * scale) // 4)
    sweep: dict[str, dict[str, float]] = {}
    total_wall = 0.0
    total_events = 0
    total_packets = 0
    for n in (2, 4, 8):
        cfg = SwitchMLConfig(
            num_workers=n,
            pool_size=128,
            elements_per_packet=32,
            seed=7,
            scheduler="wheel",
        )
        m = _run_job(cfg, elements)
        sweep[str(n)] = {
            "wall_s": m["wall_s"],
            "events_per_s": m["events_per_s"],
            "packets_per_s": m["packets_per_s"],
        }
        total_wall += m["wall_s"]
        total_events += m["events"]
        total_packets += m["packets"]
    return {
        "wall_s": total_wall,
        "events": total_events,
        "events_per_s": total_events / total_wall if total_wall > 0 else 0.0,
        "packets": total_packets,
        "packets_per_s": total_packets / total_wall if total_wall > 0 else 0.0,
        "extra": {"sweep": sweep},
    }


WORKLOADS: dict[str, Callable[[float], dict[str, Any]]] = {
    "fig4_lossy": fig4_lossy,
    "fig4_clean": fig4_clean,
    "fig4_lossy_train": fig4_lossy_train,
    "fig4_telemetry": fig4_telemetry,
    "engine_churn": engine_churn,
    "core_scaling": core_scaling,
    "fabric_2tier": fabric_2tier,
}


def run_workload(name: str, scale: float = 1.0) -> dict[str, Any]:
    """Run one named workload once; raises KeyError for unknown names."""
    return WORKLOADS[name](scale)
