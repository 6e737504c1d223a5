"""Observability overhead on the fig4-style microbenchmark workload.

One interleaved run over the five ways a job can carry the obs layer:

=============  ======================================================
``none``       no ``Observability`` object at all
``null``       the shared disabled layer (``Observability.off()``)
``metrics``    metrics registry on, tracing and telemetry off
``telemetry``  in-band telemetry hub installed, metrics and tracing off
``both``       metrics + telemetry (perfbench's ``rack_observed``)
=============  ======================================================

Budgets (fraction of the ``none`` wall).  The disabled layer and the
metrics registry sit inside the documented targets (<5 % each; the CI
gate for metrics-only adds a noise margin).  In-band telemetry does not
yet: it costs ~31 % here against a 15 % target, down from ~51 % (~79 %
with metrics) before stamps were bound to their series at the tap --
so its gates hold the measured level plus a noise margin, not the
target; see docs/PERFORMANCE.md.

Methodology: the workload is a ~1 s burst of pure Python, and container
wall time jitters by tens of percent between sequential blocks, so the
configurations are *interleaved* round-robin and compared by their
per-configuration minimum -- the standard robust estimator when noise
is strictly additive.
"""

import time

from conftest import once

from repro.core.job import SwitchMLConfig, SwitchMLJob
from repro.core.tuning import pool_size_for_rate
from repro.harness.report import format_table
from repro.obs import Observability

N_ELEM = 32 * 4096
ROUNDS = 5

#: configuration -> (obs factory, overhead budget vs ``none``)
CONFIGS = {
    "none": (lambda: None, None),
    "null": (Observability.off, 0.05),
    "metrics": (lambda: Observability(tracing_enabled=False), 0.08),
    "telemetry": (lambda: Observability(enabled=False, telemetry=True), 0.45),
    "both": (lambda: Observability(tracing_enabled=False, telemetry=True), 0.50),
}


def run_one(obs) -> float:
    job = SwitchMLJob(
        SwitchMLConfig(
            num_workers=8,
            pool_size=pool_size_for_rate(10.0),
            obs=obs,
        )
    )
    t0 = time.perf_counter()
    job.all_reduce(num_elements=N_ELEM, verify=False)
    return time.perf_counter() - t0


def run_overhead():
    run_one(None)  # warm-up round, discarded
    times: dict[str, list[float]] = {name: [] for name in CONFIGS}
    for _ in range(ROUNDS):
        for name, (make, _budget) in CONFIGS.items():
            times[name].append(run_one(make()))
    return {name: min(samples) for name, samples in times.items()}


def test_obs_overhead_under_budget(benchmark, show):
    best = once(benchmark, run_overhead)
    overhead = {name: best[name] / best["none"] - 1.0 for name in CONFIGS}
    show(
        "\n"
        + format_table(
            ["configuration", "best wall (s)", "vs none", "budget"],
            [
                [name, f"{best[name]:.3f}", f"{overhead[name]:+.1%}",
                 "-" if budget is None else f"<{budget:.0%}"]
                for name, (_make, budget) in CONFIGS.items()
            ],
            title=f"obs overhead, fig4 workload ({N_ELEM} elements, "
                  f"best of {ROUNDS} interleaved rounds)",
        )
    )
    over = {
        name: f"{overhead[name]:.1%} (budget {budget:.0%})"
        for name, (_make, budget) in CONFIGS.items()
        if budget is not None and overhead[name] >= budget
    }
    assert not over, f"obs overhead over budget: {over}"
