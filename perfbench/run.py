#!/usr/bin/env python3
"""The repo benchmark: one workload per process, closed loop, one thread.

    python3 perfbench/run.py --workload rack_lossy --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --out perfbench/out/parent/1
    python3 perfbench/run.py --compare perfbench/out/parent perfbench/out/change

One simulation at a time in this process, with nothing beside it (the
box has 2 cores).  ``--trace 0`` times iterations with tracing off and
reports the end-to-end metrics; ``--trace 1`` adds one iteration under
the ``cProfile`` hook (:mod:`tracing`) and reports the per-layer metrics.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import os

# before NumPy loads: the measured process is single-threaded
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import Any

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, _HERE)

import probe  # noqa: E402
import report  # noqa: E402

#: fresh-interpreter set-up probes per run; ``setup_s`` uses their median
SETUP_PROBES = 5
#: iterations every untraced run makes at least (the second one checks
#: that a fixed seed repeats its simulated fingerprint)
MIN_ITERATIONS = 2
#: share of ``--seconds`` a traced run spends on untraced iterations
#: before its one traced iteration
TRACED_RUN_UNTRACED_SHARE = 0.25
#: iterations that may raise before the run gives up
MAX_ERRORS = 2
NOISY_DRIFT = 0.10


def _timed_iterations(workload, surface, specs, budget_s, min_iterations, failures):
    """Untraced iterations until the next one would overrun ``budget_s``."""
    iterations = []
    errors = 0
    t_start = time.perf_counter()
    while True:
        gc.collect()  # between iterations, outside the timed region
        try:
            iterations.append(workload.iteration(surface, specs))
        except Exception:  # the run must report the failure, not die of it
            errors += 1
            failures.append(traceback.format_exc().strip().splitlines()[-1])
            if errors >= MAX_ERRORS:
                break
            continue
        elapsed = time.perf_counter() - t_start
        if (
            len(iterations) >= min_iterations
            and elapsed + elapsed / len(iterations) > budget_s
        ):
            break
    return iterations, errors


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: float,
                 out_dir: str) -> dict[str, Any]:
    """Measure one workload in this process; returns the run document."""
    if not os.path.isdir(os.path.join(probe.SRC, "repro")):
        raise SystemExit(f"no program to measure: {probe.SRC}/repro is missing")
    sys.path.insert(0, probe.SRC)
    import numpy as np
    import tracing
    from layers import LAYERS, PER_PACKET_LAYERS
    from workloads import COUNTERS, WORKLOADS, load_surface

    workload = WORKLOADS[name]
    spin_start = probe.spin()
    probes = [probe.setup_probe(name, seed) for _ in range(SETUP_PROBES)]
    surface = load_surface()
    workload.warmup(surface, seed)
    specs = workload.specs(seed, scale)

    failures: list[str] = []
    iterations, errors = _timed_iterations(
        workload, surface, specs,
        seconds * TRACED_RUN_UNTRACED_SHARE if trace else seconds,
        1 if trace else MIN_ITERATIONS, failures,
    )
    if not iterations:
        raise SystemExit("no iteration completed:\n" + "\n".join(failures))
    traced = attribution = None
    if trace:
        gc.collect()
        traced, attribution = tracing.traced_iteration(
            workload, surface, specs, os.path.join(probe.SRC, "repro")
        )
    drift = probe.spin() / spin_start

    # ---- correctness: failed operations out of attempted --------------
    checked = iterations + ([traced] if traced else [])
    attempted = sum(it["attempted"] for it in checked) + errors * len(specs)
    failed = sum(it["failed"] for it in checked) + errors * len(specs)
    if failed:
        failures.append(f"{failed} jobs did not complete with the exact sum")
    first = iterations[0]
    for i, it in enumerate(checked[1:], 1):
        if it["fingerprint"] != first["fingerprint"]:
            failed += 1
            failures.append(
                f"iteration {i}: simulated fingerprint {it['fingerprint']} differs "
                f"from iteration 0's {first['fingerprint']} at the same seed"
            )
    if not workload.pinned_ok(seed, scale, first):
        failed += 1
        failures.append(
            f"pinned fingerprint broken: retx {first['counters']['worker.retx']}, "
            f"max TAT {first['sim']['max_tat_s']!r}"
        )

    # ---- end to end ----------------------------------------------------
    def column(key):
        return [it[key] for it in iterations]

    walls = column("wall_s")
    rates = [it["work"] / it["wall_s"] for it in iterations]
    import_s = statistics.median(p["import_s"] for p in probes)
    warmup_s = statistics.median(p["warmup_s"] for p in probes)
    first_frame_s = statistics.median(p["import_s"] + p["warmup_s"] for p in probes)
    setups = [first_frame_s + b for b in column("build_s")]
    iteration_samples = {"wall_s": walls, "work_per_s": rates, "setup_s": setups}
    end_to_end = {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "work_per_s": {"value": statistics.median(rates), "unit": "1/s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
    }
    doc: dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "seconds": seconds,
        "traced": trace,
        "work_unit": workload.work_unit,
        "work_per_iteration": first["work"],
        "iterations": len(iterations),
        "knobs_applied": first["knobs_applied"],
        "backend_effective": first["backend_effective"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "calib": {"spin_s": spin_start, "drift": drift},
        "noisy": abs(drift - 1.0) > NOISY_DRIFT,
        "end_to_end": end_to_end,
        "iteration_samples": iteration_samples,
        "setup_probes": probes,
        "fingerprint": first["fingerprint"],
    }

    # ---- per layer -----------------------------------------------------
    if trace:
        counters = first["counters"]
        packets = counters["worker.packets_sent"]
        per_layer: dict[str, dict[str, Any]] = {}

        def put(metric, value, unit):
            per_layer[metric] = {"value": value, "unit": unit}

        for layer in LAYERS:
            agg = attribution["layers"][layer]
            put(f"{layer}.share", agg["share"], "share")
            put(f"{layer}.calls", agg["calls"], "count")
            put(f"{layer}.entries", agg["entries"], "count")
            if layer in PER_PACKET_LAYERS:
                put(f"{layer}.self_s", agg["self_s"], "s")
                put(f"{layer}.us_per_packet", agg["self_s"] / packets * 1e6, "us")
        for counter in COUNTERS:
            put(counter, counters[counter], "count")
        put("engine.events_per_packet", counters["engine.events"] / packets, "1/packet")
        put("worker.retx_share", counters["worker.retx"] / packets, "share")
        put("sim.max_tat_s", first["sim"]["max_tat_s"], "sim_s")
        put("sim.recovery_s", first["sim"]["recovery_s"], "sim_s")
        put("job.import_s", import_s, "s")
        put("job.warmup_s", warmup_s, "s")
        put("job.build_s", statistics.median(column("build_s")), "s")
        put("trace.self_s", attribution["total_self_s"], "s")
        put("trace.overhead_x", traced["wall_s"] / end_to_end["wall_s"]["value"], "x")
        put("calib.spin_s", spin_start, "s")
        put("calib.drift", drift, "x")
        doc["per_layer"] = per_layer
        doc["trace"] = attribution

    # spans and samples stayed in memory until here; written once
    os.makedirs(out_dir, exist_ok=True)
    suffix = ".trace.json" if trace else ".json"
    with open(os.path.join(out_dir, name + suffix), "w") as fh:
        json.dump(doc, fh, indent=1)
    return doc


def main(argv: list[str] | None = None) -> int:
    spec = report.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="shrink the inputs (smoke runs only; gated numbers use 1.0)")
    ap.add_argument("--out", default=os.path.join(_HERE, "out"),
                    help="directory for <workload>.json / <workload>.trace.json")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                    help="compare two run documents or directories of them")
    args = ap.parse_args(argv)

    if args.compare:
        return 1 if report.compare(*args.compare) else 0
    if args.workload == "all":
        # each workload in a fresh process, one after the other
        status = 0
        for name in names:
            status |= subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--scale", str(args.scale),
                 "--out", args.out],
            ).returncode
        return status

    doc = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scale, args.out
    )
    report.print_run(doc)
    print(json.dumps({
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": doc["per_layer"] if args.trace else doc["end_to_end"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
