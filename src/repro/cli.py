"""Command-line interface: regenerate any paper experiment from a shell.

Usage::

    python -m repro.cli list
    python -m repro.cli experiment table1
    python -m repro.cli experiment fig4 --json
    python -m repro.cli allreduce --workers 8 --rate 10 --mbytes 4
    python -m repro.cli resources --pool 512
    python -m repro.cli obs trace --out runs/trace
    python -m repro.cli obs dashboard --scenario worker-crash

Each ``experiment`` subcommand prints the same rows/series the paper's
table or figure reports (see EXPERIMENTS.md for the recorded runs);
``--json`` emits the raw rows instead of the rendered table.  The
``obs`` group runs instrumented deployments: ``trace`` exports a
Perfetto-loadable Chrome trace plus JSONL events, ``metrics`` dumps the
registry, ``dashboard`` prints the unified post-run report (see
docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from repro.collectives.models import line_rate_ate
from repro.core.job import SwitchMLConfig, SwitchMLJob
from repro.core.tuning import pool_size_for_rate
from repro.dataplane.pipeline import TOFINO
from repro.harness import experiments as E
from repro.harness.figures import bar_chart, line_plot, sparkline
from repro.harness.report import format_series, format_table
from repro.net.link import LinkSpec

__all__ = ["main"]


def _print_table1() -> None:
    rows = E.table1()
    print(
        format_table(
            ["model", "ideal", "multi-gpu", "nccl", "switchml"],
            [
                [
                    r["model"],
                    f"{r['ideal']:.0f}",
                    f"{r['multi_gpu']:.0f} ({r['multi_gpu_pct']:.1f}%)",
                    f"{r['nccl']:.0f} ({r['nccl_pct']:.1f}%)",
                    f"{r['switchml']:.0f} ({r['switchml_pct']:.1f}%)",
                ]
                for r in rows
            ],
            title="Table 1: training throughput (images/s), 8 workers, 10 Gbps",
        )
    )


def _print_fig2() -> None:
    rows = E.fig2_pool_size()
    print(
        format_table(
            ["pool size", "TAT (ms)", "line-rate TAT (ms)", "RTT (us)"],
            [
                [r["pool_size"], f"{r['tat_s'] * 1e3:.3f}",
                 f"{r['line_rate_tat_s'] * 1e3:.3f}",
                 f"{r['mean_rtt_s'] * 1e6:.1f}"]
                for r in rows
            ],
            title="Figure 2: pool size sweep (packet simulator)",
        )
    )


def _print_fig3() -> None:
    rows = E.fig3_speedups()
    print(
        format_table(
            ["model", "speedup @10G", "speedup @100G"],
            [[r["model"], f"{r['speedup_10g']:.2f}x", f"{r['speedup_100g']:.2f}x"]
             for r in rows],
            title="Figure 3: SwitchML speedup over NCCL",
        )
    )


def _print_fig4() -> None:
    rows = E.fig4_microbench()

    def fmt(v):
        return "-" if v is None else f"{v / 1e6:.0f}M"

    print(
        format_table(
            ["rate", "workers", "switchml", "gloo", "nccl", "ded.PS",
             "colo.PS", "line(sw)"],
            [
                [f"{r['rate_gbps']:g}G", r["workers"], fmt(r["switchml"]),
                 fmt(r["gloo"]), fmt(r["nccl"]), fmt(r["dedicated_ps"]),
                 fmt(r["colocated_ps"]), fmt(r["line_rate_switchml"])]
                for r in rows
            ],
            title="Figure 4: ATE/s by strategy",
        )
    )


def _print_fig5() -> None:
    rows = E.fig5_loss_inflation()
    print(
        format_table(
            ["loss", "SwitchML", "Gloo", "NCCL"],
            [[f"{r['loss']:.2%}", f"{r['switchml_inflation']:.2f}x",
              f"{r['gloo_inflation']:.2f}x", f"{r['nccl_inflation']:.2f}x"]
             for r in rows],
            title="Figure 5: TAT inflation under loss",
        )
    )


def _print_fig6() -> None:
    out = E.fig6_timeline()
    for loss, data in out.items():
        print(f"loss {loss:.2%}: TAT {data['tat_s'] * 1e3:.3f} ms")
        print("  " + format_series("sent", data["sent"][:15]))
        if sum(c for _, c in data["resent"]):
            print("  " + format_series("resent", data["resent"][:15]))


def _print_fig7() -> None:
    rows = E.fig7_mtu()
    print(
        format_table(
            ["tensor", "SwitchML", "SwitchML(MTU)", "Ded.PS(MTU)"],
            [[f"{r['tensor_mb']} MB", f"{r['switchml_tat_s'] * 1e3:.0f} ms",
              f"{r['switchml_mtu_tat_s'] * 1e3:.0f} ms",
              f"{r['dedicated_ps_mtu_tat_s'] * 1e3:.0f} ms"]
             for r in rows],
            title="Figure 7: small frames vs MTU",
        )
    )


def _print_fig8() -> None:
    rows = E.fig8_datatypes()
    print(
        format_table(
            ["dtype", "SwitchML TAT", "Gloo TAT"],
            [[r["dtype"], f"{r['switchml_tat_s'] * 1e3:.0f} ms",
              f"{r['gloo_tat_s'] * 1e3:.0f} ms"] for r in rows],
            title="Figure 8: data types (100 MB, 10 Gbps)",
        )
    )


def _print_fig10() -> None:
    rows = E.fig10_quantization()
    print(
        format_table(
            ["scaling factor", "accuracy", "diverged"],
            [["reference" if r["scaling_factor"] is None
              else f"{r['scaling_factor']:.0e}",
              f"{r['accuracy']:.3f}", r["diverged"]] for r in rows],
            title="Figure 10: accuracy vs scaling factor",
        )
    )


def _print_resources(pool: int | None) -> None:
    pools = (pool,) if pool else (128, 512)
    rows = E.switch_resources(pool_sizes=tuple(pools))
    print(
        format_table(
            ["pool", "value SRAM (KB)", "total (KB)", "of pipeline", "stages"],
            [[r["pool_size"], f"{r['value_sram_kb']:.0f}",
              f"{r['total_sram_kb']:.1f}", f"{r['sram_fraction']:.3%}",
              f"{r['stages']}/{TOFINO.num_stages}"] for r in rows],
            title="SS5.5: switch resources",
        )
    )


def _plot_fig2() -> None:
    rows = E.fig2_pool_size()
    print(
        line_plot(
            {
                "TAT (ms)": [(r["pool_size"], r["tat_s"] * 1e3) for r in rows],
                "RTT (us)": [(r["pool_size"], r["mean_rtt_s"] * 1e6) for r in rows],
            },
            title="Figure 2: pool size vs TAT and RTT (log-log)",
            log_x=True, log_y=True,
        )
    )


def _plot_fig3() -> None:
    rows = E.fig3_speedups()
    print(
        bar_chart(
            [r["model"] for r in rows],
            [r["speedup_10g"] for r in rows],
            title="Figure 3: speedup over NCCL at 10 Gbps",
            unit="x",
        )
    )


def _plot_fig5() -> None:
    rows = E.fig5_loss_inflation()
    print(
        line_plot(
            {
                "SwitchML": [(r["loss"], r["switchml_inflation"]) for r in rows],
                "Gloo": [(r["loss"], r["gloo_inflation"]) for r in rows],
            },
            title="Figure 5: TAT inflation vs loss (log-log)",
            log_x=True, log_y=True,
        )
    )


def _plot_fig6() -> None:
    out = E.fig6_timeline()
    print("Figure 6: packets per bucket at worker 0 (intensity strips)")
    for loss, data in out.items():
        strip = sparkline([c for _, c in data["sent"]], width=60)
        print(f"  loss {loss:6.2%} |{strip}| TAT {data['tat_s'] * 1e3:.2f} ms")


def _plot_fig10() -> None:
    rows = [r for r in E.fig10_quantization() if r["scaling_factor"]]
    print(
        line_plot(
            {"accuracy": [(r["scaling_factor"], max(r["accuracy"], 1e-3))
                           for r in rows]},
            title="Figure 10: accuracy vs scaling factor (log x)",
            log_x=True,
        )
    )


_FIGURES = {
    "fig2": _plot_fig2,
    "fig3": _plot_fig3,
    "fig5": _plot_fig5,
    "fig6": _plot_fig6,
    "fig10": _plot_fig10,
}


_EXPERIMENTS = {
    "table1": _print_table1,
    "fig2": _print_fig2,
    "fig3": _print_fig3,
    "fig4": _print_fig4,
    "fig5": _print_fig5,
    "fig6": _print_fig6,
    "fig7": _print_fig7,
    "fig8": _print_fig8,
    "fig10": _print_fig10,
}

#: the raw rows behind each experiment, for ``--json``
_EXPERIMENT_DATA = {
    "table1": E.table1,
    "fig2": E.fig2_pool_size,
    "fig3": E.fig3_speedups,
    "fig4": E.fig4_microbench,
    "fig5": E.fig5_loss_inflation,
    "fig6": E.fig6_timeline,
    "fig7": E.fig7_mtu,
    "fig8": E.fig8_datatypes,
    "fig10": E.fig10_quantization,
}


def _json_default(obj):
    """Coerce numpy scalars/arrays for ``json.dumps``."""
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _emit_json(data) -> None:
    print(json.dumps(data, indent=2, default=_json_default))


def _cmd_allreduce(args: argparse.Namespace) -> None:
    rate = args.rate
    n_elem = int(args.mbytes * 1e6 / 4)
    job = SwitchMLJob(
        SwitchMLConfig(
            num_workers=args.workers,
            pool_size=pool_size_for_rate(rate),
            link=LinkSpec(rate_gbps=rate),
            seed=args.seed,
        )
    )
    out = job.all_reduce(num_elements=n_elem, verify=False)
    ate = out.aggregated_elements_per_second(n_elem)
    if getattr(args, "json", False):
        _emit_json({
            "workers": args.workers,
            "rate_gbps": rate,
            "tensor_mbytes": args.mbytes,
            "tat_s": out.max_tat,
            "ate_per_s": ate,
            "line_rate_fraction": ate / line_rate_ate(rate),
            "mean_rtt_s": out.mean_rtt,
            "retransmissions": out.retransmissions,
            "frames_lost": out.frames_lost,
        })
        return
    print(f"{args.workers} workers, {rate:g} Gbps, {args.mbytes:g} MB tensor")
    print(f"TAT {out.max_tat * 1e3:.3f} ms | ATE/s {ate / 1e6:.1f}M "
          f"({ate / line_rate_ate(rate):.1%} of line rate) | "
          f"mean RTT {out.mean_rtt * 1e6:.1f} us")


def _cmd_violin(args: argparse.Namespace) -> None:
    from repro.harness.distributions import measure_tat_distribution
    from repro.net.loss import BernoulliLoss

    job = SwitchMLJob(
        SwitchMLConfig(
            num_workers=args.workers,
            pool_size=pool_size_for_rate(args.rate),
            timeout_s=1e-4,
            link=LinkSpec(rate_gbps=args.rate),
            loss_factory=lambda: BernoulliLoss(args.loss),
        )
    )
    dist = measure_tat_distribution(
        job, num_elements=int(args.mbytes * 1e6 / 4),
        repetitions=args.repetitions,
    )
    print(f"{args.repetitions} aggregations of {args.mbytes:g} MB on "
          f"{args.workers} x {args.rate:g} Gbps (loss {args.loss:.2%})")
    print(f"TAT {dist.summary()}")
    print(dist.violin())


def _cmd_faults(args: argparse.Namespace) -> None:
    """Run a controller-managed all-reduce through one fault scenario."""
    from repro.controlplane import (
        ControlPlaneConfig,
        Controller,
        CrashWorker,
        FaultInjector,
        FaultPlan,
        FlapLink,
        RebootSwitch,
    )
    from repro.harness.telemetry import control_plane_summary

    ctl = Controller(
        ControlPlaneConfig(num_workers=args.workers, pool_size=args.pool,
                           seed=args.seed)
    )
    at = args.at_ms * 1e-3
    down = args.down_ms * 1e-3
    if args.scenario == "worker-crash":
        plan = FaultPlan([CrashWorker(member=args.member, at_s=at)])
    elif args.scenario == "switch-reboot":
        plan = FaultPlan([RebootSwitch(at_s=at, down_for_s=down)])
    else:  # link-flap
        plan = FaultPlan([FlapLink(member=args.member, at_s=at,
                                   down_for_s=down)])
    FaultInjector(ctl, plan).arm()

    n_elem = int(args.mbytes * 1e6 / 4)
    rng = np.random.default_rng(args.seed)
    tensors = [rng.integers(-100, 100, n_elem).astype(np.int64)
               for _ in range(args.workers)]
    result = ctl.run_collective(tensors, deadline_s=5.0)

    print(f"scenario {args.scenario}: {args.workers} workers, "
          f"{args.mbytes:g} MB tensor, fault at {args.at_ms:g} ms")
    print(f"completed={result.completed} survivors={result.survivors} "
          f"epoch={result.epoch} elapsed={result.elapsed_s * 1e3:.3f} ms")
    print(control_plane_summary(ctl))


def _cmd_fabric(args: argparse.Namespace) -> int:
    """Run one all-reduce on a controller-supervised 2-tier Clos."""
    from repro.net.fabric import (
        CrashSpine,
        FabricConfig,
        FabricFaultInjector,
        FabricFaultPlan,
        FabricJob,
        FlapFabricLink,
        StragglerRack,
        fabric_summary,
    )
    from repro.net.loss import BernoulliLoss, NoLoss
    from repro.obs import Observability

    job = FabricJob(
        FabricConfig(
            num_leaves=args.leaves,
            num_spines=args.spines,
            workers_per_leaf=args.workers_per_leaf,
            pool_size=args.pool,
            loss_factory=(lambda: BernoulliLoss(args.loss))
            if args.loss
            else NoLoss,
            obs=Observability(tracing_enabled=False),
            seed=args.seed,
        )
    )
    at = args.at_ms * 1e-3
    down = args.down_ms * 1e-3
    plan = FabricFaultPlan()
    initial_active = job.active_spine
    spine = initial_active if args.spine is None else args.spine
    if args.scenario == "spine-crash":
        plan.add(CrashSpine(spine=spine, at_s=at))
    elif args.scenario == "link-flap":
        plan.add(FlapFabricLink(leaf=args.leaf, spine=spine, at_s=at,
                                down_for_s=down))
    elif args.scenario == "straggler":
        plan.add(StragglerRack(leaf=args.leaf, at_s=at, down_for_s=down))
    if plan.faults:
        FabricFaultInjector(job, plan).arm()

    n_elem = args.elements or int(args.mbytes * 1e6 / 4)
    rng = np.random.default_rng(args.seed)
    tensors = [rng.integers(-100, 100, n_elem).astype(np.int64)
               for _ in range(job.config.num_workers)]
    result = job.all_reduce(tensors, deadline_s=args.deadline_s)

    if args.json:
        _emit_json({
            "leaves": args.leaves,
            "spines": args.spines,
            "workers": job.config.num_workers,
            "scenario": args.scenario,
            "completed": result.completed,
            "state": result.state,
            "epoch": result.epoch,
            "reroutes": [
                {
                    "cause": r.cause,
                    "from_spine": r.from_spine,
                    "to_spine": r.to_spine,
                    "epoch_after": r.epoch_after,
                    "resumed_from_element": r.resumed_from_element,
                    "recovery_s": r.recovery_time,
                    "detection_s": r.detection_lag,
                }
                for r in result.reroutes
            ],
            "stale_epoch_drops": result.stale_epoch_drops,
            "retransmissions": result.retransmissions,
            "max_tat_s": result.max_tat if result.completed else None,
            "elapsed_s": result.elapsed_s,
        })
    else:
        print(f"scenario {args.scenario}: {args.leaves}x{args.spines} Clos, "
              f"{job.config.num_workers} workers, {n_elem} elements, "
              f"fault at {args.at_ms:g} ms")
        print(f"completed={result.completed} epoch={result.epoch} "
              f"reroutes={len(result.reroutes)} "
              f"elapsed={result.elapsed_s * 1e3:.3f} ms")
        if args.dashboard:
            print(job.dashboard().summary())
        else:
            print(fabric_summary(job))

    if args.check_recovery:
        # a crash of the homing spine, or a flap of one of its trunks,
        # must have forced a re-homing for the run to count as recovered
        needs_reroute = args.scenario == "spine-crash" or (
            args.scenario == "link-flap" and spine == initial_active
        )
        ok = result.completed and (not needs_reroute or result.reroutes)
        if not ok:
            print("fabric: recovery check FAILED", file=sys.stderr)
            return 1
    return 0


def _cmd_telemetry(args: argparse.Namespace) -> int:
    """In-band telemetry over a fabric run: series, detectors, placement."""
    from repro.net.fabric import (
        CongestTrunk,
        FabricConfig,
        FabricFaultInjector,
        FabricFaultPlan,
        FabricJob,
    )
    from repro.obs import Observability, telemetry_json, write_telemetry_json

    obs = Observability(tracing_enabled=False, telemetry=True)
    job = FabricJob(
        FabricConfig(
            num_leaves=args.leaves,
            num_spines=args.spines,
            workers_per_leaf=args.workers_per_leaf,
            obs=obs,
            seed=args.seed,
        )
    )
    active = job.active_spine
    congested_trunk = None
    if args.congest:
        congested_trunk = f"leaf{args.leaf}->spine{active}"
        plan = FabricFaultPlan().add(
            CongestTrunk(
                leaf=args.leaf,
                spine=active,
                at_s=args.at_ms * 1e-3,
                down_for_s=args.down_ms * 1e-3,
                fraction=args.fraction,
            )
        )
        FabricFaultInjector(job, plan).arm()

    n_elem = args.elements or int(args.mbytes * 1e6 / 4)
    result = job.all_reduce(num_elements=n_elem, deadline_s=args.deadline_s)

    hub = obs.telemetry
    controller = job.controller
    loads = controller.spine_loads()
    placed = controller.place_load_aware(job.job_id)
    congested = {r.link for r in hub.congestion_reports()}

    if args.out:
        path = write_telemetry_json(hub, args.out)
        print(f"telemetry json: {path}", file=sys.stderr)
    if args.json:
        _emit_json({
            "completed": result.completed,
            "elapsed_s": result.elapsed_s,
            "congested_trunk_injected": congested_trunk,
            "telemetry": telemetry_json(hub),
            "spine_loads": {f"spine{s}": l for s, l in loads.items()},
            "place_load_aware": placed,
        })
    else:
        print(f"telemetry run: {args.leaves}x{args.spines} Clos, "
              f"{job.config.num_workers} workers, {n_elem} elements, "
              f"completed={result.completed}")
        if congested_trunk is not None:
            print(f"injected congestion: {congested_trunk} at "
                  f"{args.fraction:g}x line rate for {args.down_ms:g} ms")
        print()
        print(hub.summary())
        print()
        print("spine loads: " + ", ".join(
            f"spine{s}={l:.3f}" for s, l in sorted(loads.items())))
        print(f"load-aware placement for job {job.job_id}: spine{placed}")

    if args.check:
        ok = result.completed and hub.collector.frames_drained > 0
        if not ok:
            print("telemetry: no frames drained", file=sys.stderr)
        if args.congest:
            if congested_trunk not in congested:
                print(f"telemetry: congestion detector missed "
                      f"{congested_trunk} (flagged: {sorted(congested)})",
                      file=sys.stderr)
                ok = False
            if placed == active:
                print(f"telemetry: load-aware placement stayed on the "
                      f"congested spine{active}", file=sys.stderr)
                ok = False
        if not ok:
            print("telemetry: check FAILED", file=sys.stderr)
            return 1
        print("telemetry check passed")
    return 0


def _parse_knob(text: str) -> tuple[str, object]:
    """``key=value`` with JSON-typed values (bare words stay strings)."""
    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(
            f"expected key=value, got {text!r}"
        )
    try:
        return key, json.loads(raw)
    except json.JSONDecodeError:
        return key, raw


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Shard one scenario across seeds/grid points/processes."""
    from repro.sweep import SCENARIOS, make_tasks, run_sweep, sweep_summary
    from repro.sweep.scenarios import SCENARIO_KNOBS, check_knobs

    if args.scenario not in SCENARIOS:
        print(f"sweep: unknown scenario {args.scenario!r} "
              f"(have {', '.join(sorted(SCENARIOS))})", file=sys.stderr)
        return 2
    params = dict(p for p in (args.param or []))
    grid: dict[str, list] = {}
    for key, raw in (args.grid or []):
        values = raw if isinstance(raw, list) else [
            _parse_knob(f"_={v}")[1] for v in str(raw).split(",")
        ]
        grid[key] = values
    try:
        check_knobs(
            [*params, *grid], SCENARIO_KNOBS[args.scenario],
            f"sweep {args.scenario}",
        )
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    tasks = make_tasks(
        args.scenario, args.seed, args.seeds, params=params, grid=grid
    )

    def _progress(rec: dict) -> None:
        mark = "ok" if rec.get("ok") else "FAIL"
        print(f"  [{mark}] {rec['task_id']} ({rec.get('wall_s', 0.0):.2f}s)")

    result = run_sweep(
        tasks, artifact=args.out, procs=args.procs, resume=args.resume,
        on_record=None if args.json else _progress,
    )
    summary = sweep_summary(result, label=args.label)
    if args.summary_out:
        Path(args.summary_out).write_text(
            json.dumps(summary, indent=2) + "\n"
        )
    if args.json:
        _emit_json(summary)
    else:
        print(f"sweep {args.scenario}: {summary['tasks_total']} tasks "
              f"({summary['tasks_run']} ran, {summary['tasks_skipped']} "
              f"resumed, {summary['tasks_failed']} failed)")
        for tid in summary["failed_task_ids"]:
            rec = result.records[tid]
            print(f"  FAIL {tid}: {rec.get('error', '?')}", file=sys.stderr)
    if args.check and not result.ok:
        return 1
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    """Random fault plans against the tier-1 invariants."""
    from repro.sweep import replay_draw, run_fuzz

    if args.replay:
        payload = json.loads(Path(args.replay).read_text())
        # accept a bare draw, a fuzz record, or a minimized entry
        draw = payload.get("draw", payload) if isinstance(payload, dict) else payload
        if "result" in draw:
            draw = draw["result"]["draw"]
        try:
            out = replay_draw(draw)
        except ValueError as exc:  # a stale or malformed line, not a finding
            print(f"fuzz --replay: {exc}", file=sys.stderr)
            return 2
        _emit_json({"draw": draw, **out})
        return 1 if out["violations"] else 0

    domains = tuple(args.domains.split(","))
    report = run_fuzz(
        budget=args.budget,
        root_seed=args.seed,
        procs=args.procs,
        artifact=args.out,
        domains=domains,
        minimize=not args.no_minimize,
        resume=args.resume,
    )
    if args.json:
        _emit_json({
            "budget": report.budget,
            "root_seed": report.root_seed,
            "draws": report.draws,
            "ok": report.ok,
            "errors": report.errors,
            "failures": [
                {"task_id": f.task_id, "draw": f.draw,
                 "violations": f.violations, "observables": f.observables}
                for f in report.failures
            ],
            "minimized": report.minimized,
        })
    else:
        print(f"fuzz: {report.draws}/{report.budget} draws, "
              f"{len(report.failures)} failing, "
              f"{len(report.errors)} harness errors "
              f"(root seed {report.root_seed}, domains {','.join(domains)})")
        for err in report.errors:
            print(f"  ERROR {err}", file=sys.stderr)
        for entry in report.minimized:
            print(f"  FAIL {entry['task_id']}: {entry['violations']}",
                  file=sys.stderr)
            print(f"    replay: {json.dumps(entry['draw'], sort_keys=True)}",
                  file=sys.stderr)
        if report.ok:
            print("fuzz: all invariants held")
    return 0 if report.ok else 1


def _obs_allreduce(args: argparse.Namespace):
    """One fully instrumented all-reduce; returns ``(job, obs)``."""
    from repro.net.loss import BernoulliLoss, NoLoss
    from repro.obs import Observability

    obs = Observability()
    loss = args.loss
    job = SwitchMLJob(
        SwitchMLConfig(
            num_workers=args.workers,
            pool_size=pool_size_for_rate(args.rate),
            timeout_s=1e-4 if loss else 1e-3,
            link=LinkSpec(rate_gbps=args.rate),
            loss_factory=(lambda: BernoulliLoss(loss)) if loss else NoLoss,
            obs=obs,
            seed=args.seed,
        )
    )
    job.all_reduce(num_elements=int(args.mbytes * 1e6 / 4), verify=False)
    return job, obs


def _cmd_obs_trace(args: argparse.Namespace) -> None:
    """Export a run as Chrome trace JSON + JSONL events + metrics."""
    from pathlib import Path

    from repro.obs import validate_chrome_trace, write_chrome_trace, write_jsonl

    job, obs = _obs_allreduce(args)
    out = Path(args.out)
    trace_path = write_chrome_trace(obs.tracer, out / "trace.json")
    events_path = write_jsonl(obs.tracer, out / "events.jsonl")
    metrics_path = out / "metrics.json"
    metrics_path.write_text(
        json.dumps(obs.metrics.as_dict(), indent=2, sort_keys=True) + "\n"
    )
    n = validate_chrome_trace(trace_path)
    print(f"{len(obs.tracer)} events over {job.sim.now * 1e3:.3f} ms simulated")
    print(f"chrome trace: {trace_path} ({n} trace events; open in Perfetto)")
    print(f"jsonl events: {events_path}")
    print(f"metrics:      {metrics_path}")


def _cmd_obs_metrics(args: argparse.Namespace) -> None:
    """Dump the metrics registry after one instrumented run."""
    _job, obs = _obs_allreduce(args)
    if args.json:
        _emit_json(obs.metrics.as_dict())
    else:
        print(obs.metrics.render())


def _cmd_obs_dashboard(args: argparse.Namespace) -> None:
    """The unified report, over a bare or fault-injected managed run."""
    from repro.obs import Dashboard

    if args.scenario == "none":
        job, _obs = _obs_allreduce(args)
        print(Dashboard.from_job(job).summary())
        return

    from repro.controlplane import (
        ControlPlaneConfig,
        Controller,
        CrashWorker,
        FaultInjector,
        FaultPlan,
        FlapLink,
        RebootSwitch,
    )
    from repro.obs import Observability

    obs = Observability()
    ctl = Controller(
        ControlPlaneConfig(num_workers=args.workers, obs=obs, seed=args.seed)
    )
    at = args.at_ms * 1e-3
    if args.scenario == "worker-crash":
        plan = FaultPlan([CrashWorker(member=args.member, at_s=at)])
    elif args.scenario == "switch-reboot":
        plan = FaultPlan([RebootSwitch(at_s=at, down_for_s=args.down_ms * 1e-3)])
    else:  # link-flap
        plan = FaultPlan([FlapLink(member=args.member, at_s=at,
                                   down_for_s=args.down_ms * 1e-3)])
    FaultInjector(ctl, plan).arm()
    n_elem = int(args.mbytes * 1e6 / 4)
    rng = np.random.default_rng(args.seed)
    tensors = [rng.integers(-100, 100, n_elem).astype(np.int64)
               for _ in range(args.workers)]
    ctl.run_collective(tensors, deadline_s=5.0)
    print(Dashboard.from_controller(ctl).summary())


def _add_obs_run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--rate", type=float, default=10.0, help="link Gbps")
    p.add_argument("--mbytes", type=float, default=0.1, help="tensor MB")
    p.add_argument("--loss", type=float, default=0.0, help="loss probability")
    p.add_argument("--seed", type=int, default=0)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="SwitchML reproduction toolbox"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    exp.add_argument("name", choices=sorted(_EXPERIMENTS))
    exp.add_argument("--json", action="store_true",
                     help="emit the raw rows as JSON instead of a table")

    fig = sub.add_parser("figure", help="draw a figure's shape in the terminal")
    fig.add_argument("name", choices=sorted(_FIGURES))

    ar = sub.add_parser("allreduce", help="run one all-reduce on the simulator")
    ar.add_argument("--workers", type=int, default=8)
    ar.add_argument("--rate", type=float, default=10.0, help="link Gbps")
    ar.add_argument("--mbytes", type=float, default=4.0, help="tensor MB")
    ar.add_argument("--seed", type=int, default=0)
    ar.add_argument("--json", action="store_true",
                    help="emit the run's measurements as JSON")

    res = sub.add_parser("resources", help="switch resource report")
    res.add_argument("--pool", type=int, default=None)

    sub.add_parser("claims", help="run the executable audit of the paper's claims")

    vio = sub.add_parser(
        "violin", help="SS5.1 methodology: TAT distribution over N tensors"
    )
    vio.add_argument("--workers", type=int, default=8)
    vio.add_argument("--rate", type=float, default=10.0)
    vio.add_argument("--mbytes", type=float, default=0.5)
    vio.add_argument("--loss", type=float, default=0.0)
    vio.add_argument("--repetitions", type=int, default=50)

    flt = sub.add_parser(
        "faults",
        help="inject a failure into a controller-managed all-reduce and "
             "report detection, recovery phases, and availability",
        aliases=["recover"],
    )
    flt.add_argument(
        "--scenario",
        choices=("worker-crash", "switch-reboot", "link-flap"),
        default="worker-crash",
    )
    flt.add_argument("--workers", type=int, default=4)
    flt.add_argument("--pool", type=int, default=16)
    flt.add_argument("--member", type=int, default=2,
                     help="which worker to crash / whose link to flap")
    flt.add_argument("--at-ms", type=float, default=0.3,
                     help="fault injection time")
    flt.add_argument("--down-ms", type=float, default=10.0,
                     help="outage duration (reboot / flap)")
    flt.add_argument("--mbytes", type=float, default=0.5, help="tensor MB")
    flt.add_argument("--seed", type=int, default=0)

    fab = sub.add_parser(
        "fabric",
        help="run an all-reduce on a 2-tier Clos fabric under the fabric "
             "controller, optionally through a cross-rack fault",
    )
    fab.add_argument("--leaves", type=int, default=4)
    fab.add_argument("--spines", type=int, default=2)
    fab.add_argument("--workers-per-leaf", type=int, default=4)
    fab.add_argument("--pool", type=int, default=16)
    fab.add_argument("--mbytes", type=float, default=0.04, help="tensor MB")
    fab.add_argument("--elements", type=int, default=None,
                     help="tensor elements per worker (overrides --mbytes)")
    fab.add_argument("--loss", type=float, default=0.0,
                     help="per-link loss probability")
    fab.add_argument(
        "--scenario",
        choices=("none", "spine-crash", "link-flap", "straggler"),
        default="none",
    )
    fab.add_argument("--leaf", type=int, default=0,
                     help="target leaf (link-flap / straggler)")
    fab.add_argument("--spine", type=int, default=None,
                     help="target spine (defaults to the active one)")
    fab.add_argument("--at-ms", type=float, default=0.2,
                     help="fault injection time")
    fab.add_argument("--down-ms", type=float, default=3.0,
                     help="outage duration (flap / straggler)")
    fab.add_argument("--deadline-s", type=float, default=5.0,
                     help="simulated-time deadline for the collective")
    fab.add_argument("--seed", type=int, default=0)
    fab.add_argument("--dashboard", action="store_true",
                     help="print the full obs dashboard after the run")
    fab.add_argument("--check-recovery", action="store_true",
                     help="exit 1 unless the run completed (and rerouted, "
                          "where the scenario demands one)")
    fab.add_argument("--json", action="store_true")

    tel = sub.add_parser(
        "telemetry",
        help="in-band network telemetry over a fabric run: per-link time "
             "series, congestion/straggler/hot-spine detectors, and the "
             "load-aware placement they feed",
    )
    tel.add_argument("--leaves", type=int, default=2)
    tel.add_argument("--spines", type=int, default=2)
    tel.add_argument("--workers-per-leaf", type=int, default=4)
    tel.add_argument("--mbytes", type=float, default=0.26, help="tensor MB")
    tel.add_argument("--elements", type=int, default=None,
                     help="tensor elements per worker (overrides --mbytes)")
    tel.add_argument("--congest", action="store_true",
                     help="inject background traffic on the active spine's "
                          "uplink (CongestTrunk fault)")
    tel.add_argument("--leaf", type=int, default=0,
                     help="leaf whose uplink gets congested")
    tel.add_argument("--fraction", type=float, default=1.05,
                     help="background traffic as a fraction of line rate")
    tel.add_argument("--at-ms", type=float, default=0.2,
                     help="congestion start time")
    tel.add_argument("--down-ms", type=float, default=1.5,
                     help="congestion duration")
    tel.add_argument("--deadline-s", type=float, default=5.0)
    tel.add_argument("--seed", type=int, default=0)
    tel.add_argument("--out", default=None,
                     help="write the telemetry snapshot as JSON to this path")
    tel.add_argument("--check", action="store_true",
                     help="exit 1 unless series are non-empty (and, with "
                          "--congest, the detector flags the loaded trunk "
                          "and placement avoids it)")
    tel.add_argument("--json", action="store_true")

    swp = sub.add_parser(
        "sweep",
        help="shard many independent simulations across processes, "
             "streaming a resumable JSONL artifact (see docs/TESTING.md)",
    )
    swp.add_argument("--scenario", default="fig4_lossy",
                     help="scenario name from the sweep registry")
    swp.add_argument("--seeds", type=int, default=8,
                     help="number of seed indices per grid point")
    swp.add_argument("--seed", type=int, default=0,
                     help="root seed; per-task seeds derive from it")
    swp.add_argument("--procs", type=int, default=1,
                     help="worker processes (1 = inline)")
    swp.add_argument("--out", default=None,
                     help="JSONL artifact path (one record per task)")
    swp.add_argument("--resume", action="store_true",
                     help="skip tasks already completed in --out")
    swp.add_argument("--param", type=_parse_knob, action="append",
                     metavar="KEY=VALUE",
                     help="scenario knob shared by every task (repeatable)")
    swp.add_argument("--grid", type=_parse_knob, action="append",
                     metavar="KEY=V1,V2,...",
                     help="sweep axis: the cartesian product over all "
                          "--grid axes expands into tasks (repeatable)")
    swp.add_argument("--label", default="", help="free-form summary label")
    swp.add_argument("--summary-out", default=None,
                     help="write the sweep summary JSON here")
    swp.add_argument("--check", action="store_true",
                     help="exit 1 if any task failed")
    swp.add_argument("--json", action="store_true",
                     help="print the full summary document")

    fz = sub.add_parser(
        "fuzz",
        help="random fault plans + protocol knobs, tier-1 invariants "
             "asserted on every draw; failures minimized and replayable",
    )
    fz.add_argument("--budget", type=int, default=50,
                    help="number of fuzz draws")
    fz.add_argument("--seed", type=int, default=0,
                    help="root seed; draw i replays as fuzz#d<i>")
    fz.add_argument("--procs", type=int, default=1,
                    help="worker processes (1 = inline)")
    fz.add_argument("--out", default=None,
                    help="JSONL artifact path (doubles as replay corpus)")
    fz.add_argument("--resume", action="store_true",
                    help="skip draws already completed in --out")
    fz.add_argument("--domains", default="flat,rack,fabric",
                    help="comma-separated fuzz domains")
    fz.add_argument("--no-minimize", action="store_true",
                    help="report failures without shrinking them")
    fz.add_argument("--replay", default=None, metavar="DRAW_JSON",
                    help="re-run one serialized draw (a JSON file holding "
                         "a draw, a fuzz record, or a minimized entry) "
                         "instead of fuzzing")
    fz.add_argument("--json", action="store_true",
                    help="emit the full report as JSON")

    obs_p = sub.add_parser(
        "obs",
        help="observability: trace export, metrics dump, unified dashboard",
    )
    obs_sub = obs_p.add_subparsers(dest="obs_command", required=True)
    otr = obs_sub.add_parser(
        "trace",
        help="run an instrumented all-reduce and export Chrome trace "
             "(Perfetto), JSONL events, and a metrics snapshot",
    )
    _add_obs_run_args(otr)
    otr.add_argument("--out", default="obs-out", help="output directory")
    omt = obs_sub.add_parser("metrics", help="dump the metrics registry")
    _add_obs_run_args(omt)
    omt.add_argument("--json", action="store_true")
    odb = obs_sub.add_parser(
        "dashboard",
        help="print the unified dashboard for a run, optionally through "
             "a fault scenario (managed by the control plane)",
    )
    _add_obs_run_args(odb)
    odb.add_argument(
        "--scenario",
        choices=("none", "worker-crash", "switch-reboot", "link-flap"),
        default="none",
    )
    odb.add_argument("--member", type=int, default=2)
    odb.add_argument("--at-ms", type=float, default=0.3)
    odb.add_argument("--down-ms", type=float, default=10.0)

    args = parser.parse_args(argv)
    if args.command == "list":
        for name in sorted(_EXPERIMENTS):
            print(name)
    elif args.command == "experiment":
        if args.json:
            _emit_json(_EXPERIMENT_DATA[args.name]())
        else:
            _EXPERIMENTS[args.name]()
    elif args.command == "figure":
        _FIGURES[args.name]()
    elif args.command == "allreduce":
        _cmd_allreduce(args)
    elif args.command == "resources":
        _print_resources(args.pool)
    elif args.command == "violin":
        _cmd_violin(args)
    elif args.command in ("faults", "recover"):
        _cmd_faults(args)
    elif args.command == "fabric":
        return _cmd_fabric(args)
    elif args.command == "telemetry":
        return _cmd_telemetry(args)
    elif args.command == "sweep":
        return _cmd_sweep(args)
    elif args.command == "fuzz":
        return _cmd_fuzz(args)
    elif args.command == "obs":
        if args.obs_command == "trace":
            _cmd_obs_trace(args)
        elif args.obs_command == "metrics":
            _cmd_obs_metrics(args)
        else:
            _cmd_obs_dashboard(args)
    elif args.command == "claims":
        from repro.harness.claims import audit

        results = audit()
        failed = 0
        for claim, passed in results:
            mark = "PASS" if passed else "FAIL"
            if not passed:
                failed += 1
            print(f"[{mark}] {claim.section:12s} {claim.text}")
        print(f"\n{len(results) - failed}/{len(results)} claims verified")
        return 1 if failed else 0
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess test
    sys.exit(main())
