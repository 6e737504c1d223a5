"""Contract test of the benchmark itself.  Not tier-1; run it explicitly:

    python3 -m pytest perfbench/test_bench_contract.py -q

A ``--scale 0.05`` pass over all five workloads (one untraced and two
traced runs each, about two minutes) plus in-process checks of the
tolerant builder and of the correctness check.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import subprocess
import sys
from types import SimpleNamespace
from typing import Any

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(tmp: str, workload: str, trace: int) -> dict[str, Any]:
    proc = subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--scale", "0.05", "--out", tmp],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = str(tmp_path_factory.mktemp("out"))
    return {
        name: {"plain": _run(tmp, name, 0),
               "traced": [_run(tmp, name, 1), _run(tmp, name, 1)]}
        for name in NAMES
    }


def test_spec_names_and_limits():
    name_re = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = NAMES + [m["name"] for m in metrics]
    assert all(name_re.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]) for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert NAMES == list(workloads.WORKLOADS)


def test_every_source_file_maps_to_a_layer():
    src = os.path.join(ROOT, "src", "repro")
    for root, _, files in os.walk(src):
        for name in files:
            if name.endswith(".py"):
                rel = os.path.relpath(os.path.join(root, name), src)
                assert layers.layer_of(rel) in layers.LAYERS


def test_results_follow_the_contract(runs):
    for name, r in runs.items():
        for result, declared in (
            (r["plain"], SPEC["end_to_end"]),
            (r["traced"][0], SPEC["per_layer"]),
        ):
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["failed"] == 0, name
            assert result["attempted"] >= 1
            assert {k: v["unit"] for k, v in result["metrics"].items()} == {
                m["name"]: m["unit"] for m in declared
            }
        assert all(m["value"] > 0 for m in r["plain"]["metrics"].values()), name


def test_trace_attributes_to_named_layers(runs):
    for name, r in runs.items():
        metrics = r["traced"][0]["metrics"]
        assert metrics["other.share"]["value"] < 0.05, name
        shares = sum(metrics[f"{layer}.share"]["value"] for layer in layers.LAYERS)
        assert abs(shares - 1.0) < 1e-9
        assert metrics["trace.overhead_x"]["value"] > 1.0


def test_exact_metrics_repeat_for_a_fixed_seed(runs):
    for name, r in runs.items():
        first, second = (t["metrics"] for t in r["traced"])
        for metric, m in first.items():
            if m["unit"] in ("count", "sim_s", "1/packet") or metric == "worker.retx_share":
                assert m["value"] == second[metric]["value"], (name, metric)


def test_a_wrong_expected_sum_is_a_failure(monkeypatch):
    surface = workloads.load_surface()
    workload = workloads.WORKLOADS["rack_lossy"]
    specs = workload.specs(7, 0.0)
    assert workload.iteration(surface, specs)["failed"] == 0
    honest = workloads.exact_sum
    monkeypatch.setattr(workloads, "exact_sum", lambda tensors: honest(tensors) + 1)
    it = workload.iteration(surface, specs)
    assert it["failed"] == it["attempted"] == 1


def test_builder_tolerates_removed_knobs():
    """The benchmark runs unmodified on a config without ``granularity``
    / ``train_egress`` -- the shape the ROADMAP's mode collapse leaves."""
    surface = workloads.load_surface()

    @dataclasses.dataclass
    class CollapsedConfig:
        num_workers: int
        pool_size: int
        elements_per_packet: int
        seed: int
        loss_factory: Any
        burst_epsilon: float = 0.0

    def collapsed_job(cfg):
        kept = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}
        cfg, _ = workloads.make_config(
            surface.SwitchMLConfig, kept, {"granularity": "burst", "train_egress": True}
        )
        return surface.SwitchMLJob(cfg)

    collapsed = SimpleNamespace(**vars(surface))
    collapsed.SwitchMLConfig = CollapsedConfig
    collapsed.SwitchMLJob = collapsed_job
    workload = workloads.WORKLOADS["rack_train"]
    specs = workload.specs(7, 0.0)
    today = workload.iteration(surface, specs)
    later = workload.iteration(collapsed, specs)
    assert later["failed"] == 0
    assert later["knobs_applied"] == ["burst_epsilon"]
    assert set(today["knobs_applied"]) >= {"burst_epsilon"}
    assert later["fingerprint"] == today["fingerprint"]
