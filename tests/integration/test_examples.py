"""Smoke tests: every example script must run clean end to end."""

import importlib.util
import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, timeout: int = 240) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def load_example(name: str):
    """Import an example script as a module, without running its main()."""
    spec = importlib.util.spec_from_file_location(
        pathlib.Path(name).stem, EXAMPLES / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamples:
    @pytest.mark.slow
    def test_quickstart(self):
        # a 1M-element all-reduce at line rate (~12 s of simulation)
        out = run_example("quickstart.py")
        assert "result verified" in out
        assert "ATE/s" in out

    def test_train_cluster(self):
        out = run_example("train_cluster.py")
        assert "SwitchML" in out and "images/s" in out

    def test_train_cluster_other_model(self):
        result = subprocess.run(
            [sys.executable, str(EXAMPLES / "train_cluster.py"), "vgg16"],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0
        assert "vgg16" in result.stdout

    def test_train_cluster_bad_model(self):
        result = subprocess.run(
            [sys.executable, str(EXAMPLES / "train_cluster.py"), "nope"],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode != 0

    def test_multirack_hierarchy(self):
        out = run_example("multirack_hierarchy.py")
        assert "bandwidth optimality" in out
        assert "bit-exact" in out
        # every rack's uplink stream is one worker's worth
        assert out.count("(1.00x one worker)") == 3

    def test_beyond_the_paper(self):
        out = run_example("beyond_the_paper.py")
        assert "tenancy" in out
        assert "adaptive" in out
        assert "E(x) * E(y)" in out

    def test_lossy_network(self):
        out = run_example("lossy_network.py")
        assert "loss 1.00%" in out
        assert "bit-exact" in out

    @pytest.mark.slow
    def test_measure_like_the_paper(self):
        # the script's 50 repetitions per regime are for reproducing the
        # violins; a handful is enough to tell the two bottlenecks apart
        measure = load_example("measure_like_the_paper.py").measure
        _, telemetry = measure(10.0, repetitions=5)
        assert telemetry.bottleneck == "wire"
        _, telemetry = measure(100.0, repetitions=5)
        assert telemetry.bottleneck == "host-cpu"

    @pytest.mark.slow
    def test_quantization_study(self):
        out = run_example("quantization_study.py", timeout=600)
        assert "plateau" in out
