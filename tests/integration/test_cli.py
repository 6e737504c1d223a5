"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("table1", "fig2", "fig10"):
            assert name in out

    def test_resources(self, capsys):
        assert main(["resources"]) == 0
        out = capsys.readouterr().out
        assert "128" in out and "512" in out

    def test_resources_custom_pool(self, capsys):
        assert main(["resources", "--pool", "256"]) == 0
        assert "256" in capsys.readouterr().out

    def test_allreduce(self, capsys):
        assert main(["allreduce", "--workers", "2", "--mbytes", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "TAT" in out and "ATE/s" in out

    def test_experiment_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        out = capsys.readouterr().out
        assert "inception3" in out and "switchml" in out

    def test_experiment_fig3(self, capsys):
        assert main(["experiment", "fig3"]) == 0
        out = capsys.readouterr().out
        assert "vgg16" in out

    def test_experiment_fig7(self, capsys):
        assert main(["experiment", "fig7"]) == 0
        assert "MTU" in capsys.readouterr().out

    def test_experiment_fig8(self, capsys):
        assert main(["experiment", "fig8"]) == 0
        assert "float16" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    def test_no_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestCliFigures:
    def test_figure_fig3_bar_chart(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["figure", "fig3"]) == 0
        out = capsys.readouterr().out
        assert "#" in out and "vgg16" in out

    def test_figure_fig2_line_plot(self, capsys, monkeypatch):
        # the plot path on TestFig2's smaller sweep (which asserts the
        # knee shape); the full default curve takes ~30 s
        import functools

        from repro.cli import main as cli_main
        from repro.harness import experiments

        monkeypatch.setattr(experiments, "fig2_pool_size", functools.partial(
            experiments.fig2_pool_size,
            pool_sizes=(8, 32, 128, 256), num_elements=64 * 1024,
        ))
        assert cli_main(["figure", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "TAT" in out and "RTT" in out and "|" in out

    def test_unknown_figure_rejected(self):
        import pytest as _pytest

        from repro.cli import main as cli_main

        with _pytest.raises(SystemExit):
            cli_main(["figure", "fig99"])


class TestCliViolin:
    def test_violin_subcommand(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main([
            "violin", "--workers", "2", "--mbytes", "0.05",
            "--repetitions", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "median" in out and "ms |" in out


class TestCliJson:
    def test_experiment_json_is_machine_readable(self, capsys):
        import json as _json

        assert main(["experiment", "fig7", "--json"]) == 0
        rows = _json.loads(capsys.readouterr().out)
        assert isinstance(rows, list) and rows
        assert any("mtu" in str(k).lower() for k in rows[0])

    def test_allreduce_json(self, capsys):
        import json as _json

        assert main([
            "allreduce", "--workers", "2", "--mbytes", "0.05", "--json",
        ]) == 0
        data = _json.loads(capsys.readouterr().out)
        assert data["workers"] == 2
        assert data["tat_s"] > 0
        assert 0 < data["line_rate_fraction"] <= 1.0


class TestCliObs:
    def test_obs_trace_writes_valid_artifacts(self, tmp_path, capsys):
        import json as _json

        from repro.obs import validate_chrome_trace

        out = tmp_path / "run"
        assert main([
            "obs", "trace", "--out", str(out),
            "--workers", "2", "--mbytes", "0.02", "--loss", "0.01",
        ]) == 0
        assert validate_chrome_trace(out / "trace.json") > 0
        events = [_json.loads(line)
                  for line in (out / "events.jsonl").read_text().splitlines()]
        assert any(e["name"] == "packet.retx" for e in events)
        metrics = _json.loads((out / "metrics.json").read_text())
        assert "worker_packets_sent_total{wid=0}" in metrics
        assert str(out) in capsys.readouterr().out

    def test_obs_metrics_json(self, capsys):
        import json as _json

        assert main([
            "obs", "metrics", "--workers", "2", "--mbytes", "0.02", "--json",
        ]) == 0
        data = _json.loads(capsys.readouterr().out)
        assert data["switch_multicasts_total"] > 0

    def test_obs_dashboard_plain_run(self, capsys):
        assert main([
            "obs", "dashboard", "--workers", "2", "--mbytes", "0.02",
        ]) == 0
        out = capsys.readouterr().out
        assert "observability dashboard" in out
        assert "bottleneck" in out

    def test_obs_dashboard_worker_crash(self, capsys):
        assert main([
            "obs", "dashboard", "--scenario", "worker-crash",
            "--workers", "4", "--mbytes", "0.5",
        ]) == 0
        out = capsys.readouterr().out
        assert "worker-failure" in out
        assert "epoch-fence drops" in out


class TestCliFabric:
    def test_fabric_clean_run(self, capsys):
        assert main(["fabric", "--elements", "2048"]) == 0
        out = capsys.readouterr().out
        assert "completed=True" in out
        assert "state=monitoring" in out

    def test_fabric_spine_crash_check_recovery(self, capsys):
        assert main([
            "fabric", "--scenario", "spine-crash", "--check-recovery",
        ]) == 0
        out = capsys.readouterr().out
        assert "reroutes=1" in out
        assert "epoch=1" in out

    def test_fabric_json(self, capsys):
        import json as _json

        assert main([
            "fabric", "--scenario", "spine-crash", "--elements", "10240",
            "--json",
        ]) == 0
        doc = _json.loads(capsys.readouterr().out)
        assert doc["completed"] is True
        assert doc["epoch"] == 1
        assert len(doc["reroutes"]) == 1
        assert doc["reroutes"][0]["cause"] == "spine-dead"
        assert doc["reroutes"][0]["recovery_s"] > 0

    def test_fabric_dashboard(self, capsys):
        assert main([
            "fabric", "--elements", "2048", "--dashboard",
        ]) == 0
        out = capsys.readouterr().out
        assert "observability dashboard" in out
        assert "rack telemetry" in out
        assert "->" in out  # per-link utilization rows

    def test_fabric_straggler(self, capsys):
        assert main([
            "fabric", "--scenario", "straggler", "--leaf", "1",
            "--down-ms", "1.0", "--elements", "10240",
        ]) == 0
        out = capsys.readouterr().out
        assert "completed=True" in out

    def test_fabric_bad_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["fabric", "--scenario", "leaf-crash"])


class TestCliRetiredKnobs:
    """A command line or replay file from before ``burst_epsilon`` became
    the only execution dial must fail loudly, naming the knob."""

    @pytest.mark.parametrize("flag,knob", [
        ("--grid", "granularity=packet,burst"),
        ("--param", "train_egress=true"),
        ("--param", "train_cap=5"),
        ("--param", "backend=c"),
    ])
    def test_sweep_rejects_retired_knob(self, flag, knob, tmp_path, capsys):
        code = main(["sweep", "--scenario", "fig4_lossy", "--seeds", "1",
                     flag, knob, "--out", str(tmp_path / "s.jsonl")])
        assert code == 2
        assert knob.split("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "s.jsonl").exists()  # nothing ran

    def test_fuzz_replay_rejects_retired_knob(self, tmp_path, capsys):
        import json as _json

        line = tmp_path / "draw.json"
        line.write_text(_json.dumps({
            "domain": "flat", "run_seed": 1,
            "knobs": {"workers": 2, "pool": 8, "elements": 2048,
                      "loss": 0.0, "granularity": "burst",
                      "burst_epsilon": 2e-5},
        }))
        assert main(["fuzz", "--replay", str(line)]) == 2
        assert "granularity" in capsys.readouterr().err

    def test_epsilon_grid_still_sweeps(self, tmp_path, capsys):
        code = main(["sweep", "--scenario", "fig4_lossy", "--seeds", "1",
                     "--param", "workers=2", "--param", "elements=1024",
                     "--grid", "burst_epsilon=0,2e-5", "--check",
                     "--out", str(tmp_path / "s.jsonl")])
        assert code == 0
        assert "2 tasks" in capsys.readouterr().out
