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

    @pytest.mark.slow
    def test_figure_fig2_line_plot(self, capsys):
        # re-simulates the full fig2 TAT-vs-RTT curve (~25 s)
        from repro.cli import main as cli_main

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


class TestCliBenchTrend:
    """``bench --trend`` reads committed BENCH_*.json baselines and
    prints the per-workload trajectory without running anything."""

    def _write_bench(self, path, label, workloads):
        import json as _json

        doc = {
            "schema": "repro-bench/1",
            "label": label,
            "scale": 1.0,
            "repeats": 3,
            "workloads": {
                name: {
                    "wall_s": wall, "events": ev,
                    "events_per_s": ev / wall,
                    "packets": 100, "packets_per_s": 100 / wall,
                    "extra": {},
                }
                for name, (wall, ev) in workloads.items()
            },
        }
        path.write_text(_json.dumps(doc))

    def test_trend_table(self, tmp_path, capsys):
        self._write_bench(tmp_path / "BENCH_0001.json", "first",
                          {"fig4_lossy": (2.0, 1000)})
        self._write_bench(tmp_path / "BENCH_0002.json", "second",
                          {"fig4_lossy": (1.0, 1000),
                           "fabric_2tier": (3.0, 600)})
        assert main(["bench", "--trend", "--trend-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "BENCH_0001.json: first" in out
        assert "fig4_lossy" in out
        assert "2.00x" in out  # events/s doubled first -> second
        assert "fabric_2tier" in out  # later-added workload shows up

    def test_trend_json_document(self, tmp_path, capsys):
        import json as _json

        self._write_bench(tmp_path / "BENCH_0001.json", "first",
                          {"fig4_lossy": (2.0, 1000)})
        self._write_bench(tmp_path / "BENCH_0002.json", "second",
                          {"fig4_lossy": (1.0, 1000)})
        assert main(["bench", "--trend", "--trend-dir", str(tmp_path),
                     "--json"]) == 0
        doc = _json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro-bench-trend/1"
        assert [b["file"] for b in doc["baselines"]] == [
            "BENCH_0001.json", "BENCH_0002.json",
        ]
        row = doc["workloads"]["fig4_lossy"]
        assert row[0]["wall_s"] == 2.0 and row[1]["wall_s"] == 1.0

    def test_trend_skips_foreign_schemas(self, tmp_path, capsys):
        import json as _json

        self._write_bench(tmp_path / "BENCH_0001.json", "only",
                          {"fig4_lossy": (1.0, 1000)})
        (tmp_path / "BENCH_sweep.json").write_text(
            _json.dumps({"schema": "repro-sweep/1"})
        )
        assert main(["bench", "--trend", "--trend-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "BENCH_sweep" not in out

    def test_trend_empty_dir_errors(self, tmp_path, capsys):
        assert main(["bench", "--trend", "--trend-dir", str(tmp_path)]) == 2
        assert "no BENCH_" in capsys.readouterr().err

    def test_trend_on_committed_baselines(self, capsys):
        # the real repo-root baselines must parse and render
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        assert main(["bench", "--trend", "--trend-dir", str(root)]) == 0
        out = capsys.readouterr().out
        assert "fig4_lossy" in out
        assert "BENCH_0003.json" in out


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
