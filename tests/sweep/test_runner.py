"""The orchestrator's contract: parallel == serial, resume skips done.

The parallel/serial equivalence runs a real scenario sweep across 4
processes and diffs per-task results against the inline run -- the
acceptance criterion that makes ``--procs`` purely a wall-clock knob.
"""

import json
import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.sweep import scenarios
from repro.sweep.runner import (
    execute_task,
    load_artifact,
    run_sweep,
    sweep_summary,
)
from repro.sweep.tasks import TaskSpec, make_tasks


def _strip_wall(rec):
    """Everything but the timing is deterministic."""
    rec = dict(rec)
    rec.pop("wall_s", None)
    rec.pop("traceback", None)
    return rec


class TestExecuteTask:
    def test_runs_a_scenario(self):
        spec = make_tasks("fig4_clean", 0, 1,
                          params={"workers": 2, "elements": 1024})[0]
        rec = execute_task(spec.to_dict())
        assert rec["ok"]
        assert rec["result"]["fingerprint"]["completed"]

    def test_captures_errors_instead_of_raising(self):
        rec = execute_task(
            TaskSpec(task_id="bad", scenario="no-such-scenario",
                     seed=1).to_dict()
        )
        assert not rec["ok"]
        assert "no-such-scenario" in rec["error"]


class TestParallelSerialEquivalence:
    @pytest.mark.slow
    def test_procs4_matches_inline(self, tmp_path):
        tasks = make_tasks(
            "fig4_lossy", 0, 8,
            params={"workers": 4, "elements": 2048, "pool": 16},
        )
        serial = run_sweep(tasks, artifact=tmp_path / "serial.jsonl", procs=1)
        parallel = run_sweep(
            tasks, artifact=tmp_path / "par.jsonl", procs=4
        )
        assert serial.ok and parallel.ok
        for tid in serial.records:
            assert _strip_wall(serial.records[tid]) == _strip_wall(
                parallel.records[tid]
            )


class TestResume:
    def _tasks(self):
        return make_tasks(
            "fig4_clean", 0, 4, params={"workers": 2, "elements": 1024}
        )

    def test_resume_skips_finished_tasks(self, tmp_path):
        art = tmp_path / "sweep.jsonl"
        tasks = self._tasks()
        first = run_sweep(tasks[:2], artifact=art)
        assert sorted(first.ran) == [t.task_id for t in tasks[:2]]

        second = run_sweep(tasks, artifact=art, resume=True)
        assert sorted(second.skipped) == sorted(t.task_id for t in tasks[:2])
        assert sorted(second.ran) == sorted(t.task_id for t in tasks[2:])
        # the artifact now holds every task exactly once
        assert sorted(load_artifact(art)) == sorted(t.task_id for t in tasks)

    def test_resumed_records_identical_to_fresh(self, tmp_path):
        tasks = self._tasks()
        art = tmp_path / "sweep.jsonl"
        run_sweep(tasks[:2], artifact=art)
        resumed = run_sweep(tasks, artifact=art, resume=True)
        fresh = run_sweep(tasks, artifact=tmp_path / "fresh.jsonl")
        for tid in fresh.records:
            assert _strip_wall(fresh.records[tid]) == _strip_wall(
                resumed.records[tid]
            )

    def test_torn_tail_line_is_rerun(self, tmp_path):
        art = tmp_path / "sweep.jsonl"
        tasks = self._tasks()
        run_sweep(tasks, artifact=art)
        lines = art.read_text().splitlines()
        art.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2])
        resumed = run_sweep(tasks, artifact=art, resume=True)
        assert len(resumed.ran) == 1
        assert len(resumed.skipped) == len(tasks) - 1
        assert resumed.ok
        # the re-run record starts on its own line, not on the fragment
        assert set(load_artifact(art)) == {t.task_id for t in tasks}
        again = run_sweep(tasks, artifact=art, resume=True)
        assert again.ran == []
        assert len(again.skipped) == len(tasks)

    def test_root_seed_mismatch_refused(self, tmp_path):
        art = tmp_path / "sweep.jsonl"
        run_sweep(self._tasks(), artifact=art)
        other = make_tasks(
            "fig4_clean", 1, 4, params={"workers": 2, "elements": 1024}
        )
        with pytest.raises(ValueError, match="different root"):
            run_sweep(other, artifact=art, resume=True)

    def test_failed_records_are_rerun(self, tmp_path):
        art = tmp_path / "sweep.jsonl"
        tasks = self._tasks()
        run_sweep(tasks, artifact=art)
        records = [json.loads(l) for l in art.read_text().splitlines()]
        records[0]["ok"] = False
        art.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        resumed = run_sweep(tasks, artifact=art, resume=True)
        assert len(resumed.ran) == 1
        assert resumed.ok


class TestDeadWorker:
    """A worker process that dies outright (no record, no traceback)
    breaks the pool; what was committed before survives, and a resume
    runs exactly what is missing."""

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched scenario reaches pool workers only by fork",
    )
    def test_dead_worker_keeps_committed_records(self, tmp_path, monkeypatch):
        died = tmp_path / "died"

        def die_once(params, seed):
            # the first run of seed index 5 kills its process, as an
            # OOM kill or a segfault would
            if params["seed_index"] == 5 and not died.exists():
                died.touch()
                os._exit(1)
            return scenarios.SCENARIOS["fig4_clean"](params, seed)

        monkeypatch.setitem(scenarios.SCENARIOS, "die", die_once)
        monkeypatch.setitem(
            scenarios.SCENARIO_KNOBS, "die", scenarios.SCENARIO_KNOBS["fig4_clean"]
        )
        tasks = make_tasks("die", 0, 8, params={"workers": 2, "elements": 1024})
        art = tmp_path / "sweep.jsonl"
        seen = []
        with pytest.raises(BrokenProcessPool):
            run_sweep(tasks, artifact=art, procs=2, on_record=seen.append)
        kept = load_artifact(art)
        assert "die#s5" not in kept
        for rec in seen:
            assert kept[rec["task_id"]]["ok"]
        assert sorted(kept) == sorted(rec["task_id"] for rec in seen)

        resumed = run_sweep(tasks, artifact=art, procs=2, resume=True)
        missing = sorted(t.task_id for t in tasks if t.task_id not in kept)
        assert resumed.ran == missing
        assert resumed.skipped == sorted(kept)
        assert resumed.ok
        assert sorted(load_artifact(art)) == sorted(t.task_id for t in tasks)


class TestSummary:
    def test_summary_shape(self, tmp_path):
        tasks = make_tasks(
            "fig4_clean", 0, 2, params={"workers": 2, "elements": 1024}
        )
        result = run_sweep(tasks, artifact=tmp_path / "s.jsonl")
        doc = sweep_summary(result, label="unit")
        assert doc["schema"] == "repro-sweep/1"
        assert doc["tasks_total"] == 2
        assert doc["tasks_failed"] == 0
        assert doc["workloads"]["fig4_clean"]["tasks"] == 2
        json.dumps(doc)  # JSON-serializable end to end

    def test_duplicate_task_ids_rejected(self):
        t = TaskSpec(task_id="dup", scenario="fig4", seed=1)
        with pytest.raises(ValueError, match="duplicate"):
            run_sweep([t, t])
