"""The sweep orchestrator: shard tasks across processes, stream JSONL.

Design constraints, in order:

* **Determinism** -- a task's outcome depends only on its spec (scenario,
  params, derived seed), never on which process ran it or when.  The
  acceptance test runs the same sweep serially and across 4 processes
  and diffs the per-task results.
* **Resumability** -- every finished task is appended to the artifact
  (one JSON object per line, flushed immediately), so a killed sweep
  loses at most the tasks in flight.  ``resume=True`` reads the artifact
  back, keeps records whose ``(task_id, seed)`` match the current task
  list, and re-runs only the rest.  A seed mismatch (artifact written
  under a different root seed) is an error, not a silent skip.
* **Isolation** -- worker processes import the scenario fresh and build
  their own simulators; nothing is shared but the spec dict, so a
  crashing task poisons only its own record (``ok=False``).
"""

from __future__ import annotations

import json
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.sweep.tasks import TaskSpec

#: schema tag of the :func:`sweep_summary` document
SWEEP_SCHEMA = "repro-sweep/1"

__all__ = [
    "SWEEP_SCHEMA",
    "SweepResult",
    "execute_task",
    "load_artifact",
    "run_sweep",
    "sweep_summary",
]


def execute_task(spec_dict: dict[str, Any]) -> dict[str, Any]:
    """Run one task from its serialized spec; never raises.

    Top-level (picklable) so it works under both fork and spawn start
    methods.  Errors are captured into the record -- one bad draw must
    not abort a thousand-task sweep.
    """
    # imported here so the parent can enumerate tasks without paying
    # simulator import cost, and so spawn-start workers self-contain
    from repro.sweep.scenarios import run_scenario

    spec = TaskSpec.from_dict(spec_dict)
    record: dict[str, Any] = spec.to_dict()
    t0 = time.perf_counter()
    try:
        record["result"] = run_scenario(spec.scenario, spec.params, spec.seed)
        record["ok"] = True
    except Exception as exc:  # noqa: BLE001 - recorded, not swallowed
        record["ok"] = False
        record["error"] = f"{type(exc).__name__}: {exc}"
        record["traceback"] = traceback.format_exc(limit=20)
    record["wall_s"] = time.perf_counter() - t0
    return record


def load_artifact(path: str | Path) -> dict[str, dict[str, Any]]:
    """Read a (possibly truncated) sweep artifact: task_id -> record.

    A partial final line -- the signature of a sweep killed mid-write --
    is dropped, matching the resume contract: anything not fully
    persisted is re-run.
    """
    records: dict[str, dict[str, Any]] = {}
    p = Path(path)
    if not p.exists():
        return records
    with p.open() as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail write from a killed sweep
            if "task_id" in rec:
                records[rec["task_id"]] = rec
    return records


def _drop_torn_tail(path: Path) -> None:
    """Cut a partial final line back to the last newline, so the next
    appended record starts on a line of its own."""
    with path.open("rb+") as fh:
        data = fh.read()
        if data and not data.endswith(b"\n"):
            fh.truncate(data.rfind(b"\n") + 1)


@dataclass
class SweepResult:
    """Everything a sweep produced, plus how it got there."""

    records: dict[str, dict[str, Any]]  # task_id -> record, all tasks
    ran: list[str] = field(default_factory=list)      # executed this call
    skipped: list[str] = field(default_factory=list)  # satisfied by resume
    artifact: str | None = None

    @property
    def failed(self) -> list[str]:
        return sorted(
            tid for tid, rec in self.records.items() if not rec.get("ok")
        )

    @property
    def ok(self) -> bool:
        return not self.failed


def run_sweep(
    tasks: list[TaskSpec],
    artifact: str | Path | None = None,
    procs: int = 1,
    resume: bool = False,
    on_record: Callable[[dict[str, Any]], None] | None = None,
) -> SweepResult:
    """Run every task, streaming records into ``artifact``.

    ``procs=1`` runs inline (no subprocesses -- what tests use to prove
    parallel/serial equivalence); ``procs>1`` shards across a process
    pool.  With ``resume=True`` an existing artifact's completed-and-ok
    records are kept and only the remainder runs; without it any
    existing artifact is started over.
    """
    if procs < 1:
        raise ValueError("procs must be >= 1")
    by_id = {t.task_id: t for t in tasks}
    if len(by_id) != len(tasks):
        dupes = sorted(
            {t.task_id for t in tasks if sum(
                1 for u in tasks if u.task_id == t.task_id) > 1}
        )
        raise ValueError(f"duplicate task ids: {dupes}")

    done: dict[str, dict[str, Any]] = {}
    if resume and artifact is not None:
        # before reading, so a record that lost only its newline is
        # re-run rather than counted as done and then cut away
        if Path(artifact).exists():
            _drop_torn_tail(Path(artifact))
        for tid, rec in load_artifact(artifact).items():
            spec = by_id.get(tid)
            if spec is None:
                continue  # stale task from an older sweep shape
            if rec.get("seed") != spec.seed:
                raise ValueError(
                    f"artifact {artifact} was written with a different root "
                    f"seed (task {tid!r}: artifact seed {rec.get('seed')}, "
                    f"expected {spec.seed}); refusing to mix sweeps"
                )
            if rec.get("ok"):
                done[tid] = rec

    pending = [t for t in tasks if t.task_id not in done]
    result = SweepResult(records=dict(done), skipped=sorted(done),
                         artifact=str(artifact) if artifact else None)

    out_fh = None
    if artifact is not None:
        path = Path(artifact)
        path.parent.mkdir(parents=True, exist_ok=True)
        # resume appends below the kept records; a fresh sweep truncates
        out_fh = path.open("a" if resume else "w")

    def _commit(rec: dict[str, Any]) -> None:
        result.records[rec["task_id"]] = rec
        result.ran.append(rec["task_id"])
        if out_fh is not None:
            out_fh.write(json.dumps(rec, sort_keys=True) + "\n")
            out_fh.flush()
        if on_record is not None:
            on_record(rec)

    try:
        if procs == 1 or len(pending) <= 1:
            for spec in pending:
                _commit(execute_task(spec.to_dict()))
        else:
            with ProcessPoolExecutor(max_workers=procs) as pool:
                futures = {
                    pool.submit(execute_task, spec.to_dict())
                    for spec in pending
                }
                while futures:
                    finished, futures = wait(
                        futures, return_when=FIRST_COMPLETED
                    )
                    for fut in finished:
                        _commit(fut.result())
    finally:
        if out_fh is not None:
            out_fh.close()
    result.ran.sort()
    return result


def sweep_summary(result: SweepResult, label: str = "") -> dict[str, Any]:
    """The ``--summary-out`` document for one sweep (:data:`SWEEP_SCHEMA`).

    Per-scenario aggregates ride in ``workloads``, per-task records in
    ``tasks``.
    """
    per_scenario: dict[str, dict[str, Any]] = {}
    for tid in sorted(result.records):
        rec = result.records[tid]
        agg = per_scenario.setdefault(
            rec.get("scenario", "?"),
            {"tasks": 0, "failed": 0, "wall_s": 0.0, "max_task_wall_s": 0.0},
        )
        agg["tasks"] += 1
        wall = float(rec.get("wall_s", 0.0))
        agg["wall_s"] += wall
        agg["max_task_wall_s"] = max(agg["max_task_wall_s"], wall)
        if not rec.get("ok"):
            agg["failed"] += 1
    return {
        "schema": SWEEP_SCHEMA,
        "label": label,
        "tasks_total": len(result.records),
        "tasks_run": len(result.ran),
        "tasks_skipped": len(result.skipped),
        "tasks_failed": len(result.failed),
        "failed_task_ids": result.failed,
        "workloads": per_scenario,
        "tasks": {tid: result.records[tid] for tid in sorted(result.records)},
    }
