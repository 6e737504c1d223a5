"""Parallel scenario orchestration and adversarial fault fuzzing.

Every open direction in ROADMAP.md multiplies simulation count --
seeds x faults x topologies x epsilons -- so the repo needs a way
to run *many* independent simulations, not one.  This package supplies
it in three layers:

:mod:`repro.sweep.tasks`
    Declarative task specs with deterministic per-task seeds derived
    from a root seed.  The same ``(root_seed, task_id)`` pair always
    yields the same simulation, no matter which process runs it or in
    what order -- the property that makes parallel sweeps comparable to
    serial ones and partial sweeps resumable.

:mod:`repro.sweep.scenarios`
    The scenario registry: named, parameterized simulation recipes
    (fig4-style all-reduces, controller-managed fault runs, fabric
    runs) that map ``(params, seed) -> fingerprint dict``.

:mod:`repro.sweep.runner`
    The orchestrator: shards tasks across worker processes, streams
    each finished task into a single append-only JSONL artifact, and
    resumes partially completed sweeps by skipping task ids already in
    the artifact.  Emits a ``repro-sweep/1`` summary document.

:mod:`repro.sweep.fuzz`
    The scenario fuzzer: composes random :class:`FaultPlan` /
    :class:`FabricFaultPlan` draws with protocol knobs (epsilon,
    loss, jitter) and asserts the tier-1 invariants
    on every draw (exact sums, bounded recovery, epoch fencing,
    obs/trace consistency).  Failing draws are minimized to the
    smallest plan that still violates and are replayable standalone
    from their serialized form.

CLI entry points: ``repro sweep`` and ``repro fuzz``
(see docs/TESTING.md).
"""

from repro.sweep.fuzz import (
    DrawResult,
    FuzzReport,
    draw_scenario,
    minimize_failure,
    replay_draw,
    run_fuzz,
)
from repro.sweep.runner import (
    SweepResult,
    load_artifact,
    run_sweep,
    sweep_summary,
)
from repro.sweep.scenarios import SCENARIOS, run_scenario
from repro.sweep.tasks import TaskSpec, derive_seed, make_tasks

__all__ = [
    "DrawResult",
    "FuzzReport",
    "SCENARIOS",
    "SweepResult",
    "TaskSpec",
    "derive_seed",
    "draw_scenario",
    "load_artifact",
    "make_tasks",
    "minimize_failure",
    "replay_draw",
    "run_fuzz",
    "run_scenario",
    "run_sweep",
    "sweep_summary",
]
