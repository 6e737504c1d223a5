"""Tier-1 invariants the fuzzer asserts on every draw.

Each check takes the run's observables and returns a list of violation
strings (empty = pass).  The four families map to the paper's
correctness story:

* **exactness** -- every finishing worker's aggregate equals the exact
  int64 sum of the participating workers' inputs (Algorithm 1/2: loss
  recovery never double-counts, never drops a contribution);
* **bounded recovery** -- a survivable fault plan converges: the run
  completes within its simulated-time horizon (SS5 failure handling);
* **epoch fencing** -- traffic from a fenced epoch is never absorbed.
  Exactness is the observable (an absorbed stale frame corrupts the
  sum); the fence counters must additionally be sane;
* **obs consistency** -- the metrics counters and the event trace,
  maintained independently along the hot paths, tell the same story
  (per-packet path only: the window path emits aggregate records by
  design, and a tracer that overflowed its ring is excluded).
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

__all__ = [
    "check_exact",
    "check_completed",
    "check_epoch_fencing",
    "check_obs_consistency",
]


def check_exact(
    results: Sequence[np.ndarray | None],
    tensors: Sequence[np.ndarray],
    participants: Sequence[int],
    who: str = "worker",
) -> list[str]:
    """Every participant's aggregate == exact sum of participants' inputs."""
    violations: list[str] = []
    expected = np.sum(
        [tensors[m] for m in participants], axis=0, dtype=np.int64
    )
    for m in participants:
        res = results[m]
        if res is None:
            violations.append(f"exactness: {who} {m} has no result")
        elif not np.array_equal(res[: len(expected)], expected):
            bad = int(np.count_nonzero(res[: len(expected)] != expected))
            violations.append(
                f"exactness: {who} {m} aggregate differs from the exact "
                f"{len(participants)}-way sum in {bad} element(s)"
            )
    return violations


def check_completed(
    completed: bool, elapsed_s: float, deadline_s: float
) -> list[str]:
    """Recovery converged: the collective finished inside the horizon."""
    if completed:
        return []
    return [
        f"bounded-recovery: collective incomplete after "
        f"{elapsed_s * 1e3:.3f} ms (horizon {deadline_s * 1e3:.3f} ms)"
    ]


def check_epoch_fencing(
    epoch: int, recoveries: int, stale_epoch_drops: int
) -> list[str]:
    """Fence counters sane: epochs only advance with recoveries.

    (Stale-frame *absorption* shows up as an exactness violation; this
    guards the bookkeeping around it.)
    """
    violations: list[str] = []
    if stale_epoch_drops < 0:
        violations.append(
            f"epoch-fencing: negative stale_epoch_drops {stale_epoch_drops}"
        )
    if epoch > 0 and recoveries == 0:
        violations.append(
            f"epoch-fencing: epoch advanced to {epoch} with no recovery "
            f"on record"
        )
    if stale_epoch_drops > 0 and epoch == 0:
        violations.append(
            f"epoch-fencing: {stale_epoch_drops} stale-epoch drops while "
            f"the pool never left epoch 0"
        )
    return violations


def check_obs_consistency(obs: Any) -> list[str]:
    """Metrics counters vs trace events, over one packet-mode run.

    The worker hot paths tick ``worker_packets_sent_total`` /
    ``worker_retransmissions_total`` and emit ``packet.tx`` /
    ``packet.retx`` at the same sites, through independent sinks; a
    drift means an instrument was dropped from one path and not the
    other.
    """
    tracer = getattr(obs, "tracer", None)
    metrics = getattr(obs, "metrics", None)
    if tracer is None or metrics is None or not tracer.enabled:
        return []
    if tracer.dropped_events:
        return []  # overflowed ring: counts are incomparable by design

    def counter_total(name: str) -> float:
        inst = metrics.get(name)
        if inst is None:
            return 0.0
        return sum(s.value for s in inst.samples())

    violations: list[str] = []
    tx = tracer.count("packet.tx")
    retx = tracer.count("packet.retx")
    sent_total = counter_total("worker_packets_sent_total")
    retx_total = counter_total("worker_retransmissions_total")
    if retx_total != retx:
        violations.append(
            f"obs-consistency: worker_retransmissions_total={retx_total:g} "
            f"but {retx} packet.retx trace events"
        )
    if sent_total != tx + retx:
        violations.append(
            f"obs-consistency: worker_packets_sent_total={sent_total:g} "
            f"but {tx} packet.tx + {retx} packet.retx trace events"
        )
    return violations
