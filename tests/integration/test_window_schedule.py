"""The window path's schedule, pinned to the event.

``burst_epsilon > 0`` is protocol-equivalent to the per-packet path,
not schedule-identical (see ``test_epsilon_equivalence``), but for a
given seed its own schedule is fixed: which frames a drain window
holds and when each credit leaves the worker.  A change that only
makes the window path faster must leave that schedule alone.  The
fixed-mode values below were recorded from an earlier revision of the
window path, while the switch still had wide NumPy and compiled batch
bodies beside ``handle()`` and the worker a vectorised RX body beside
``_on_result``; both devices now run their per-packet body for every
packet of a drain and reproduce them.  A change that moves them
changes what ``eps > 0`` computes and has to re-pin them on purpose.

The worker's egress rule is part of the schedule: an RX group of
``_RX_BATCH_MIN`` or more results in fixed timeout mode sends its next
chunks as one ``host.send_train``; smaller groups, and every group in
adaptive mode, send each next chunk with ``host.send``.  The adaptive
entries pin the second half of that rule.
"""

import hashlib

import numpy as np
import pytest

from repro.core.job import SwitchMLConfig, SwitchMLJob
from repro.net.loss import BernoulliLoss

#: (seed, timeout mode) -> (events processed, total retransmissions,
#: repr(max TAT), SHA-256 of the aggregated tensor)
PINNED = {
    (7, "fixed"): (
        409, 40, "0.003726208000000004",
        "cdd03df3aa252c9d77e8411336578ab52b3b6ef7c3dd426aad4d2c5c3711bc2d",
    ),
    (23, "fixed"): (
        404, 31, "0.003726208000000005",
        "1b65caf5f5f5a7867c41cf76d407f11baf4cb743447bd1951477618125048a6b",
    ),
    (7, "adaptive"): (
        735, 40, "0.0009984451070942264",
        "cdd03df3aa252c9d77e8411336578ab52b3b6ef7c3dd426aad4d2c5c3711bc2d",
    ),
    (23, "adaptive"): (
        891, 38, "0.002270823478002416",
        "1b65caf5f5f5a7867c41cf76d407f11baf4cb743447bd1951477618125048a6b",
    ),
}


def _fingerprint(seed: int, timeout_mode: str) -> tuple:
    """4 workers, pool 16, k=32, 4 096 elements, 1 % loss, eps = 20 us."""
    rng = np.random.default_rng(seed)
    tensors = [rng.integers(-1000, 1000, 4096, dtype=np.int64) for _ in range(4)]
    job = SwitchMLJob(SwitchMLConfig(
        num_workers=4,
        pool_size=16,
        elements_per_packet=32,
        seed=seed,
        burst_epsilon=2e-5,
        timeout_mode=timeout_mode,
        loss_factory=lambda: BernoulliLoss(0.01),
    ))
    res = job.all_reduce(tensors, verify=True)
    assert res.completed
    expected = np.sum(tensors, axis=0, dtype=np.int64)
    for w, out in enumerate(res.results):
        np.testing.assert_array_equal(out, expected, err_msg=f"worker {w}")
    return (
        job.sim.events_processed,
        res.retransmissions,
        repr(res.max_tat),
        hashlib.sha256(res.results[0].tobytes()).hexdigest(),
    )


def _pin_id(key: tuple) -> str:
    seed, timeout_mode = key
    return str(seed) if timeout_mode == "fixed" else f"{seed}-{timeout_mode}"


@pytest.mark.parametrize("key", sorted(PINNED), ids=_pin_id)
def test_window_schedule_pinned(key):
    assert _fingerprint(*key) == PINNED[key]
