"""The window path's schedule, pinned to the event.

``burst_epsilon > 0`` is protocol-equivalent to the per-packet path,
not schedule-identical (see ``test_epsilon_equivalence``), but for a
given seed its own schedule is fixed: which frames a drain window
holds and when each credit leaves the worker.  A change that only
makes the window path faster must leave that schedule alone.  The
values below were recorded from an earlier revision of the window path,
while the switch still had wide NumPy and compiled batch bodies beside
``handle()``; the switch now runs ``handle()`` for every packet of a
drain and reproduces them.  A change that moves them changes what
``eps > 0`` computes and has to re-pin them on purpose.  (The worker's
``_RX_BATCH_MIN`` is part of the schedule: sub-threshold groups replay
``_on_result``, which sends each next chunk with ``host.send``, larger
ones leave as one ``host.send_train``.)
"""

import hashlib

import numpy as np
import pytest

from repro.core.job import SwitchMLConfig, SwitchMLJob
from repro.net.loss import BernoulliLoss

#: seed -> (events processed, total retransmissions, repr(max TAT),
#: SHA-256 of the aggregated tensor)
PINNED = {
    7: (
        409, 40, "0.003726208000000004",
        "cdd03df3aa252c9d77e8411336578ab52b3b6ef7c3dd426aad4d2c5c3711bc2d",
    ),
    23: (
        404, 31, "0.003726208000000005",
        "1b65caf5f5f5a7867c41cf76d407f11baf4cb743447bd1951477618125048a6b",
    ),
}


def _fingerprint(seed: int) -> tuple:
    """4 workers, pool 16, k=32, 4 096 elements, 1 % loss, eps = 20 us."""
    rng = np.random.default_rng(seed)
    tensors = [rng.integers(-1000, 1000, 4096, dtype=np.int64) for _ in range(4)]
    job = SwitchMLJob(SwitchMLConfig(
        num_workers=4,
        pool_size=16,
        elements_per_packet=32,
        seed=seed,
        burst_epsilon=2e-5,
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


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_window_schedule_pinned(seed):
    assert _fingerprint(seed) == PINNED[seed]
