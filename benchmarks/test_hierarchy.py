"""SS6 extension: multi-rack hierarchical aggregation (experiment X2).

The paper sketches but cannot test this ("we are unable to test this
approach due to testbed limitations").  The simulator can: we verify the
bandwidth-optimality claim -- each rack uplink carries one worker's
worth of traffic regardless of rack size -- and that loss recovery
composes across layers.  The tree is a one-spine fabric: racks are the
leaves and the spine is the root.
"""

import numpy as np
from conftest import once

from repro.harness.report import format_table
from repro.net.fabric import FabricConfig, FabricJob
from repro.net.loss import BernoulliLoss


def run_hierarchy():
    rows = []
    for workers_per_rack in (2, 4, 8):
        job = FabricJob(
            FabricConfig(
                num_leaves=2, num_spines=1, workers_per_leaf=workers_per_rack,
                pool_size=16,
            )
        )
        n = 2 * workers_per_rack
        tensors = [np.full(32 * 16 * 6, w, dtype=np.int64) for w in range(n)]
        out = job.all_reduce(tensors)
        leaf = job.fabric.leaves[0]
        rows.append(
            {
                "workers_per_rack": workers_per_rack,
                "completed": out.completed,
                "tat_s": out.max_tat,
                "uplink_frames": leaf.uplinks[0].stats.frames_sent,
                "worker_frames": leaf.host_uplinks[0].stats.frames_sent,
                # trunk beacons would share the uplink with the partials
                "beacons": job.controller.probes_sent,
            }
        )

    lossy = FabricJob(
        FabricConfig(
            num_leaves=3, num_spines=1, workers_per_leaf=3, pool_size=8,
            loss_factory=lambda: BernoulliLoss(0.005), seed=9,
        )
    )
    rng = np.random.default_rng(0)
    tensors = [rng.integers(-100, 100, 32 * 8 * 8).astype(np.int64)
               for _ in range(9)]
    lossy_out = lossy.all_reduce(tensors)
    return rows, lossy_out


def test_hierarchy_scaling(benchmark, show):
    rows, lossy_out = once(benchmark, run_hierarchy)

    show(
        "\n"
        + format_table(
            ["workers/rack", "TAT (ms)", "uplink frames", "1-worker frames",
             "uplink cost"],
            [
                [
                    r["workers_per_rack"],
                    f"{r['tat_s'] * 1e3:.3f}",
                    r["uplink_frames"],
                    r["worker_frames"],
                    f"{r['uplink_frames'] / r['worker_frames']:.2f}x",
                ]
                for r in rows
            ],
            title="SS6: two-layer hierarchy, uplink cost vs rack size",
        )
        + f"\n3x3 tree with 0.5% loss on every link: completed="
        f"{lossy_out.completed}, retransmissions={lossy_out.retransmissions}"
    )

    for r in rows:
        assert r["completed"]
        assert r["beacons"] == 0  # every uplink frame is a partial
        # uplink carries one worker's worth of frames -- NOT rack_size x
        assert r["uplink_frames"] == r["worker_frames"]
    assert lossy_out.completed  # loss recovery composes across layers
