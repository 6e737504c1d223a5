#!/usr/bin/env python3
"""Scaling beyond a rack: the SS6 hierarchical composition.

Builds a two-layer tree -- three racks of four workers, each rack switch
aggregating its workers and forwarding one partial-aggregate stream to a
root switch -- runs an all-reduce across all twelve workers, and checks
the bandwidth-optimality claim: every rack uplink carries exactly one
worker's worth of frames, regardless of how many workers sit below it.

The tree is a one-spine Clos: the leaves are the racks and the spine is
the root.  The fabric controller's liveness beacons share each trunk
with the aggregation stream, so they are counted out of the uplink cost.

Run:  python examples/multirack_hierarchy.py
"""

import numpy as np

from repro.net.fabric import FabricConfig, FabricJob
from repro.net.loss import BernoulliLoss


def main() -> None:
    cfg = FabricConfig(
        num_leaves=3,
        num_spines=1,
        workers_per_leaf=4,
        pool_size=32,
        loss_factory=lambda: BernoulliLoss(0.002),  # loss on every link
        seed=5,
    )
    job = FabricJob(cfg)
    n = cfg.num_workers

    rng = np.random.default_rng(0)
    tensors = [
        rng.integers(-500, 500, 32 * 32 * 12).astype(np.int64) for _ in range(n)
    ]
    print(f"aggregating across {cfg.num_leaves} racks x {cfg.workers_per_leaf} "
          f"workers (loss on every link: 0.2%) ...")
    out = job.all_reduce(tensors)  # verify=True inside

    print(f"completed: {out.completed}; aggregate bit-exact on all {n} workers")
    print(f"TAT {out.max_tat * 1e3:.3f} ms; worker retransmissions: "
          f"{out.retransmissions}")

    # One worker's stream and each rack's partial stream, first
    # transmissions only: loss recovery resends on both sides.
    worker = out.worker_stats[0]
    per_worker = worker.packets_sent - worker.retransmissions
    beacons = job.controller.probes_sent
    print("\nbandwidth optimality (SS6):")
    print(f"  {'packets sent by one worker':<28}: {per_worker} "
          f"(+{worker.retransmissions} retransmitted)")
    for leaf, prog in zip(job.fabric.leaves, job.leaf_programs):
        trunk = leaf.uplinks[0]
        print(f"  {'partials up ' + trunk.name:<28}: "
              f"{prog.partials_forwarded} "
              f"({prog.partials_forwarded / per_worker:.2f}x one worker)")
        print(f"    trunk frames {trunk.stats.frames_sent} = "
              f"{prog.partials_forwarded} partials "
              f"+ {prog.partial_retransmits} re-forwarded "
              f"+ {beacons} controller beacons")
    print("each uplink carries ONE aggregate stream, not one per worker --")
    print("the cost is proportional to the number of upstream ports, not n.")

    for leaf, prog in zip(job.fabric.leaves, job.leaf_programs):
        print(f"  {leaf.switch.name}: {prog.unicast_replies} results re-served "
              f"to workers whose copy was lost")


if __name__ == "__main__":
    main()
