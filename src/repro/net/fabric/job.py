"""FabricJob: one all-reduce over a controller-supervised Clos fabric.

The fabric counterpart of :class:`repro.controlplane.controller.Controller`:
build the Clos (:func:`~repro.net.fabric.topology.build_fabric`), admit
the job through :class:`~repro.core.tenancy.PoolAllocator` (the lease's
pool *epoch* is the fence every recovery relies on), mount the two-tier
aggregation -- :class:`~repro.core.hierarchy.RackAggregatorProgram` on
every leaf, Algorithm 3 on the ECMP-selected spine -- and run workers to
completion under the :class:`~repro.net.fabric.controller.FabricController`'s
supervision.

With ``num_spines=1`` the Clos is the SS6 tree: racks (leaves) under one
root (the spine), each rack forwarding one partial stream upstream.

Aggregation placement: the job's slot pool lives on exactly one spine at
a time (the *active* spine); every leaf's partials are routed up that
trunk.  A reroute moves the pool: lease renewed (epoch + 1), fresh leaf
programs at the new epoch, fresh Algorithm 3 pool on the survivor, and a
fleet-wide replay from the minimum completed prefix.  Stale traffic from
the old home -- worker updates, partials, results still in flight -- is
dropped by the epoch fence at whichever tier it reaches first, so the
re-homed result is the exact integer sum regardless of what the failure
left in the pipes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.controlplane.faults import SwitchDownProgram
from repro.core.hierarchy import RackAggregatorProgram
from repro.core.tenancy import PoolAllocator
from repro.core.worker import SwitchMLWorker, WorkerStats
from repro.net.fabric.controller import FabricController, FabricState, RerouteRecord
from repro.net.fabric.dataplane import LeafDataplane, SpineDataplane
from repro.net.fabric.topology import ClosFabric, FabricSpec, build_fabric
from repro.net.host import HostSpec
from repro.net.link import LinkSpec
from repro.net.loss import LossModel, NoLoss
from repro.obs.base import NULL_OBS, Observability
from repro.sim.engine import Simulator

__all__ = [
    "FabricConfig",
    "FabricJob",
    "FabricRunResult",
    "collect_fabric_telemetry",
    "fabric_summary",
]


@dataclass
class FabricConfig:
    """Fabric shape plus protocol and liveness knobs."""

    num_leaves: int = 4
    num_spines: int = 2
    workers_per_leaf: int = 4
    pool_size: int = 16
    elements_per_packet: int = 32
    timeout_s: float = 1e-4
    bytes_per_element: int = 4
    max_retries: int | None = None
    link: LinkSpec = field(default_factory=LinkSpec)
    host: HostSpec = field(default_factory=HostSpec)
    loss_factory: Callable[[], LossModel] = NoLoss
    pipeline_latency_s: float = 800e-9
    #: trunk heartbeat period (both directions of every trunk)
    probe_interval_s: float = 2e-4
    #: beacon silence that flips a trunk to DOWN; must exceed the probe
    #: interval by enough margin that queueing never fakes a failure
    link_down_after_s: float = 1e-3
    budget_fraction: float = 0.10
    obs: "Observability | None" = None
    seed: int = 0

    @property
    def num_workers(self) -> int:
        return self.num_leaves * self.workers_per_leaf


@dataclass
class FabricRunResult:
    """Outcome of one fabric all-reduce."""

    completed: bool
    state: str  # controller state at the end (monitoring / failed)
    results: list[np.ndarray | None]  # by global worker id
    worker_stats: list[WorkerStats]
    retransmissions: int
    reroutes: list[RerouteRecord]
    stale_epoch_drops: int
    stale_results_ignored: int
    heartbeats_punted: int
    epoch: int
    elapsed_s: float

    @property
    def max_tat(self) -> float:
        return max(s.tensor_aggregation_time for s in self.worker_stats)


class FabricJob:
    """Owns one job's lifecycle on a simulated 2-tier Clos."""

    def __init__(self, config: FabricConfig | None = None):
        self.config = config if config is not None else FabricConfig()
        cfg = self.config
        self.sim = Simulator(seed=cfg.seed)
        self.obs = cfg.obs if cfg.obs is not None else NULL_OBS
        self.sim.attach_obs(self.obs)
        self.fabric: ClosFabric = build_fabric(
            self.sim,
            FabricSpec(
                num_leaves=cfg.num_leaves,
                num_spines=cfg.num_spines,
                hosts_per_leaf=cfg.workers_per_leaf,
                link=cfg.link,
                host=cfg.host,
                pipeline_latency_s=cfg.pipeline_latency_s,
                loss_factory=cfg.loss_factory,
            ),
        )
        # In-band telemetry: stamp every link and pipeline, drain at
        # hosts and switches (off unless the obs layer carries a hub).
        if self.obs.telemetry is not None:
            self.obs.telemetry.instrument_fabric(self.fabric)
        # Admission: the spine pool aggregates *leaves*, so the lease is
        # sized at num_leaves children -- the SS6 composition that keeps
        # a 512-worker job within one pipeline's port budget.
        self.allocator = PoolAllocator(budget_fraction=cfg.budget_fraction)
        self.allocator.instrument(self.obs, clock=lambda: self.sim.now)
        self.handle = self.allocator.admit(
            cfg.num_leaves, cfg.pool_size, cfg.elements_per_packet
        )
        self.controller = FabricController(
            self,
            probe_interval_s=cfg.probe_interval_s,
            link_down_after_s=cfg.link_down_after_s,
            obs=self.obs,
        )
        self.active_spine = self.controller.select_spine(
            self.handle.job_id, [sp.index for sp in self.fabric.spines]
        )

        #: epoch-fence drops accumulated from programs retired by reroutes
        self.stale_epoch_drops_retired = 0
        self.leaf_programs: list[RackAggregatorProgram] = []
        self.leaf_dataplanes: list[LeafDataplane] = []
        self.spine_dataplanes: dict[int, SpineDataplane] = {}

        self.workers: list[SwitchMLWorker] = []
        m = cfg.workers_per_leaf
        for leaf in self.fabric.leaves:
            for c, host in enumerate(leaf.hosts):
                gwid = leaf.index * m + c
                worker = SwitchMLWorker(
                    sim=self.sim,
                    host=host,
                    wid=c,
                    num_workers=m,
                    pool_size=cfg.pool_size,
                    elements_per_packet=cfg.elements_per_packet,
                    timeout_s=cfg.timeout_s,
                    bytes_per_element=cfg.bytes_per_element,
                    on_complete=self._make_on_complete(gwid),
                    max_retries=cfg.max_retries,
                    epoch=self.handle.epoch,
                    member_id=gwid,
                    obs=self.obs,
                    switch_addr=leaf.switch.name,
                    # an update frame ends at its leaf (the partial sent up
                    # is a new packet), so the rack's FIFO rule applies
                    reuse_buffers=cfg.link.jitter_s == 0.0,
                )
                host.attach_agent(worker)
                self.workers.append(worker)

        self._install_leaves()
        self._install_spines()

        self._done: set[int] = set()
        self._collective_done = False
        self._original_size = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    @property
    def job_id(self) -> int:
        return self.handle.job_id

    @property
    def epoch(self) -> int:
        return self.handle.epoch

    def _install_leaves(self) -> None:
        """(Re)build every leaf's program + adapter at the lease epoch."""
        cfg = self.config
        spine_names = [sp.switch.name for sp in self.fabric.spines]
        self.leaf_programs = []
        self.leaf_dataplanes = []
        for leaf in self.fabric.leaves:
            program = RackAggregatorProgram(
                rack_id=leaf.index,
                num_children=cfg.workers_per_leaf,
                pool_size=cfg.pool_size,
                elements_per_packet=cfg.elements_per_packet,
                epoch=self.handle.epoch,
            )
            dataplane = LeafDataplane(
                program,
                child_names=[h.name for h in leaf.hosts],
                spine_names=spine_names,
                active_spine=self.active_spine,
                switch_name=leaf.switch.name,
                punt=self.controller.on_heartbeat,
                clock=lambda: self.sim.now,
                obs=self.obs,
                bytes_per_element=cfg.bytes_per_element,
            )
            leaf.switch.load_program(dataplane)
            self.leaf_programs.append(program)
            self.leaf_dataplanes.append(dataplane)

    def _install_spines(self) -> None:
        """Mount the pool on the active spine, standby adapters elsewhere.

        A crashed spine is skipped: its chassis keeps the blackhole
        program until some later operator action, which this model does
        not include (reroute, not repair, is the recovery story).
        """
        leaf_names = [leaf.switch.name for leaf in self.fabric.leaves]
        for sp in self.fabric.spines:
            if not sp.cpu_alive:
                continue
            dataplane = SpineDataplane(
                leaf_names=leaf_names,
                switch_name=sp.switch.name,
                punt=self.controller.on_heartbeat,
                program=self.handle.program if sp.index == self.active_spine else None,
                bytes_per_element=self.config.bytes_per_element,
            )
            sp.switch.load_program(dataplane)
            self.spine_dataplanes[sp.index] = dataplane

    def _make_on_complete(self, gwid: int):
        def on_complete(wid: int, time: float) -> None:
            self._done.add(gwid)
            if len(self._done) == self.config.num_workers:
                self._collective_done = True
                self.sim.stop()

        return on_complete

    # ------------------------------------------------------------------
    # Control-plane actions (called by the FabricController)
    # ------------------------------------------------------------------
    def quiesce_all(self) -> None:
        for worker in self.workers:
            worker.quiesce()

    def rehome(self, new_spine: int) -> None:
        """Fence the old home and mount the pool on ``new_spine``.

        Lease renewal bumps the epoch and hands back a fresh zeroed
        Algorithm 3 pool; leaf programs are rebuilt at the new epoch with
        their uplinks pointed at the survivor.  Anything still in flight
        from the old epoch dies at the first fence it meets.
        """
        self.stale_epoch_drops_retired += self.handle.program.stale_epoch_drops
        self.stale_epoch_drops_retired += sum(
            p.stale_epoch_drops for p in self.leaf_programs
        )
        self.handle = self.allocator.renew(self.handle.job_id)
        self.active_spine = new_spine
        self._install_leaves()
        self._install_spines()

    def replay_from_prefix(self) -> int:
        """Resume every worker from the fleet-wide minimum completed
        prefix.  All workers must restart from the same offset: slot
        stripes are offset-aligned across the whole fabric, which is
        what lets the spine aggregate leaf partials slot-by-slot."""
        resume = min(w.completed_prefix_elements() for w in self.workers)
        self._done.clear()
        for worker in self.workers:
            worker.reconfigure(epoch=self.handle.epoch)
            # Both tiers' pools were just re-zeroed by the lease renewal,
            # and racks that stalled behind the failed path are behind the
            # racks that kept streaming -- their slot-version counters
            # disagree, so every worker restarts its stripes at version 0
            # to keep the fabric's version invariant intact.
            worker.restart_from(resume, reset_versions=True)
        return resume

    def crash_spine(self, spine: int) -> None:
        """Fault hook: the spine's program, registers, and CPU are gone.

        Nothing is announced -- the controller detects the crash through
        missed trunk beacons, exactly like a production fabric."""
        sp = self.fabric.spines[spine]
        sp.cpu_alive = False
        sp.switch.load_program(SwitchDownProgram())
        self.spine_dataplanes.pop(spine, None)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def stale_epoch_drops(self) -> int:
        """Fence drops across both tiers and every lease generation."""
        return (
            self.stale_epoch_drops_retired
            + self.handle.program.stale_epoch_drops
            + sum(p.stale_epoch_drops for p in self.leaf_programs)
        )

    @property
    def heartbeats_punted(self) -> int:
        return sum(d.heartbeats_punted for d in self.leaf_dataplanes) + sum(
            d.heartbeats_punted for d in self.spine_dataplanes.values()
        )

    # ------------------------------------------------------------------
    # Running a collective
    # ------------------------------------------------------------------
    def all_reduce(
        self,
        tensors: Sequence[np.ndarray] | None = None,
        num_elements: int | None = None,
        deadline_s: float = 2.0,
        verify: bool = True,
    ) -> FabricRunResult:
        """Run one all-reduce across the whole fabric.

        Pass ``tensors`` (one per worker, global id order) for a real
        aggregation, or ``num_elements`` alone for a phantom-payload run
        (protocol and timing without numpy work; implies no verify).
        ``verify`` checks every worker's aggregate against the exact
        int64 sum of all inputs -- reroutes do not change the answer,
        because no worker is ever evicted by a fabric failure.
        """
        cfg = self.config
        n = cfg.num_workers
        k = cfg.elements_per_packet
        phantom = tensors is None
        if phantom:
            if num_elements is None:
                raise ValueError("need tensors or num_elements")
            size = num_elements + ((-num_elements) % k)
            self._original_size = num_elements
            padded: list[np.ndarray | None] = [None] * n
            verify = False
        else:
            if len(tensors) != n:
                raise ValueError(f"need {n} tensors, got {len(tensors)}")
            sizes = {len(t) for t in tensors}
            if len(sizes) != 1:
                raise ValueError("all workers must contribute equal-length tensors")
            self._original_size = sizes.pop()
            pad = (-self._original_size) % k
            padded = [
                np.concatenate([np.asarray(t, dtype=np.int64), np.zeros(pad, np.int64)])
                if pad
                else np.asarray(t, dtype=np.int64)
                for t in tensors
            ]
            size = self._original_size + pad

        self._done.clear()
        self._collective_done = False
        base = self.sim.now
        for worker, tensor in zip(self.workers, padded):
            if phantom:
                self.sim.schedule_at(base, worker.start, None, size)
            else:
                self.sim.schedule_at(base, worker.start, tensor)
        self.controller.start()
        deadline = base + deadline_s
        # Heartbeat and sweep timers keep the heap populated forever, so
        # the run ends when on_complete stops it (or at the deadline).
        self.sim.run_deadline(deadline)
        self.controller.stop()
        elapsed = self.sim.now - base

        results = [
            w.result[: self._original_size].copy() if w.result is not None else None
            for w in self.workers
        ]
        completed = self._collective_done
        if verify and completed:
            expected = np.sum(padded, axis=0, dtype=np.int64)[: self._original_size]
            for gwid, res in enumerate(results):
                if res is None or not np.array_equal(res, expected):
                    raise AssertionError(
                        f"worker {gwid} fabric aggregate differs from the "
                        f"exact {n}-worker sum"
                    )
        return FabricRunResult(
            completed=completed,
            state=self.controller.state.value,
            results=results,
            worker_stats=[w.stats for w in self.workers],
            retransmissions=sum(w.stats.retransmissions for w in self.workers),
            reroutes=list(self.controller.records),
            stale_epoch_drops=self.stale_epoch_drops,
            stale_results_ignored=sum(
                w.stats.stale_results_ignored for w in self.workers
            ),
            heartbeats_punted=self.heartbeats_punted,
            epoch=self.handle.epoch,
            elapsed_s=elapsed,
        )

    # ------------------------------------------------------------------
    # Observability views
    # ------------------------------------------------------------------
    def dashboard(self, link_limit: int = 8):
        """A :class:`repro.obs.views.Dashboard` over this fabric run."""
        from repro.obs.views import Dashboard

        telemetry = (
            collect_fabric_telemetry(self) if self.sim.now > 0 else None
        )
        return Dashboard(
            obs=self.obs,
            telemetry=telemetry,
            control_summary=fabric_summary(self),
            link_limit=link_limit,
        )


def collect_fabric_telemetry(job: FabricJob, elapsed_s: float | None = None):
    """Per-link utilization across the whole Clos (trunks included).

    Returns the same :class:`repro.harness.telemetry.RackTelemetry` shape
    the single-rack path uses, so the dashboard renders it unchanged.
    """
    from repro.harness.telemetry import LinkReading, RackTelemetry

    elapsed = job.sim.now if elapsed_s is None else elapsed_s
    if elapsed <= 0:
        raise ValueError("nothing has run yet; telemetry window is empty")
    links = [
        LinkReading(
            name=link.name,
            utilization=link.utilization(elapsed),
            frames_sent=link.stats.frames_sent,
            frames_lost=link.stats.frames_lost,
            frames_corrupted=link.stats.frames_corrupted,
            frames_queue_dropped=link.stats.frames_queue_dropped,
            queue_delay_s=link.queue_delay,
            backlog_bytes=link.queue_delay * link.spec.rate_bps / 8.0,
        )
        for link in job.fabric.all_links()
    ]
    cores = {
        host.name: sum(c.utilization(elapsed) for c in host.cores) / len(host.cores)
        for host in job.fabric.hosts
    }
    telemetry = RackTelemetry(
        elapsed_s=elapsed, links=links, core_utilization=cores
    )
    telemetry.publish(job.obs.metrics)
    return telemetry


def fabric_summary(job: FabricJob) -> str:
    """Controller state, reroute history, and fence accounting."""
    lines = [job.controller.summary()]
    lines.append(
        f"active spine: spine{job.active_spine}, epoch: {job.epoch}, "
        f"stale-epoch drops: {job.stale_epoch_drops}, "
        f"link heartbeats punted: {job.heartbeats_punted}"
    )
    return "\n".join(lines)
