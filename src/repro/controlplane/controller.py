"""The job controller: admission, membership, and failure recovery.

:class:`Controller` is the managed-run counterpart of
:class:`repro.core.job.SwitchMLJob`: the same rack, program, and worker
agents, plus the control loop the paper assumes exists around them --
it admits the job through :class:`repro.core.tenancy.PoolAllocator`
(which versions the lease with a pool *epoch*), tracks worker liveness
through in-band heartbeats, and, when something dies mid-collective,
drives the :class:`repro.controlplane.recovery.RecoveryManager` through
fence / quiesce / reinstall / restart until the survivors finish.

Signal paths
------------
* **In-band heartbeats**: workers beacon through the same cable and
  switch pipeline as their updates; :class:`ControlPlaneDataplane` punts
  the beacons to the controller (the CPU-port path on a real switch).
  Because liveness shares fate with the datapath, worker death, cable
  cuts, and switch reboots all surface as the one signal the detector
  understands -- missed heartbeats.
* **Out-of-band commands**: quiesce / reconfigure / restart calls on
  workers and program installs on the switch are direct method calls,
  modelling the management network a real cluster controller uses
  (which survives datapath failures by construction).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.controlplane.faults import SwitchDownProgram
from repro.controlplane.membership import MembershipTracker
from repro.controlplane.metrics import ControlPlaneMetrics, availability
from repro.controlplane.recovery import RecoveryManager, RecoveryRecord, RecoveryState
from repro.core.job import SwitchMLDataplane
from repro.core.packet import Heartbeat
from repro.core.tenancy import PoolAllocator
from repro.core.worker import SwitchMLWorker
from repro.net.host import HostSpec
from repro.net.link import LinkSpec
from repro.net.loss import LossModel, NoLoss
from repro.net.packet import Frame
from repro.net.switchchassis import PortDecision
from repro.net.topology import Rack, RackSpec, build_rack
from repro.obs.base import NULL_OBS, Observability
from repro.sim.engine import Simulator

__all__ = [
    "ControlPlaneConfig",
    "ControlPlaneDataplane",
    "ControlledRunResult",
    "Controller",
]


@dataclass
class ControlPlaneConfig:
    """Deployment plus detection/recovery knobs.

    The protocol timeout default is tighter than
    :class:`~repro.core.job.SwitchMLConfig`'s 1 ms because recovery
    scenarios care about the worst-case retransmission gap: the drain
    window must outlast ``timeout_s`` times the worker's 64x backoff cap
    so at least one epoch-stale retransmission provably hits the fence
    before the survivors are quiesced.
    """

    num_workers: int = 4
    pool_size: int = 16
    elements_per_packet: int = 32
    timeout_s: float = 1e-4
    bytes_per_element: int = 4
    max_retries: int | None = None
    link: LinkSpec = field(default_factory=LinkSpec)
    host: HostSpec = field(default_factory=HostSpec)
    loss_factory: Callable[[], LossModel] = NoLoss
    #: worker beacon period; also the membership sweep period
    heartbeat_interval_s: float = 1e-3
    #: silence before a member turns SUSPECT / is confirmed DEAD
    suspect_after_s: float = 3e-3
    confirm_after_s: float = 5e-3
    #: pause between first confirm and diagnosis (None = one heartbeat
    #: interval), so a switch outage is not misread as a worker failure
    correlation_delay_s: float | None = None
    #: fence-to-quiesce window; must exceed timeout_s * 64 (the max
    #: backed-off retransmission gap) so stale traffic observably drains
    drain_s: float = 8e-3
    budget_fraction: float = 0.10
    #: observability layer threaded through the engine, workers, switch
    #: program (via the allocator), membership, and recovery
    obs: "Observability | None" = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.drain_s <= self.timeout_s * 64.0:
            raise ValueError(
                f"drain_s={self.drain_s} must exceed the worst-case "
                f"retransmission gap timeout_s*64={self.timeout_s * 64.0}"
            )


@dataclass
class ControlledRunResult:
    """Outcome of one controller-managed all-reduce."""

    completed: bool
    survivors: list[int]  # member ids still in the job
    results: dict[int, np.ndarray | None]  # member id -> aggregate
    recoveries: list[RecoveryRecord]
    stale_epoch_drops: int
    heartbeats_punted: int
    ignored_heartbeats: int
    epoch: int
    elapsed_s: float
    availability: float


class ControlPlaneDataplane:
    """Chassis program wrapping the job's dataplane with a CPU punt path.

    Heartbeats never reach the aggregation program: like control traffic
    on a real Tofino, they are punted out of the pipeline to the
    controller.  Everything else goes to the inner
    :class:`~repro.core.job.SwitchMLDataplane` untouched.
    """

    def __init__(
        self,
        inner: SwitchMLDataplane,
        punt: Callable[[Heartbeat], None],
    ):
        self.inner = inner
        self.punt = punt
        self.heartbeats_punted = 0

    def process(self, frame: Frame, in_port: int) -> PortDecision:
        message = frame.message
        if isinstance(message, Heartbeat):
            if not frame.corrupted:
                self.heartbeats_punted += 1
                self.punt(message)
            return PortDecision.drop()
        return self.inner.process(frame, in_port)


class Controller:
    """Owns one SwitchML job's lifecycle on a simulated rack.

    Usage::

        ctl = Controller(ControlPlaneConfig(num_workers=4))
        FaultInjector(ctl, plan).arm()
        result = ctl.run_collective(tensors)

    Membership is keyed by *member id* (== host index, stable for the
    life of the rack); the protocol-level ``wid`` is reassigned to keep
    worker ids contiguous whenever the group shrinks, because the switch
    program's ``seen`` bitmap is addressed by ``wid < n``.
    """

    def __init__(self, config: ControlPlaneConfig | None = None):
        self.config = config if config is not None else ControlPlaneConfig()
        cfg = self.config
        self.sim = Simulator(seed=cfg.seed)
        self.rack: Rack = build_rack(
            self.sim,
            RackSpec(
                num_hosts=cfg.num_workers,
                link=cfg.link,
                host=cfg.host,
                loss_factory=cfg.loss_factory,
            ),
        )
        self.metrics = ControlPlaneMetrics()
        self.obs = cfg.obs if cfg.obs is not None else NULL_OBS
        self.sim.attach_obs(self.obs)
        self._m_punts = self.obs.metrics.counter(
            "controlplane_heartbeats_punted_total",
            "heartbeats punted out of the pipeline to the controller",
        )
        # Admission: the allocator owns the program and its epoch.
        self.allocator = PoolAllocator(budget_fraction=cfg.budget_fraction)
        self.allocator.instrument(self.obs, clock=lambda: self.sim.now)
        self.handle = self.allocator.admit(
            cfg.num_workers, cfg.pool_size, cfg.elements_per_packet
        )
        self.membership = MembershipTracker(
            self.sim,
            heartbeat_interval_s=cfg.heartbeat_interval_s,
            suspect_after_s=cfg.suspect_after_s,
            confirm_after_s=cfg.confirm_after_s,
            on_suspect=self._on_suspect,
            on_confirm=self._on_confirm,
            on_recovered=self._on_member_recovered,
            obs=self.obs,
        )
        correlation = (
            cfg.heartbeat_interval_s
            if cfg.correlation_delay_s is None
            else cfg.correlation_delay_s
        )
        self.recovery = RecoveryManager(
            self.sim, self, correlation_delay_s=correlation, drain_s=cfg.drain_s
        )

        #: every endpoint ever created, by member id (fault injection
        #: needs to reach evicted/zombie workers too)
        self.endpoints: dict[int, SwitchMLWorker] = {}
        #: the *active* group, by member id
        self.workers: dict[int, SwitchMLWorker] = {}
        for member in range(cfg.num_workers):
            worker = SwitchMLWorker(
                sim=self.sim,
                host=self.rack.hosts[member],
                wid=member,
                num_workers=cfg.num_workers,
                pool_size=cfg.pool_size,
                elements_per_packet=cfg.elements_per_packet,
                timeout_s=cfg.timeout_s,
                bytes_per_element=cfg.bytes_per_element,
                on_complete=self._make_on_complete(member),
                max_retries=cfg.max_retries,
                epoch=self.handle.epoch,
                member_id=member,
                obs=self.obs,
            )
            self.rack.hosts[member].attach_agent(worker)
            self.endpoints[member] = worker
            self.workers[member] = worker
            self.membership.add_member(member)

        self.switch_available = True
        #: epoch-fence drops accumulated from programs already retired
        #: by a lease renewal (the live program keeps its own counter)
        self.stale_epoch_drops_retired = 0
        self.dataplane: ControlPlaneDataplane | None = None
        self._install_dataplane()

        self._tensors: dict[int, np.ndarray] = {}  # padded, by member
        self._original_size = 0
        self._done_members: set[int] = set()
        self._collective_done = False

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def _install_dataplane(self) -> None:
        """(Re)mount the job's program, wrapped with the heartbeat punt.

        Protocol wids are always the rank of the member id in sorted
        order; :meth:`reconfigure_survivors` applies the same mapping to
        the workers themselves.
        """
        members = sorted(self.workers)
        worker_ports = {
            rank: self.rack.host_port(member)
            for rank, member in enumerate(members)
        }
        worker_names = {
            rank: self.rack.hosts[member].name
            for rank, member in enumerate(members)
        }
        inner = SwitchMLDataplane(
            self.handle.program,
            worker_ports,
            worker_names,
            bytes_per_element=self.config.bytes_per_element,
        )
        punted_before = (
            self.dataplane.heartbeats_punted if self.dataplane is not None else 0
        )
        self.dataplane = ControlPlaneDataplane(inner, self._on_heartbeat)
        self.dataplane.heartbeats_punted = punted_before
        self.rack.switch.load_program(self.dataplane)

    def _make_on_complete(self, member: int):
        def on_complete(wid: int, time: float) -> None:
            self._on_worker_done(member, time)

        return on_complete

    # ------------------------------------------------------------------
    # Signals in
    # ------------------------------------------------------------------
    def _on_heartbeat(self, beat: Heartbeat) -> None:
        self._m_punts.inc()
        self.membership.on_heartbeat(beat.member, self.sim.now, beat.progress)

    def _on_suspect(self, member: int, time: float) -> None:
        self.metrics.log(time, "suspect", f"member {member}")

    def _on_member_recovered(self, member: int, time: float) -> None:
        self.metrics.log(time, "unsuspect", f"member {member} heard again")

    def _on_confirm(self, members: list[int], time: float) -> None:
        self.metrics.log(time, "confirm-dead", f"members {members}")
        self.recovery.on_members_dead(members, time)

    def _on_worker_done(self, member: int, time: float) -> None:
        self._done_members.add(member)
        if (
            self.recovery.state is RecoveryState.IDLE
            and self._done_members >= set(self.workers)
        ):
            self._collective_done = True
            self.sim.stop()
            self.recovery.on_collective_complete(time)

    def notify_switch_down(self) -> None:
        """Fault hook: the switch lost its program and registers.

        The controller does NOT act on this -- detection happens through
        missed heartbeats, as it would in production.  The blackhole
        program models a rebooting switch that forwards nothing until a
        program is pushed to it.
        """
        self.switch_available = False
        self.rack.switch.load_program(SwitchDownProgram())

    def notify_switch_up(self) -> None:
        """Management plane: the switch answers again (reachability
        probe succeeded).  Recovery reinstalls only once detection has
        quiesced the group; until then the flag just waits."""
        self.switch_available = True
        self.recovery.on_switch_up(self.sim.now)

    # ------------------------------------------------------------------
    # Recovery actions (called by RecoveryManager, in order)
    # ------------------------------------------------------------------
    @property
    def current_epoch(self) -> int:
        return self.handle.epoch

    def all_members(self) -> list[int]:
        return sorted(self.workers)

    def evict_and_fence(self, dead: list[int]) -> None:
        """Worker path step 1: evict the dead, install the fence.

        The lease is renewed at ``n - len(dead)`` workers (epoch + 1) and
        the new program mounted immediately -- while survivors are still
        sending at the old epoch.  Every such packet is dropped by the
        epoch fence, which is precisely the point: nothing from the old
        geometry can touch the new registers.
        """
        self.stale_epoch_drops_retired += self.handle.program.stale_epoch_drops
        for member in dead:
            self.membership.remove_member(member)
            self.workers.pop(member, None)
        self.handle = self.allocator.renew(
            self.handle.job_id, num_workers=len(self.workers)
        )
        self._install_dataplane()

    def quiesce_survivors(self) -> None:
        for worker in self.workers.values():
            worker.quiesce()

    def reconfigure_survivors(self) -> None:
        """Renumber survivors to contiguous wids at the current epoch."""
        members = sorted(self.workers)
        for rank, member in enumerate(members):
            self.workers[member].reconfigure(
                wid=rank,
                num_workers=len(members),
                epoch=self.handle.epoch,
                pool_size=self.handle.pool_size,
            )

    def restart_from_checkpoint(self) -> None:
        """Worker path: restart the whole tensor with the new group.

        The checkpoint is the tensor boundary: chunks aggregated before
        the crash embed the dead worker's contributions, so the correct
        (n-1)-worker sum requires re-aggregating from element 0.
        """
        self._done_members.clear()
        for member, worker in self.workers.items():
            worker.start(self._tensors[member])

    def reinstall_same_membership(self) -> None:
        """Switch path: fresh program (registers wiped by the reboot),
        same group, epoch + 1 so pre-outage in-flight traffic is fenced."""
        self.stale_epoch_drops_retired += self.handle.program.stale_epoch_drops
        self.handle = self.allocator.renew(self.handle.job_id)
        self._install_dataplane()
        # The heartbeat path is back; forgive the outage's silence.
        self.membership.reset()

    def replay_from_prefix(self) -> int:
        """Switch path: resume every worker from the group-wide minimum
        completed prefix (all workers must stream the same chunk range;
        chunks re-aggregated above a worker's own prefix reproduce the
        same sums).  Returns the resume offset in elements.

        Versions are reset fleet-wide: a worker whose link flapped
        before the reboot stalled with per-slot version counters behind
        its peers', and replaying mixed versions into the reinstalled
        (zeroed) pool strands every half-seen slot on both versions --
        the survivors then retransmit forever and the collective never
        finishes.  See :meth:`SwitchMLWorker.restart_from`.
        """
        resume = min(
            worker.completed_prefix_elements()
            for worker in self.workers.values()
        )
        self._done_members.clear()
        for worker in self.workers.values():
            worker.reconfigure(epoch=self.handle.epoch)
            worker.restart_from(resume, reset_versions=True)
        return resume

    # ------------------------------------------------------------------
    # Running a collective
    # ------------------------------------------------------------------
    @property
    def stale_epoch_drops(self) -> int:
        """Epoch-fence drops across all lease generations."""
        return self.stale_epoch_drops_retired + self.handle.program.stale_epoch_drops

    def run_collective(
        self,
        tensors: Sequence[np.ndarray],
        deadline_s: float = 1.0,
        verify: bool = True,
    ) -> ControlledRunResult:
        """Run one all-reduce under control-plane supervision.

        Unlike :meth:`SwitchMLJob.all_reduce`, completion may involve
        recoveries: the result's ``survivors`` says who finished, and
        with ``verify`` the aggregates are checked against the exact sum
        of the *survivors'* inputs (a worker that died or was evicted
        mid-run contributes nothing -- its partial contributions were
        discarded with the fenced epoch).
        """
        cfg = self.config
        members = sorted(self.workers)
        if len(tensors) != len(members):
            raise ValueError(f"need {len(members)} tensors, got {len(tensors)}")
        sizes = {len(t) for t in tensors}
        if len(sizes) != 1:
            raise ValueError("all workers must contribute equal-length tensors")
        self._original_size = sizes.pop()
        k = cfg.elements_per_packet
        pad = (-self._original_size) % k
        self._tensors = {}
        for member, tensor in zip(members, tensors):
            arr = np.asarray(tensor, dtype=np.int64)
            if pad:
                arr = np.concatenate([arr, np.zeros(pad, dtype=np.int64)])
            self._tensors[member] = arr
        self._done_members.clear()
        self._collective_done = False

        for worker in self.workers.values():
            worker.enable_heartbeats(cfg.heartbeat_interval_s)
        self.membership.start()

        start_t = self.sim.now
        for member in members:
            self.sim.schedule_at(
                start_t, self.workers[member].start, self._tensors[member]
            )
        deadline = start_t + deadline_s
        # Heartbeat and sweep timers keep the heap populated forever, so
        # the run ends when _on_worker_done stops it (or at the
        # deadline), never on an empty heap.
        self.sim.run_deadline(deadline)
        elapsed = self.sim.now - start_t

        # Stop control traffic so callers can compose further phases.
        self.membership.stop()
        for worker in self.workers.values():
            worker.stop_heartbeats()

        survivors = sorted(self.workers)
        results: dict[int, np.ndarray | None] = {}
        for member in survivors:
            res = self.workers[member].result
            results[member] = (
                None if res is None else res[: self._original_size].copy()
            )
        completed = self._collective_done
        if verify and completed:
            expected = np.sum(
                [self._tensors[m] for m in survivors], axis=0, dtype=np.int64
            )[: self._original_size]
            for member in survivors:
                res = results[member]
                if res is None or not np.array_equal(res, expected):
                    raise AssertionError(
                        f"member {member} aggregate differs from the exact "
                        f"{len(survivors)}-worker sum"
                    )
        assert self.dataplane is not None
        return ControlledRunResult(
            completed=completed,
            survivors=survivors,
            results=results,
            recoveries=list(self.recovery.records),
            stale_epoch_drops=self.stale_epoch_drops,
            heartbeats_punted=self.dataplane.heartbeats_punted,
            ignored_heartbeats=self.membership.ignored_heartbeats,
            epoch=self.handle.epoch,
            elapsed_s=elapsed,
            availability=availability(self.recovery.records, elapsed)
            if elapsed > 0
            else 1.0,
        )
