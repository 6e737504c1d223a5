"""Multi-job / multi-tenant aggregation (SS6 "Multi-job (tenancy)").

The paper: "Every job requires a separate pool of aggregators to ensure
correctness.  As discussed, the resources used for one reduction are much
less than 10% of switch capabilities. ... Thus, an admission mechanism
would be needed to control the assignment of jobs to pools."

This module builds that admission mechanism and the job-multiplexing
dataplane:

* :class:`PoolAllocator` -- tracks the pipeline's SRAM budget and admits
  or rejects jobs, handing each an isolated aggregator pool;
* :class:`MultiJobDataplane` -- dispatches ingress packets to their job's
  switch program by the packet's ``job_id`` field and routes results back
  to that job's workers only;
* :class:`MultiTenantRack` -- a rack whose hosts run several jobs'
  workers side by side, for end-to-end isolation experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core.packet import SwitchMLPacket
from repro.core.switch_program import SwitchAction, SwitchMLProgram
from repro.core.worker import SwitchMLWorker, WorkerStats
from repro.dataplane.pipeline import TOFINO, PipelineModel
from repro.dataplane.resources import switchml_resource_report
from repro.net.host import HostSpec
from repro.net.link import LinkSpec
from repro.net.loss import LossModel, NoLoss
from repro.net.packet import Frame
from repro.net.switchchassis import PortDecision
from repro.net.topology import Rack, RackSpec, build_rack
from repro.obs.base import NULL_OBS
from repro.sim.engine import Simulator

__all__ = [
    "AdmissionError",
    "JobHandle",
    "MultiJobDataplane",
    "MultiTenantRack",
    "PoolAllocator",
]


class AdmissionError(RuntimeError):
    """The switch cannot host another aggregator pool."""


@dataclass
class JobHandle:
    """An admitted job's slice of the switch.

    ``epoch`` versions the lease: :meth:`PoolAllocator.renew` replaces a
    job's lease (same ``job_id``) with a fresh program whose epoch is one
    higher, which is how the control plane fences in-flight packets from
    a pre-failure configuration (see :mod:`repro.controlplane`).
    """

    job_id: int
    num_workers: int
    pool_size: int
    elements_per_packet: int
    program: SwitchMLProgram
    sram_bytes: int
    pipeline_id: int = 0
    epoch: int = 0


class PoolAllocator:
    """Admission control for aggregator pools across a chip's pipelines.

    Jobs are admitted while each pipeline's summed register SRAM stays
    under ``budget_fraction`` of its SRAM (a conservative operator
    policy; the dataplane must keep most of its memory for forwarding
    state, SS3.1).  A job's state lives entirely within one pipeline --
    "modern switch chips comprise multiple independent pipelines, each
    with its own resources" (SS6) -- so the allocator also packs jobs
    onto pipelines (first fit) and enforces each pipeline's port budget.
    """

    def __init__(
        self,
        pipeline: PipelineModel = TOFINO,
        budget_fraction: float = 0.10,
        num_pipelines: int | None = None,
    ):
        if not 0 < budget_fraction <= 1:
            raise ValueError("budget fraction must be in (0, 1]")
        self.pipeline = pipeline
        self.num_pipelines = (
            pipeline.num_pipelines if num_pipelines is None else num_pipelines
        )
        if self.num_pipelines < 1:
            raise ValueError("need at least one pipeline")
        self.budget_bytes = int(pipeline.sram_bytes * budget_fraction)
        self.jobs: dict[int, JobHandle] = {}
        self._next_job_id = 0
        self.rejections = 0
        self.instrument(None)

    def instrument(self, obs, clock: Callable[[], float] | None = None) -> None:
        """Report admission-control activity through an
        :class:`repro.obs.base.Observability` layer.  Programs created by
        subsequent :meth:`admit` / :meth:`renew` calls inherit the layer
        and clock, so a managed run's lease renewals land on the same
        trace as the protocol events.  ``None`` restores the null layer.
        """
        self._obs = obs if obs is not None else NULL_OBS
        self._clock = clock if clock is not None else (lambda: 0.0)
        metrics = self._obs.metrics
        self._m_admitted = metrics.counter(
            "pool_admissions_total", "jobs admitted to aggregator pools"
        )
        self._m_rejected = metrics.counter(
            "pool_rejections_total", "pool admission rejections"
        )
        self._m_renewed = metrics.counter(
            "pool_renewals_total", "lease renewals (epoch bumps)"
        )
        self._g_sram = metrics.gauge(
            "pool_allocated_sram_bytes", "aggregator SRAM currently leased"
        )

    @property
    def allocated_bytes(self) -> int:
        return sum(j.sram_bytes for j in self.jobs.values())

    def pipeline_usage(self, pipeline_id: int) -> tuple[int, int]:
        """(SRAM bytes, ports) consumed on one pipeline."""
        sram = sum(
            j.sram_bytes for j in self.jobs.values()
            if j.pipeline_id == pipeline_id
        )
        ports = sum(
            j.num_workers for j in self.jobs.values()
            if j.pipeline_id == pipeline_id
        )
        return sram, ports

    @property
    def free_bytes(self) -> int:
        """Free aggregation SRAM on the emptiest pipeline."""
        return max(
            self.budget_bytes - self.pipeline_usage(p)[0]
            for p in range(self.num_pipelines)
        )

    def _find_pipeline(self, sram_bytes: int, ports: int) -> int | None:
        for p in range(self.num_pipelines):
            used_sram, used_ports = self.pipeline_usage(p)
            if (
                used_sram + sram_bytes <= self.budget_bytes
                and used_ports + ports <= self.pipeline.ports_per_pipeline
            ):
                return p
        return None

    def _place(
        self, num_workers: int, pool_size: int, elements_per_packet: int
    ) -> tuple[int, int]:
        """Validate and place a pool request.

        Returns ``(sram_bytes, pipeline_id)`` or raises
        :class:`AdmissionError` (after counting the rejection).
        """
        report = switchml_resource_report(
            pool_size, elements_per_packet, num_workers, self.pipeline
        )
        if report.stages_used > self.pipeline.num_stages:
            self.rejections += 1
            self._m_rejected.inc()
            raise AdmissionError(
                f"k={elements_per_packet} needs {report.stages_used} stages; "
                f"pipeline has {self.pipeline.num_stages}"
            )
        if num_workers > self.pipeline.ports_per_pipeline:
            self.rejections += 1
            self._m_rejected.inc()
            raise AdmissionError(
                f"{num_workers} workers exceed a pipeline's "
                f"{self.pipeline.ports_per_pipeline} ports; compose "
                "racks with repro.net.fabric.FabricJob instead (SS6)"
            )
        placement = self._find_pipeline(report.total_sram_bytes, num_workers)
        if placement is None:
            self.rejections += 1
            self._m_rejected.inc()
            raise AdmissionError(
                f"no pipeline can host pool={pool_size} slots "
                f"({report.total_sram_bytes} B) + {num_workers} ports; "
                f"{self.num_pipelines} pipelines all full"
            )
        return report.total_sram_bytes, placement

    def admit(
        self,
        num_workers: int,
        pool_size: int,
        elements_per_packet: int = 32,
        check_invariants: bool = False,
    ) -> JobHandle:
        """Admit a job, or raise :class:`AdmissionError`."""
        sram_bytes, placement = self._place(
            num_workers, pool_size, elements_per_packet
        )
        job_id = self._next_job_id
        self._next_job_id += 1
        handle = JobHandle(
            job_id=job_id,
            num_workers=num_workers,
            pool_size=pool_size,
            elements_per_packet=elements_per_packet,
            program=SwitchMLProgram(
                num_workers, pool_size, elements_per_packet,
                check_invariants=check_invariants,
                obs=self._obs, clock=self._clock,
            ),
            sram_bytes=sram_bytes,
            pipeline_id=placement,
            epoch=0,
        )
        self.jobs[job_id] = handle
        self._m_admitted.inc()
        self._g_sram.set(self.allocated_bytes)
        if self._obs.tracer.enabled:
            self._obs.tracer.emit(
                "pool.admit", self._clock(), cat="pool", actor="allocator",
                job=job_id, slots=pool_size, sram=sram_bytes,
                pipeline=placement,
            )
        return handle

    def renew(
        self,
        job_id: int,
        num_workers: int | None = None,
        pool_size: int | None = None,
        elements_per_packet: int | None = None,
        check_invariants: bool = False,
    ) -> JobHandle:
        """Replace a job's lease with a fresh one under the same job id.

        The new lease carries ``epoch = old.epoch + 1`` and a brand-new
        (zeroed) :class:`SwitchMLProgram` built to serve that epoch --
        this is the reconfiguration primitive failure recovery uses to
        re-admit a job with fewer workers (worker fail-stop) or the same
        membership (switch reboot).  The old lease's resources are
        released first, so a shrink always fits; if placement of the new
        shape fails, the old lease is restored and
        :class:`AdmissionError` propagates (the job keeps running on its
        old configuration).
        """
        old = self.jobs.pop(job_id, None)
        if old is None:
            raise KeyError(f"no admitted job {job_id}")
        n = old.num_workers if num_workers is None else num_workers
        s = old.pool_size if pool_size is None else pool_size
        k = old.elements_per_packet if elements_per_packet is None else elements_per_packet
        try:
            sram_bytes, placement = self._place(n, s, k)
        except AdmissionError:
            self.jobs[job_id] = old
            raise
        epoch = old.epoch + 1
        handle = JobHandle(
            job_id=job_id,
            num_workers=n,
            pool_size=s,
            elements_per_packet=k,
            program=SwitchMLProgram(
                n, s, k, check_invariants=check_invariants, epoch=epoch,
                obs=self._obs, clock=self._clock,
            ),
            sram_bytes=sram_bytes,
            pipeline_id=placement,
            epoch=epoch,
        )
        self.jobs[job_id] = handle
        self._m_renewed.inc()
        self._g_sram.set(self.allocated_bytes)
        if self._obs.tracer.enabled:
            self._obs.tracer.emit(
                "pool.renew", self._clock(), cat="pool", actor="allocator",
                job=job_id, epoch=epoch, workers=n, slots=s,
            )
        return handle

    def release(self, job_id: int) -> None:
        """Tear a job down, returning its pool to the budget."""
        if job_id not in self.jobs:
            raise KeyError(f"no admitted job {job_id}")
        del self.jobs[job_id]
        self._g_sram.set(self.allocated_bytes)
        if self._obs.tracer.enabled:
            self._obs.tracer.emit(
                "pool.release", self._clock(), cat="pool", actor="allocator",
                job=job_id,
            )


class MultiJobDataplane:
    """Job-multiplexing chassis program.

    Routes each update packet to its job's program via ``packet.job_id``
    and fans results out to that job's worker ports only -- the isolation
    the paper's tenancy sketch requires.
    """

    def __init__(self, bytes_per_element: int = 4, switch_name: str = "sw"):
        self.bytes_per_element = bytes_per_element
        self.switch_name = switch_name
        # job_id -> (wid -> (port, host name))
        self._members: dict[int, dict[int, tuple[int, str]]] = {}
        self._programs: dict[int, SwitchMLProgram] = {}
        self.unknown_job_drops = 0

    def register_job(
        self, handle: JobHandle, worker_ports: dict[int, tuple[int, str]]
    ) -> None:
        """Attach an admitted job's program and worker placement."""
        if len(worker_ports) != handle.num_workers:
            raise ValueError(
                f"job {handle.job_id} needs {handle.num_workers} workers, "
                f"got {len(worker_ports)} placements"
            )
        self._members[handle.job_id] = dict(worker_ports)
        self._programs[handle.job_id] = handle.program

    def unregister_job(self, job_id: int) -> None:
        self._members.pop(job_id, None)
        self._programs.pop(job_id, None)

    def process(self, frame: Frame, in_port: int) -> PortDecision:
        if frame.corrupted:
            return PortDecision.drop()
        packet = frame.message
        if not isinstance(packet, SwitchMLPacket) or packet.from_switch:
            return PortDecision.drop()
        program = self._programs.get(packet.job_id)
        members = self._members.get(packet.job_id)
        if program is None or members is None:
            self.unknown_job_drops += 1
            return PortDecision.drop()
        decision = program.handle(packet)
        if decision.action is SwitchAction.DROP:
            return PortDecision.drop()
        assert decision.packet is not None
        if decision.action is SwitchAction.UNICAST:
            wid = decision.unicast_wid
            assert wid is not None
            port, name = members[wid]
            out = decision.packet.to_frame(
                self.switch_name, name, self.bytes_per_element
            )
            return PortDecision(deliveries=[(port, out)])
        deliveries = []
        for wid, (port, name) in members.items():
            out = decision.packet.to_frame(
                self.switch_name, name, self.bytes_per_element
            )
            deliveries.append((port, out))
        return PortDecision(deliveries=deliveries)


class _JobTaggingWorker(SwitchMLWorker):
    """A worker whose packets carry its job's id.

    The base worker stamps ``job_id`` into every packet it builds, so
    this is now just a constructor-signature adapter.
    """

    def __init__(self, job_id: int, *args, **kwargs):
        super().__init__(*args, job_id=job_id, **kwargs)


@dataclass
class TenantResult:
    """Outcome of one job's all-reduce on the shared rack."""

    job_id: int
    completed: bool
    worker_stats: list[WorkerStats]
    results: list[np.ndarray | None]

    @property
    def max_tat(self) -> float:
        return max(s.tensor_aggregation_time for s in self.worker_stats)


class MultiTenantRack:
    """A rack whose switch serves several jobs concurrently.

    Each job gets its own set of hosts (as in the paper's dedicated-
    bandwidth assumption) but all share the one programmable switch and
    its pool allocator.
    """

    def __init__(
        self,
        num_hosts: int,
        link: LinkSpec | None = None,
        host: HostSpec | None = None,
        loss_factory: Callable[[], LossModel] = NoLoss,
        allocator: PoolAllocator | None = None,
        seed: int = 0,
    ):
        self.sim = Simulator(seed=seed)
        self.rack: Rack = build_rack(
            self.sim,
            RackSpec(
                num_hosts=num_hosts,
                link=link if link is not None else LinkSpec(),
                host=host if host is not None else HostSpec(),
                loss_factory=loss_factory,
            ),
        )
        self.allocator = allocator if allocator is not None else PoolAllocator()
        self.dataplane = MultiJobDataplane()
        self.rack.switch.load_program(self.dataplane)
        self._used_hosts = 0
        self._jobs: dict[int, tuple[JobHandle, list[_JobTaggingWorker]]] = {}
        self._completed: dict[int, set[int]] = {}

    def add_job(
        self,
        num_workers: int,
        pool_size: int,
        elements_per_packet: int = 32,
        timeout_s: float = 1e-3,
    ) -> int:
        """Admit a job and place its workers on the next free hosts."""
        if self._used_hosts + num_workers > len(self.rack.hosts):
            raise AdmissionError(
                f"rack has {len(self.rack.hosts) - self._used_hosts} free "
                f"hosts; job needs {num_workers}"
            )
        handle = self.allocator.admit(num_workers, pool_size, elements_per_packet)
        placements: dict[int, tuple[int, str]] = {}
        workers: list[_JobTaggingWorker] = []
        self._completed[handle.job_id] = set()
        for wid in range(num_workers):
            host_index = self._used_hosts + wid
            host = self.rack.hosts[host_index]
            worker = _JobTaggingWorker(
                handle.job_id,
                sim=self.sim,
                host=host,
                wid=wid,
                num_workers=num_workers,
                pool_size=pool_size,
                elements_per_packet=elements_per_packet,
                timeout_s=timeout_s,
                on_complete=self._make_on_complete(handle.job_id),
            )
            host.attach_agent(worker)
            placements[wid] = (self.rack.host_port(host_index), host.name)
            workers.append(worker)
        self._used_hosts += num_workers
        self.dataplane.register_job(handle, placements)
        self._jobs[handle.job_id] = (handle, workers)
        return handle.job_id

    def _make_on_complete(self, job_id: int):
        def on_complete(wid: int, time: float) -> None:
            self._completed[job_id].add(wid)

        return on_complete

    def start_job(
        self,
        job_id: int,
        tensors: Sequence[np.ndarray],
        at_time: float | None = None,
    ) -> None:
        """Schedule a job's all-reduce; multiple jobs may overlap."""
        handle, workers = self._jobs[job_id]
        if len(tensors) != handle.num_workers:
            raise ValueError(
                f"job {job_id} needs {handle.num_workers} tensors"
            )
        k = handle.elements_per_packet
        when = self.sim.now if at_time is None else at_time
        self._completed[job_id].clear()
        for worker, tensor in zip(workers, tensors):
            arr = np.asarray(tensor, dtype=np.int64)
            pad = (-len(arr)) % k
            if pad:
                arr = np.concatenate([arr, np.zeros(pad, dtype=np.int64)])
            self.sim.schedule_at(when, worker.start, arr)

    def run(self, deadline_s: float = 60.0) -> None:
        self.sim.run_deadline(self.sim.now + deadline_s)

    def result(self, job_id: int, original_length: int | None = None) -> TenantResult:
        handle, workers = self._jobs[job_id]
        results = []
        for w in workers:
            if w.result is None:
                results.append(None)
            elif original_length is not None:
                results.append(w.result[:original_length].copy())
            else:
                results.append(w.result.copy())
        return TenantResult(
            job_id=job_id,
            completed=len(self._completed[job_id]) == handle.num_workers,
            worker_stats=[w.stats for w in workers],
            results=results,
        )
