"""End-to-end SwitchML jobs on a simulated rack.

:class:`SwitchMLJob` assembles the pieces -- rack topology, switch
program (Algorithm 3 by default, Algorithm 1 for the lossless/ablation
variant), dataplane adapter, and one worker agent per host -- then runs
all-reduce operations and reports tensor aggregation time (TAT), packet
traces, and protocol statistics.

This is the packet-level-fidelity path described in DESIGN.md SS3; the
analytic models in :mod:`repro.collectives.models` cover the wide sweeps
and are cross-validated against this simulator in the integration tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core.fp16_program import Float16SwitchMLProgram
from repro.core.packet import SwitchMLPacket, fanout_frames
from repro.core.switch_program import (
    LosslessSwitchMLProgram,
    SwitchAction,
    SwitchMLProgram,
)
from repro.quant.float16 import float16_switch_from_fixed, float16_switch_to_fixed
from repro.core.worker import SwitchMLWorker, WorkerStats
from repro.net.host import HostSpec
from repro.net.link import LinkSpec
from repro.net.loss import LossModel, NoLoss
from repro.net.packet import Frame
from repro.net.switchchassis import PortDecision
from repro.net.topology import Rack, RackSpec, build_rack
from repro.obs.base import NULL_OBS, Observability
from repro.sim.engine import Simulator
from repro.sim.trace import TraceRecorder

__all__ = ["AllReduceResult", "SwitchMLConfig", "SwitchMLDataplane", "SwitchMLJob"]

#: shared drop decision, resolved once (process() runs per frame)
_PORT_DROP = PortDecision.drop()


@dataclass
class SwitchMLConfig:
    """Everything that defines a SwitchML deployment.

    Defaults are the paper's 10 Gbps setting: 8 workers, pool of 128
    slots, k = 32 elements per packet, 1 ms retransmission timeout.

    ``burst_epsilon`` is the one execution dial; the code picks the
    path from it.  At 0 (default) every frame is its own engine event
    through the per-packet bodies -- ``SwitchMLProgram.handle``,
    ``SwitchMLWorker._on_result``, ``Link.send``, ``Host.deliver`` --
    which are the executable spec and hold the tracked fingerprints.
    Above 0, links, hosts and the switch coalesce arrivals into
    epsilon-wide windows and transport moves in batches (frame trains
    out, RX bursts in, one ``handle_batch`` call per switch drain, which
    runs ``handle`` packet by packet): the same tensors and the same
    loss recovery from far fewer events, at the price of up to epsilon
    of added latency per hop -- a fidelity dial, not a free speed-up
    (docs/PERFORMANCE.md has both sides measured).
    """

    num_workers: int = 8
    pool_size: int = 128
    elements_per_packet: int = 32
    timeout_s: float = 1e-3
    timeout_mode: str = "fixed"  # "adaptive" = Jacobson/Karn RTO (SS6)
    bytes_per_element: int = 4
    link: LinkSpec = field(default_factory=LinkSpec)
    host: HostSpec = field(default_factory=HostSpec)
    pipeline_latency_s: float = 800e-9
    loss_factory: Callable[[], LossModel] = NoLoss
    lossless_switch: bool = False  # mount Algorithm 1 instead of Algorithm 3
    #: SwitchML(16): float16 on the wire, in-switch conversion (SS3.7).
    #: Use with elements_per_packet=64 and bytes_per_element=2.
    fp16_switch: bool = False
    check_invariants: bool = False
    #: bound consecutive per-slot retries; exceeded -> the worker reports
    #: failure (SS3.2: the framework handles worker/switch failures)
    max_retries: int | None = None
    #: control-plane pool epoch stamped into program and workers; the
    #: managed run mode (:mod:`repro.controlplane`) bumps it on recovery
    epoch: int = 0
    #: observability layer shared by the engine, workers, and switch
    #: program; None falls back to the disabled :data:`NULL_OBS`
    obs: "Observability | None" = None
    #: reuse per-slot packet/frame objects on the hot paths instead of
    #: allocating per packet.  None (default) = auto: enabled exactly
    #: when ``link.jitter_s == 0`` -- jitter can reorder deliveries, and
    #: reuse relies on FIFO delivery to prove no frame is mutated while
    #: still in flight.  Force with True/False for A/B testing.
    reuse_buffers: bool | None = None
    #: epsilon-window coalescing, seconds.  0 = the per-packet path.
    #: Positive: arrivals within ``burst_epsilon`` of a window's opener
    #: ride the same drain event at link, host and switch, so far fewer
    #: engine events carry the same frames -- protocol-equivalent (same
    #: tensors, same retransmission regime), not schedule-identical.  A
    #: round trip crosses four windows, so ``4 * burst_epsilon`` must
    #: stay under ``timeout_s`` or every timer fires spuriously.
    burst_epsilon: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        eps, timeout = self.burst_epsilon, self.timeout_s
        if eps < 0 or (eps > 0 and 4 * eps >= timeout):
            raise ValueError(
                f"burst_epsilon={eps} must satisfy 0 <= 4 * burst_epsilon < "
                f"timeout_s={timeout}: a round trip crosses four coalescing "
                "windows, so a wider one makes every retransmission timer "
                "spurious"
            )
        if self.fp16_switch and self.lossless_switch:
            raise ValueError("fp16_switch and lossless_switch are exclusive")


@dataclass
class AllReduceResult:
    """Outcome of one all-reduce across the rack."""

    completed: bool
    worker_stats: list[WorkerStats]
    results: list[np.ndarray | None]
    retransmissions: int
    frames_lost: int
    switch_multicasts: int
    switch_unicast_retransmits: int
    switch_ignored_duplicates: int
    trace: TraceRecorder
    sim_events: int
    failed_workers: list[int] = field(default_factory=list)
    switch_stale_epoch_drops: int = 0

    @property
    def tats(self) -> list[float]:
        """Per-worker tensor aggregation times (seconds)."""
        return [s.tensor_aggregation_time for s in self.worker_stats]

    @property
    def max_tat(self) -> float:
        return max(self.tats)

    @property
    def mean_tat(self) -> float:
        return float(np.mean(self.tats))

    @property
    def mean_rtt(self) -> float:
        rtts = [s.mean_rtt for s in self.worker_stats if s.rtt_count]
        return float(np.mean(rtts)) if rtts else float("nan")

    def aggregated_elements_per_second(self, num_elements: int) -> float:
        """ATE/s as the paper defines throughput in SS5.3."""
        return num_elements / self.max_tat


class SwitchMLDataplane:
    """Adapter mounting a SwitchML program into a switch chassis.

    Translates :class:`SwitchDecision` into port deliveries: MULTICAST
    fans a result frame out to every worker port via the traffic manager;
    UNICAST answers a single retransmitting worker.
    """

    def __init__(
        self,
        program: SwitchMLProgram | LosslessSwitchMLProgram,
        worker_ports: dict[int, int],
        worker_names: dict[int, str],
        bytes_per_element: int = 4,
        switch_name: str = "sw",
        reuse_buffers: bool = False,
    ):
        self.program = program
        self.worker_ports = dict(worker_ports)
        self.worker_names = dict(worker_names)
        self.bytes_per_element = bytes_per_element
        self.switch_name = switch_name
        self.corrupt_discarded = 0
        # (wid, port, dst) resolved once; the multicast loop is per packet
        self._fanout = [
            (wid, port, self.worker_names[wid])
            for wid, port in self.worker_ports.items()
        ]
        # split views for the batched replica build (fanout_frames): the
        # zip with _fanout_ports restores the (port, frame) pairing
        self._fanout_ports = [port for _, port, _ in self._fanout]
        self._fanout_dsts = [dst for _, _, dst in self._fanout]
        # Zero-copy multicast (reuse_buffers): per-slot result packet and
        # per-(slot, worker) frames + deliveries list, mutated per phase.
        # Safe on jitter-free links: the self-clocking protocol guarantees
        # a slot's next multicast cannot be emitted until every worker has
        # consumed (or lost) the previous one, so no pooled object is
        # still in flight when it is rewritten.  Unicast results are
        # always freshly allocated -- one can still be in flight alongside
        # the same slot's pooled multicast objects.
        self.reuse_buffers = reuse_buffers
        self._mc_packets: dict[int, SwitchMLPacket] = {}
        self._mc_deliveries: dict[int, list[tuple[int, Frame]]] = {}
        self._mc_decisions: dict[int, PortDecision] = {}
        # batch entry point of the mounted program, resolved once (the
        # fp16/lossless programs have none and take the scalar fallback)
        self._handle_batch = getattr(program, "handle_batch", None)

    def _multicast_pooled(self, packet: SwitchMLPacket) -> PortDecision:
        """Reuse the slot's pooled result packet/frames (see __init__)."""
        idx = packet.idx
        pooled = self._mc_packets.get(idx)
        if pooled is None:
            self._mc_packets[idx] = packet
            deliveries = list(
                zip(
                    self._fanout_ports,
                    fanout_frames(
                        packet, self.switch_name, self._fanout_dsts,
                        self.bytes_per_element,
                    ),
                )
            )
            self._mc_deliveries[idx] = deliveries
            decision = PortDecision(deliveries=deliveries)
            self._mc_decisions[idx] = decision
            return decision
        pooled.wid = packet.wid
        pooled.ver = packet.ver
        pooled.off = packet.off
        pooled.vector = packet.vector
        pooled.epoch = packet.epoch
        pooled.job_id = packet.job_id
        pooled.is_retransmission = packet.is_retransmission
        for _, frame in self._mc_deliveries[idx]:
            frame.corrupted = False  # may have been flipped on a past trip
        return self._mc_decisions[idx]

    def process(self, frame: Frame, in_port: int) -> PortDecision:
        if frame.corrupted:
            # SS3.4 checksum: a corrupt update must not be aggregated.
            self.corrupt_discarded += 1
            return _PORT_DROP
        packet = frame.message
        if not isinstance(packet, SwitchMLPacket) or packet.from_switch:
            return _PORT_DROP
        decision = self.program.handle(packet)
        if decision.action is SwitchAction.DROP:
            return _PORT_DROP
        assert decision.packet is not None
        if decision.action is SwitchAction.UNICAST:
            wid = decision.unicast_wid
            assert wid is not None
            out = decision.packet.to_frame(
                src=self.switch_name,
                dst=self.worker_names[wid],
                bytes_per_element=self.bytes_per_element,
            )
            return PortDecision(deliveries=[(self.worker_ports[wid], out)])
        # MULTICAST: one replica per worker port.
        if self.reuse_buffers:
            return self._multicast_pooled(decision.packet)
        deliveries = list(
            zip(
                self._fanout_ports,
                fanout_frames(
                    decision.packet, self.switch_name, self._fanout_dsts,
                    self.bytes_per_element,
                ),
            )
        )
        return PortDecision(deliveries=deliveries)

    def process_batch(self, group: list[tuple[Frame, int]]) -> list[PortDecision]:
        """Window-path counterpart of :meth:`process`.

        ``group`` is one ingress window ``[(frame, in_port), ...]`` in
        arrival order.  Returns the non-drop decisions in the order the
        triggering frames arrived -- the order their individual pipeline
        completions would have emitted -- so every downstream link
        serializes, and draws randomness, in that order.  Absorbed
        frames (drops, corrupt or non-update traffic) produce no
        decision; the chassis accounts them from the length difference.
        """
        updates: list[SwitchMLPacket] = []
        for frame, _in_port in group:
            if frame.corrupted:
                self.corrupt_discarded += 1
                continue
            packet = frame.message
            if not isinstance(packet, SwitchMLPacket) or packet.from_switch:
                continue
            updates.append(packet)
        if not updates:
            return []
        handle_batch = self._handle_batch
        if handle_batch is not None:
            decisions = handle_batch(updates)
        else:
            # programs without a batch entry point (fp16, lossless) get
            # the per-packet path, packet by packet, in arrival order
            handle = self.program.handle
            decisions = [
                d for d in map(handle, updates)
                if d.action is not SwitchAction.DROP
            ]
        out: list[PortDecision] = []
        for decision in decisions:
            assert decision.packet is not None
            if decision.action is SwitchAction.UNICAST:
                wid = decision.unicast_wid
                assert wid is not None
                reply = decision.packet.to_frame(
                    src=self.switch_name,
                    dst=self.worker_names[wid],
                    bytes_per_element=self.bytes_per_element,
                )
                out.append(
                    PortDecision(deliveries=[(self.worker_ports[wid], reply)])
                )
            elif self.reuse_buffers:
                out.append(self._multicast_pooled(decision.packet))
            else:
                out.append(
                    PortDecision(
                        deliveries=list(
                            zip(
                                self._fanout_ports,
                                fanout_frames(
                                    decision.packet, self.switch_name,
                                    self._fanout_dsts, self.bytes_per_element,
                                ),
                            )
                        )
                    )
                )
        return out


class SwitchMLJob:
    """A SwitchML deployment: rack + program + workers, ready to reduce.

    Example
    -------
    >>> import numpy as np
    >>> from repro.core.job import SwitchMLJob, SwitchMLConfig
    >>> job = SwitchMLJob(SwitchMLConfig(num_workers=2, pool_size=4))
    >>> tensors = [np.full(64, w + 1, dtype=np.int64) for w in range(2)]
    >>> result = job.all_reduce(tensors)
    >>> bool((result.results[0] == 3).all())
    True
    """

    def __init__(self, config: SwitchMLConfig | None = None):
        self.config = config if config is not None else SwitchMLConfig()
        cfg = self.config
        self.sim = Simulator(seed=cfg.seed)
        # zero-copy hot paths need FIFO delivery; jitter reorders (see
        # SwitchMLConfig.reuse_buffers)
        reuse = (
            cfg.link.jitter_s == 0.0
            if cfg.reuse_buffers is None
            else cfg.reuse_buffers
        )
        self._reuse_buffers = reuse
        self.rack: Rack = build_rack(
            self.sim,
            RackSpec(
                num_hosts=cfg.num_workers,
                link=cfg.link,
                host=cfg.host,
                pipeline_latency_s=cfg.pipeline_latency_s,
                loss_factory=cfg.loss_factory,
            ),
        )
        self.obs = cfg.obs if cfg.obs is not None else NULL_OBS
        self.sim.attach_obs(self.obs)
        # In-band telemetry: stamp the rack's links and pipeline, drain
        # at the hosts (off unless the obs layer carries a hub).
        if self.obs.telemetry is not None:
            self.obs.telemetry.instrument_rack(self.rack)
        # the Figure 6 per-bucket series; created before the program so
        # the switch end ticks the SAME recorder as worker 0
        self.trace = TraceRecorder(bucket_seconds=0.010)
        clock = lambda: self.sim.now  # noqa: E731 - bound to this job's sim
        if cfg.fp16_switch:
            self.program: (
                SwitchMLProgram | LosslessSwitchMLProgram | Float16SwitchMLProgram
            ) = Float16SwitchMLProgram(
                cfg.num_workers, cfg.pool_size, cfg.elements_per_packet,
                check_invariants=cfg.check_invariants,
                epoch=cfg.epoch,
                obs=self.obs, clock=clock, trace=self.trace,
            )
        elif cfg.lossless_switch:
            self.program = (
                LosslessSwitchMLProgram(
                    cfg.num_workers, cfg.pool_size, cfg.elements_per_packet
                )
            )
        else:
            self.program = SwitchMLProgram(
                cfg.num_workers,
                cfg.pool_size,
                cfg.elements_per_packet,
                check_invariants=cfg.check_invariants,
                epoch=cfg.epoch,
                obs=self.obs, clock=clock, trace=self.trace,
            )
        eps = cfg.burst_epsilon
        if eps > 0.0:
            # the window path: uplinks drain into the chassis's ingress
            # window, downlinks into the host's RX window, and the links
            # themselves fold arrivals.  Rewiring (instead of branching
            # in the per-frame receivers) keeps the per-packet path's
            # hot code free of the choice.
            switch = self.rack.switch
            switch.burst_epsilon = eps
            for w in range(cfg.num_workers):
                port = self.rack.host_port(w)
                host = self.rack.hosts[w]
                up, down = self.rack.uplinks[w], self.rack.downlinks[w]
                up.connect(
                    switch.ingress_callback(port),
                    switch.burst_ingress_many_callback(port),
                )
                down.connect(host.deliver, host.deliver_burst_many)
                up.burst_epsilon = down.burst_epsilon = host.burst_epsilon = eps
        worker_ports = {w: self.rack.host_port(w) for w in range(cfg.num_workers)}
        worker_names = {w: self.rack.hosts[w].name for w in range(cfg.num_workers)}
        self.rack.switch.load_program(
            SwitchMLDataplane(
                self.program,
                worker_ports,
                worker_names,
                bytes_per_element=cfg.bytes_per_element,
                reuse_buffers=reuse,
            )
        )
        self._completed: set[int] = set()
        self._failed: set[int] = set()
        self.workers: list[SwitchMLWorker] = []
        for w in range(cfg.num_workers):
            worker = SwitchMLWorker(
                sim=self.sim,
                host=self.rack.hosts[w],
                wid=w,
                num_workers=cfg.num_workers,
                pool_size=cfg.pool_size,
                elements_per_packet=cfg.elements_per_packet,
                timeout_s=cfg.timeout_s,
                timeout_mode=cfg.timeout_mode,
                bytes_per_element=cfg.bytes_per_element,
                on_complete=self._on_worker_complete,
                trace=self.trace if w == 0 else None,  # representative worker
                tensor_dtype=np.float16 if cfg.fp16_switch else np.int64,
                max_retries=cfg.max_retries,
                on_failure=self._on_worker_failure,
                epoch=cfg.epoch,
                obs=self.obs,
                reuse_buffers=reuse,
                burst_epsilon=eps,
            )
            self.rack.hosts[w].attach_agent(worker)
            self.workers.append(worker)

    def _on_worker_complete(self, wid: int, time: float) -> None:
        self._completed.add(wid)

    def _on_worker_failure(self, wid: int) -> None:
        self._failed.add(wid)

    @staticmethod
    def managed(control_config=None):
        """The controller-managed run mode: a deployment whose failures
        are detected and repaired by the control plane instead of merely
        reported.  Returns a :class:`repro.controlplane.Controller`;
        see that package for membership, recovery, and fault injection.
        """
        from repro.controlplane.controller import Controller

        return Controller(control_config)

    # ------------------------------------------------------------------
    def all_reduce(
        self,
        tensors: Sequence[np.ndarray] | None = None,
        num_elements: int | None = None,
        start_times: Sequence[float] | None = None,
        deadline_s: float = 120.0,
        verify: bool = True,
    ) -> AllReduceResult:
        """Aggregate one tensor across all workers.

        Parameters
        ----------
        tensors:
            One integer array per worker (equal lengths).  Lengths are
            padded to a multiple of ``k`` internally; results are
            returned unpadded.  Pass ``None`` with ``num_elements`` for a
            phantom (timing-only) run.
        start_times:
            Per-worker readiness times (seconds); models stragglers /
            skewed gradient availability.  Default: all at t=0.
        deadline_s:
            Simulated-time budget; a run not finishing by then reports
            ``completed=False`` (used by the ablation benches where the
            lossless program deadlocks under loss).
        verify:
            Check the delivered aggregates against the exact integer sum.
        """
        cfg = self.config
        k = cfg.elements_per_packet
        phantom = tensors is None
        if phantom:
            if num_elements is None:
                raise ValueError("phantom mode needs num_elements")
            padded_size = num_elements + ((-num_elements) % k)
            original_size = num_elements
            padded: list[np.ndarray | None] = [None] * cfg.num_workers
        else:
            if len(tensors) != cfg.num_workers:
                raise ValueError(
                    f"need {cfg.num_workers} tensors, got {len(tensors)}"
                )
            sizes = {len(t) for t in tensors}
            if len(sizes) != 1:
                raise ValueError("all workers must contribute equal-length tensors")
            original_size = sizes.pop()
            pad = (-original_size) % k
            padded_size = original_size + pad
            dtype = np.float16 if cfg.fp16_switch else np.int64
            padded = [
                np.concatenate([np.asarray(t, dtype=dtype), np.zeros(pad, dtype=dtype)])
                if pad
                else np.asarray(t, dtype=dtype)
                for t in tensors
            ]

        self._completed.clear()
        self._failed.clear()
        # worker tensor offsets restart at zero each reduction; the
        # switch's phase-offset discipline must re-anchor with them
        begin = getattr(self.program, "begin_reduction", None)
        if begin is not None:
            begin()
        base = self.sim.now
        for w, worker in enumerate(self.workers):
            offset = 0.0 if start_times is None else float(start_times[w])
            if phantom:
                self.sim.schedule_at(
                    base + offset, worker.start, None, padded_size
                )
            else:
                self.sim.schedule_at(base + offset, worker.start, padded[w])

        deadline = base + deadline_s
        self.sim.run_deadline(deadline)
        completed = len(self._completed) == cfg.num_workers

        results: list[np.ndarray | None] = []
        for worker in self.workers:
            if phantom or worker.result is None:
                results.append(None)
            else:
                results.append(worker.result[:original_size].copy())

        if verify and completed and not phantom:
            if cfg.fp16_switch:
                # the in-switch conversion path is deterministic: table
                # lookup, integer sum, table lookup back.
                fixed = sum(float16_switch_to_fixed(p) for p in padded)
                expected = float16_switch_from_fixed(fixed)[:original_size]
            else:
                expected = np.sum([p for p in padded], axis=0, dtype=np.int64)[
                    :original_size
                ]
            for w, res in enumerate(results):
                if res is None or not np.array_equal(res, expected):
                    raise AssertionError(
                        f"worker {w} aggregate differs from the exact sum"
                    )

        return AllReduceResult(
            completed=completed,
            worker_stats=[w.stats for w in self.workers],
            results=results,
            retransmissions=sum(w.stats.retransmissions for w in self.workers),
            frames_lost=self.rack.total_frames_lost(),
            switch_multicasts=self.program.multicasts,
            switch_unicast_retransmits=getattr(
                self.program, "unicast_retransmits", 0
            ),
            switch_ignored_duplicates=getattr(
                self.program, "ignored_duplicates", 0
            ),
            trace=self.trace,
            sim_events=self.sim.events_processed,
            failed_workers=sorted(self._failed),
            switch_stale_epoch_drops=getattr(
                self.program, "stale_epoch_drops", 0
            ),
        )
