"""Packet-level simulation of ring all-reduce on the same rack.

Runs the bandwidth-optimal ring (reduce-scatter + all-gather, SS2.2) as
message flows over the simulated star topology: in each of the
``2 (n-1)`` steps, every worker ships one data chunk (~|U|/n bytes,
framed at MTU goodput) to its ring successor through the plain
forwarding switch.  Used to *measure* the line-rate ring reference curve
of Figure 4 on the simulator rather than assume it, and to cross-check
the analytic ring model.

Chunks are fragmented into MTU-sized frames so they pipeline through
the switch like a real TCP stream (a single aggregate frame would
store-and-forward the whole chunk at every hop and halve throughput).
TCP's efficiency/CPU caps are a property of the host stack and are
applied by the analytic Gloo/NCCL models; this simulation gives the
transport-neutral upper bound (the dashed "ring at line rate" line).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.net.host import Host, HostSpec
from repro.net.link import LinkSpec
from repro.net.packet import FRAME_OVERHEAD_BYTES, MTU_FRAME_BYTES, Frame
from repro.net.switchchassis import ForwardingProgram
from repro.net.topology import Rack, RackSpec, build_rack
from repro.sim.engine import Simulator

__all__ = ["RingJob", "RingJobConfig", "RingJobResult"]

_MTU_PAYLOAD = MTU_FRAME_BYTES - FRAME_OVERHEAD_BYTES


@dataclass(slots=True)
class _RingMessage:
    step: int
    chunk_index: int
    phase: str  # "reduce" | "gather"
    frag: int
    num_frags: int
    vector: np.ndarray | None  # this fragment's slice (None in phantom)
    segment: int = 0  # pipelined-ring lane


class _RingWorker:
    """One ring participant; advances a step when its message arrives.

    ``segment`` identifies the pipelined-ring lane this state machine
    serves (see :class:`RingJobConfig.pipeline_segments`); messages of
    other lanes are routed by the host-level dispatcher.
    """

    def __init__(self, sim: Simulator, host: Host, rank: int, n: int,
                 successor_name: str, bytes_per_element: int, on_complete,
                 segment: int = 0, base_offset: int = 0):
        self.segment = segment
        self.base_offset = base_offset
        self.sim = sim
        self.host = host
        self.rank = rank
        self.n = n
        self.successor_name = successor_name
        self.bytes_per_element = bytes_per_element
        self.on_complete = on_complete
        self.work: np.ndarray | None = None
        self._phantom_size = 0
        self._bounds: list[int] = []
        self._step = 0
        self._frags_received = 0
        self.start_time = 0.0
        self.finish_time = float("nan")

    def start(self, tensor: np.ndarray | None, num_elements: int | None = None):
        if tensor is None:
            self._phantom_size = int(num_elements)
            self.work = None
            size = self._phantom_size
        else:
            self.work = np.array(tensor, dtype=np.int64, copy=True)
            size = len(self.work)
        self._bounds = [(size * c) // self.n for c in range(self.n + 1)]
        self._step = 0
        self._frags_received = 0
        self.start_time = self.sim.now
        if self.n == 1:
            self.finish_time = self.sim.now
            self.on_complete(self.rank, self.sim.now)
            return
        self._send_step()

    def _chunk_for_step(self, step: int) -> int:
        if step < self.n - 1:  # reduce-scatter
            return (self.rank - step) % self.n
        return (self.rank + 1 - (step - (self.n - 1))) % self.n  # all-gather

    def _send_step(self) -> None:
        step = self._step
        c = self._chunk_for_step(step)
        lo, hi = self._bounds[c], self._bounds[c + 1]
        phase = "reduce" if step < self.n - 1 else "gather"
        elements = hi - lo
        per_frag = max(1, _MTU_PAYLOAD // self.bytes_per_element)
        num_frags = max(1, -(-elements // per_frag))
        for frag in range(num_frags):
            f_lo = lo + frag * per_frag
            f_hi = min(hi, f_lo + per_frag)
            vector = None if self.work is None else self.work[f_lo:f_hi].copy()
            payload = (f_hi - f_lo) * self.bytes_per_element
            self.host.send(
                Frame(
                    wire_bytes=payload + FRAME_OVERHEAD_BYTES,
                    message=_RingMessage(
                        step=step, chunk_index=c, phase=phase,
                        frag=frag, num_frags=num_frags, vector=vector,
                        segment=self.segment,
                    ),
                    src=self.host.name,
                    dst=self.successor_name,
                    flow_key=step,
                )
            )

    def on_frame(self, frame: Frame) -> None:
        msg = frame.message
        if not isinstance(msg, _RingMessage):
            return
        lo = self._bounds[msg.chunk_index]
        if self.work is not None and msg.vector is not None:
            per_frag = max(1, _MTU_PAYLOAD // self.bytes_per_element)
            f_lo = lo + msg.frag * per_frag
            f_hi = f_lo + len(msg.vector)
            if msg.phase == "reduce":
                self.work[f_lo:f_hi] += msg.vector
            else:
                self.work[f_lo:f_hi] = msg.vector
        self._frags_received += 1
        if self._frags_received < msg.num_frags:
            return
        self._frags_received = 0
        self._step += 1
        if self._step < 2 * (self.n - 1):
            self._send_step()
        else:
            self.finish_time = self.sim.now
            self.on_complete(self.rank, self.sim.now)

    @property
    def tat(self) -> float:
        return self.finish_time - self.start_time


@dataclass
class RingJobConfig:
    """``pipeline_segments > 1`` enables the pipelined ring: the tensor
    splits into that many segments, each running the 2(n-1)-step ring
    independently, so one segment's transfer hides another's per-step
    synchronization latency -- the optimization production collectives
    (NCCL) apply to approach the bandwidth bound."""

    num_workers: int = 8
    bytes_per_element: int = 4
    pipeline_segments: int = 1
    link: LinkSpec = field(default_factory=LinkSpec)
    host: HostSpec = field(default_factory=HostSpec)
    seed: int = 0


@dataclass
class RingJobResult:
    completed: bool
    tats: list[float]
    results: list[np.ndarray | None]

    @property
    def max_tat(self) -> float:
        return max(self.tats)

    def aggregated_elements_per_second(self, num_elements: int) -> float:
        return num_elements / self.max_tat


class _SegmentDispatcher:
    """Routes each incoming ring message to its segment's state machine."""

    def __init__(self, lanes: list[_RingWorker]):
        self.lanes = lanes

    def on_frame(self, frame: Frame) -> None:
        msg = frame.message
        if isinstance(msg, _RingMessage):
            self.lanes[msg.segment].on_frame(frame)


class RingJob:
    """Ring all-reduce over the simulated rack (optionally pipelined)."""

    def __init__(self, config: RingJobConfig | None = None):
        self.config = config if config is not None else RingJobConfig()
        cfg = self.config
        if cfg.pipeline_segments < 1:
            raise ValueError("need at least one pipeline segment")
        self.sim = Simulator(seed=cfg.seed)
        self.rack: Rack = build_rack(
            self.sim, RackSpec(num_hosts=cfg.num_workers, link=cfg.link,
                               host=cfg.host),
        )
        self.rack.switch.load_program(ForwardingProgram(self.rack.port_map()))
        self._completed: set[tuple[int, int]] = set()
        n = cfg.num_workers
        self.lanes: list[list[_RingWorker]] = []  # [rank][segment]
        for r, host in enumerate(self.rack.hosts):
            rank_lanes = [
                _RingWorker(
                    self.sim, host, rank=r, n=n,
                    successor_name=self.rack.hosts[(r + 1) % n].name,
                    bytes_per_element=cfg.bytes_per_element,
                    on_complete=self._make_on_complete(segment),
                    segment=segment,
                )
                for segment in range(cfg.pipeline_segments)
            ]
            host.attach_agent(_SegmentDispatcher(rank_lanes))
            self.lanes.append(rank_lanes)
        # backwards-compatible single-lane view
        self.workers = [rank_lanes[0] for rank_lanes in self.lanes]

    def _make_on_complete(self, segment: int):
        def on_complete(rank: int, time: float) -> None:
            self._completed.add((rank, segment))

        return on_complete

    def all_reduce(
        self,
        tensors: Sequence[np.ndarray] | None = None,
        num_elements: int | None = None,
        deadline_s: float = 60.0,
        verify: bool = True,
    ) -> RingJobResult:
        cfg = self.config
        segments = cfg.pipeline_segments
        self._completed.clear()
        if tensors is None:
            if num_elements is None:
                raise ValueError("phantom mode needs num_elements")
            bounds = [(num_elements * s) // segments for s in range(segments + 1)]
            for rank_lanes in self.lanes:
                for s_index, lane in enumerate(rank_lanes):
                    lane.start(
                        None, num_elements=bounds[s_index + 1] - bounds[s_index]
                    )
            expected = None
            arrays = None
        else:
            if len(tensors) != cfg.num_workers:
                raise ValueError(f"need {cfg.num_workers} tensors")
            arrays = [np.asarray(t, dtype=np.int64) for t in tensors]
            size = len(arrays[0])
            bounds = [(size * s) // segments for s in range(segments + 1)]
            expected = np.sum(arrays, axis=0)
            for rank_lanes, tensor in zip(self.lanes, arrays):
                for s_index, lane in enumerate(rank_lanes):
                    lane.start(tensor[bounds[s_index] : bounds[s_index + 1]])
        self.sim.run_deadline(self.sim.now + deadline_s)
        completed = len(self._completed) == cfg.num_workers * segments

        results: list[np.ndarray | None] = []
        for rank_lanes in self.lanes:
            if arrays is None:
                results.append(None)
            else:
                results.append(
                    np.concatenate([lane.work for lane in rank_lanes])
                )
        if verify and completed and expected is not None:
            for r, res in enumerate(results):
                if res is None or not np.array_equal(res, expected):
                    raise AssertionError(f"ring worker {r} aggregate mismatch")
        tats = [
            max(lane.tat for lane in rank_lanes) for rank_lanes in self.lanes
        ]
        return RingJobResult(
            completed=completed,
            tats=tats,
            results=results,
        )
