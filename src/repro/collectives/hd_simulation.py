"""Packet-level simulation of halving-doubling all-reduce [57].

The recursive-distance algorithm on the simulated rack: ``log2 n``
reduce-scatter exchanges (distance halves... the *data* halves while the
pair distance doubles) followed by the mirrored all-gather.  Same
asymptotic volume as the ring but only ``2 log2 n`` rounds -- so it
beats the ring at small tensor sizes where per-round latency dominates,
and loses nothing at large ones.  The crossover is measured by
``benchmarks/test_collective_latency.py``.

Messages fragment into MTU frames (like the ring simulation) and may
interleave across steps -- a faster partner can start its next exchange
while this worker still waits -- so arriving fragments are staged per
step and applied strictly in step order.

Power-of-two worker counts only (the algorithmic version in
:mod:`repro.collectives.halving_doubling` handles the general case with
pre/post folding).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.net.host import Host, HostSpec
from repro.net.link import LinkSpec
from repro.net.packet import FRAME_OVERHEAD_BYTES, MTU_FRAME_BYTES, Frame
from repro.net.switchchassis import ForwardingProgram
from repro.net.topology import Rack, RackSpec, build_rack
from repro.sim.engine import Simulator

__all__ = ["HDJob", "HDJobConfig", "HDJobResult"]

_MTU_PAYLOAD = MTU_FRAME_BYTES - FRAME_OVERHEAD_BYTES


@dataclass(slots=True)
class _HDMessage:
    step: int
    lo: int  # absolute element range this fragment covers
    hi: int
    reduce_phase: bool
    frag: int
    num_frags: int
    vector: np.ndarray | None


class _HDWorker:
    """One participant in the recursive halving/doubling exchange."""

    def __init__(self, sim: Simulator, host: Host, rank: int, n: int,
                 peer_names: list[str], bytes_per_element: int, on_complete):
        self.sim = sim
        self.host = host
        self.rank = rank
        self.n = n
        self.log_n = n.bit_length() - 1
        self.peer_names = peer_names
        self.bytes_per_element = bytes_per_element
        self.on_complete = on_complete
        self.work: np.ndarray | None = None
        self._size = 0
        self._step = 0
        self._seg_lo = 0
        self._seg_hi = 0
        self._inbox: dict[int, list[_HDMessage]] = defaultdict(list)
        self.start_time = 0.0
        self.finish_time = float("nan")

    # -- step geometry ---------------------------------------------------
    def _distance(self, step: int) -> int:
        if step < self.log_n:  # reduce-scatter: m/2, m/4, ..., 1
            return self.n >> (step + 1)
        return 1 << (step - self.log_n)  # all-gather: 1, 2, ..., m/2

    @property
    def total_steps(self) -> int:
        return 2 * self.log_n

    def start(self, tensor: np.ndarray | None, num_elements: int | None = None):
        if tensor is None:
            self.work = None
            self._size = int(num_elements)
        else:
            self.work = np.array(tensor, dtype=np.int64, copy=True)
            self._size = len(self.work)
        self._step = 0
        self._seg_lo, self._seg_hi = 0, self._size
        self._inbox.clear()
        self.start_time = self.sim.now
        if self.n == 1:
            self.finish_time = self.sim.now
            self.on_complete(self.rank, self.sim.now)
            return
        self._send_current_step()
        self._try_advance()

    # -- sending -----------------------------------------------------------
    def _send_current_step(self) -> None:
        step = self._step
        distance = self._distance(step)
        partner = self.rank ^ distance
        if step < self.log_n:
            # reduce-scatter: send the half of my segment the partner
            # keeps; the lower rank of the pair keeps the lower half.
            lo, hi = self._seg_lo, self._seg_hi
            mid = (lo + hi) // 2
            if self.rank < partner:
                send_lo, send_hi = mid, hi
                self._next_segment = (lo, mid)
            else:
                send_lo, send_hi = lo, mid
                self._next_segment = (mid, hi)
        else:
            # all-gather: send my whole (already final) segment.
            send_lo, send_hi = self._seg_lo, self._seg_hi
            self._next_segment = None  # merged on receive
        self._emit(partner, step, send_lo, send_hi,
                   reduce_phase=step < self.log_n)

    def _emit(self, partner: int, step: int, lo: int, hi: int,
              reduce_phase: bool) -> None:
        per_frag = max(1, _MTU_PAYLOAD // self.bytes_per_element)
        count = max(1, -(-(hi - lo) // per_frag))
        for frag in range(count):
            f_lo = lo + frag * per_frag
            f_hi = min(hi, f_lo + per_frag)
            vector = None if self.work is None else self.work[f_lo:f_hi].copy()
            payload = (f_hi - f_lo) * self.bytes_per_element
            self.host.send(
                Frame(
                    wire_bytes=payload + FRAME_OVERHEAD_BYTES,
                    message=_HDMessage(step=step, lo=f_lo, hi=f_hi,
                                       reduce_phase=reduce_phase,
                                       frag=frag, num_frags=count,
                                       vector=vector),
                    src=self.host.name,
                    dst=self.peer_names[partner],
                    flow_key=step,
                )
            )

    # -- receiving -----------------------------------------------------------
    def on_frame(self, frame: Frame) -> None:
        msg = frame.message
        if not isinstance(msg, _HDMessage):
            return
        self._inbox[msg.step].append(msg)
        self._try_advance()

    def _try_advance(self) -> None:
        while self._step < self.total_steps:
            staged = self._inbox.get(self._step, [])
            if not staged or len(staged) < staged[0].num_frags:
                return
            del self._inbox[self._step]
            reduce_phase = self._step < self.log_n
            for msg in staged:
                if self.work is not None and msg.vector is not None:
                    if reduce_phase:
                        self.work[msg.lo : msg.hi] += msg.vector
                    else:
                        self.work[msg.lo : msg.hi] = msg.vector
            if reduce_phase:
                assert self._next_segment is not None
                self._seg_lo, self._seg_hi = self._next_segment
            else:
                span_lo = min(self._seg_lo, min(m.lo for m in staged))
                span_hi = max(self._seg_hi, max(m.hi for m in staged))
                self._seg_lo, self._seg_hi = span_lo, span_hi
            self._step += 1
            if self._step < self.total_steps:
                self._send_current_step()
            else:
                self.finish_time = self.sim.now
                self.on_complete(self.rank, self.sim.now)

    @property
    def tat(self) -> float:
        return self.finish_time - self.start_time


@dataclass
class HDJobConfig:
    num_workers: int = 8  # power of two
    bytes_per_element: int = 4
    link: LinkSpec = field(default_factory=LinkSpec)
    host: HostSpec = field(default_factory=HostSpec)
    seed: int = 0


@dataclass
class HDJobResult:
    completed: bool
    tats: list[float]
    results: list[np.ndarray | None]

    @property
    def max_tat(self) -> float:
        return max(self.tats)


class HDJob:
    """Halving-doubling all-reduce over the simulated rack."""

    def __init__(self, config: HDJobConfig | None = None):
        self.config = config if config is not None else HDJobConfig()
        cfg = self.config
        n = cfg.num_workers
        if n & (n - 1):
            raise ValueError(
                "the packet-level halving-doubling runs power-of-two "
                "worker counts; use the algorithmic version otherwise"
            )
        self.sim = Simulator(seed=cfg.seed)
        self.rack: Rack = build_rack(
            self.sim, RackSpec(num_hosts=n, link=cfg.link, host=cfg.host)
        )
        self.rack.switch.load_program(ForwardingProgram(self.rack.port_map()))
        self._completed: set[int] = set()
        names = [h.name for h in self.rack.hosts]
        self.workers = [
            _HDWorker(self.sim, host, rank=r, n=n, peer_names=names,
                      bytes_per_element=cfg.bytes_per_element,
                      on_complete=lambda rank, t: self._completed.add(rank))
            for r, host in enumerate(self.rack.hosts)
        ]
        for host, worker in zip(self.rack.hosts, self.workers):
            host.attach_agent(worker)

    def all_reduce(
        self,
        tensors: Sequence[np.ndarray] | None = None,
        num_elements: int | None = None,
        deadline_s: float = 60.0,
        verify: bool = True,
    ) -> HDJobResult:
        cfg = self.config
        self._completed.clear()
        expected = None
        if tensors is None:
            if num_elements is None:
                raise ValueError("phantom mode needs num_elements")
            for worker in self.workers:
                worker.start(None, num_elements=num_elements)
        else:
            if len(tensors) != cfg.num_workers:
                raise ValueError(f"need {cfg.num_workers} tensors")
            expected = np.sum(
                [np.asarray(t, dtype=np.int64) for t in tensors], axis=0
            )
            for worker, tensor in zip(self.workers, tensors):
                worker.start(tensor)
        self.sim.run_deadline(self.sim.now + deadline_s)
        completed = len(self._completed) == cfg.num_workers
        results = [None if w.work is None else w.work.copy()
                   for w in self.workers]
        if verify and completed and expected is not None:
            for r, res in enumerate(results):
                if res is None or not np.array_equal(res, expected):
                    raise AssertionError(f"hd worker {r} aggregate mismatch")
        return HDJobResult(
            completed=completed,
            tats=[w.tat for w in self.workers],
            results=results,
        )
