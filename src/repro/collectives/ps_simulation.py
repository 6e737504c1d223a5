"""Packet-level simulation of the DPDK parameter server (SS5.3).

The paper's PS comparison point is "a multi-core DPDK-based program that
implements the logic of Algorithm 1", sharded uniformly across as many
PS processes as workers, in two placements:

* **dedicated** -- PS processes on their own machines (2x the cluster);
* **colocated** -- each machine runs a worker *and* a PS shard, so both
  flows share its NIC.

This module runs that system on the same simulated rack as SwitchML:
worker agents stream chunks to shard servers (plain forwarding switch),
servers aggregate and send per-worker result unicasts -- the n-fold
result fan-out that consumes PS egress bandwidth and produces Figure 4's
"dedicated matches SwitchML / colocated at half" shape, here measured
rather than modelled.

Reliability: the PS baseline runs over a reliable transport in the paper
(TCP/DPDK with its own ARQ); this simulation runs lossless, matching how
the paper's Figure 4 numbers were taken.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.net.host import Host, HostSpec
from repro.net.link import LinkSpec
from repro.net.packet import FRAME_OVERHEAD_BYTES, Frame
from repro.net.switchchassis import ForwardingProgram
from repro.net.topology import Rack, RackSpec, build_rack
from repro.sim.engine import Simulator

__all__ = ["PSJob", "PSJobConfig", "PSJobResult"]


@dataclass(slots=True)
class _PSChunk:
    """One chunk message: a push (worker -> shard) or a result."""

    kind: str  # "push" | "result"
    wid: int
    shard: int
    off: int
    num_elements: int
    vector: np.ndarray | None


class _ShardServer:
    """One PS shard: aggregates chunk ``off`` ranges over all workers.

    Implements Algorithm 1 in software: per-offset accumulator and
    counter; on the n-th contribution it unicasts the result to every
    worker -- n frames through its own uplink.
    """

    def __init__(self, sim: Simulator, host: Host, shard_id: int,
                 num_workers: int, worker_names: list[str],
                 bytes_per_element: int):
        self.sim = sim
        self.host = host
        self.shard_id = shard_id
        self.n = num_workers
        self.worker_names = worker_names
        self.bytes_per_element = bytes_per_element
        self._accumulators: dict[int, np.ndarray | None] = {}
        self._counts: dict[int, int] = {}
        self.chunks_aggregated = 0

    def on_frame(self, frame: Frame) -> None:
        chunk = frame.message
        if not isinstance(chunk, _PSChunk) or chunk.kind != "push":
            return
        count = self._counts.get(chunk.off, 0)
        if chunk.vector is not None:
            acc = self._accumulators.get(chunk.off)
            if acc is None:
                self._accumulators[chunk.off] = chunk.vector.astype(np.int64)
            else:
                acc += chunk.vector
        self._counts[chunk.off] = count + 1
        if count + 1 == self.n:
            vector = self._accumulators.pop(chunk.off, None)
            del self._counts[chunk.off]
            self.chunks_aggregated += 1
            result = _PSChunk(
                kind="result", wid=-1, shard=self.shard_id,
                off=chunk.off, num_elements=chunk.num_elements,
                vector=vector,
            )
            wire = chunk.num_elements * self.bytes_per_element + FRAME_OVERHEAD_BYTES
            for wid, name in enumerate(self.worker_names):
                self.host.send(
                    Frame(wire_bytes=wire, message=result,
                          src=self.host.name, dst=name,
                          flow_key=chunk.off),
                )


class _PSWorker:
    """A worker streaming its update through the shard servers.

    Chunk ``i`` goes to shard ``i mod n_ps``; a self-clocked window of
    ``window`` outstanding chunks keeps the pipe full (the analogue of
    SwitchML's pool).
    """

    def __init__(self, sim: Simulator, host: Host, wid: int,
                 shard_names: list[str], elements_per_chunk: int,
                 window: int, bytes_per_element: int, on_complete):
        self.sim = sim
        self.host = host
        self.wid = wid
        self.shard_names = shard_names
        self.k = elements_per_chunk
        self.window = window
        self.bytes_per_element = bytes_per_element
        self.on_complete = on_complete
        self._tensor: np.ndarray | None = None
        self._result: np.ndarray | None = None
        self._size = 0
        self._next_chunk = 0
        self._outstanding = 0
        self._total_chunks = 0
        self._received = 0
        self.start_time = 0.0
        self.finish_time = float("nan")

    def start(self, tensor: np.ndarray | None, num_elements: int | None = None):
        if tensor is None:
            self._size = int(num_elements)
            self._tensor = None
            self._result = None
        else:
            self._tensor = np.asarray(tensor, dtype=np.int64)
            self._size = len(tensor)
            self._result = np.zeros(self._size, dtype=np.int64)
        if self._size % self.k:
            raise ValueError("tensor length must be a multiple of the chunk size")
        self._total_chunks = self._size // self.k
        self._next_chunk = 0
        self._outstanding = 0
        self._received = 0
        self.start_time = self.sim.now
        for _ in range(min(self.window, self._total_chunks)):
            self._send_next()

    def _send_next(self) -> None:
        i = self._next_chunk
        self._next_chunk += 1
        self._outstanding += 1
        off = i * self.k
        shard = i % len(self.shard_names)
        vector = None if self._tensor is None else self._tensor[off : off + self.k]
        chunk = _PSChunk(kind="push", wid=self.wid, shard=shard,
                         off=off, num_elements=self.k, vector=vector)
        wire = self.k * self.bytes_per_element + FRAME_OVERHEAD_BYTES
        self.host.send(
            Frame(wire_bytes=wire, message=chunk, src=self.host.name,
                  dst=self.shard_names[shard], flow_key=off // self.k),
        )

    def on_frame(self, frame: Frame) -> None:
        chunk = frame.message
        if not isinstance(chunk, _PSChunk) or chunk.kind != "result":
            return
        if self._result is not None and chunk.vector is not None:
            self._result[chunk.off : chunk.off + self.k] = chunk.vector
        self._received += 1
        self._outstanding -= 1
        if self._next_chunk < self._total_chunks:
            self._send_next()
        elif self._received == self._total_chunks:
            self.finish_time = self.sim.now
            self.on_complete(self.wid, self.sim.now)

    @property
    def tat(self) -> float:
        return self.finish_time - self.start_time


class _ColocatedAgent:
    """Worker + shard sharing one host (and therefore one NIC)."""

    def __init__(self, worker: _PSWorker, server: _ShardServer):
        self.worker = worker
        self.server = server

    def on_frame(self, frame: Frame) -> None:
        chunk = frame.message
        if isinstance(chunk, _PSChunk) and chunk.kind == "push":
            self.server.on_frame(frame)
        else:
            self.worker.on_frame(frame)


@dataclass
class PSJobConfig:
    """A simulated parameter-server deployment."""

    num_workers: int = 8
    colocated: bool = False
    elements_per_chunk: int = 32
    window: int = 128
    bytes_per_element: int = 4
    link: LinkSpec = field(default_factory=LinkSpec)
    host: HostSpec = field(default_factory=HostSpec)
    seed: int = 0


@dataclass
class PSJobResult:
    completed: bool
    tats: list[float]
    results: list[np.ndarray | None]

    @property
    def max_tat(self) -> float:
        return max(self.tats)

    def aggregated_elements_per_second(self, num_elements: int) -> float:
        return num_elements / self.max_tat


class PSJob:
    """Build and run the PS baseline on the packet simulator.

    Dedicated placement uses ``2 n`` hosts (workers w0..; servers ps0..);
    colocated uses ``n`` hosts, each running both roles.
    """

    def __init__(self, config: PSJobConfig | None = None):
        self.config = config if config is not None else PSJobConfig()
        cfg = self.config
        n = cfg.num_workers
        num_hosts = n if cfg.colocated else 2 * n
        self.sim = Simulator(seed=cfg.seed)
        self.rack: Rack = build_rack(
            self.sim,
            RackSpec(num_hosts=num_hosts, link=cfg.link, host=cfg.host),
        )
        self._completed: set[int] = set()

        if cfg.colocated:
            worker_hosts = self.rack.hosts
            server_hosts = self.rack.hosts
        else:
            worker_hosts = self.rack.hosts[:n]
            server_hosts = self.rack.hosts[n:]
        worker_names = [h.name for h in worker_hosts]
        shard_names = [h.name for h in server_hosts]
        self.rack.switch.load_program(ForwardingProgram(self.rack.port_map()))

        self.servers = [
            _ShardServer(self.sim, host, shard_id=j, num_workers=n,
                         worker_names=worker_names,
                         bytes_per_element=cfg.bytes_per_element)
            for j, host in enumerate(server_hosts)
        ]
        self.workers = [
            _PSWorker(self.sim, host, wid=w, shard_names=shard_names,
                      elements_per_chunk=cfg.elements_per_chunk,
                      window=cfg.window,
                      bytes_per_element=cfg.bytes_per_element,
                      on_complete=self._on_complete)
            for w, host in enumerate(worker_hosts)
        ]
        if cfg.colocated:
            for host, worker, server in zip(worker_hosts, self.workers, self.servers):
                host.attach_agent(_ColocatedAgent(worker, server))
        else:
            for host, worker in zip(worker_hosts, self.workers):
                host.attach_agent(worker)
            for host, server in zip(server_hosts, self.servers):
                host.attach_agent(server)

    def _on_complete(self, wid: int, time: float) -> None:
        self._completed.add(wid)

    def all_reduce(
        self,
        tensors: Sequence[np.ndarray] | None = None,
        num_elements: int | None = None,
        deadline_s: float = 60.0,
        verify: bool = True,
    ) -> PSJobResult:
        cfg = self.config
        k = cfg.elements_per_chunk
        self._completed.clear()
        if tensors is None:
            if num_elements is None:
                raise ValueError("phantom mode needs num_elements")
            padded_size = num_elements + ((-num_elements) % k)
            for worker in self.workers:
                worker.start(None, num_elements=padded_size)
            original = num_elements
            padded: list[np.ndarray | None] = [None] * cfg.num_workers
        else:
            if len(tensors) != cfg.num_workers:
                raise ValueError(f"need {cfg.num_workers} tensors")
            original = len(tensors[0])
            pad = (-original) % k
            padded = [
                np.concatenate([np.asarray(t, dtype=np.int64),
                                np.zeros(pad, dtype=np.int64)])
                for t in tensors
            ]
            for worker, tensor in zip(self.workers, padded):
                worker.start(tensor)

        self.sim.run_deadline(self.sim.now + deadline_s)
        completed = len(self._completed) == cfg.num_workers

        results = []
        for worker in self.workers:
            if worker._result is None:
                results.append(None)
            else:
                results.append(worker._result[:original].copy())
        if verify and completed and tensors is not None:
            expected = np.sum(padded, axis=0, dtype=np.int64)[:original]
            for w, res in enumerate(results):
                if res is None or not np.array_equal(res, expected):
                    raise AssertionError(f"PS worker {w} aggregate mismatch")
        return PSJobResult(
            completed=completed,
            tats=[w.tat for w in self.workers],
            results=results,
        )
