"""The SS6 "parameter aggregator" deployment model.

The paper's alternative to in-switch deployment: "one could use a
similar design to create a dedicated 'parameter aggregator', i.e., a
server unit that combines a programmable switching chip with a typical
server board ... racks could be equipped with such a parameter
aggregator, attached for example to the legacy ToR using several
100 Gbps or 400 Gbps ports".

Here the aggregator is a host on the simulated rack running the exact
Algorithm 3 program; the rack's switch is a *legacy* forwarding switch.
The deployment-defining difference from in-switch SwitchML: completed
aggregates leave as ``n`` unicast frames through the aggregator's own
attachment, so the attachment must provide ~``n x`` the worker link rate
for the rack to run at line rate -- which is why the paper says
"several 100 Gbps or 400 Gbps ports".  The bench measures both sides of
that sizing rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.packet import SwitchMLPacket
from repro.core.switch_program import SwitchAction, SwitchMLProgram
from repro.core.worker import SwitchMLWorker, WorkerStats
from repro.net.host import Host, HostSpec
from repro.net.link import LinkSpec
from repro.net.packet import Frame
from repro.net.switchchassis import ForwardingProgram
from repro.net.topology import Rack, RackSpec, build_rack
from repro.sim.engine import Simulator
from repro.sim.resources import SerialResource

__all__ = ["AggregatorDeviceConfig", "AggregatorDeviceJob", "AggregatorAgent"]


class AggregatorAgent:
    """The SwitchML program running on a server's network attachment."""

    def __init__(
        self,
        host: Host,
        program: SwitchMLProgram,
        worker_names: list[str],
        bytes_per_element: int = 4,
    ):
        self.host = host
        self.program = program
        self.worker_names = worker_names
        self.bytes_per_element = bytes_per_element
        self.updates_processed = 0

    def on_frame(self, frame: Frame) -> None:
        if frame.corrupted:
            return
        packet = frame.message
        if not isinstance(packet, SwitchMLPacket) or packet.from_switch:
            return
        self.updates_processed += 1
        decision = self.program.handle(packet)
        if decision.action is SwitchAction.DROP:
            return
        assert decision.packet is not None
        wire = packet.num_elements * self.bytes_per_element + 52
        if decision.action is SwitchAction.UNICAST:
            targets = [decision.unicast_wid]
        else:
            targets = list(range(len(self.worker_names)))
        for wid in targets:
            self.host.send(
                Frame(
                    wire_bytes=wire,
                    message=decision.packet,
                    src=self.host.name,
                    dst=self.worker_names[wid],
                    flow_key=packet.idx,
                )
            )


@dataclass
class AggregatorDeviceConfig:
    """Workers at ``link`` rate; the aggregator at ``aggregator_link``.

    The paper's sizing: the aggregator attachment should carry the
    aggregate result fan-out, i.e. ~``num_workers x`` the worker rate.
    """

    num_workers: int = 8
    pool_size: int = 128
    elements_per_packet: int = 32
    timeout_s: float = 1e-3
    link: LinkSpec = field(default_factory=LinkSpec)
    aggregator_link: LinkSpec = field(
        default_factory=lambda: LinkSpec(rate_gbps=100.0)
    )
    aggregator_host: HostSpec = field(
        default_factory=lambda: HostSpec(num_cores=16)
    )
    host: HostSpec = field(default_factory=HostSpec)
    seed: int = 0


@dataclass
class AggregatorDeviceResult:
    completed: bool
    worker_stats: list[WorkerStats]
    results: list[np.ndarray | None]

    @property
    def max_tat(self) -> float:
        return max(s.tensor_aggregation_time for s in self.worker_stats)

    def aggregated_elements_per_second(self, num_elements: int) -> float:
        return num_elements / self.max_tat


class AggregatorDeviceJob:
    """n workers + 1 aggregator box behind a legacy forwarding ToR."""

    def __init__(self, config: AggregatorDeviceConfig | None = None):
        self.config = config if config is not None else AggregatorDeviceConfig()
        cfg = self.config
        n = cfg.num_workers
        self.sim = Simulator(seed=cfg.seed)
        self.rack: Rack = build_rack(
            self.sim, RackSpec(num_hosts=n + 1, link=cfg.link, host=cfg.host)
        )
        self.rack.switch.load_program(ForwardingProgram(self.rack.port_map()))

        # host n is the aggregator: fat attachment, beefier CPU
        device = self.rack.hosts[n]
        device.spec = cfg.aggregator_host
        device.cores = [
            SerialResource(self.sim, name=f"{device.name}/core{i}")
            for i in range(cfg.aggregator_host.num_cores)
        ]
        self.rack.uplinks[n].spec = cfg.aggregator_link
        self.rack.downlinks[n].spec = cfg.aggregator_link

        worker_names = [h.name for h in self.rack.hosts[:n]]
        self.program = SwitchMLProgram(n, cfg.pool_size, cfg.elements_per_packet)
        self.aggregator = AggregatorAgent(device, self.program, worker_names)
        device.attach_agent(self.aggregator)

        self._completed: set[int] = set()
        self.workers: list[SwitchMLWorker] = []
        for w in range(n):
            worker = SwitchMLWorker(
                sim=self.sim,
                host=self.rack.hosts[w],
                wid=w,
                num_workers=n,
                pool_size=cfg.pool_size,
                elements_per_packet=cfg.elements_per_packet,
                timeout_s=cfg.timeout_s,
                on_complete=lambda wid, t: self._completed.add(wid),
                switch_addr=device.name,
            )
            self.rack.hosts[w].attach_agent(worker)
            self.workers.append(worker)

    def all_reduce(
        self,
        tensors: Sequence[np.ndarray] | None = None,
        num_elements: int | None = None,
        deadline_s: float = 60.0,
        verify: bool = True,
    ) -> AggregatorDeviceResult:
        cfg = self.config
        k = cfg.elements_per_packet
        self._completed.clear()
        if tensors is None:
            if num_elements is None:
                raise ValueError("phantom mode needs num_elements")
            padded_size = num_elements + ((-num_elements) % k)
            for worker in self.workers:
                worker.start(None, num_elements=padded_size)
            original = num_elements
            padded = None
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
        results = [
            None if w.result is None else w.result[:original].copy()
            for w in self.workers
        ]
        if verify and completed and padded is not None:
            expected = np.sum(padded, axis=0, dtype=np.int64)[:original]
            for w, res in enumerate(results):
                if res is None or not np.array_equal(res, expected):
                    raise AssertionError(f"aggregator worker {w} mismatch")
        return AggregatorDeviceResult(
            completed=completed,
            worker_stats=[w.stats for w in self.workers],
            results=results,
        )
