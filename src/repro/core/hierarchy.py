"""Multi-rack hierarchical aggregation (SS6 "Scaling beyond a rack").

The paper sketches composing SwitchML switches into a tree: workers
attach to rack (layer-1) switches; each rack switch aggregates its ``d``
downstream ports and forwards *one* partial-aggregate packet upstream;
the root completes the aggregation and multicasts downward; rack
switches fan the result out to their workers.  The uplink bandwidth cost
is proportional to the number of upstream ports, not the worker count --
the bandwidth-optimality claim the hierarchy tests verify.

Loss recovery composes exactly as SS6 argues: each layer keeps the
``seen`` bitmap and shadow copy of Algorithm 3, so a worker
retransmission is recognized as a retransmission at every switch that
already processed it, and "can trigger the retransmission of the updated
value toward the upper layer switch, so that the switch affected by the
loss is always reached".

Per-slot state machine at a rack switch (per pool version):

* ``AGGREGATING`` -- summing child contributions (Algorithm 3 logic);
* ``FORWARDED``   -- all children in; the partial went upstream.  A
  child retransmission here re-forwards the partial (upstream loss
  recovery); the root's ``seen`` bitmap absorbs duplicates.
* ``DONE``        -- the final result arrived from upstream and was
  multicast down; the slot now serves unicast replies to retransmitting
  children until the next phase overwrites it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.packet import SwitchMLPacket
from repro.core.protocol import DROP_DECISION as _DROP
from repro.core.switch_program import SwitchAction, SwitchDecision, SwitchMLProgram
from repro.core.worker import SwitchMLWorker, WorkerStats
from repro.dataplane.registers import RegisterFile
from repro.net.host import Host, HostSpec
from repro.net.link import Link, LinkSpec
from repro.net.loss import LossModel, NoLoss
from repro.net.packet import Frame
from repro.net.switchchassis import PortDecision, SwitchChassis
from repro.net.topology import TreeSpec, build_tree
from repro.sim.engine import Simulator

__all__ = ["HierarchicalConfig", "HierarchicalJob", "RackAggregatorProgram", "TreeResult"]

_AGGREGATING, _FORWARDED, _DONE = 0, 1, 2

#: the chassis' shared drop decision, resolved once (process() runs per frame)
_PORT_DROP = PortDecision.drop()


class RackAggregatorProgram:
    """The layer-1 (rack) switch program of the SS6 hierarchy.

    Child-facing behaviour is Algorithm 3; completion forwards a partial
    upstream (with ``wid`` rewritten to this switch's id) instead of
    multicasting.
    """

    def __init__(
        self,
        rack_id: int,
        num_children: int,
        pool_size: int,
        elements_per_packet: int,
        epoch: int = 0,
    ):
        if num_children < 1:
            raise ValueError("a rack needs at least one child")
        if epoch < 0:
            raise ValueError("pool epoch must be non-negative")
        self.rack_id = rack_id
        self.n = num_children
        self.s = pool_size
        self.k = elements_per_packet
        self.epoch = epoch
        self.registers = RegisterFile()
        self._pool = self.registers.allocate("pool", 2 * pool_size * self.k, 32)
        self._count = self.registers.allocate("count", 2 * pool_size, 8)
        self._seen = self.registers.allocate("seen", 2 * pool_size * num_children, 1)
        self._state = self.registers.allocate("state", 2 * pool_size, 8)
        # The narrow arrays' list storage, indexed directly on the
        # per-packet paths below (RegisterArray.reset() clears in place,
        # so the aliases stay attached); their `accesses` counters are
        # bumped in bulk, as SwitchMLProgram.handle does.  Layout: flat
        # (version, slot) index ``vs = ver * s + idx`` for count/state,
        # ``vs * n + wid`` for seen, ``[vs * k, vs * k + k)`` for pool.
        self._seen_cells: list[int] = self._seen._scalar
        self._count_cells: list[int] = self._count._scalar
        self._state_cells: list[int] = self._state._scalar
        self.partials_forwarded = 0
        self.partial_retransmits = 0
        self.results_multicast = 0
        self.unicast_replies = 0
        self.stale_epoch_drops = 0

    # -- upward path -------------------------------------------------------
    def handle_child(self, p: SwitchMLPacket) -> SwitchDecision:
        """Process a packet from a downstream worker (or child switch).

        Returns MULTICAST to mean "forward the partial upstream" (one
        copy; the adapter maps it to the uplink port) and UNICAST to
        mean "reply to child ``unicast_wid``".

        Packets from a different pool epoch are fenced -- dropped before
        any register access and counted -- exactly like the flat
        :class:`~repro.core.switch_program.SwitchMLProgram` fence, so the
        fabric controller can re-home a rack's aggregation without
        in-flight pre-failure traffic touching the new registers.
        """
        if p.epoch != self.epoch:
            self.stale_epoch_drops += 1
            return _DROP
        idx, wid, ver = p.idx, p.wid, p.ver
        s, n, k = self.s, self.n, self.k
        if not 0 <= idx < s:
            raise ValueError(f"pool index {idx} out of range")
        if not 0 <= wid < n:
            raise ValueError(f"child id {wid} out of range")
        vs = ver * s + idx
        sb = vs * n + wid
        seen = self._seen_cells
        states = self._state_cells
        lo = vs * k

        if seen[sb] == 0:
            seen[sb] = 1
            seen[((1 - ver) * s + idx) * n + wid] = 0
            self._seen.accesses += 3
            counts = self._count_cells
            count_before = counts[vs]
            count = (count_before + 1) % n
            counts[vs] = count & 255  # the count cells are 8-bit registers
            self._count.accesses += 2
            if count_before == 0:
                states[vs] = _AGGREGATING
                self._state.accesses += 1
                if p.vector is not None:
                    self._pool.write_range(lo, lo + k, p.vector)
            elif p.vector is not None:
                self._pool.add_range(lo, lo + k, p.vector)
            if count == 0:
                # All children contributed: ship the partial upstream.
                states[vs] = _FORWARDED
                self._state.accesses += 1
                vector = None
                if p.vector is not None:
                    vector = self._pool.read_range(lo, lo + k)
                self.partials_forwarded += 1
                partial = SwitchMLPacket(
                    wid=self.rack_id, ver=ver, idx=idx, off=p.off,
                    num_elements=p.num_elements, vector=vector,
                    job_id=p.job_id, epoch=self.epoch,
                )
                return SwitchDecision(SwitchAction.MULTICAST, partial)
            return _DROP

        # Duplicate from an already-seen child.
        self._seen.accesses += 1
        self._state.accesses += 1
        state = states[vs]
        if state == _FORWARDED:
            # Our partial (or the result) may be lost above us: push the
            # partial up again; the parent's seen bitmap dedups.
            vector = None
            if p.vector is not None:
                vector = self._pool.read_range(lo, lo + k)
            self.partial_retransmits += 1
            partial = SwitchMLPacket(
                wid=self.rack_id, ver=ver, idx=idx, off=p.off,
                num_elements=p.num_elements, vector=vector,
                is_retransmission=True, job_id=p.job_id, epoch=self.epoch,
            )
            return SwitchDecision(SwitchAction.MULTICAST, partial)
        if state == _DONE:
            # The slot holds the final aggregate; serve it unicast.
            vector = None
            if p.vector is not None:
                vector = self._pool.read_range(lo, lo + k)
            self.unicast_replies += 1
            return SwitchDecision(
                SwitchAction.UNICAST, p.result_copy(vector), unicast_wid=wid
            )
        # Still aggregating: contribution already applied; drop.
        return _DROP

    # -- downward path -----------------------------------------------------
    def handle_result(self, p: SwitchMLPacket) -> SwitchDecision:
        """Process a completed aggregate arriving from upstream."""
        if p.epoch != self.epoch:
            self.stale_epoch_drops += 1
            return _DROP
        vs = p.ver * self.s + p.idx
        states = self._state_cells
        if states[vs] != _FORWARDED:
            # Duplicate result (a unicast race); children that still miss
            # it will retransmit and be served from the DONE slot.
            self._state.accesses += 1
            return _DROP
        if p.vector is not None:
            lo = vs * self.k
            self._pool.write_range(lo, lo + self.k, p.vector)
        states[vs] = _DONE
        self._state.accesses += 2
        self.results_multicast += 1
        return SwitchDecision(SwitchAction.MULTICAST, p.result_copy(p.vector))


class _RackDataplane:
    """Chassis adapter for a rack switch: down-ports 0..m-1, uplink m."""

    def __init__(
        self,
        program: RackAggregatorProgram,
        num_children: int,
        child_names: list[str],
        uplink_port: int,
        parent_name: str,
        switch_name: str,
        bytes_per_element: int = 4,
    ):
        self.program = program
        self.num_children = num_children
        self.child_names = child_names
        self.uplink_port = uplink_port
        self.parent_name = parent_name
        self.switch_name = switch_name
        self.bytes_per_element = bytes_per_element

    def process(self, frame: Frame, in_port: int) -> PortDecision:
        packet = frame.message
        if not isinstance(packet, SwitchMLPacket):
            return _PORT_DROP
        if in_port == self.uplink_port:
            decision = self.program.handle_result(packet)
            if decision.action is SwitchAction.MULTICAST:
                assert decision.packet is not None
                return PortDecision(
                    deliveries=[
                        (
                            port,
                            decision.packet.to_frame(
                                self.switch_name,
                                self.child_names[port],
                                self.bytes_per_element,
                            ),
                        )
                        for port in range(self.num_children)
                    ]
                )
            return _PORT_DROP

        decision = self.program.handle_child(packet)
        if decision.action is SwitchAction.MULTICAST:
            # "multicast" from handle_child means: forward partial upstream.
            assert decision.packet is not None
            out = decision.packet.to_frame(
                self.switch_name, self.parent_name, self.bytes_per_element
            )
            return PortDecision(deliveries=[(self.uplink_port, out)])
        if decision.action is SwitchAction.UNICAST:
            assert decision.packet is not None and decision.unicast_wid is not None
            out = decision.packet.to_frame(
                self.switch_name,
                self.child_names[decision.unicast_wid],
                self.bytes_per_element,
            )
            return PortDecision(deliveries=[(decision.unicast_wid, out)])
        return _PORT_DROP


class _RootDataplane:
    """Chassis adapter for the root: Algorithm 3 over the rack switches."""

    def __init__(
        self,
        program: SwitchMLProgram,
        rack_names: list[str],
        switch_name: str = "root",
        bytes_per_element: int = 4,
    ):
        self.program = program
        self.rack_names = rack_names
        self.switch_name = switch_name
        self.bytes_per_element = bytes_per_element

    def process(self, frame: Frame, in_port: int) -> PortDecision:
        packet = frame.message
        if not isinstance(packet, SwitchMLPacket) or packet.from_switch:
            return _PORT_DROP
        decision = self.program.handle(packet)
        if decision.action is SwitchAction.DROP:
            return _PORT_DROP
        assert decision.packet is not None
        if decision.action is SwitchAction.UNICAST:
            rack = decision.unicast_wid
            assert rack is not None
            out = decision.packet.to_frame(
                self.switch_name, self.rack_names[rack], self.bytes_per_element
            )
            return PortDecision(deliveries=[(rack, out)])
        return PortDecision(
            deliveries=[
                (
                    rack,
                    decision.packet.to_frame(
                        self.switch_name, name, self.bytes_per_element
                    ),
                )
                for rack, name in enumerate(self.rack_names)
            ]
        )


@dataclass
class HierarchicalConfig:
    """A two-layer tree: ``num_racks`` racks of ``workers_per_rack``."""

    num_racks: int = 2
    workers_per_rack: int = 4
    pool_size: int = 32
    elements_per_packet: int = 32
    timeout_s: float = 1e-3
    link: LinkSpec = field(default_factory=LinkSpec)
    host: HostSpec = field(default_factory=HostSpec)
    pipeline_latency_s: float = 800e-9
    loss_factory: type[NoLoss] | object = NoLoss
    seed: int = 0


@dataclass
class TreeResult:
    """Outcome of a hierarchical all-reduce."""

    completed: bool
    worker_stats: list[WorkerStats]
    results: list[np.ndarray | None]
    uplink_frames: list[int]
    worker_uplink_frames: list[int]
    retransmissions: int

    @property
    def max_tat(self) -> float:
        return max(s.tensor_aggregation_time for s in self.worker_stats)


class HierarchicalJob:
    """Build and run the two-layer SS6 tree end to end."""

    def __init__(self, config: HierarchicalConfig | None = None):
        self.config = config if config is not None else HierarchicalConfig()
        cfg = self.config
        self.sim = Simulator(seed=cfg.seed)
        loss_factory = cfg.loss_factory
        make_loss = loss_factory if callable(loss_factory) else NoLoss

        self.tree = build_tree(
            self.sim,
            TreeSpec(
                num_racks=cfg.num_racks,
                hosts_per_rack=cfg.workers_per_rack,
                link=cfg.link,
                host=cfg.host,
                pipeline_latency_s=cfg.pipeline_latency_s,
                loss_factory=make_loss,
            ),
        )
        self.root = self.tree.root
        self.root_program = SwitchMLProgram(
            cfg.num_racks, cfg.pool_size, cfg.elements_per_packet
        )
        rack_names = [rack.switch.name for rack in self.tree.racks]
        self.root.load_program(
            _RootDataplane(self.root_program, rack_names)
        )

        self.rack_switches: list[SwitchChassis] = []
        self.rack_programs: list[RackAggregatorProgram] = []
        self.workers: list[SwitchMLWorker] = []
        self.hosts: list[Host] = []
        self.rack_uplinks: list[Link] = []
        self.worker_uplinks: list[Link] = []
        self._completed: set[int] = set()

        m = cfg.workers_per_rack
        for r, rack in enumerate(self.tree.racks):
            program = RackAggregatorProgram(
                rack_id=r, num_children=m,
                pool_size=cfg.pool_size,
                elements_per_packet=cfg.elements_per_packet,
            )
            for c, host in enumerate(rack.hosts):
                gwid = r * m + c
                worker = SwitchMLWorker(
                    sim=self.sim, host=host, wid=c,
                    num_workers=m, pool_size=cfg.pool_size,
                    elements_per_packet=cfg.elements_per_packet,
                    timeout_s=cfg.timeout_s,
                    on_complete=self._make_on_complete(gwid),
                    switch_addr=rack.switch.name,
                )
                host.attach_agent(worker)
                self.hosts.append(host)
                self.workers.append(worker)
                self.worker_uplinks.append(rack.host_uplinks[c])
            rack.switch.load_program(
                _RackDataplane(
                    program, m, [h.name for h in rack.hosts],
                    rack.uplink_port, self.root.name, rack.switch.name,
                )
            )
            self.rack_switches.append(rack.switch)
            self.rack_programs.append(program)
            self.rack_uplinks.append(rack.uplink)

    def _make_on_complete(self, gwid: int):
        def on_complete(local_wid: int, time: float) -> None:
            self._completed.add(gwid)

        return on_complete

    # ------------------------------------------------------------------
    def all_reduce(
        self,
        tensors: Sequence[np.ndarray],
        deadline_s: float = 120.0,
        verify: bool = True,
    ) -> TreeResult:
        """Aggregate one tensor per worker across the whole tree."""
        cfg = self.config
        n = cfg.num_racks * cfg.workers_per_rack
        if len(tensors) != n:
            raise ValueError(f"need {n} tensors, got {len(tensors)}")
        k = cfg.elements_per_packet
        sizes = {len(t) for t in tensors}
        if len(sizes) != 1:
            raise ValueError("all workers must contribute equal-length tensors")
        original = sizes.pop()
        pad = (-original) % k
        padded = [
            np.concatenate([np.asarray(t, dtype=np.int64), np.zeros(pad, np.int64)])
            if pad
            else np.asarray(t, dtype=np.int64)
            for t in tensors
        ]

        self._completed.clear()
        base = self.sim.now
        for worker, tensor in zip(self.workers, padded):
            self.sim.schedule_at(base, worker.start, tensor)
        deadline = base + deadline_s
        while self.sim.step():
            if self.sim.now > deadline:
                break
        completed = len(self._completed) == n

        results = [
            w.result[:original].copy() if w.result is not None else None
            for w in self.workers
        ]
        if verify and completed:
            expected = np.sum(padded, axis=0, dtype=np.int64)[:original]
            for gwid, res in enumerate(results):
                if res is None or not np.array_equal(res, expected):
                    raise AssertionError(
                        f"worker {gwid} tree aggregate differs from the exact sum"
                    )
        return TreeResult(
            completed=completed,
            worker_stats=[w.stats for w in self.workers],
            results=results,
            uplink_frames=[l.stats.frames_sent for l in self.rack_uplinks],
            worker_uplink_frames=[l.stats.frames_sent for l in self.worker_uplinks],
            retransmissions=sum(w.stats.retransmissions for w in self.workers),
        )
