"""The switch box: ports, an ingress-pipeline program slot, and a
traffic manager that replicates multicast frames.

The chassis is deliberately dumb: all protocol intelligence lives in the
attached *dataplane program* (e.g. :class:`repro.core.switch_program.
SwitchMLProgram` or the plain :class:`ForwardingProgram`).  This mirrors
the Tofino split between the fixed chassis (ports, traffic manager) and
the P4 program loaded into the pipeline.

Timing model: a frame arriving on any port is processed after a fixed
``pipeline_latency_s`` (Tofino ingress latency is under a microsecond and
independent of load -- the ASIC is non-blocking at line rate), and output
frames are handed to the per-port egress links, which serialize.  The
traffic manager performs multicast replication at no extra cost, as on
the real ASIC (paper SSB: using the traffic manager for duplication was
precisely what let the authors keep everything in one ingress pipeline).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Protocol

from repro.net.link import Link
from repro.net.packet import Frame
from repro.sim.engine import Simulator

__all__ = ["DataplaneProgram", "ForwardingProgram", "PortDecision", "SwitchChassis"]


@dataclass
class PortDecision:
    """What the program wants done with a processed frame.

    ``deliveries`` is a list of ``(port, frame)`` pairs; an empty list is a
    drop.  A multicast is simply many deliveries sharing one message
    object.
    """

    deliveries: list[tuple[int, Frame]]

    @classmethod
    def drop(cls) -> "PortDecision":
        """The shared drop decision (callers never mutate ``deliveries``;
        allocating one per dropped frame would tax the inner loop)."""
        return _DROP


#: singleton returned by :meth:`PortDecision.drop`
_DROP = PortDecision(deliveries=[])


class DataplaneProgram(Protocol):
    """The interface a pipeline program exposes to the chassis."""

    def process(self, frame: Frame, in_port: int) -> PortDecision:
        """Process one ingress frame; runs at most once per frame."""
        ...  # pragma: no cover - protocol


class ForwardingProgram:
    """Plain destination-based forwarding (a normal Ethernet switch).

    Used as the dataplane when benchmarking host-based strategies
    (parameter servers, ring all-reduce) over the same simulated rack.
    """

    def __init__(self, port_of: dict[str, int]):
        self.port_of = dict(port_of)

    def process(self, frame: Frame, in_port: int) -> PortDecision:
        port = self.port_of.get(frame.dst)
        if port is None:
            return PortDecision.drop()
        return PortDecision(deliveries=[(port, frame)])


class SwitchChassis:
    """A multi-port switch with one ingress pipeline.

    Parameters
    ----------
    sim:
        Simulation engine.
    name:
        Stats / debugging label.
    pipeline_latency_s:
        Fixed ingress processing latency per frame (default 800 ns,
        within Tofino's published sub-microsecond range).
    """

    def __init__(self, sim: Simulator, name: str = "sw", pipeline_latency_s: float = 800e-9):
        self.sim = sim
        self.name = name
        self.pipeline_latency_s = pipeline_latency_s
        self.program: DataplaneProgram | None = None
        self._egress: dict[int, Link] = {}
        # per-port Link list (index = port number) for the egress fan-out;
        # rebuilt by attach_port, None-padded for unattached ports
        self._egress_list: list[Link | None] = []
        self._schedule_call = sim.schedule_call
        self.frames_in = 0
        self.frames_out = 0
        self.frames_dropped = 0
        # the open ingress window: its (frame, in_port) group and opener
        # time (see burst_ingress_many_callback)
        self._in_group: list[tuple[Frame, int]] | None = None
        self._in_t = -1.0
        #: epsilon-window coalescing (set by the job from
        #: ``SwitchMLConfig.burst_epsilon``): arrivals within
        #: ``[t0, t0 + eps]`` of a window's opener -- across *all* ports
        #: -- share one pipeline drain at ``t0 + eps +
        #: pipeline_latency_s``.  Engine time is monotone at ingress, so
        #: within-window arrival order needs no sort.
        self.burst_epsilon = 0.0
        # the loaded program's batch entry point, cached by load_program
        self._process_batch: Callable | None = None
        #: in-band telemetry tap (repro.obs.telemetry.ChassisTap),
        #: installed by Telemetry.instrument_chassis; observes pool
        #: occupancy once per pipeline pass, then stamps it on the
        #: frames forwarded as-is and drains the ones the pipeline
        #: terminates (aggregated, punted, fenced)
        self.telemetry: Any | None = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach_port(self, port: int, egress: Link) -> None:
        """Connect the egress side of ``port`` to a link."""
        if port in self._egress:
            raise ValueError(f"{self.name}: port {port} already attached")
        self._egress[port] = egress
        if port >= len(self._egress_list):
            self._egress_list.extend([None] * (port + 1 - len(self._egress_list)))
        self._egress_list[port] = egress

    def load_program(self, program: DataplaneProgram) -> None:
        self.program = program
        self._process_batch = getattr(program, "process_batch", None)

    @property
    def ports(self) -> list[int]:
        return sorted(self._egress)

    # ------------------------------------------------------------------
    # Datapath
    # ------------------------------------------------------------------
    def ingress(self, frame: Frame, in_port: int) -> None:
        """Entry point wired as the uplink's deliver callback."""
        if self.program is None:
            raise RuntimeError(f"{self.name}: no dataplane program loaded")
        self.frames_in += 1
        # pipeline completions are never cancelled: handle-free fast path
        self._schedule_call(
            self.pipeline_latency_s, self._run_pipeline, frame, in_port
        )

    def _run_pipeline(self, frame: Frame, in_port: int) -> None:
        tap = self.telemetry
        if tap is not None:
            tap.observe()
        deliveries = self.program.process(frame, in_port).deliveries
        if not deliveries:
            self.frames_dropped += 1
            if tap is not None:
                tap.absorb(frame)
            return
        egress_list = self._egress_list
        nports = len(egress_list)
        self.frames_out += len(deliveries)
        for port, out_frame in deliveries:
            egress = egress_list[port] if 0 <= port < nports else None
            if egress is None:
                raise RuntimeError(f"{self.name}: no egress link on port {port}")
            egress.send(out_frame)
        if tap is not None:
            # a frame absorbed by the program (its deliveries are new
            # frames, e.g. an aggregation emitting partials) terminates
            # here; one forwarded as-is keeps accumulating stamps
            for _port, out_frame in deliveries:
                if out_frame is frame:
                    tap.stamp(frame)
                    break
            else:
                tap.absorb(frame)

    def ingress_callback(self, in_port: int):
        """A ``deliver(frame)`` closure bound to ``in_port``.

        The closure repeats :meth:`ingress` rather than calling it -- it
        runs once per frame entering the switch, and the extra call frame
        was measurable on the aggregation hot path.
        """
        schedule_call = self._schedule_call
        run_pipeline = self._run_pipeline

        def deliver(frame: Frame) -> None:
            if self.program is None:
                raise RuntimeError(f"{self.name}: no dataplane program loaded")
            self.frames_in += 1
            schedule_call(self.pipeline_latency_s, run_pipeline, frame, in_port)

        return deliver

    # ------------------------------------------------------------------
    # Window-coalesced datapath (burst_epsilon > 0)
    # ------------------------------------------------------------------
    def burst_ingress_many_callback(self, in_port: int):
        """A ``deliver_many(frames)`` closure bound to ``in_port``.

        Wired as the uplink's ``deliver_many`` when ``burst_epsilon >
        0``: one call takes a whole link drain, all sharing the drain's
        ``sim.now``, and appends it to the open ingress window -- or
        opens a new one, whose first arrival schedules the pipeline
        drain.  The drain clears the group ref, so later arrivals open a
        fresh window.
        """
        sim = self.sim
        schedule_call = self._schedule_call

        def deliver_many(frames: list[Frame]) -> None:
            if self.program is None:
                raise RuntimeError(f"{self.name}: no dataplane program loaded")
            self.frames_in += len(frames)
            t = sim.now
            eps = self.burst_epsilon
            group = self._in_group
            if group is not None and self._in_t <= t <= self._in_t + eps:
                group.extend((frame, in_port) for frame in frames)
            else:
                self._in_group = group = [(frame, in_port) for frame in frames]
                self._in_t = t
                schedule_call(
                    eps + self.pipeline_latency_s, self._run_pipeline_burst, group
                )

        return deliver_many

    def _run_pipeline_burst(self, group: list[tuple[Frame, int]]) -> None:
        """Drain one ingress window through the pipeline.

        Programs exposing ``process_batch`` (the SwitchML dataplane) get
        the whole group at once, and the deliveries leave as one frame
        train per egress port: every frame submits at this drain's
        ``sim.now``, exactly when a per-frame loop would have called
        ``send``, and batching per port only reorders work across
        disjoint links -- appends to different links' windows commute.
        Other programs fall back to per-frame :meth:`_run_pipeline`
        calls sharing this one engine event.
        """
        if group is self._in_group:
            self._in_group = None
        process_batch = self._process_batch
        if process_batch is None:
            for frame, in_port in group:
                self._run_pipeline(frame, in_port)
            return
        tap = self.telemetry
        if tap is not None:
            tap.observe()
        decisions = process_batch(group)
        # each returned decision carries the deliveries triggered by one
        # emitting frame; every other frame of the group was absorbed
        self.frames_dropped += len(group) - len(decisions)
        egress_list = self._egress_list
        nports = len(egress_list)
        forwarded: set[int] | None = set() if tap is not None else None
        now = self.sim.now
        by_port: dict[int, list[tuple[float, Frame]]] = {}
        for decision in decisions:
            deliveries = decision.deliveries
            self.frames_out += len(deliveries)
            for port, out_frame in deliveries:
                if forwarded is not None:
                    forwarded.add(id(out_frame))
                pairs = by_port.get(port)
                if pairs is None:
                    by_port[port] = [(now, out_frame)]
                else:
                    pairs.append((now, out_frame))
        for port in by_port:
            if not (0 <= port < nports and egress_list[port] is not None):
                raise RuntimeError(f"{self.name}: no egress link on port {port}")
        for port, pairs in by_port.items():
            egress_list[port].send_train(pairs)
        if tap is not None:
            for frame, _port in group:
                if id(frame) in forwarded:
                    tap.stamp(frame)
                else:
                    tap.absorb(frame)
