"""End hosts: CPU cores, NIC send/receive paths, flow-director sharding.

Worker machines in the paper run a DPDK program: incoming frames are
spread across RX queues by the NIC's Flow Director, each queue is pinned
to one core, and each core handles its share of pool slots with no shared
state (paper SS4 and Appendix B).  We model each core as a
:class:`~repro.sim.resources.SerialResource` charged a fixed CPU cost per
received and per transmitted frame.

Calibration
-----------
Default per-frame costs are 40 ns on each of the RX and TX paths.  With
180-byte frames:

* at 10 Gbps, line rate is ~6.9 Mpps; one core sustains 1 / 80 ns = 12.5 M
  frame-pairs/s -- comfortably line rate, matching the paper's "one CPU
  core is sufficient ... on a 10 Gbps network" (SSB);
* at 100 Gbps, line rate is ~69 Mpps; four cores sustain ~50 M pairs/s,
  i.e. ~72 % of line rate -- reproducing the "penalty gap at 100 Gbps"
  from the paper's 4-core Flow Director limitation (SS5.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Protocol

from repro.net.link import Link, _submit_key
from repro.net.packet import Frame
from repro.sim.engine import Simulator
from repro.sim.resources import SerialResource

__all__ = ["Host", "HostSpec", "HostAgent"]


@dataclass
class HostSpec:
    """CPU and I/O model of a worker machine.

    The paper uses 4 cores per worker at both speeds (SS5.1).

    ``io_fixed_latency_s`` + ``io_batch_frames`` model DPDK's batched I/O:
    "packets are batched in groups of 32 to reduce per-packet transmission
    overhead" (SSB).  A frame waits, on average, for half a batch's worth
    of serialization time plus a fixed driver cost before it is visible to
    software (RX) or to the wire (TX).  This latency -- not the per-frame
    CPU cost -- dominates the end-to-end delay that sets the BDP, and
    therefore the pool-size knee of Figure 2: at 10 Gbps the modelled
    round trip is ~11 us, matching the paper's choice of s = 128.
    """

    num_cores: int = 4
    per_frame_rx_s: float = 40e-9
    per_frame_tx_s: float = 40e-9
    io_fixed_latency_s: float = 2e-6
    io_batch_frames: int = 16

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ValueError("a host needs at least one core")
        if self.per_frame_rx_s < 0 or self.per_frame_tx_s < 0:
            raise ValueError("per-frame CPU costs must be non-negative")
        if self.io_fixed_latency_s < 0 or self.io_batch_frames < 0:
            raise ValueError("I/O latency parameters must be non-negative")


class HostAgent(Protocol):
    """A protocol endpoint running on a host (worker, PS shard, ...)."""

    def on_frame(self, frame: Frame) -> None:
        """Handle one received frame; runs on the frame's RX core."""
        ...  # pragma: no cover - protocol


class Host:
    """A machine with cores and one bidirectional network attachment.

    The uplink (host -> switch) is assigned by the topology builder; the
    downlink terminates at :meth:`deliver`, which charges the RX core and
    dispatches to the attached agent.
    """

    def __init__(self, sim: Simulator, name: str, spec: HostSpec | None = None):
        self.sim = sim
        self.name = name
        self._schedule_call_at = sim.schedule_call_at
        # cache key + table for the per-frame-size I/O latency (see
        # `_io_latency`): [host spec, uplink spec, {wire_bytes: latency}]
        self._lat_cache: list = [None, None, {}]
        # `spec` is a property: callers replace the whole object (never
        # mutate fields), and the setter refreshes the per-frame costs
        self.spec = spec if spec is not None else HostSpec()
        self.cores = [
            SerialResource(sim, name=f"{name}/core{i}")
            for i in range(self.spec.num_cores)
        ]
        self._ncores = len(self.cores)
        self.uplink: Link | None = None
        self.agent: HostAgent | None = None
        self._agent_on_frames: Callable[[list[Frame]], Any] | None = None
        self.frames_received = 0
        self.frames_sent = 0
        # the open RX window: its (dispatch_time, frame) group and
        # opener time (see deliver_burst_many)
        self._rx_group: list | None = None
        self._rx_t = -1.0
        #: epsilon-window coalescing (set by the job from
        #: ``SwitchMLConfig.burst_epsilon``): dispatches within
        #: ``[t0, t0 + eps]`` of a window's opener share one agent
        #: callback at ``t0 + eps``
        self.burst_epsilon = 0.0
        #: optional hook (frame, "rx"|"tx", time) for tracing
        self.observer: Callable[[Frame, str, float], Any] | None = None
        #: in-band telemetry sink (repro.obs.telemetry.TelemetryCollector),
        #: installed by Telemetry.instrument_host; frames arriving with
        #: hop records are drained here at dispatch
        self.telemetry: Any | None = None

    @property
    def spec(self) -> HostSpec:
        return self._spec

    @spec.setter
    def spec(self, spec: HostSpec) -> None:
        self._spec = spec
        self._rx_cost = spec.per_frame_rx_s
        self._tx_cost = spec.per_frame_tx_s

    def attach_agent(self, agent: HostAgent) -> None:
        self.agent = agent
        self._agent_on_frames = getattr(agent, "on_frames", None)

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def _io_latency(self, frame: Frame) -> float:
        """DPDK batching latency for one frame at the attached link rate.

        The batch term scales with the frame's serialization time, capped
        at MTU size: aggregate messages (e.g. ring all-reduce chunks) are
        streams of MTU frames on the real wire, and batching delays a
        frame by at most a batch of MTU frames.

        The value depends only on the frame size and the (host spec,
        uplink spec) pair, so it is memoized per size; replacing either
        spec object invalidates the table.
        """
        uplink = self.uplink
        spec = self._spec
        if uplink is None:
            return spec.io_fixed_latency_s
        cache = self._lat_cache
        link_spec = uplink._spec
        if cache[0] is not spec or cache[1] is not link_spec:
            cache[0] = spec
            cache[1] = link_spec
            cache[2] = {}
        wire_bytes = frame.wire_bytes
        latency = cache[2].get(wire_bytes)
        if latency is None:
            batch_s = spec.io_batch_frames * link_spec.serialization_s(
                min(wire_bytes, 1516)
            )
            latency = spec.io_fixed_latency_s + batch_s
            cache[2][wire_bytes] = latency
        return latency

    def deliver(self, frame: Frame) -> None:
        """Downlink terminus: shard onto a core, charge RX cost, dispatch.

        Dispatch is delayed by the I/O batching latency; the core is only
        occupied for the per-frame processing cost.  This runs once per
        received frame, so the :meth:`SerialResource.submit` arithmetic
        and the latency-cache hit are inlined (the accounting matches
        ``submit`` exactly).
        """
        core = self.cores[frame.flow_key % self._ncores]
        uplink = self.uplink
        cache = self._lat_cache
        if uplink is not None and cache[0] is self._spec and cache[1] is uplink._spec:
            latency = cache[2].get(frame.wire_bytes)
            if latency is None:
                latency = self._io_latency(frame)
        else:
            latency = self._io_latency(frame)
        sim = self.sim
        now = sim.now
        busy = core.busy_until
        cost = self._rx_cost
        finish = (busy if busy > now else now) + cost
        core.busy_until = finish
        core.jobs_served += 1
        core.busy_time += cost
        # completion events are never cancelled: handle-free fast path
        self._schedule_call_at(finish + latency, self._dispatch, frame)

    def _dispatch(self, frame: Frame) -> None:
        if self.agent is None:
            raise RuntimeError(f"host {self.name} received a frame but has no agent")
        self.frames_received += 1
        if self.observer is not None:
            self.observer(frame, "rx", self.sim.now)
        if frame.hops is not None and self.telemetry is not None:
            self.telemetry.drain(frame, self.sim.now, self.name)
        self.agent.on_frame(frame)

    def core_for(self, flow_key: int) -> SerialResource:
        """Flow-director sharding: stable key -> core mapping."""
        return self.cores[flow_key % len(self.cores)]

    # ------------------------------------------------------------------
    # Window-coalesced receive path (burst_epsilon > 0)
    # ------------------------------------------------------------------
    def _dispatch_window(self, pairs: list[tuple[float, Frame]]) -> None:
        """Hand one window's frames to the agent at ``t0 + eps`` (DPDK's
        RX burst), in dispatch order -- the stable sort keeps arrival
        order for ties.

        Per-frame bookkeeping (counters, observer, telemetry drain)
        matches :meth:`_dispatch`; agents without ``on_frames`` get the
        frames one at a time, in order.
        """
        agent = self.agent
        if agent is None:
            raise RuntimeError(f"host {self.name} received a frame but has no agent")
        if pairs is self._rx_group:
            self._rx_group = None
        pairs.sort(key=_submit_key)
        frames = [frame for _, frame in pairs]
        self.frames_received += len(frames)
        observer = self.observer
        if observer is not None:
            now = self.sim.now
            for frame in frames:
                observer(frame, "rx", now)
        telemetry = self.telemetry
        if telemetry is not None:
            now = self.sim.now
            name = self.name
            for frame in frames:
                if frame.hops is not None:
                    telemetry.drain(frame, now, name)
        on_frames = self._agent_on_frames
        if on_frames is not None:
            on_frames(frames)
        else:
            on_frame = agent.on_frame
            for frame in frames:
                on_frame(frame)

    def deliver_burst_many(self, frames: list[Frame]) -> None:
        """Downlink terminus of the window path: one call per link drain.

        Wired as the downlink's ``deliver_many`` callback when
        ``burst_epsilon > 0``.  Core accounting is :meth:`deliver`'s,
        frame by frame in order; instead of one dispatch event per
        frame, dispatch times within ``[t0, t0 + eps]`` of the open
        window's opener join its drain (scheduled at ``t0 + eps``).  The
        drain clears the group ref, so late frames open a fresh window.
        """
        cores = self.cores
        ncores = self._ncores
        uplink = self.uplink
        cache = self._lat_cache
        lat_map = (
            cache[2]
            if uplink is not None
            and cache[0] is self._spec
            and cache[1] is uplink._spec
            else None
        )
        io_latency = self._io_latency
        now = self.sim.now
        cost = self._rx_cost
        eps = self.burst_epsilon
        schedule = self._schedule_call_at
        group = self._rx_group
        t0 = self._rx_t
        for frame in frames:
            core = cores[frame.flow_key % ncores]
            if lat_map is not None:
                latency = lat_map.get(frame.wire_bytes)
                if latency is None:
                    latency = io_latency(frame)
            else:
                latency = io_latency(frame)
            busy = core.busy_until
            finish = (busy if busy > now else now) + cost
            core.busy_until = finish
            core.jobs_served += 1
            core.busy_time += cost
            t = finish + latency
            if group is not None and t0 <= t <= t0 + eps:
                group.append((t, frame))
            else:
                group = [(t, frame)]
                t0 = t
                self._rx_group = group
                self._rx_t = t0
                schedule(t + eps, self._dispatch_window, group)

    # ------------------------------------------------------------------
    # Send path
    # ------------------------------------------------------------------
    def send(self, frame: Frame, flow_key: int | None = None) -> None:
        """Charge the TX core for ``frame`` and put it on the uplink.

        ``flow_key`` defaults to the frame's own flow key so that a slot's
        TX work lands on the same core as its RX work (run-to-completion).
        """
        uplink = self.uplink
        if uplink is None:
            raise RuntimeError(f"host {self.name} has no uplink")
        key = frame.flow_key if flow_key is None else flow_key
        core = self.cores[key % self._ncores]
        self.frames_sent += 1
        if self.observer is not None:
            self.observer(frame, "tx", self.sim.now)
        # inlined SerialResource.submit + latency-cache hit (see deliver)
        cache = self._lat_cache
        if cache[0] is self._spec and cache[1] is uplink._spec:
            latency = cache[2].get(frame.wire_bytes)
            if latency is None:
                latency = self._io_latency(frame)
        else:
            latency = self._io_latency(frame)
        sim = self.sim
        now = sim.now
        busy = core.busy_until
        cost = self._tx_cost
        finish = (busy if busy > now else now) + cost
        core.busy_until = finish
        core.jobs_served += 1
        core.busy_time += cost
        self._schedule_call_at(finish + latency, uplink.send, frame)

    def send_train(self, frames: list[Frame]) -> None:
        """Charge TX cores for a batch and put it on the uplink as one
        frame train: one link call replaces one event per frame.

        The core accounting is identical to ``len(frames)`` back-to-back
        :meth:`send` calls from the same callback (those all charge at
        the same ``sim.now``); each frame's link submit time
        (``finish + latency``) rides inside the train, and
        :meth:`~repro.net.link.Link.send_train` runs every frame's send
        body against its own submit time.  Submit times can run
        backwards across cores (a busy core finishes later than an idle
        one charged after it); the stable sort restores the
        ``(time, seq)`` order the per-frame TX events would have fired
        in.
        """
        n = len(frames)
        if n == 0:
            return
        if n == 1:
            self.send(frames[0])
            return
        uplink = self.uplink
        if uplink is None:
            raise RuntimeError(f"host {self.name} has no uplink")
        now = self.sim.now
        observer = self.observer
        cores = self.cores
        ncores = self._ncores
        cost = self._tx_cost
        cache = self._lat_cache
        if cache[0] is not self._spec or cache[1] is not uplink._spec:
            self._io_latency(frames[0])  # prime/refresh the size table
        table = cache[2]
        self.frames_sent += n
        pairs: list[tuple[float, Frame]] = []
        monotone = True
        last = -1.0
        for frame in frames:
            if observer is not None:
                observer(frame, "tx", now)
            core = cores[frame.flow_key % ncores]
            busy = core.busy_until
            finish = (busy if busy > now else now) + cost
            core.busy_until = finish
            core.jobs_served += 1
            core.busy_time += cost
            latency = table.get(frame.wire_bytes)
            if latency is None:
                latency = self._io_latency(frame)
            t = finish + latency
            if t < last:
                monotone = False
            last = t
            pairs.append((t, frame))
        if not monotone:
            pairs.sort(key=_submit_key)
        uplink.send_train(pairs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Host {self.name} cores={len(self.cores)}>"
