"""Worker-side protocol: Algorithms 2 and 4.

Each worker streams its (already quantized) model update through the
switch's slot pool:

* it launches one packet per pool slot (the initial window of ``s``
  packets, Algorithm 2 lines 1-5);
* every result packet received both delivers an aggregated chunk and acts
  as a flow-control credit to send the next chunk for that slot,
  advancing the offset by ``k * s`` and flipping the pool-version bit
  (Algorithm 4 lines 9-19) -- the self-clocking that keeps all workers
  within one phase of each other;
* a per-slot retransmission timer resends the *same* packet on expiry
  (Algorithm 4 lines 20-23); the switch's ``seen`` bitmap makes the
  resend idempotent and its shadow copy serves results the worker missed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.core.packet import Heartbeat, SwitchMLPacket
from repro.core.protocol import WorkerSlotState
from repro.net.host import Host
from repro.net.packet import Frame
from repro.obs.base import NULL_OBS
from repro.sim.engine import Event, Simulator
from repro.sim.trace import TraceRecorder

_INF = float("inf")

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.base import Observability

__all__ = ["SwitchMLWorker", "WorkerStats"]


@dataclass
class WorkerStats:
    """Per-worker protocol counters for one tensor aggregation."""

    packets_sent: int = 0
    retransmissions: int = 0
    results_received: int = 0
    stale_results_ignored: int = 0
    corrupt_discarded: int = 0
    timeouts: int = 0
    rtt_sum: float = 0.0
    rtt_count: int = 0
    start_time: float = 0.0
    finish_time: float = field(default=float("nan"))

    @property
    def mean_rtt(self) -> float:
        return self.rtt_sum / self.rtt_count if self.rtt_count else float("nan")

    @property
    def tensor_aggregation_time(self) -> float:
        """TAT as the paper defines it: ready-to-send until fully received."""
        return self.finish_time - self.start_time


class SwitchMLWorker:
    """One worker machine's SwitchML endpoint (a :class:`HostAgent`).

    Parameters
    ----------
    sim, host:
        Simulation engine and the host this agent runs on.
    wid:
        Worker id in ``[0, num_workers)``.
    num_workers, pool_size, elements_per_packet:
        Protocol parameters shared with the switch program.
    timeout_s:
        Retransmission timeout; the paper's experiments use 1 ms.  With
        ``timeout_mode="adaptive"`` this is only the initial value: the
        worker runs a Jacobson/Karn estimator (SRTT + 4 x RTTVAR) over
        observed response times, implementing SS6's advice to "adapt the
        retransmission timeout according to variations in end-to-end
        RTT".
    bytes_per_element:
        4 for int32/float32 exchange, 2 for the float16 variant (the wire
        carries half-width values; SS3.7).
    on_complete:
        Called as ``on_complete(wid, finish_time)`` when the aggregated
        tensor is fully assembled.
    trace:
        Optional :class:`TraceRecorder`; receives ``sent`` / ``resent``
        ticks (Figure 6's series).
    obs:
        Optional :class:`repro.obs.base.Observability` layer.  When
        enabled, the worker emits ``packet.tx`` / ``packet.retx`` /
        ``packet.rx`` events on its own trace lane and feeds the
        ``worker_*`` counters plus the RTT / retransmission-gap / TAT
        histograms.
    burst_epsilon:
        The job's coalescing window (``SwitchMLConfig.burst_epsilon``).
        Zero runs the per-packet path: one ``host.send`` and one engine
        timer per chunk.  A positive value runs the window path: chunk
        groups leave as frame trains, results arrive as RX bursts, and
        one singleton timer covers the pool's earliest deadline.
    """

    #: the window path's egress rule: an RX group of this many results
    #: or more, in fixed timeout mode, sends its next chunks as one frame
    #: train; below this, or in adaptive mode, credits leave one by one
    #: (same sums, not the same schedule: see on_frames)
    _RX_BATCH_MIN = 8

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        wid: int,
        num_workers: int,
        pool_size: int,
        elements_per_packet: int,
        timeout_s: float = 1e-3,
        bytes_per_element: int = 4,
        on_complete: Callable[[int, float], None] | None = None,
        trace: TraceRecorder | None = None,
        switch_addr: str = "sw",
        timeout_mode: str = "fixed",
        min_timeout_s: float = 20e-6,
        max_timeout_s: float = 100e-3,
        tensor_dtype=np.int64,
        max_retries: int | None = None,
        on_failure: Callable[[int], None] | None = None,
        epoch: int = 0,
        member_id: int | None = None,
        obs: "Observability | None" = None,
        reuse_buffers: bool = False,
        job_id: int = 0,
        burst_epsilon: float = 0.0,
    ):
        if timeout_mode not in ("fixed", "adaptive"):
            raise ValueError(f"unknown timeout mode {timeout_mode!r}")
        if burst_epsilon < 0:
            raise ValueError("burst_epsilon must be non-negative")
        self.sim = sim
        self._schedule_at = sim.schedule_at
        self.host = host
        self.wid = wid
        self.n = num_workers
        self.s = pool_size
        self.k = elements_per_packet
        self.timeout_s = timeout_s
        self.bytes_per_element = bytes_per_element
        self.on_complete = on_complete
        self.trace = trace
        self.switch_addr = switch_addr
        self.timeout_mode = timeout_mode
        self.min_timeout_s = min_timeout_s
        self.max_timeout_s = max_timeout_s
        self.tensor_dtype = tensor_dtype
        # SS3.2 footnote 4: worker/link/switch failures are handled by
        # the ML framework; this is the detector that hands the framework
        # its signal.  None = retry forever (the paper's in-protocol
        # behaviour); an integer bounds consecutive retries per slot.
        self.max_retries = max_retries
        self.on_failure = on_failure
        # Fail-stop semantics (see crash() / _fail()): ``failed`` is the
        # observable "this worker is not going to finish" flag, set by
        # BOTH paths; ``crashed`` additionally marks a fail-stop death
        # (the worker stopped acting and cannot report).
        self.failed = False
        self.crashed = False
        #: control-plane pool epoch stamped into every outgoing packet;
        #: the controller advances it via :meth:`reconfigure`
        self.epoch = epoch
        #: multi-tenant job id stamped into every outgoing packet (0 for
        #: single-job racks; see :mod:`repro.core.tenancy`)
        self.job_id = job_id
        #: stable identity used by the control plane's membership layer
        #: (survives protocol ``wid`` renumbering on re-admission)
        self.member_id = wid if member_id is None else member_id
        self._hb_interval: float | None = None
        self._hb_timer: Event | None = None
        # Jacobson estimator state (adaptive mode)
        self._srtt: float | None = None
        self._rttvar = 0.0
        self._rtt_peak = 0.0  # decaying peak: guards RTT ramp-ups
        self.burst_epsilon = float(burst_epsilon)
        #: the one execution-path test.  False: the per-packet path --
        #: per-chunk sends, one engine timer per slot.  True: the window
        #: path -- the schedule is already epsilon-perturbed, so chunk
        #: groups leave through one :meth:`Host.send_train` call, per-slot
        #: deadlines are booked into the SoA core's deadline array, and
        #: ONE singleton engine timer sits at the earliest armed
        #: deadline; expiries drain through ``WorkerSlotState.due()`` in
        #: (deadline, arm_seq) order -- s timer events collapse to one.
        self._coalesce = self.burst_epsilon > 0.0
        self._deadline_event: Event | None = None
        self._deadline_armed_at = _INF
        # per-packet trace events fire on the per-packet path; the
        # window path emits per-burst aggregate records instead
        # (on_frames/_run_deadlines)
        self._trace_packets = not self._coalesce
        #: the data-oriented core: pool-wide per-slot state as NumPy
        #: arrays (this class is the per-event adapter over it).  The
        #: ``_slot_*`` attributes alias its scalar views (_bind_slot_views).
        self._st = WorkerSlotState(pool_size)
        self._arm_counter = 0
        # Zero-copy hot path: when enabled, each slot's update packet and
        # TX frame are allocated once per aggregation and mutated in
        # place on every phase advance.  Safe only on jitter-free links
        # (FIFO end to end): by the time a slot's result arrives, the
        # previous update frame has necessarily been consumed by the
        # switch or dropped, so nothing still references it.  Resends are
        # always freshly allocated -- a resend can be in flight
        # concurrently with its original.  The job enables this when
        # ``link.jitter_s == 0``.
        self.reuse_buffers = reuse_buffers
        self._slot_buf: list[SwitchMLPacket | None] = []
        self._slot_frame: list[Frame | None] = []
        # window path: while open, _send_chunk queues its frame here and
        # _flush_outbox sends the lot as one frame train
        self._outbox: list[Frame] | None = None

        # observability: the four counters mirror `stats` fields and are
        # brought up to date by _flush_metrics when the registry is
        # read; the send/receive paths never touch them
        self.obs = obs if obs is not None else NULL_OBS
        self._tracer = self.obs.tracer
        self._actor = f"worker{wid}"
        metrics = self.obs.metrics
        self._m_counters = tuple(
            metrics.counter(name, help, label_names=("wid",)).labels(str(wid))
            for name, help in (
                ("worker_packets_sent_total", "update packets put on the wire"),
                ("worker_retransmissions_total", "timeout-driven resends"),
                ("worker_results_total", "aggregated results consumed"),
                ("worker_stale_results_total",
                 "results ignored as stale (wrong phase or epoch)"),
            )
        )
        self._m_flushed = (0, 0, 0, 0)
        metrics.on_collect(self._flush_metrics)
        self._h_rtt = metrics.histogram(
            "worker_rtt_seconds", "per-chunk send-to-result round trip"
        )
        self._h_retx_gap = metrics.histogram(
            "worker_retx_gap_seconds",
            "time from a chunk's first send to each timeout-driven resend",
        )
        self._h_tat = metrics.histogram(
            "worker_tat_seconds", "tensor aggregation time (start to finish)"
        )

        self.stats = WorkerStats()
        self._tensor: np.ndarray | None = None
        self._result: np.ndarray | None = None
        self._size = 0
        self._phantom = False
        self._remaining = 0
        self._active = False
        self._base_off = 0
        self._active_slots = 0
        # per-slot protocol state: the numeric columns live in the SoA
        # core; the object-reference columns -- packet, timer, reuse
        # buffers -- stay Python lists
        self._bind_slot_views()
        self._slot_packet: list[SwitchMLPacket | None] = []
        self._slot_timer: list[Event | None] = []

    # ------------------------------------------------------------------
    # Starting an aggregation
    # ------------------------------------------------------------------
    def start(self, tensor: np.ndarray | None, num_elements: int | None = None) -> None:
        """Begin aggregating ``tensor`` (int32/int64 values, length a
        multiple of ``k``).

        Phantom mode: pass ``tensor=None`` with ``num_elements`` set; the
        protocol runs with empty payloads for timing-only sweeps.
        """
        if self._active:
            raise RuntimeError(f"worker {self.wid} already aggregating")
        if tensor is None:
            if num_elements is None:
                raise ValueError("phantom mode needs num_elements")
            self._size = int(num_elements)
            self._phantom = True
            self._result = None
        else:
            self._size = len(tensor)
            self._phantom = False
            self._tensor = np.asarray(tensor, dtype=self.tensor_dtype)
            self._result = np.zeros(self._size, dtype=self.tensor_dtype)
        if self._size <= 0:
            raise ValueError("tensor must have at least one element")
        if self._size % self.k != 0:
            raise ValueError(
                f"tensor length {self._size} must be a multiple of k={self.k} "
                "(the stream buffer manager pads)"
            )

        total_packets = self._size // self.k
        active_slots = min(self.s, total_packets)
        self._remaining = total_packets
        self._active = True
        self._reset_slot_state()
        # start() models the framework (re)launching the worker process,
        # so it revives a crashed/failed endpoint.
        self.failed = False
        self.crashed = False
        self._base_off = 0
        self._active_slots = active_slots
        # the fresh WorkerStats restarts the counts the registry mirrors:
        # bank what the old one gained first
        self._flush_metrics()
        self._m_flushed = (0, 0, 0, 0)
        self.stats = WorkerStats(start_time=self.sim.now)

        if self._coalesce:
            self._outbox = []
        for i in range(active_slots):
            self._send_chunk(idx=i, ver=self._next_ver[i], off=self.k * i)
        self._flush_outbox()

    def _bind_slot_views(self) -> None:
        """Alias the SoA core's scalar views -- same storage as its
        arrays, builtin values out -- for the one-slot-at-a-time code."""
        st = self._st
        self._slot_off = st.off_v
        self._slot_ver = st.ver_v
        self._slot_sent_at = st.sent_at_v
        self._slot_retransmitted = st.retransmitted_v
        self._slot_retries = st.retries_v
        # per-slot exponential backoff on consecutive timeouts (resets on
        # a received result) -- keeps a sudden RTT increase (congestion)
        # from degenerating into a retransmission storm.  Persists across
        # aggregations, as do the pool versions: consecutive tensors form
        # "a single, continuous stream of data across iterations"
        # (Appendix B), and resetting to 0 would collide with the
        # switch's still-set ``seen`` bits from a previous tensor whose
        # last phase used version 0.
        self._slot_backoff = st.backoff_v
        self._next_ver = st.next_ver_v

    def _reset_slot_state(self) -> None:
        """Per-aggregation reset: clear the SoA core in place, rebind the
        view aliases (tests may have rebound them), and reallocate the
        object-reference columns."""
        self._st.begin(start_time=self.sim.now)
        self._bind_slot_views()
        self._slot_packet = [None] * self.s
        self._slot_timer = [None] * self.s
        # reusable buffers are per-aggregation: wid/epoch/addressing may
        # change between tensors (reconfigure), never within one
        self._slot_buf = [None] * self.s
        self._slot_frame = [None] * self.s

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def _chunk_vector(self, off: int) -> np.ndarray | None:
        if self._phantom:
            return None
        assert self._tensor is not None
        return self._tensor[off : off + self.k]

    def _send_chunk(self, idx: int, ver: int, off: int) -> None:
        """Send one chunk; the TX-side instrumentation (the old
        ``_transmit``) is inlined -- this runs once per in-order send."""
        if self.reuse_buffers and (packet := self._slot_buf[idx]) is not None:
            # hot path: mutate the slot's dedicated packet + frame in
            # place (see the reuse_buffers note in __init__)
            packet.ver = ver
            packet.off = off
            packet.vector = None if self._phantom else self._tensor[off : off + self.k]
            frame = self._slot_frame[idx]
            frame.corrupted = False  # may have been flipped on a past trip
        else:
            packet = SwitchMLPacket(
                wid=self.wid,
                ver=ver,
                idx=idx,
                off=off,
                num_elements=self.k,
                vector=self._chunk_vector(off),
                epoch=self.epoch,
                job_id=self.job_id,
            )
            frame = packet.to_frame(
                src=self.host.name, dst=self.switch_addr,
                bytes_per_element=self.bytes_per_element,
            )
            if self.reuse_buffers:
                self._slot_buf[idx] = packet
                self._slot_frame[idx] = frame
        self._slot_off[idx] = off
        self._slot_ver[idx] = ver
        self._next_ver[idx] = 1 - ver  # the version the NEXT phase uses
        self._slot_packet[idx] = packet
        self._slot_sent_at[idx] = self.sim.now
        self._slot_retransmitted[idx] = False
        self._slot_retries[idx] = 0
        self.stats.packets_sent += 1
        if self.trace is not None:
            self.trace.tick("sent", self.sim.now)
        if self._trace_packets and self._tracer.enabled:
            self._tracer.emit(
                "packet.tx", self.sim.now, cat="packet", actor=self._actor,
                slot=idx, ver=ver, off=off,
            )
        if self._outbox is not None:
            self._outbox.append(frame)
        else:
            self.host.send(frame)
        if self._coalesce:
            self._arm_deadline(idx)
        else:
            self._arm_timer(idx)

    def _flush_outbox(self) -> None:
        """Close the outbox and send what it holds as one frame train."""
        frames, self._outbox = self._outbox, None
        if frames:
            self.host.send_train(frames)

    def current_timeout(self) -> float:
        """The retransmission timeout in force right now.

        Adaptive mode uses Jacobson's SRTT + 4 x RTTVAR with a
        half-SRTT variance floor: when the RTT is steady the variance
        term collapses and a bare SRTT-sized RTO would fire on every
        scheduling wiggle (the granularity problem classic TCP solves
        with a minimum RTO).
        """
        if self.timeout_mode == "fixed" or self._srtt is None:
            return self.timeout_s
        rto = self._srtt + max(4.0 * self._rttvar, 0.5 * self._srtt)
        # A queue building up (congestion, straggler) ramps the RTT much
        # faster than the EWMA tracks; the decaying peak keeps the RTO
        # above the recent worst case during such transients.
        rto = max(rto, 1.25 * self._rtt_peak)
        return min(self.max_timeout_s, max(self.min_timeout_s, rto))

    def _observe_rtt(self, sample: float) -> None:
        """Jacobson/Karn update; callers must not feed ambiguous samples
        (responses to retransmitted packets)."""
        if self._srtt is None:
            self._srtt = sample
            self._rttvar = sample / 2.0
        else:
            err = sample - self._srtt
            self._srtt += 0.125 * err
            self._rttvar += 0.25 * (abs(err) - self._rttvar)
        self._rtt_peak = max(sample, self._rtt_peak * 0.995)

    def _arm_timer(self, idx: int) -> None:
        # runs once per (re)transmission; _cancel_timer and the fixed-mode
        # current_timeout() are inlined (the slot entry is overwritten
        # below, so the cancel need not clear it)
        timer = self._slot_timer[idx]
        if timer is not None:
            timer.cancel()
        if self.timeout_mode == "fixed" or self._srtt is None:
            base = self.timeout_s
        else:
            base = self.current_timeout()
        duration = base * self._slot_backoff[idx]
        if duration > self.max_timeout_s:
            duration = self.max_timeout_s
        self._slot_timer[idx] = self._schedule_at(
            self.sim.now + duration, self._on_timeout, idx
        )

    def _arm_deadline(self, idx: int) -> None:
        """Window-path timer arming: write the slot's expiry into the
        SoA deadline array and make sure the singleton engine timer
        covers it.

        The timeout duration is computed exactly as in
        :meth:`_arm_timer`.  ``deadline`` mirrors every armed expiry
        (``+inf`` = none) and ``arm_seq`` the arming order, so pool-wide
        timer state is one array scan; :meth:`_run_deadlines` drains
        expiries through ``WorkerSlotState.due()`` and re-arms.
        """
        st = self._st
        if self.timeout_mode == "fixed" or self._srtt is None:
            base = self.timeout_s
        else:
            base = self.current_timeout()
        duration = base * st.backoff_v[idx]
        if duration > self.max_timeout_s:
            duration = self.max_timeout_s
        d = self.sim.now + duration
        st.deadline_v[idx] = d
        st.arm_seq_v[idx] = self._arm_counter
        self._arm_counter += 1
        if d < self._deadline_armed_at:
            self._rearm_singleton(d)

    def _rearm_singleton(self, d: float) -> None:
        ev = self._deadline_event
        if ev is not None:
            ev.cancel()
        self._deadline_armed_at = d
        self._deadline_event = self._schedule_at(d, self._run_deadlines)

    def _run_deadlines(self) -> None:
        """Singleton-timer callback (window path): drain every
        expired deadline in ``(deadline, arm_seq)`` order -- the order
        per-slot timers would have fired in -- then re-arm at the next
        earliest deadline.  Spurious wake-ups (the covered deadline was
        cleared by a result) simply re-arm."""
        self._deadline_event = None
        self._deadline_armed_at = _INF
        if not self._active:
            return
        st = self._st
        now = self.sim.now
        fired = 0
        due = st.due(now)
        if due.size:
            deadline = st.deadline_v
            for i in due.tolist():
                deadline[i] = _INF
                self._on_timeout(i)
                fired += 1
                if not self._active:
                    break
        if self._active:
            # _on_timeout -> _arm_deadline may already have re-armed;
            # ensure the singleton covers the pool-wide minimum
            md = st.min_deadline()
            if md < self._deadline_armed_at:
                self._rearm_singleton(md)
        if fired and self._tracer.enabled:
            self._tracer.emit(
                "burst.timeout", now, cat="burst", actor=self._actor, fired=fired,
            )

    def _cancel_timer(self, idx: int) -> None:
        timer = self._slot_timer[idx]
        if timer is not None:
            timer.cancel()
            self._slot_timer[idx] = None

    def _on_timeout(self, idx: int) -> None:
        """Algorithm 4's timeout handler: resend the same packet."""
        if not self._active:
            return
        original = self._slot_packet[idx]
        if original is None:
            return
        self.stats.timeouts += 1
        self._slot_retries[idx] += 1
        if self.max_retries is not None and self._slot_retries[idx] > self.max_retries:
            self._fail()
            return
        self._slot_retransmitted[idx] = True
        self._slot_backoff[idx] = min(64.0, self._slot_backoff[idx] * 2.0)
        # Resends are always freshly allocated, even with reuse_buffers:
        # a resend can be in flight concurrently with its original, so
        # the slot's reusable frame must not carry it.
        resend = SwitchMLPacket(
            wid=original.wid,
            ver=original.ver,
            idx=original.idx,
            off=original.off,
            num_elements=original.num_elements,
            vector=original.vector,
            is_retransmission=True,
            epoch=original.epoch,
            job_id=original.job_id,
        )
        frame = resend.to_frame(
            src=self.host.name, dst=self.switch_addr,
            bytes_per_element=self.bytes_per_element,
        )
        stats = self.stats
        stats.packets_sent += 1
        stats.retransmissions += 1
        self._h_retx_gap.observe(self.sim.now - self._slot_sent_at[idx])
        if self.trace is not None:
            self.trace.tick("resent", self.sim.now)
        if self._trace_packets and self._tracer.enabled:
            self._tracer.emit(
                "packet.retx", self.sim.now, cat="packet", actor=self._actor,
                slot=resend.idx, ver=resend.ver, off=resend.off,
            )
        self.host.send(frame)
        if self._coalesce:
            self._arm_deadline(idx)
        else:
            self._arm_timer(idx)

    def _deactivate(self) -> None:
        """Stop sending and retransmitting; shared by every stop path."""
        self._active = False
        self._cancel_all_timers()

    def _fail(self) -> None:
        """The *detector* path: this worker is alive but gives up because
        a peer (or the switch) appears gone (``max_retries`` exceeded).

        Sets ``failed``, stops acting, and -- being alive -- reports
        through ``on_failure`` so the framework / controller can tear the
        job down and restart from a checkpoint (the recovery model the
        paper assumes).  Contrast with :meth:`crash`.
        """
        if self.failed:
            return
        self.failed = True
        self._deactivate()
        if self.on_failure is not None:
            self.on_failure(self.wid)

    def crash(self) -> None:
        """Simulate this worker dying mid-aggregation (fail-stop).

        The *failure* path, unified with :meth:`_fail`'s teardown: both
        set the observable ``failed`` flag and stop all activity, but a
        crashed worker is dead -- it does NOT fire ``on_failure`` (a dead
        process cannot report its own death) and it stops heartbeating;
        peers and the control plane detect it via retransmission timeouts
        and missed heartbeats respectively.  ``crashed`` distinguishes
        the corpse from a live worker that merely gave up.  A later
        :meth:`start` revives it (the framework relaunching the process).
        """
        self.failed = True
        self.crashed = True
        self._deactivate()
        self._stop_heartbeats()

    def quiesce(self) -> None:
        """Control-plane pause: stop sending/retransmitting but keep all
        tensor and stream state (and keep heartbeating -- the worker is
        alive, just held back while the controller reconfigures the
        switch).  Resume with :meth:`start` (from a checkpoint) or
        :meth:`restart_from` (from a stream offset)."""
        self._deactivate()

    def reconfigure(
        self,
        wid: int | None = None,
        num_workers: int | None = None,
        epoch: int | None = None,
        pool_size: int | None = None,
    ) -> None:
        """Control-plane reconfiguration after a membership change.

        Only legal while not actively aggregating (quiesce first): the
        protocol identity (``wid``), group size, pool geometry, and epoch
        all feed packet construction and must not change mid-stream.
        """
        if self._active:
            raise RuntimeError(
                f"worker {self.wid}: quiesce before reconfiguring"
            )
        if wid is not None:
            self.wid = wid
        if num_workers is not None:
            self.n = num_workers
        if epoch is not None:
            self.epoch = epoch
        if pool_size is not None and pool_size != self.s:
            self.s = pool_size
            # fresh pool geometry: a fresh SoA core (backoff and versions
            # restart too -- the switch's registers were reinstalled)
            self._st = WorkerSlotState(pool_size)
            self._bind_slot_views()

    def _cancel_all_timers(self) -> None:
        for idx in range(len(self._slot_timer)):
            self._cancel_timer(idx)
        if self._deadline_event is not None:
            self._deadline_event.cancel()
            self._deadline_event = None
        self._deadline_armed_at = _INF
        if self._coalesce:
            self._st.clear_deadlines()

    # ------------------------------------------------------------------
    # Heartbeats (control plane)
    # ------------------------------------------------------------------
    def enable_heartbeats(self, interval_s: float) -> None:
        """Emit a :class:`Heartbeat` through the dataplane every
        ``interval_s`` seconds until :meth:`crash` (or
        :meth:`stop_heartbeats`).  Quiescing does not stop heartbeats."""
        if interval_s <= 0:
            raise ValueError("heartbeat interval must be positive")
        self.stop_heartbeats()
        self._hb_interval = interval_s
        self._hb_timer = self.sim.schedule(interval_s, self._heartbeat_tick)

    def stop_heartbeats(self) -> None:
        self._stop_heartbeats()

    def _stop_heartbeats(self) -> None:
        if self._hb_timer is not None:
            self._hb_timer.cancel()
            self._hb_timer = None

    def _heartbeat_tick(self) -> None:
        beat = Heartbeat(
            member=self.member_id,
            epoch=self.epoch,
            progress=self.stats.results_received,
        )
        self.host.send(
            beat.to_frame(src=self.host.name, dst=self.switch_addr,
                          flow_key=self.wid)
        )
        assert self._hb_interval is not None
        self._hb_timer = self.sim.schedule(self._hb_interval, self._heartbeat_tick)

    # ------------------------------------------------------------------
    # Stream checkpoint / replay (control plane)
    # ------------------------------------------------------------------
    def completed_prefix_elements(self) -> int:
        """Largest offset ``m`` (a multiple of ``k``) such that every
        chunk with ``off < m`` of the current (possibly interrupted)
        aggregation has been received.

        This is the worker-side stream state the controller replays from
        after a switch reboot: chunks below the prefix are intact;
        everything at or above it is re-sent.
        """
        if self._size == 0:
            return 0
        if self.done:
            return self._size
        if len(self._slot_off) == 0 or self._active_slots == 0:
            return self._base_off
        stride = self.k * self.s
        lowest_unreceived = self._size
        for idx in range(self._active_slots):
            if self._slot_packet[idx] is not None:
                low = self._slot_off[idx]
            else:
                # outstanding chunk consumed and the stripe either
                # advanced past the end (exhausted) or never re-armed
                nxt = self._slot_off[idx] + stride
                low = nxt if nxt < self._size else self._size
            lowest_unreceived = min(lowest_unreceived, low)
        return lowest_unreceived

    def restart_from(
        self, offset_elements: int, reset_versions: bool = False
    ) -> None:
        """Resume an interrupted aggregation from a chunk-aligned stream
        offset, keeping the tensor and all results below the offset.

        Used by switch-reboot recovery: membership is unchanged, so the
        already-aggregated prefix is still valid; the switch program was
        reinstalled fresh, so everything from ``offset_elements`` onward
        is re-streamed (chunks received beyond the prefix are simply
        re-aggregated to the same values).

        ``reset_versions`` restarts every slot stripe at pool version 0.
        The slot-version invariant is that all contributors to a pool use
        the same version for the same stripe; it survives a replay only
        if every peer's per-slot version counters agree at the restart
        offset.  Peers that stalled at different points before the
        failure (e.g. racks behind a flapped trunk while other racks kept
        streaming) violate that, and replaying into the fresh pool with
        mixed versions strands every slot half-seen on both versions.
        Since the recovery installs zeroed pools anyway, a fleet-wide
        version reset at the common offset restores the invariant.
        """
        if self._active:
            raise RuntimeError(f"worker {self.wid} already aggregating")
        if self._size == 0 or (self._tensor is None and not self._phantom):
            raise RuntimeError("no interrupted aggregation to resume")
        if offset_elements < 0 or offset_elements > self._size:
            raise ValueError(f"offset {offset_elements} outside tensor")
        if offset_elements % self.k:
            raise ValueError(
                f"offset {offset_elements} must be a multiple of k={self.k}"
            )
        total_packets = (self._size - offset_elements) // self.k
        active_slots = min(self.s, total_packets)
        self._remaining = total_packets
        self._reset_slot_state()
        if reset_versions:
            self._st.next_ver[:] = 0
        self.failed = False
        self.crashed = False
        self._base_off = offset_elements
        self._active_slots = active_slots
        self._active = True
        if total_packets == 0:
            self._finish()
            return
        if self._coalesce:
            self._outbox = []
        for i in range(active_slots):
            self._send_chunk(
                idx=i, ver=self._next_ver[i], off=offset_elements + self.k * i
            )
        self._flush_outbox()

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def on_frame(self, frame: Frame) -> None:
        if frame.corrupted:
            # SS3.4: checksum failure; discard and let the timeout recover.
            self.stats.corrupt_discarded += 1
            return
        packet = frame.message
        if not isinstance(packet, SwitchMLPacket) or not packet.from_switch:
            return
        self._on_result(packet)

    def on_frames(self, frames: list[Frame]) -> None:
        """Window-path RX entry: one call per group of frames the host
        dispatched in the same drain window, in arrival order.

        Every result goes through :meth:`_on_result`; the group changes
        only how the next chunks leave.  A group of ``_RX_BATCH_MIN`` or
        more results in fixed timeout mode opens the outbox, so its
        credits leave as one :meth:`Host.send_train`; smaller groups,
        and every group in adaptive mode, send each next chunk through
        :meth:`Host.send`.  Both give exact sums, but the two send forms
        are scheduled differently, so the threshold is part of the
        window path's schedule, not only a speed setting.  The trace
        record is one per-burst aggregate instead of per-packet events."""
        stats = self.stats
        results: list[SwitchMLPacket] = []
        for frame in frames:
            if frame.corrupted:
                # SS3.4: checksum failure; discard, timeout recovers
                stats.corrupt_discarded += 1
                continue
            packet = frame.message
            if isinstance(packet, SwitchMLPacket) and packet.from_switch:
                results.append(packet)
        # adaptive mode sends credit by credit at any group size; trains
        # there would move its pinned schedule
        if (
            len(results) >= self._RX_BATCH_MIN
            and self._active
            and self.timeout_mode == "fixed"
        ):
            self._outbox = []
        on_result = self._on_result
        for p in results:
            on_result(p)
        self._flush_outbox()
        if self._tracer.enabled:
            self._tracer.emit(
                "burst.rx", self.sim.now, cat="burst", actor=self._actor,
                frames=len(frames), results=len(results),
            )

    def _on_result(self, p: SwitchMLPacket) -> None:
        """The per-result hot path (one call per received result frame);
        locals are hoisted and instruments gated on the cached flags."""
        if not self._active:
            return
        stats = self.stats
        idx, off, ver = p.idx, p.off, p.ver
        # Stale results can arrive: a pre-reconfiguration result whose
        # slot coordinates belong to a previous pool geometry (epoch), or
        # e.g. a unicast retransmitted result racing with the multicast
        # copy.  The (off, ver) pair identifies the phase; anything not
        # matching the slot's outstanding chunk has already been consumed.
        # Epoch first: a stale-epoch idx may be out of range here.  The
        # outstanding chunk's coordinates are read off its packet object
        # (kept consistent with the SoA ``off``/``ver`` arrays by
        # _send_chunk): this check runs per received result, and a list
        # access plus attribute reads beat two NumPy scalar lookups.
        if p.epoch != self.epoch:
            outstanding = None
        else:
            outstanding = self._slot_packet[idx]
        if (
            outstanding is None
            or off != outstanding.off
            or ver != outstanding.ver
        ):
            stats.stale_results_ignored += 1
            return

        st = self._st
        if self._coalesce:
            st.deadline_v[idx] = _INF
        elif (timer := self._slot_timer[idx]) is not None:
            timer.cancel()
            self._slot_timer[idx] = None
        now = self.sim.now
        stats.results_received += 1
        rtt_sample = now - self._slot_sent_at[idx]
        stats.rtt_sum += rtt_sample
        stats.rtt_count += 1
        self._h_rtt.observe(rtt_sample)
        if self._trace_packets and self._tracer.enabled:
            self._tracer.emit(
                "packet.rx", now, cat="packet", actor=self._actor,
                slot=idx, ver=ver, off=off, rtt=rtt_sample,
            )
        if not self._slot_retransmitted[idx]:
            # Karn's rule: only unambiguous samples feed the estimator --
            # and only an unambiguous exchange clears the backoff
            # (RFC 6298 SS5.7: resetting it on a retransmitted exchange
            # lets a low-biased SRTT re-trigger the same spurious
            # timeout forever).  _observe_rtt's body, inlined: this runs
            # once per in-order result.
            st.rtt_sum_v[idx] += rtt_sample
            st.rtt_count_v[idx] += 1
            srtt = self._srtt
            if srtt is None:
                self._srtt = rtt_sample
                self._rttvar = rtt_sample / 2.0
            else:
                err = rtt_sample - srtt
                self._srtt = srtt + 0.125 * err
                self._rttvar += 0.25 * (abs(err) - self._rttvar)
            decayed = self._rtt_peak * 0.995
            self._rtt_peak = rtt_sample if rtt_sample > decayed else decayed
            self._slot_backoff[idx] = 1.0
        if not self._phantom and p.vector is not None:
            assert self._result is not None
            self._result[off : off + self.k] = p.vector
        self._slot_packet[idx] = None
        self._remaining -= 1

        next_off = off + self.k * self.s
        if next_off < self._size:
            self._send_chunk(idx, 1 - ver, next_off)
        elif self._remaining == 0:
            self._finish()

    def _flush_metrics(self) -> None:
        """Registry flusher: advance the ``worker_*_total`` counters by
        what ``stats`` gained since the last flush."""
        stats = self.stats
        totals = (
            stats.packets_sent, stats.retransmissions,
            stats.results_received, stats.stale_results_ignored,
        )
        for counter, total, seen in zip(self._m_counters, totals, self._m_flushed):
            counter.inc(total - seen)
        self._m_flushed = totals

    def _finish(self) -> None:
        # the group's queued credits leave before on_complete can
        # restart this worker
        self._flush_outbox()
        self._active = False
        self.stats.finish_time = self.sim.now
        self._st.tat_finish = self.sim.now
        self._h_tat.observe(self.stats.tensor_aggregation_time)
        if self._tracer.enabled:
            self._tracer.span(
                "worker.aggregate", self.stats.start_time, self.sim.now,
                cat="tat", actor=self._actor,
                packets=self.stats.packets_sent,
                retransmissions=self.stats.retransmissions,
            )
        self._cancel_all_timers()
        if self.on_complete is not None:
            self.on_complete(self.wid, self.sim.now)

    # ------------------------------------------------------------------
    @property
    def result(self) -> np.ndarray | None:
        """The aggregated tensor (valid once complete; None in phantom mode)."""
        return self._result

    @property
    def done(self) -> bool:
        return not self._active and not np.isnan(self.stats.finish_time)
