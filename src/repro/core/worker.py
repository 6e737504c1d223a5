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

from repro.core.packet import Heartbeat, SwitchMLPacket, to_frames
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

    #: smallest RX group the vectorized batch body takes; smaller groups
    #: replay the per-result loop (same sums, not the same schedule: see
    #: on_frames)
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

        if self._coalesce and active_slots > 1:
            idx = np.arange(active_slots)
            self._send_chunks(idx, self._st.next_ver[idx], self.k * idx)
        else:
            for i in range(active_slots):
                self._send_chunk(idx=i, ver=self._next_ver[i], off=self.k * i)

    def _bind_slot_views(self) -> None:
        """Alias the SoA core's scalar views -- same storage as its
        arrays, builtin values out -- for the one-slot-at-a-time code;
        the whole-batch bodies index ``self._st``'s ndarrays."""
        st = self._st
        self._slot_off = st.off_v
        self._slot_ver = st.ver_v
        self._slot_sent_at = st.sent_at_v
        self._slot_retransmitted = st.retransmitted_v
        self._slot_retries = st.retries_v
        # the window path mirrors "chunk in flight" into the SoA bool
        # column so the batch RX body can mask whole-batch instead of
        # touching the _slot_packet object column per frame
        self._slot_outstanding = st.outstanding_v
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
        if self._coalesce:
            self._slot_outstanding[idx] = True
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
        self.host.send(frame)
        if self._coalesce:
            self._arm_deadline(idx)
        else:
            self._arm_timer(idx)

    def _send_chunks(
        self, idx_a: np.ndarray, ver_a: np.ndarray, off_a: np.ndarray,
        arm: bool = True,
    ) -> None:
        """Batched :meth:`_send_chunk` over a slot group (window path).

        ``idx_a`` / ``ver_a`` / ``off_a`` are integer arrays, one entry
        per chunk in send order.  Per-slot bookkeeping replicates
        :meth:`_send_chunk` exactly; the fresh frames are built in one
        :func:`to_frames` call and the whole group leaves through
        :meth:`Host.send_train`, after which the deadlines are armed in
        send order -- unless ``arm=False``: the batch RX body computes
        the whole batch's deadlines vectorially after its sends.
        """
        now = self.sim.now
        host = self.host
        reuse = self.reuse_buffers
        phantom = self._phantom
        tensor = self._tensor
        k = self.k
        slot_buf = self._slot_buf
        slot_frame = self._slot_frame
        slot_packet = self._slot_packet
        st = self._st
        idx_l = idx_a.tolist()
        n = len(idx_l)
        frames: list[Frame | None] = [None] * n
        fresh_pos: list[int] = []
        fresh_packets: list[SwitchMLPacket] = []
        for pos, (idx, ver, off) in enumerate(
            zip(idx_l, ver_a.tolist(), off_a.tolist())
        ):
            if reuse and (packet := slot_buf[idx]) is not None:
                packet.ver = ver
                packet.off = off
                packet.vector = None if phantom else tensor[off : off + k]
                frame = slot_frame[idx]
                frame.corrupted = False
                frames[pos] = frame
            else:
                packet = SwitchMLPacket(
                    wid=self.wid,
                    ver=ver,
                    idx=idx,
                    off=off,
                    num_elements=k,
                    vector=None if phantom else tensor[off : off + k],
                    epoch=self.epoch,
                    job_id=self.job_id,
                )
                fresh_pos.append(pos)
                fresh_packets.append(packet)
            slot_packet[idx] = packet
        # SoA bookkeeping in one fancy-indexed pass per array (slots are
        # distinct within a train, so store order is unobservable)
        st.off[idx_a] = off_a
        st.ver[idx_a] = ver_a
        st.next_ver[idx_a] = 1 - ver_a
        st.outstanding[idx_a] = True
        st.sent_at[idx_a] = now
        st.retransmitted[idx_a] = False
        st.retries[idx_a] = 0
        if fresh_packets:
            built = to_frames(
                fresh_packets,
                src=host.name,
                dst=self.switch_addr,
                bytes_per_element=self.bytes_per_element,
            )
            for i, pos in enumerate(fresh_pos):
                frames[pos] = built[i]
                if reuse:
                    idx = idx_l[pos]
                    slot_buf[idx] = fresh_packets[i]
                    slot_frame[idx] = built[i]
        self.stats.packets_sent += n
        if self.trace is not None:
            tick = self.trace.tick
            for _ in range(n):
                tick("sent", now)
        host.send_train(frames)
        if arm:
            arm_deadline = self._arm_deadline
            for idx in idx_l:
                arm_deadline(idx)

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
        if self._coalesce and active_slots > 1:
            idx = np.arange(active_slots)
            self._send_chunks(
                idx, self._st.next_ver[idx], offset_elements + self.k * idx
            )
        else:
            for i in range(active_slots):
                self._send_chunk(
                    idx=i, ver=self._next_ver[i], off=offset_elements + self.k * i
                )

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

        Groups of ``_RX_BATCH_MIN`` or more results go through the
        vectorized batch body (:meth:`_on_results_batch`), whose next
        chunks leave as one :meth:`Host.send_train`; smaller groups (and
        the cases the batch body excludes) replay :meth:`_on_result`,
        which sends each next chunk through :meth:`Host.send`.  Both
        give exact sums, but the two send forms are scheduled
        differently, so the threshold is part of the window path's
        schedule, not only a speed setting.  The trace record is one
        per-burst aggregate instead of per-packet events."""
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
        if results:
            if len(results) < self._RX_BATCH_MIN or not self._active:
                on_result = self._on_result
                for p in results:
                    on_result(p)
            else:
                self._on_results_batch(results)
        if self._tracer.enabled:
            self._tracer.emit(
                "burst.rx", self.sim.now, cat="burst", actor=self._actor,
                frames=len(frames), results=len(results),
            )

    def _on_results_batch(self, pkts: list[SwitchMLPacket]) -> None:
        """Vectorized result consumption: the whole batch's stale
        filtering, timer clearing, RTT accounting, and next-chunk timer
        math run as array operations; only the per-chunk sends (and the
        order-sensitive Jacobson EWMA) remain loops.

        Two cases fall back to the exact per-result loop:

        * **adaptive timeout mode** -- there the EWMA feeds each send's
          RTO, and the per-result path interleaves (sample i, send i, sample
          i+1, ...); batching the samples ahead of the sends would skew
          the RTOs.  Fixed mode's RTO never reads the estimator, so
          batching is exact (per-slot backoff is reset before the
          slot's own send in both orders).
        * **the batch that completes the tensor** -- _finish() may
          restart the worker synchronously (next aggregation), and any
          frames after the completing result must observe the restarted
          state exactly as the sequential path would.
        """
        st = self._st
        m = len(pkts)
        epoch = self.epoch
        idx_a = np.array([p.idx for p in pkts], dtype=np.int64)
        off_a = np.array([p.off for p in pkts], dtype=np.int64)
        ver_a = np.array([p.ver for p in pkts], dtype=np.int64)
        # stale filtering: epoch first (a stale-epoch idx may be out of
        # range for this pool geometry), then the outstanding-phase match
        epochs = [p.epoch for p in pkts]
        if epochs.count(epoch) == m:
            valid = (
                st.outstanding[idx_a]
                & (off_a == st.off[idx_a])
                & (ver_a == st.ver[idx_a])
            )
        else:
            valid = np.zeros(m, dtype=bool)
            ok_i = (np.array(epochs) == epoch).nonzero()[0]
            if ok_i.size:
                ia = idx_a[ok_i]
                valid[ok_i] = (
                    st.outstanding[ia]
                    & (off_a[ok_i] == st.off[ia])
                    & (ver_a[ok_i] == st.ver[ia])
                )
        acc = valid.nonzero()[0]
        if acc.size > 1:
            # intra-batch duplicates for one slot (multicast racing a
            # unicast shadow read): first occurrence wins, the rest are
            # stale -- exactly what the sequential path does, because
            # consuming the first changes the slot's outstanding phase.
            # Duplicates are rare, so a set-size probe screens the batch
            # before paying for np.unique's sort.
            slots_acc = idx_a[acc]
            if len(set(slots_acc.tolist())) != slots_acc.size:
                uniq, first_pos = np.unique(slots_acc, return_index=True)
                acc = acc[np.sort(first_pos)]
        n_acc = int(acc.size)
        if n_acc and (self.timeout_mode != "fixed" or n_acc == self._remaining):
            on_result = self._on_result
            for p in pkts:
                on_result(p)
            return
        stats = self.stats
        n_stale = m - n_acc
        if n_stale:
            stats.stale_results_ignored += n_stale
        if not n_acc:
            return

        si = idx_a[acc]
        now = self.sim.now
        # timers: one masked store (the singleton timer re-arms lazily)
        st.deadline[si] = _INF
        samples = now - st.sent_at[si]
        stats.results_received += n_acc
        stats.rtt_sum += float(samples.sum())
        stats.rtt_count += n_acc
        self._h_rtt.observe_many(samples)
        # Karn's rule, whole-batch: unambiguous samples feed the per-slot
        # accumulators and clear the backoff; the scalar EWMA stays a
        # loop in arrival order (its fixed point depends on sample order)
        unamb = ~st.retransmitted[si]
        if np.count_nonzero(unamb):
            u_si = si[unamb]
            u_samples = samples[unamb]
            st.rtt_sum[u_si] += u_samples
            st.rtt_count[u_si] += 1
            st.backoff[u_si] = 1.0
            srtt = self._srtt
            rttvar = self._rttvar
            peak = self._rtt_peak
            for x in u_samples.tolist():
                if srtt is None:
                    srtt = x
                    rttvar = x / 2.0
                else:
                    err = x - srtt
                    srtt += 0.125 * err
                    rttvar += 0.25 * (abs(err) - rttvar)
                decayed = peak * 0.995
                peak = x if x > decayed else decayed
            self._srtt = srtt
            self._rttvar = rttvar
            self._rtt_peak = peak
        # consume: results land in the tensor, slots free up
        if not self._phantom:
            result = self._result
            k = self.k
            for j in acc.tolist():
                p = pkts[j]
                if p.vector is not None:
                    result[p.off : p.off + k] = p.vector
        st.outstanding[si] = False
        slot_packet = self._slot_packet
        for i in si.tolist():
            slot_packet[i] = None
        self._remaining -= n_acc

        # next-chunk sends, in the arrival order of their credits.  The
        # completing batch was routed to the fallback above, so every
        # accepted result either advances its slot or retires it --
        # _finish() can never trigger here.
        next_off = off_a[acc] + self.k * self.s
        send_pos = (next_off < self._size).nonzero()[0]
        if not send_pos.size:
            return
        # batch timer math: send the frames without arming, then compute
        # every deadline in one vector op and re-arm the singleton once
        sent_slots = si[send_pos]
        self._send_chunks(
            sent_slots, 1 - ver_a[acc[send_pos]], next_off[send_pos], arm=False
        )
        dur = self.timeout_s * st.backoff[sent_slots]
        np.minimum(dur, self.max_timeout_s, out=dur)
        deadlines = now + dur
        st.deadline[sent_slots] = deadlines
        c = self._arm_counter
        st.arm_seq[sent_slots] = np.arange(c, c + sent_slots.size)
        self._arm_counter = c + int(sent_slots.size)
        dmin = float(deadlines.min())
        if dmin < self._deadline_armed_at:
            self._rearm_singleton(dmin)

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
        timer = self._slot_timer[idx]
        if timer is not None:
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
            self._rtt_peak = max(rtt_sample, self._rtt_peak * 0.995)
            self._slot_backoff[idx] = 1.0
        if not self._phantom and p.vector is not None:
            assert self._result is not None
            self._result[off : off + self.k] = p.vector
        self._slot_packet[idx] = None
        if self._coalesce:
            self._slot_outstanding[idx] = False
        self._remaining -= 1

        next_off = off + self.k * self.s
        if next_off < self._size:
            self._send_chunk(idx=idx, ver=1 - ver, off=next_off)
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
